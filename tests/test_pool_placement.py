"""Load-aware placement, live stream migration, and pool-restore layouts.

The placement contract has two halves.  *Semantics*: where a stream lands —
and whether it is migrated mid-flight, even racing a SIGKILL — never
changes a single byte of matches, deterministic stats or report order
(pinned differentially against the single-process router oracle).
*Load*: under a skewed workload the least-loaded policy and live
rebalancing strictly reduce the max/mean worker-load ratio.  Checkpoints
persist the assignment map, so a restored pool reproduces the exact worker
layout (or remaps deterministically / fails loudly when it cannot).
"""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.streaming import (
    LeastLoadedPlacement,
    PoolError,
    RoundRobinPlacement,
    ShardWorkerPool,
    StreamRouter,
    WorkerCrashError,
    WorkerLoad,
    deterministic_stats,
    match_report,
    remap_assignment,
)
from repro.streaming.placement import resolve_placement
from repro.workloads.streams import (
    bench_scenario,
    interleave_feeds,
    interleave_skewed,
    skewed_scenario,
)

GROUPS = ((8, 4), (12, 7))


def scenario(seed, num_feeds=4, frames=60, jitter=0):
    feeds, queries = bench_scenario(num_feeds, frames, GROUPS, 2, seed)
    events = list(interleave_feeds(feeds, jitter=jitter, seed=seed))
    return feeds, queries, events


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


class TestPlacementPolicies:
    def test_round_robin_matches_first_seen_modulo(self):
        policy = RoundRobinPlacement()
        loads = [
            WorkerLoad(index=i, streams=s, frames=0, queue_depth=0)
            for i, s in enumerate((2, 1, 1))
        ]
        # 4 streams assigned so far, 3 workers -> next lands on worker 1.
        assert policy.place("new", loads) == 1

    def test_least_loaded_picks_fewest_frames_then_streams_then_index(self):
        policy = LeastLoadedPlacement()
        loads = [
            WorkerLoad(index=0, streams=1, frames=90, queue_depth=0),
            WorkerLoad(index=1, streams=1, frames=10, queue_depth=5),
            WorkerLoad(index=2, streams=3, frames=10, queue_depth=1),
        ]
        # Queue depth is timing-dependent and monitoring-only: the ranking
        # must ignore it (worker 1 wins on stream count despite the
        # deeper queue).
        assert policy.place("new", loads) == 1
        tie = [
            WorkerLoad(index=0, streams=0, frames=0, queue_depth=9),
            WorkerLoad(index=1, streams=0, frames=0, queue_depth=0),
        ]
        assert policy.place("new", tie) == 0

    def test_least_loaded_rebalance_isolates_the_hot_stream(self):
        policy = LeastLoadedPlacement()
        assignment = {"hot": 0, "s1": 1, "s2": 0, "s3": 1}
        loads = {"hot": 400, "s1": 100, "s2": 100, "s3": 100}
        plan = policy.rebalance(assignment, loads, 2)
        # Heaviest-first packing: hot alone on 0, every sibling on 1.
        assert plan == {"s2": 1}

    def test_rebalance_plans_nothing_for_a_balanced_layout(self):
        """The pack is ownership-aware: equal bins prefer the current
        owner, so an already-even layout never pays a gratuitous swap."""
        policy = LeastLoadedPlacement()
        assignment = {"s0": 0, "s1": 1, "s2": 0, "s3": 1}
        loads = {"s0": 4, "s1": 10, "s2": 10, "s3": 4}  # 14 vs 14
        assert policy.rebalance(assignment, loads, 2) == {}

    def test_round_robin_rebalance_is_static(self):
        assert RoundRobinPlacement().rebalance({"a": 0}, {"a": 99}, 2) == {}

    def test_rebalance_leaves_unknown_load_streams_in_place(self):
        """Zero/unknown loads carry no signal: re-packing on them would
        herd every stream onto worker 0."""
        policy = LeastLoadedPlacement()
        assignment = {"s0": 0, "s1": 1, "s2": 2, "s3": 0, "s4": 1, "s5": 2}
        assert policy.rebalance(assignment, {}, 3) == {}
        # Streams with load are re-packed; unknown ones still stay put.
        plan = policy.rebalance(assignment, {"s0": 10, "s1": 10}, 3)
        assert "s2" not in plan and "s5" not in plan

    def test_unknown_policy_name_rejected(self):
        with pytest.raises(ValueError, match="unknown placement policy"):
            resolve_placement("warmest-core")

    @pytest.mark.parametrize("bad_index", (7, 1.5, None, True))
    def test_pool_rejects_bad_policy_decisions(self, bad_index):
        """Out-of-range, float, None or bool policy output all fail with a
        PoolError naming the policy — never an opaque TypeError later."""
        class Rogue(RoundRobinPlacement):
            name = "rogue"

            def place(self, stream_id, loads):
                return bad_index

        feeds, queries, events = scenario(3, num_feeds=2, frames=20)
        pool = make_pool(queries, workers=2, placement=Rogue())
        pool.start()
        try:
            with pytest.raises(PoolError, match="rogue"):
                pool.route(*events[0])
        finally:
            pool.terminate()


class TestLeastLoadedDifferential:
    @pytest.mark.parametrize("workers", (2, 3))
    @pytest.mark.parametrize("seed", range(2))
    def test_least_loaded_placement_is_byte_identical(self, workers, seed):
        """Placement never changes results — only where the work runs."""
        feeds, queries, events = scenario(seed)
        oracle = run_oracle(queries, events, batch_size=5)
        pool = make_pool(queries, workers=workers, placement="least-loaded")
        pool.start()
        try:
            pool.route_many(events)
            pool.flush()
            assert pool.stream_ids() == oracle.stream_ids()
            assert pool_report(pool) == oracle_report(oracle), (
                f"seed={seed} workers={workers}: match report diverged"
            )
            assert stats_bytes(pool.stats()) == stats_bytes(oracle.stats()), (
                f"seed={seed} workers={workers}: deterministic stats diverged"
            )
        finally:
            pool.terminate()

    def test_skewed_load_imbalance_strictly_improves(self):
        """The acceptance scenario: hot stream at 4x, least-loaded's
        max/mean worker-load ratio strictly below round-robin's, matches
        byte-identical throughout."""
        feeds, queries, hot = skewed_scenario(4, 40, GROUPS, 2, seed=11)
        events = interleave_skewed(feeds, hot, hot_factor=4)
        oracle = run_oracle(queries, events, batch_size=5)
        expected = oracle_report(oracle)
        ratios = {}
        for placement in ("round-robin", "least-loaded"):
            pool = make_pool(queries, workers=2, placement=placement)
            pool.start()
            try:
                pool.route_many(events)
                pool.flush()
                assert pool_report(pool) == expected, placement
                frames = [load["frames"] for load in pool.worker_loads()]
                ratios[placement] = max(frames) / (sum(frames) / len(frames))
            finally:
                pool.terminate()
        assert ratios["least-loaded"] < ratios["round-robin"], ratios


class TestLiveMigration:
    @pytest.mark.parametrize("workers", (2, 3))
    @pytest.mark.parametrize("seed", range(3))
    def test_randomized_migrations_are_byte_identical(self, workers, seed):
        """Mid-stream migrations at random points, random streams, random
        targets: matches, stats and report order equal the unmigrated
        single-process run byte for byte."""
        import random

        feeds, queries, events = scenario(seed, num_feeds=4, frames=70)
        oracle = run_oracle(queries, events, batch_size=5)
        rng = random.Random(seed * 31 + 7)
        cut_points = sorted(
            rng.sample(range(len(events) // 4, len(events)), 4)
        )
        pool = make_pool(queries, workers=workers)
        pool.start()
        try:
            previous = 0
            for cut in cut_points:
                pool.route_many(events[previous:cut])
                previous = cut
                streams = pool.stream_ids()
                stream = streams[rng.randrange(len(streams))]
                pool.migrate_stream(stream, rng.randrange(workers))
            pool.route_many(events[previous:])
            pool.flush()
            assert pool.stream_ids() == oracle.stream_ids(), f"seed={seed}"
            assert pool_report(pool) == oracle_report(oracle), (
                f"seed={seed} workers={workers}: migrated run diverged"
            )
            assert stats_bytes(pool.stats()) == stats_bytes(oracle.stats()), (
                f"seed={seed} workers={workers}: stats diverged after "
                "migrations"
            )
        finally:
            pool.terminate()

    def test_migration_with_jitter_and_mid_stream_drain(self):
        """Reorder buffers travel with the shard: a migration between
        drains, under jittered arrival, loses and duplicates nothing."""
        seed = 19
        feeds, queries, events = scenario(seed, jitter=3)
        oracle = StreamRouter(queries, batch_size=4, watermark=3)
        oracle.route_many(events[: len(events) // 2])
        oracle_first = oracle.drain_matches()
        oracle.route_many(events[len(events) // 2:])
        oracle.flush()
        oracle_second = oracle.drain_matches()

        pool = ShardWorkerPool(
            StreamRouter(queries, batch_size=4, watermark=3),
            num_workers=2, dispatch_batch=16, checkpoint_every=4,
        )
        pool.start()
        try:
            pool.route_many(events[: len(events) // 2])
            first = pool.drain_matches()
            for stream_id in pool.stream_ids()[:2]:
                pool.migrate_stream(stream_id, 1)
            pool.route_many(events[len(events) // 2:])
            pool.flush()
            second = pool.drain_matches()
            assert match_report(first) == match_report(oracle_first)
            assert match_report(second) == match_report(oracle_second)
            assert stats_bytes(pool.stats()) == stats_bytes(oracle.stats())
        finally:
            pool.terminate()

    @pytest.mark.parametrize("kill_side", ("source", "target"))
    def test_migration_racing_a_sigkill(self, kill_side):
        """A worker SIGKILLed immediately after a migration: the op-logged
        expel/adopt pair replays and the run stays byte-identical."""
        seed = 23
        feeds, queries, events = scenario(seed, num_feeds=4, frames=70)
        oracle = run_oracle(queries, events, batch_size=5)
        pool = make_pool(queries, workers=2, checkpoint_every=3)
        pool.start()
        try:
            third = len(events) // 3
            pool.route_many(events[:third])
            moved = pool.stream_ids()[0]
            source = pool.assignment()[moved]
            target = 1 - source
            assert pool.migrate_stream(moved, target)
            victim = source if kill_side == "source" else target
            os.kill(pool.worker_pids()[victim], signal.SIGKILL)
            pool.route_many(events[third:])
            pool.flush()
            assert pool.restarts >= 1
            assert pool_report(pool) == oracle_report(oracle), (
                f"kill_side={kill_side}: migration + crash diverged"
            )
            assert stats_bytes(pool.stats()) == stats_bytes(oracle.stats())
        finally:
            pool.terminate()

    def test_migration_survives_stop_and_checkpoint(self):
        """After migrations, stop() adopts everything back and the live
        merged checkpoint restores byte-identically."""
        seed = 29
        feeds, queries, events = scenario(seed)
        oracle = run_oracle(queries, events, batch_size=5)
        pool = make_pool(queries, workers=2)
        pool.start()
        half = len(events) // 2
        pool.route_many(events[:half])
        for stream_id in pool.stream_ids():
            pool.migrate_stream(stream_id, 0)  # everything onto worker 0
        pool.route_many(events[half:])
        pool.flush()
        document = pool.checkpoint_router()
        restored = StreamRouter.from_checkpoint(document)
        assert oracle_report(restored) == oracle_report(oracle)
        router = pool.stop()
        assert router.stream_ids() == oracle.stream_ids()
        assert oracle_report(router) == oracle_report(oracle)
        assert stats_bytes(router.stats()) == stats_bytes(oracle.stats())

    def test_migration_misuse_raises(self):
        feeds, queries, events = scenario(31, num_feeds=2, frames=30)
        pool = make_pool(queries, workers=2)
        pool.start()
        try:
            pool.route_many(events[:10])
            stream = pool.stream_ids()[0]
            assert pool.migrate_stream(stream, pool.assignment()[stream]) is False
            with pytest.raises(PoolError, match="unknown stream"):
                pool.migrate_stream("no-such-cam", 0)
            with pytest.raises(PoolError, match="workers 0..1"):
                pool.migrate_stream(stream, 2)
        finally:
            pool.terminate()

    def test_migration_moves_load_history_with_the_stream(self):
        """A worker's load signal is the sum of its *owned* streams' loads:
        after migrating the hot stream, new placements must see the load on
        the new owner (and match what a restored pool would compute)."""
        feeds, queries, hot = skewed_scenario(3, 30, GROUPS, 2, seed=71)
        events = interleave_skewed(feeds, hot, hot_factor=4)
        pool = make_pool(queries, workers=2, placement="least-loaded")
        pool.start()
        try:
            pool.route_many(events[: len(events) // 2])
            source = pool.assignment()[hot]
            target = 1 - source
            before = {l["index"]: l["frames"] for l in pool.worker_loads()}
            assert pool.migrate_stream(hot, target)
            after = {l["index"]: l["frames"] for l in pool.worker_loads()}
            hot_frames = sum(
                1 for sid, _ in events[: len(events) // 2] if sid == hot
            )
            assert after[source] == before[source] - hot_frames
            assert after[target] == before[target] + hot_frames
            # Live signals now equal what a restore would re-seed from the
            # checkpointed per-stream history and assignment.
            document = pool.checkpoint_router()
            restored = ShardWorkerPool.from_checkpoint(
                document, dispatch_batch=16
            )
            restored.start()
            try:
                assert {
                    l["index"]: l["frames"] for l in restored.worker_loads()
                } == after
            finally:
                restored.terminate()
        finally:
            pool.terminate()

    def test_expel_of_fully_retired_stream_keeps_first_seen_slot(self):
        """Expelling a stream whose every group was retired moves nothing
        and must not drop its persistent first-seen slot — a later revival
        would otherwise re-enter at the end of the order, diverging from an
        uninterrupted run."""
        feeds, queries, events = scenario(73, num_feeds=2, frames=30)
        router = StreamRouter(queries, batch_size=5)
        router.route_many(events)
        router.flush()
        order = router.stream_ids()
        for query in queries:  # retire every group's shards
            router.cancel_query(query.query_id)
        assert router.stream_ids() == order
        assert router.expel(order[0]) == []
        assert router.stream_ids() == order, (
            "shardless expel dropped the stream's first-seen slot"
        )
        with pytest.raises(KeyError):
            router.expel("never-seen")

    def test_rebalance_applies_least_loaded_plan(self):
        feeds, queries, hot = skewed_scenario(4, 30, GROUPS, 2, seed=37)
        events = interleave_skewed(feeds, hot, hot_factor=4)
        oracle = run_oracle(queries, events, batch_size=5)
        pool = make_pool(queries, workers=2)  # round-robin default
        pool.start()
        try:
            half = len(events) // 2
            pool.route_many(events[:half])
            assert pool.rebalance() == {}  # own policy is static
            plan = pool.rebalance(policy="least-loaded")
            assert plan, "skewed workload should trigger migrations"
            assert pool.migrations == len(plan)
            pool.route_many(events[half:])
            pool.flush()
            assert pool_report(pool) == oracle_report(oracle)
            assert stats_bytes(pool.stats()) == stats_bytes(oracle.stats())
        finally:
            pool.terminate()


class TestPersistedAssignment:
    def test_checkpoint_carries_placement_and_restore_reproduces_layout(self):
        feeds, queries, events = scenario(41)
        pool = make_pool(queries, workers=3, placement="least-loaded")
        pool.start()
        pool.route_many(events)
        pool.flush()
        pool.migrate_stream(pool.stream_ids()[0], 2)
        document = pool.checkpoint_router()
        layout = pool.assignment()
        block = document["placement"]
        assert block["policy"] == "least-loaded"
        assert block["num_workers"] == 3
        assert block["assignment"] == [
            [sid, idx] for sid, idx in layout.items()
        ]
        # Load history travels too, in assignment order.
        assert [sid for sid, _ in block["stream_frames"]] == list(layout)
        assert sum(frames for _, frames in block["stream_frames"]) == \
            len(events)
        restored = ShardWorkerPool.from_checkpoint(document, dispatch_batch=16)
        restored.start()
        try:
            assert restored.assignment() == layout
            assert restored.placement.name == "least-loaded"
            # The restored pool plans rebalances from the persisted loads —
            # identical signals, identical (possibly empty) plan; it must
            # never herd streams onto worker 0 for lack of history.
            assert restored.rebalance() == pool.rebalance()
        finally:
            restored.terminate()
        pool.terminate()

    def test_restore_with_fewer_workers_remaps_deterministically(self):
        feeds, queries, events = scenario(43)
        pool = make_pool(queries, workers=3)
        pool.start()
        pool.route_many(events)
        pool.flush()
        document = pool.checkpoint_router()
        layout = pool.assignment()
        pool.terminate()
        restored = ShardWorkerPool.from_checkpoint(
            document, num_workers=2, dispatch_batch=16
        )
        restored.start()
        try:
            assert restored.assignment() == {
                sid: idx % 2 for sid, idx in layout.items()
            }
        finally:
            restored.terminate()

    def test_impossible_layouts_fail_loudly(self):
        assert remap_assignment({"a": 5}, 2) == {"a": 1}
        with pytest.raises(PoolError, match="negative"):
            remap_assignment({"a": -1}, 2)
        with pytest.raises(PoolError, match="not a worker index"):
            remap_assignment({"a": "zero"}, 2)
        with pytest.raises(PoolError, match="not a worker index"):
            remap_assignment({"a": True}, 2)
        with pytest.raises(PoolError, match="does not serve"):
            remap_assignment({"ghost": 0}, 2, known_streams=["a", "b"])

    def test_non_integer_num_workers_in_block_is_a_checkpoint_error(self):
        from repro.streaming import CheckpointError

        feeds, queries, events = scenario(83, num_feeds=2, frames=10)
        pool = make_pool(queries, workers=2)
        pool.start()
        document = pool.checkpoint_router()
        pool.terminate()
        document["placement"]["num_workers"] = "four"
        with pytest.raises(CheckpointError, match="not an integer"):
            ShardWorkerPool.from_checkpoint(document)

    def test_stream_frames_without_assignment_is_rejected(self):
        """Load history is seeded per the persisted layout; without one it
        would be silently dropped, so the constructor refuses it."""
        feeds, queries, events = scenario(79, num_feeds=2, frames=10)
        with pytest.raises(PoolError, match="requires assignment"):
            ShardWorkerPool(
                StreamRouter(queries, batch_size=5),
                num_workers=2,
                stream_frames={"cam-00": 100},
            )

    def test_restore_with_unknown_stream_in_assignment_raises_at_start(self):
        feeds, queries, events = scenario(47, num_feeds=2, frames=20)
        pool = make_pool(queries, workers=2)
        pool.start()
        pool.route_many(events)
        pool.flush()
        document = pool.checkpoint_router()
        pool.terminate()
        document["placement"]["assignment"].append(["phantom-cam", 0])
        restored = ShardWorkerPool.from_checkpoint(document, dispatch_batch=16)
        with pytest.raises(PoolError, match="phantom-cam"):
            restored.start()
        # The layout is validated before any worker spawns: a rejected
        # restore must not leak child processes.
        assert restored._workers == []
        restored.terminate()


class TestSkewedScenario:
    def test_skewed_scenario_shapes(self):
        feeds, queries, hot = skewed_scenario(3, 20, GROUPS, 2, seed=1)
        assert hot == "cam-00"
        assert feeds[hot].num_frames == 80
        assert all(
            feeds[sid].num_frames == 20 for sid in feeds if sid != hot
        )
        events = interleave_skewed(feeds, hot, hot_factor=4, stagger=2)
        assert len(events) == 80 + 2 * 20
        # The hot stream leads; sibling k first appears at round k*stagger.
        assert events[0][0] == hot
        first_seen = {}
        for position, (stream_id, _) in enumerate(events):
            first_seen.setdefault(stream_id, position)
        assert list(first_seen) == ["cam-00", "cam-01", "cam-02"]
        # Per-stream frame ids stay strictly increasing (no reordering).
        last = {}
        for stream_id, frame in events:
            assert last.get(stream_id, -1) < frame.frame_id
            last[stream_id] = frame.frame_id

    def test_skewed_scenario_validation(self):
        with pytest.raises(ValueError, match="at least two feeds"):
            skewed_scenario(1, 20, GROUPS, 2, seed=1)
        with pytest.raises(ValueError, match="hot_factor"):
            skewed_scenario(3, 20, GROUPS, 2, seed=1, hot_factor=1)


class TestBrokenPoolCause:
    def test_require_running_chains_the_worker_crash(self):
        """The PoolError raised on a broken pool carries the recorded
        WorkerCrashError (worker index, op sequence, pending ops) as its
        cause instead of discarding it."""
        feeds, queries, events = scenario(53, num_feeds=2, frames=40)
        pool = make_pool(queries, workers=1, max_restarts=0)
        pool.start()
        try:
            pool.route_many(events[:20])
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            with pytest.raises(WorkerCrashError) as crash_info:
                pool.route_many(events[20:])
                pool.flush()
            crash = crash_info.value
            assert crash.worker_index == 0
            assert crash.exitcode == -signal.SIGKILL
            assert crash.op_seq is not None
            with pytest.raises(PoolError) as broken_info:
                pool.route(*events[0])
            assert broken_info.value.__cause__ is crash
            assert "worker 0" in str(broken_info.value)
        finally:
            pool.terminate()
