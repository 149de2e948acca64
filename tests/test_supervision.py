"""The pool's one failure policy: watchdog, backoff, quarantine, park.

Everything here runs against the seeded fault-injection harness
(:mod:`repro.streaming.faultinject`), so each scenario fails at the same
operation every run.  The differential discipline of the fault suite
applies throughout: whenever a fault is recoverable, the final matches
must be byte-identical to the single-process oracle — supervision is
allowed to cost time, never bytes.  The policy's numbers are module
constants; the tests here shorten them with ``monkeypatch``.
"""

from __future__ import annotations

import inspect
import multiprocessing
import os
import signal
import time

import pytest

from repro import Session
from repro.streaming import (
    Fault,
    FaultPlan,
    PoisonOpError,
    PoolError,
    ShardWorkerPool,
    StreamRouter,
    Supervisor,
    deterministic_stats,
    match_report,
)
from repro.streaming import pool as pool_module
from repro.streaming.checkpoint import from_bytes
from repro.streaming import supervision
from repro.streaming.pool import START_METHOD
from repro.workloads.streams import bench_scenario, interleave_feeds

GROUPS = ((8, 4), (12, 7))

#: Tight supervision so hang scenarios resolve in test time.
FAST = {"HANG_AFTER": 0.6, "BACKOFF_BASE": 0.01, "BACKOFF_CAP": 0.03}


@pytest.fixture(autouse=True)
def fast_supervision(monkeypatch):
    for name, value in FAST.items():
        monkeypatch.setattr(supervision, name, value)


@pytest.fixture
def one_death_parks(monkeypatch):
    """No restart budget: the first death of a worker parks it, before a
    second death on the same operation could quarantine that."""
    monkeypatch.setattr(pool_module, "MAX_RESTARTS", 0)


def scenario(seed, num_feeds=4, frames=60):
    feeds, queries = bench_scenario(num_feeds, frames, GROUPS, 2, seed)
    return feeds, queries, list(interleave_feeds(feeds))


def oracle_report(queries, events, batch_size=5):
    """Whole-fleet canonical report bytes of the fault-free router."""
    router = StreamRouter(queries, batch_size=batch_size)
    router.route_many(events)
    router.flush()
    return match_report(
        {sid: router.matches_for(sid) for sid in router.stream_ids()}
    )


def oracle_per_stream(queries, events, batch_size=5):
    """Per-stream canonical report bytes (degraded-mode comparisons)."""
    router = StreamRouter(queries, batch_size=batch_size)
    router.route_many(events)
    router.flush()
    return {
        sid: match_report({sid: router.matches_for(sid)})
        for sid in router.stream_ids()
    }


def make_pool(queries, workers=2, **kwargs):
    kwargs.setdefault("dispatch_batch", 8)
    kwargs.setdefault("checkpoint_every", 4)
    return ShardWorkerPool(
        StreamRouter(queries, batch_size=5), num_workers=workers, **kwargs
    )


def deliver(delivered, drained):
    """Append one drain's matches to the per-``(query, stream)`` lists."""
    for matches in drained.values():
        for match in matches:
            delivered.setdefault(
                (match.query_id, match.stream_id), []
            ).append(match.to_record())


def pool_report(pool):
    return match_report(
        {sid: pool.matches_for(sid) for sid in pool.stream_ids()}
    )


class TestPolicy:
    def test_no_failure_policy_is_settable(self):
        """The pool and the session take sizing only, and a session
        checkpoint records nothing else of how it serves."""
        assert list(inspect.signature(ShardWorkerPool).parameters) == [
            "router", "num_workers", "dispatch_batch", "checkpoint_every",
        ]
        assert list(inspect.signature(Session).parameters) == [
            "backend", "method", "batch_size", "watermark", "enable_pruning",
            "restrict_labels", "num_workers", "dispatch_batch",
            "checkpoint_every", "queries",
        ]
        with Session(backend="router") as session:
            payload = from_bytes(session.checkpoint(), expect_kind="session")
        assert set(payload["config"]) == {
            "backend", "num_workers", "dispatch_batch", "checkpoint_every",
        }

    def test_constants_are_read_when_used(self, monkeypatch):
        supervisor = Supervisor(1)
        assert supervisor.assess(0, 0.7, 0.7) == "hung"
        assert supervisor.poisoned(2) and not supervisor.poisoned(1)
        monkeypatch.setattr(supervision, "HANG_AFTER", 30.0)
        monkeypatch.setattr(supervision, "POISON_THRESHOLD", 3)
        assert supervisor.assess(0, 0.7, 0.7) == "healthy"
        assert not supervisor.poisoned(2)

    def test_backoff_doubles_up_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(supervision, "BACKOFF_BASE", 0.1)
        monkeypatch.setattr(supervision, "BACKOFF_CAP", 1.0)
        supervisor = Supervisor(1)
        delays = [supervisor.backoff(n) for n in (1, 2, 3, 4, 5, 10)]
        assert delays == [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]
        assert supervisor.stats()["backoff_seconds_total"] == 3.5

    def test_assess_tiers(self):
        supervisor = Supervisor(1)
        assert supervisor.assess(0, None, 99.0) == "healthy"
        assert supervisor.assess(0, 0.01, 0.01) == "healthy"
        # Hung needs BOTH a stuck oldest op and no ack progress: a worker
        # chewing a deep queue while acks keep flowing is healthy.
        assert supervisor.assess(0, 0.7, 0.01) == "healthy"
        assert supervisor.assess(0, 0.7, 0.3) == "healthy"
        assert supervisor.assess(0, 0.7, 0.7) == "hung"


class TestSupervisorLedger:
    def test_ledger_tracks_incidents_per_worker_and_in_total(self):
        supervisor = Supervisor(2)
        supervisor.record_escalation(1)
        supervisor.record_restart(1, "hang")
        supervisor.record_restart(1, "crash")
        supervisor.record_recovery(1, 0.5)
        supervisor.record_recovery(0, 0.25)
        supervisor.record_checkpoint_failure(0)
        supervisor.record_quarantine()
        supervisor.record_park(1)
        ledger = supervisor.stats()
        assert [worker["state"] for worker in ledger["workers"]] == [
            "healthy", "parked"
        ]
        assert ledger["workers"][1]["escalations"] == 1
        assert ledger["workers"][1]["restarts"] == {"hang": 1, "crash": 1}
        assert ledger["checkpoint_failures"] == 1
        assert ledger["quarantines"] == 1
        assert ledger["recovery"] == {
            "count": 2, "max_seconds": 0.5, "mean_seconds": 0.375,
        }
        supervisor.record_repair(1)
        assert supervisor.stats()["workers"][1]["state"] == "healthy"


class TestWatchdog:
    @pytest.mark.slow
    def test_hung_worker_is_detected_and_escalated(self):
        """A mid-operation hang is detected within a small multiple of
        HANG_AFTER, killed, and recovered byte-identically."""
        seed = 71
        feeds, queries, events = scenario(seed, num_feeds=2, frames=50)
        expected = oracle_report(queries, events)
        plan = FaultPlan(
            [Fault("hang", 0, after_ops=3)], seed=seed,
        )
        pool = make_pool(queries, workers=1)
        try:
            with plan.install():
                pool.start()
                start = time.monotonic()
                pool.route_many(events)
                pool.flush()
                elapsed = time.monotonic() - start
            assert plan.fire_counts()[0] == 1, "the hang never fired"
            assert pool.restarts >= 1
            ledger = pool.stats()["pool"]["supervision"]
            assert ledger["workers"][0]["escalations"] >= 1
            assert ledger["workers"][0]["restarts"].get("hang", 0) >= 1
            # Detection latency: the watchdog runs inside the pump loop, so
            # the hang costs about HANG_AFTER plus replay — far below the
            # no-watchdog outcome (forever).  Generous bound for slow CI.
            assert elapsed < 30.0, f"escalation took {elapsed:.1f}s"
            assert pool_report(pool) == expected
        finally:
            pool.terminate()

    @pytest.mark.slow
    def test_stalled_result_queue_recovers(self, monkeypatch):
        """A wedged result pipe looks like a hang to the parent: acks stop
        while the worker keeps eating ops, the backpressure loop blocks,
        and the watchdog must recover it rather than wait forever.  A tiny
        ``MAX_INFLIGHT`` makes the parent hit that wall within the test's
        workload."""
        seed = 79
        feeds, queries, events = scenario(seed, num_feeds=2, frames=40)
        expected = oracle_report(queries, events)
        # Every frames op stalls until the fire ledger runs dry (4 total):
        # acks stop dead while the worker keeps consuming, exactly what a
        # wedged pipe looks like from the parent's side.
        plan = FaultPlan(
            [Fault("stall", 0, op_kind="frames", fires=4)], seed=seed,
        )
        monkeypatch.setattr(pool_module, "MAX_INFLIGHT", 2)
        pool = make_pool(queries, workers=1)
        try:
            with plan.install():
                pool.start()
                pool.route_many(events)
                pool.flush()
            assert plan.fire_counts()[0] >= 1, "the stall never fired"
            assert pool.restarts >= 1
            ledger = pool.stats()["pool"]["supervision"]
            assert ledger["workers"][0]["restarts"].get("hang", 0) >= 1
            assert pool_report(pool) == expected
        finally:
            pool.terminate()

    def test_single_swallowed_ack_is_healed_by_cumulative_progress(self):
        """One lost ack mid-stream must NOT cost a restart: the next ack
        advances the cumulative watermark past the hole, and the leaked
        inflight entry is forgiven.  Supervision only escalates when
        progress actually stops."""
        seed = 79
        feeds, queries, events = scenario(seed, num_feeds=2, frames=40)
        expected = oracle_report(queries, events)
        plan = FaultPlan([Fault("stall", 0, after_ops=4)], seed=seed)
        pool = make_pool(queries, workers=1)
        try:
            with plan.install():
                pool.start()
                pool.route_many(events)
                pool.flush()
            assert plan.fire_counts()[0] == 1
            assert pool.restarts == 0, "a healed stall must not restart"
            assert pool_report(pool) == expected
        finally:
            pool.terminate()

    def test_slow_worker_is_not_restarted(self, monkeypatch):
        seed = 83
        feeds, queries, events = scenario(seed, num_feeds=2, frames=40)
        expected = oracle_report(queries, events)
        plan = FaultPlan(
            [Fault("slow", 0, after_ops=2, delay=0.3, fires=2)], seed=seed,
        )
        # Slow ops below HANG_AFTER cost time, never a restart.
        monkeypatch.setattr(supervision, "HANG_AFTER", 30.0)
        pool = make_pool(queries, workers=1)
        try:
            with plan.install():
                pool.start()
                pool.route_many(events)
                pool.flush()
            assert pool.restarts == 0, "slow ops must not trigger restarts"
            assert pool_report(pool) == expected
        finally:
            pool.terminate()


class TestIdleParentWatchdog:
    @pytest.mark.slow
    def test_idle_parent_escalates_hung_worker_via_tick(self):
        """The watchdog bugfix pin: a worker hangs while the parent is
        *idle* — no flush, no caller blocked in the pump — and the
        supervision tick alone must detect and escalate it."""
        seed = 97
        feeds, queries, events = scenario(seed, num_feeds=2, frames=50)
        expected = oracle_report(queries, events)
        plan = FaultPlan(
            [Fault("hang", 0, op_kind="frames", after_ops=2)], seed=seed,
        )
        pool = make_pool(queries, workers=1, dispatch_batch=16)
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
            assert pool_report(pool) == expected
        finally:
            pool.terminate()


    def test_tick_requires_a_running_pool(self):
        feeds, queries, events = scenario(17, num_feeds=2, frames=10)
        pool = make_pool(queries, workers=2)
        with pytest.raises(PoolError):
            pool.tick()
        pool.start()
        pool.stop()
        with pytest.raises(PoolError):
            pool.tick()


def _serve_then_idle(queries, events, conn):
    """Child-process body: run a pool, report its worker pids, then idle."""
    pool = make_pool(queries)
    pool.start()
    pool.route_many(events)
    pool.flush()
    conn.send(pool.worker_pids())
    time.sleep(60)


def _running(pid):
    """Whether ``pid`` names a live process (a zombie does not count)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:  # no procfs: kill(0) is all there is to go on
        return True


class TestLiveness:
    """Acknowledgements are the workers' only liveness signal."""

    def test_workers_send_one_message_per_operation(self, monkeypatch):
        """A fault-free run, idle spell included, puts only acks, answers
        and the final stops on the result queues, one ack per logged op."""
        received = []
        on_message = ShardWorkerPool._on_message

        def recording(pool, worker, message):
            received.append((worker.index, message[0], message[2]))
            return on_message(pool, worker, message)

        monkeypatch.setattr(ShardWorkerPool, "_on_message", recording)
        feeds, queries, events = scenario(41, num_feeds=4, frames=40)
        with make_pool(queries) as pool:
            pool.route_many(events[:80])
            time.sleep(0.6)  # longer than any wait of an idle worker
            pool.tick()
            pool.route_many(events[80:])
            pool.flush()
            pool.drain_matches()
            ops = pool.stats()["pool"]["ops_dispatched"]
        kinds = {kind for _, kind, _ in received}
        assert kinds == {"ack", "answer", "stopped"}
        acks = [(index, seq) for index, kind, seq in received if kind == "ack"]
        assert len(acks) == ops
        assert len(set(acks)) == len(acks), "an op was acked twice"
        assert sum(kind == "stopped" for _, kind, _ in received) == 2

    def test_orphaned_workers_exit(self):
        """Workers whose parent was SIGKILLed do not outlive it."""
        feeds, queries, events = scenario(43, num_feeds=2, frames=20)
        ctx = multiprocessing.get_context(START_METHOD)
        receiver, sender = ctx.Pipe(duplex=False)
        parent = ctx.Process(
            target=_serve_then_idle, args=(queries, events, sender),
        )
        parent.start()
        pids = []
        try:
            assert receiver.poll(30.0), "the pool never started"
            pids = receiver.recv()
            assert all(_running(pid) for pid in pids)
            os.kill(parent.pid, signal.SIGKILL)
            parent.join()
            deadline = time.monotonic() + 10.0
            while (any(_running(pid) for pid in pids)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            left = [pid for pid in pids if _running(pid)]
            assert not left, f"orphaned workers {left} still run"
        finally:
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            if parent.is_alive():
                parent.kill()
                parent.join()


class TestQuarantine:
    def test_poison_op_is_quarantined_without_burning_the_budget(self):
        """One op that SIGKILLs its worker on every replay is quarantined
        at the threshold, the pool stays healthy, and the next drain
        raises PoisonOpError exactly once."""
        seed = 89
        feeds, queries, events = scenario(seed, num_feeds=2, frames=50)
        # A poison *input*: the op carrying this frame dies on every
        # replay (the trigger is content-stable across restarts), so the
        # blame lands on one operation and quarantine can cut it out.
        poison_sid, poison_frame = events[10][0], events[10][1].frame_id
        plan = FaultPlan(
            [Fault("sigkill", 0, frame=(poison_sid, poison_frame),
                   fires=0)],
            seed=seed,
        )
        pool = make_pool(queries, workers=1)
        try:
            with plan.install():
                pool.start()
                pool.route_many(events)
                pool.flush()
            quarantined = pool.quarantined
            assert len(quarantined) == 1
            record = quarantined[0]
            assert record["kind"] == "crash"
            # Blame lands on the op that carried the poison frame.
            assert record["op"] == "frames"
            assert poison_sid in record["streams"]
            assert record["crashes"] == supervision.POISON_THRESHOLD
            assert not pool.degraded, "quarantine must keep the pool up"
            # The streak was cut at the threshold, below the restart
            # budget, instead of burning the whole budget.
            assert pool.restarts <= supervision.POISON_THRESHOLD \
                <= pool_module.MAX_RESTARTS
            with pytest.raises(PoisonOpError) as excinfo:
                pool.drain_matches()
            assert excinfo.value.records[0]["op_seq"] == record["op_seq"]
            pool.drain_matches()  # raised exactly once; the pool serves on
            assert pool.stats()["quarantined"] == quarantined
        finally:
            pool.terminate()

    def test_a_quarantined_last_op_leaves_the_pool_settled(self):
        """A poison flush is never acked; once it is quarantined and the
        drains are done, nothing can arrive, so an idle session poll may
        skip the pool."""
        seed = 89
        feeds, queries, events = scenario(seed, num_feeds=2, frames=30)
        plan = FaultPlan(
            [Fault("sigkill", 0, op_kind="flush", fires=0)], seed=seed,
        )
        pool = make_pool(queries, workers=1)
        try:
            with plan.install():
                pool.start()
                pool.route_many(events)
                pool.flush()
                assert len(pool.quarantined) == 1
                assert pool.quarantined[0]["op"] == "flush"
                with pytest.raises(PoisonOpError):
                    pool.drain_matches()
                pool.drain_matches()
                assert pool.settled
        finally:
            pool.terminate()


@pytest.mark.usefixtures("one_death_parks")
class TestDegradedMode:
    def _park_pool(self, seed, queries, events):
        """Drive a 2-worker pool into degraded mode via a poison frame on
        worker 0; returns (pool, parked) with the plan uninstalled."""
        poison_stream, poison_frame = events[0][0], events[0][1].frame_id
        plan = FaultPlan(
            [Fault("sigkill", 0, frame=(poison_stream, poison_frame),
                   fires=0)],
            seed=seed,
        )
        pool = make_pool(queries, workers=2)
        with plan.install():
            pool.start()
            pool.route_many(events)
            pool.flush()
        assert pool.degraded
        return pool, pool.parked_streams()

    def test_surviving_streams_serve_byte_identical_results(self):
        seed = 101
        feeds, queries, events = scenario(seed, num_feeds=4, frames=50)
        oracle = oracle_per_stream(queries, events)
        pool, parked = self._park_pool(seed, queries, events)
        try:
            assert parked, "no stream was parked"
            healthy = [s for s in pool.stream_ids() if s not in parked]
            assert healthy, "degraded mode parked every stream"
            for sid in healthy:
                assert match_report({sid: pool.matches_for(sid)}) == \
                    oracle[sid], f"healthy stream {sid} diverged"
            for sid, record in parked.items():
                assert record["kind"] == "restart-budget"
                assert pool.matches_for(sid) == []
            health = pool.stream_health()
            assert all(
                health[sid]["state"] == "parked" for sid in parked
            ) and all(
                health[sid]["state"] == "healthy" for sid in healthy
            )
            stats = pool.stats()
            assert stats["pool"]["degraded"] is True
            assert set(stats["parked"]) == set(parked)
        finally:
            pool.terminate()

    def test_parked_streams_are_the_dead_workers_share(self):
        """The streams parked with worker 0 are exactly the first-seen
        streams k with k mod 2 == 0."""
        seed = 101
        feeds, queries, events = scenario(seed, num_feeds=4, frames=50)
        pool, parked = self._park_pool(seed, queries, events)
        try:
            assert set(parked) == set(pool.stream_ids()[0::2])
            assert all(record["worker"] == 0 for record in parked.values())
        finally:
            pool.terminate()

    def test_repair_round_trip_restores_the_full_report(self):
        """Park under a live poison plan, then repair with the plan gone
        (the operator cleared the cause): the journaled backlog replays
        and every stream — parked included — ends byte-identical."""
        seed = 103
        feeds, queries, events = scenario(seed, num_feeds=4, frames=50)
        expected = oracle_report(queries, events)
        pool, parked = self._park_pool(seed, queries, events)
        try:
            revived = pool.repair()
            assert sorted(revived) == sorted(parked)
            assert not pool.degraded
            assert all(
                entry["state"] == "healthy"
                for entry in pool.stream_health().values()
            )
            pool.flush()
            assert pool_report(pool) == expected
            assert pool.repair() == [], "repair must be idempotent"
        finally:
            pool.terminate()

    def test_repair_replay_delivers_the_journaled_matches(self):
        """Worker 0 parks mid-stream, after acking frames whose matches
        were drained.  The acks of repair()'s replay deliver the matches
        of the journaled frames; replayed acks the parent already took
        deliver nothing twice."""
        seed = 109
        feeds, queries, events = scenario(seed, num_feeds=4, frames=50)
        oracle = StreamRouter(queries, batch_size=5)
        oracle.route_many(events)
        oracle.flush()
        expected, got = {}, {}
        deliver(expected, oracle.drain_matches())
        half = len(events) // 2
        # Worker 0 owns the even positions of first-seen order.
        on_worker0 = list(dict.fromkeys(sid for sid, _ in events))[0::2]
        stream_id, frame = next(
            (sid, frame) for sid, frame in events[half:] if sid in on_worker0
        )
        plan = FaultPlan(
            [Fault("sigkill", 0, frame=(stream_id, frame.frame_id), fires=0)],
            seed=seed,
        )
        pool = make_pool(queries, workers=2)
        try:
            with plan.install():
                pool.start()
                pool.route_many(events[:half])
                pool.flush()
                deliver(got, pool.drain_matches())
                pool.route_many(events[half:])
                pool.flush()
                deliver(got, pool.drain_matches())
            assert pool.degraded
            assert got != expected, "the parked worker's matches came early"
            assert pool.repair() == on_worker0
            pool.flush()
            deliver(got, pool.drain_matches())
            assert got == expected
        finally:
            pool.terminate()

    def test_repair_drops_matches_of_a_query_cancelled_while_parked(self):
        """A query cancelled while worker 0 is parked: the replay of the
        frames journaled before the cancellation produces its matches, and
        repair() drops them, as the router drops undrained matches of a
        cancelled query."""
        seed = 109
        feeds, queries, events = scenario(seed, num_feeds=4, frames=50)
        doomed = queries[0].query_id
        half = len(events) // 2
        oracle = StreamRouter(queries, batch_size=5)
        oracle.route_many(events[:half])
        oracle.flush()
        expected, got = {}, {}
        deliver(expected, oracle.drain_matches())
        oracle.route_many(events[half:])
        oracle.cancel_query(doomed)
        oracle.flush()
        deliver(expected, oracle.drain_matches())
        on_worker0 = list(dict.fromkeys(sid for sid, _ in events))[0::2]
        stream_id, frame = next(
            (sid, frame) for sid, frame in events[half:] if sid in on_worker0
        )
        plan = FaultPlan(
            [Fault("sigkill", 0, frame=(stream_id, frame.frame_id), fires=0)],
            seed=seed,
        )
        pool = make_pool(queries, workers=2)
        try:
            with plan.install():
                pool.start()
                pool.route_many(events[:half])
                pool.flush()
                deliver(got, pool.drain_matches())
                pool.route_many(events[half:])
                pool.flush()
            assert pool.degraded
            pool.cancel_query(doomed)
            assert pool.repair() == on_worker0
            pool.flush()
            deliver(got, pool.drain_matches())
            assert got == expected
        finally:
            pool.terminate()

    def test_degraded_pool_refuses_global_barriers(self):
        seed = 107
        feeds, queries, events = scenario(seed, num_feeds=4, frames=50)
        pool, parked = self._park_pool(seed, queries, events)
        try:
            with pytest.raises(PoolError, match="degraded"):
                pool.stop()
        finally:
            pool.terminate()



class TestRandomizedDifferential:
    """The differential guarantee under fuzzed recoverable fault plans:
    any plan FaultPlan.random returns must leave final matches AND
    deterministic stats byte-identical to the fault-free run."""

    @pytest.mark.parametrize("seed", range(3))
    def test_random_recoverable_plan_is_byte_identical(self, seed):
        feeds, queries, events = scenario(seed + 200, num_feeds=3, frames=50)
        oracle = StreamRouter(queries, batch_size=5)
        oracle.route_many(events)
        oracle.flush()
        expected = match_report(
            {sid: oracle.matches_for(sid) for sid in oracle.stream_ids()}
        )
        plan = FaultPlan.random(seed, workers=2)
        pool = make_pool(queries, workers=2)
        try:
            with plan.install():
                pool.start()
                pool.route_many(events)
                pool.flush()
            assert pool_report(pool) == expected, (
                f"plan {plan.faults!r} changed the results"
            )
            assert deterministic_stats(pool.stats()) == \
                deterministic_stats(oracle.stats()), (
                    f"plan {plan.faults!r} changed deterministic stats"
                )
        finally:
            pool.terminate()


class TestSessionFaultSurface:
    def _events(self, seed, num_feeds=4, frames=40):
        feeds, queries, events = scenario(seed, num_feeds, frames)
        return events

    def _poison_plan(self, events, seed):
        stream_id, frame = events[0]
        return FaultPlan(
            [Fault("sigkill", 0, frame=(stream_id, frame.frame_id),
                   fires=0)],
            seed=seed,
        ), stream_id

    def _pool_session(self):
        return Session(
            backend="pool",
            batch_size=5,
            num_workers=2,
            dispatch_batch=8,
            checkpoint_every=4,
        )

    @pytest.mark.usefixtures("one_death_parks")
    def test_degraded_session_reports_per_stream_health_and_faults(self):
        seed = 211
        events = self._events(seed)
        plan, poison_stream = self._poison_plan(events, seed)
        with plan.install():
            session = self._pool_session()
        handle = session.register("car >= 1", window=8, duration=4)
        with plan.install():
            session.ingest_many(events)
            session.flush()
            session.drain()
        health = session.stream_health()
        parked = [s for s, entry in health.items() if entry["state"] != "healthy"]
        assert poison_stream in parked
        assert health[poison_stream]["kind"] == "restart-budget"
        faults = session.stats()["faults"]
        assert faults and faults[0]["kind"] == "restart-budget"
        assert poison_stream in faults[0]["streams"]
        assert handle.faults() == faults, "faults must map onto the handle"
        # Degraded close must not raise, and the final snapshot survives.
        session.close()
        final = session.stats()
        assert final["faults"] == faults
        assert final["stream_health"][poison_stream]["state"] == "parked"

    @pytest.mark.usefixtures("one_death_parks")
    def test_session_repair_revives_parked_streams(self):
        seed = 223
        events = self._events(seed)
        plan, poison_stream = self._poison_plan(events, seed)
        oracle = Session(backend="inline")
        oracle.register("car >= 1", window=8, duration=4)
        oracle.ingest_many(events)
        oracle.flush()
        expected = match_report(oracle.drain())
        oracle.close()
        with plan.install():
            session = self._pool_session()
        session.register("car >= 1", window=8, duration=4)
        drained = {}
        with plan.install():
            session.ingest_many(events)
            session.flush()
            for sid, matches in session.drain().items():
                drained.setdefault(sid, []).extend(matches)
        assert session.stream_health()[poison_stream]["state"] == "parked"
        # The plan is uninstalled now: repair replays the journal clean.
        revived = session.repair()
        assert poison_stream in revived
        assert session.stream_health()[poison_stream]["state"] == "healthy"
        session.flush()
        for sid, matches in session.drain().items():
            drained.setdefault(sid, []).extend(matches)
        # Parked streams drain after their healthy siblings, so canonicalise
        # the stream order before comparing bytes.
        assert match_report(
            {sid: drained[sid] for sid in sorted(drained)}
        ) == expected
        session.close()

    def test_broken_session_close_never_raises(self):
        """A worker that raises inside an operation breaks the pool; close
        records the failure, terminates the workers and does not raise."""
        events = self._events(227, num_feeds=2)
        session = self._pool_session()
        handle = session.register("car >= 1", window=8, duration=4)
        session.ingest_many(events[:20])
        pool = session._pool
        pool._send_op(pool._workers[0], ("no-such-op",))
        with pytest.warns(RuntimeWarning, match="could not flush"):
            session.close()
        assert session.closed
        assert not pool.started
        final = session.stats()
        assert final["backend_stats"] is None, "broken pool cannot report"
        (fault,) = final["faults"]
        assert fault["kind"] == "crash"
        assert "unknown worker operation 'no-such-op'" in fault["detail"]
        assert handle.faults() == final["faults"]

    def test_poison_quarantine_surfaces_once_then_drains(self):
        seed = 229
        events = self._events(seed, num_feeds=2)
        plan, _ = self._poison_plan(events, seed)
        with plan.install():
            session = self._pool_session()
        handle = session.register("car >= 1", window=8, duration=4)
        with plan.install():
            session.ingest_many(events)
            session.flush()
            drained = session.drain()  # absorbs PoisonOpError, re-drains
        assert isinstance(drained, dict)
        faults = [f for f in handle.faults() if f["kind"] == "poison"]
        assert len(faults) == 1
        assert faults[0]["records"][0]["crashes"] == 2
        # The pool stayed healthy: later lifecycle works and close is clean.
        assert all(
            entry["state"] == "healthy"
            for entry in session.stream_health().values()
        )
        session.close()
        assert session.stats()["backend_stats"] is not None
