"""Fault injection for the shard worker pool: crashes, restarts, misuse.

Workers are SIGKILLed mid-stream (between and inside batches); the pool
must restore the dead worker's shards from its last periodic checkpoint,
replay the unacked operation tail, and still end byte-identical to the
single-process oracle.  Misuse — routing a pooled stream on the origin
router, driving a pool that is not running — must fail loudly rather than
fork stream state.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.streaming import (
    Fault,
    FaultPlan,
    PoolError,
    ShardWorkerPool,
    StreamRouter,
    WorkerCrashError,
    match_report,
)
from repro.streaming.checkpoint import to_bytes
from repro.workloads.streams import bench_scenario, interleave_feeds

GROUPS = ((8, 4), (12, 7))


def scenario(seed, num_feeds=4, frames=80):
    feeds, queries = bench_scenario(num_feeds, frames, GROUPS, 2, seed)
    return feeds, queries, list(interleave_feeds(feeds))


def oracle_report(queries, events, batch_size=5):
    router = StreamRouter(queries, batch_size=batch_size)
    router.route_many(events)
    router.flush()
    return match_report(
        {sid: router.matches_for(sid) for sid in router.stream_ids()}
    )


def make_pool(queries, workers=2, **kwargs):
    kwargs.setdefault("dispatch_batch", 8)
    kwargs.setdefault("checkpoint_every", 4)
    return ShardWorkerPool(
        StreamRouter(queries, batch_size=5), num_workers=workers, **kwargs
    )


def kill_worker(pool, index):
    """SIGKILL one worker and wait for its process to end, so the pool's
    next call finds it dead (a drain sends no op that would block on a
    worker whose death is not yet visible)."""
    process = pool._workers[index].process
    os.kill(process.pid, signal.SIGKILL)
    process.join(5)
    assert not process.is_alive()


class TestCrashRecovery:
    @pytest.mark.parametrize("seed", range(2))
    def test_sigkill_mid_stream_recovers_to_oracle_results(self, seed):
        feeds, queries, events = scenario(seed)
        expected = oracle_report(queries, events)
        pool = make_pool(queries, workers=2)
        pool.start()
        try:
            third = len(events) // 3
            pool.route_many(events[:third])
            pool.checkpoint_now()
            pool.route_many(events[third:2 * third])
            kill_worker(pool, seed % 2)
            pool.route_many(events[2 * third:])
            pool.flush()
            assert pool.restarts >= 1, f"seed={seed}: crash went unnoticed"
            actual = match_report(
                {sid: pool.matches_for(sid) for sid in pool.stream_ids()}
            )
            assert actual == expected, (
                f"seed={seed}: results diverged after crash recovery"
            )
        finally:
            pool.terminate()

    @pytest.mark.parametrize("live_at_start", [False, True], ids=["empty", "live"])
    def test_sigkill_before_any_checkpoint_replays_from_scratch(
        self, live_at_start
    ):
        """With no periodic checkpoint yet, the worker comes back from its
        start slice — empty, or holding the live shards it was started
        with — and recovery replays the whole op log."""
        seed = 23
        feeds, queries, events = scenario(seed, num_feeds=2, frames=50)
        expected = oracle_report(queries, events)
        quarter = len(events) // 4 if live_at_start else 0
        router = StreamRouter(queries, batch_size=5)
        router.route_many(events[:quarter])
        assert len(router.shards()) == (2 if live_at_start else 0)
        # checkpoint_every high enough that no periodic snapshot happens
        # before the kill: the start slice is the recovery base.
        pool = ShardWorkerPool(
            router, num_workers=1, dispatch_batch=8, checkpoint_every=10_000
        )
        pool.start()
        try:
            pool.route_many(events[quarter:len(events) // 2])
            pool.flush()
            assert pool.stats()["pool"]["checkpoints_taken"] == 0
            kill_worker(pool, 0)
            pool.route_many(events[len(events) // 2:])
            pool.flush()
            assert pool.restarts == 1
            actual = match_report(
                {sid: pool.matches_for(sid) for sid in pool.stream_ids()}
            )
            assert actual == expected, f"seed={seed}"
        finally:
            pool.terminate()

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_workers_killed_right_after_start_come_back_from_their_slices(
        self, workers
    ):
        """Every worker dies before its first operation: each respawns from
        its start slice, so the merged document still equals the origin's
        before start(), and the run ends as the oracle's."""
        seed = 59
        feeds, queries, events = scenario(seed, num_feeds=4, frames=40)
        expected = oracle_report(queries, events)
        half = len(events) // 2
        router = StreamRouter(queries, batch_size=5)
        router.route_many(events[:half])
        before = to_bytes("router", router.checkpoint())
        pool = ShardWorkerPool(
            router, num_workers=workers, dispatch_batch=8, checkpoint_every=4
        )
        pool.start()
        try:
            for index in range(workers):
                kill_worker(pool, index)
            assert to_bytes("router", pool.checkpoint_router()) == before, (
                f"seed={seed} workers={workers}"
            )
            assert pool.restarts == workers
            pool.route_many(events[half:])
            pool.flush()
            assert match_report(
                {sid: pool.matches_for(sid) for sid in pool.stream_ids()}
            ) == expected, f"seed={seed} workers={workers}"
        finally:
            pool.terminate()

    def test_sigkill_during_stop_still_hands_state_back(self):
        seed = 29
        feeds, queries, events = scenario(seed, num_feeds=3, frames=60)
        expected = oracle_report(queries, events)
        pool = make_pool(queries, workers=2)
        pool.start()
        pool.route_many(events)
        pool.flush()
        kill_worker(pool, 1)
        router = pool.stop()
        assert pool.restarts >= 1
        assert match_report(
            {sid: router.matches_for(sid) for sid in router.stream_ids()}
        ) == expected, f"seed={seed}"

    def test_restart_budget_exhaustion_raises(self):
        seed = 31
        feeds, queries, events = scenario(seed, num_feeds=2, frames=40)
        pool = make_pool(queries, workers=1, max_restarts=0)
        pool.start()
        try:
            pool.route_many(events[:20])
            kill_worker(pool, 0)
            with pytest.raises(WorkerCrashError):
                pool.route_many(events[20:])
                pool.flush()
        finally:
            pool.terminate()

    def test_replayed_acks_release_backpressure_slots(self):
        """Regression: replay-duplicate acks must still clear ``inflight``.

        With a long unackpointed tail (checkpoint_every huge) and a small
        ``max_inflight``, recovery re-adds every logged sequence to the
        inflight set; if the replayed (duplicate) acks do not discard them,
        the next route() livelocks in the backpressure loop forever.
        """
        seed = 61
        feeds, queries, events = scenario(seed, num_feeds=2, frames=60)
        expected = oracle_report(queries, events)
        pool = make_pool(
            queries, workers=1, dispatch_batch=4,
            checkpoint_every=10_000, max_inflight=8,
        )
        pool.start()
        alarm = signal.signal(signal.SIGALRM, signal.default_int_handler)
        signal.alarm(60)  # a regression here hangs; fail loudly instead
        try:
            pool.route_many(events[:len(events) // 2])
            pool.flush()
            kill_worker(pool, 0)
            pool.route_many(events[len(events) // 2:])
            pool.flush()
            assert pool.restarts == 1
            assert match_report(
                {sid: pool.matches_for(sid) for sid in pool.stream_ids()}
            ) == expected, f"seed={seed}"
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, alarm)
            pool.terminate()

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(2))
    def test_repeated_kills_across_both_workers(self, seed):
        """Several crashes, different workers, drains in between."""
        feeds, queries, events = scenario(seed + 50, num_feeds=4, frames=90)
        oracle = StreamRouter(queries, batch_size=5)
        oracle.route_many(events)
        oracle.flush()
        expected_drain = oracle.drain_matches()
        pool = make_pool(queries, workers=2, checkpoint_every=3)
        pool.start()
        try:
            quarter = len(events) // 4
            drained = {}
            pool.route_many(events[:quarter])
            kill_worker(pool, 0)
            pool.route_many(events[quarter:2 * quarter])
            for sid, matches in pool.drain_matches().items():
                drained.setdefault(sid, []).extend(matches)
            kill_worker(pool, 1)
            pool.route_many(events[2 * quarter:3 * quarter])
            kill_worker(pool, 0)
            pool.route_many(events[3 * quarter:])
            pool.flush()
            for sid, matches in pool.drain_matches().items():
                drained.setdefault(sid, []).extend(matches)
            assert pool.restarts >= 3, f"seed={seed}"
            # Interleaving drains with crashes must never lose or duplicate
            # a match: the union of drains equals one oracle drain.
            assert match_report(
                {sid: drained[sid] for sid in oracle.stream_ids() if sid in drained}
            ) == match_report(expected_drain), f"seed={seed}"
        finally:
            pool.terminate()


class TestScriptedFaults:
    """FaultPlan-driven crashes: deterministic, in-process, mid-operation.

    ``kill_worker`` murders from outside at whatever instant the test
    reaches the call; the scripted plans below die at an exact operation
    *inside* the worker, every run, so recovery is exercised at a fixed
    point in the batch pipeline.
    """

    def test_scripted_mid_batch_sigkill_recovers_to_oracle(self):
        seed = 61
        feeds, queries, events = scenario(seed, num_feeds=2, frames=60)
        expected = oracle_report(queries, events)
        # Die exactly while applying the frames op that carries the middle
        # frame of the first stream — mid-batch, not between dispatches.
        mid = events[len(events) // 2]
        plan = FaultPlan(
            [Fault("sigkill", 0, frame=(mid[0], mid[1].frame_id))],
            seed=seed,
        )
        pool = make_pool(queries, workers=1)
        try:
            with plan.install():
                pool.start()
                pool.route_many(events)
                pool.flush()
            assert plan.fire_counts()[0] == 1, "the scripted kill never fired"
            assert pool.restarts >= 1
            assert match_report(
                {sid: pool.matches_for(sid) for sid in pool.stream_ids()}
            ) == expected
        finally:
            pool.terminate()

    def test_scripted_kills_on_both_workers_recover_independently(self):
        seed = 67
        feeds, queries, events = scenario(seed, num_feeds=4, frames=60)
        expected = oracle_report(queries, events)
        plan = FaultPlan(
            [
                Fault("sigkill", 0, op_kind="frames", after_ops=3),
                Fault("sigkill", 1, op_kind="frames", after_ops=5),
            ],
            seed=seed,
        )
        pool = make_pool(queries, workers=2)
        try:
            with plan.install():
                pool.start()
                pool.route_many(events)
                pool.flush()
            fired = plan.fire_counts()
            assert fired[0] == 1 and fired[1] == 1
            assert pool.restarts >= 2
            assert match_report(
                {sid: pool.matches_for(sid) for sid in pool.stream_ids()}
            ) == expected
        finally:
            pool.terminate()


class TestHandOffErrorPaths:
    def test_routing_a_pooled_stream_on_the_origin_raises(self):
        feeds, queries, events = scenario(41, num_feeds=2, frames=30)
        router = StreamRouter(queries, batch_size=5)
        router.route_many(events[:20])
        pool = ShardWorkerPool(router, num_workers=1)
        pool.start()
        try:
            stream_id, frame = events[20]
            with pytest.raises(ValueError):
                router.route(stream_id, frame)
        finally:
            pool.terminate()

    def test_the_origin_stays_handed_off_after_stop(self):
        """stop() returns a new router holding the shards; the router the
        pool was built on never grows one back."""
        feeds, queries, events = scenario(43, num_feeds=2, frames=30)
        router = StreamRouter(queries, batch_size=5)
        router.route_many(events[:20])
        pool = ShardWorkerPool(router, num_workers=2)
        pool.start()
        pool.route_many(events[20:40])
        resumed = pool.stop()
        assert resumed is not router and router.shards() == {}
        stream_id, frame = events[40]
        with pytest.raises(ValueError):
            router.route(stream_id, frame)
        resumed.route(stream_id, frame)

    def test_lifecycle_misuse_raises(self):
        feeds, queries, events = scenario(53, num_feeds=2, frames=20)
        pool = make_pool(queries, workers=1)
        with pytest.raises(PoolError):
            pool.route(*events[0])  # not started
        pool.start()
        try:
            with pytest.raises(PoolError):
                pool.start()  # double start
        finally:
            pool.stop()
        with pytest.raises(PoolError):
            pool.route(*events[0])  # stopped
        with pytest.raises(PoolError):
            pool.start()  # no reuse after stop


class TestBrokenPoolCause:
    def test_require_running_chains_the_worker_crash(self):
        """The PoolError raised on a broken pool carries the recorded
        WorkerCrashError (worker index, op sequence, pending ops) as its
        cause instead of discarding it."""
        feeds, queries, events = scenario(53, num_feeds=2, frames=40)
        pool = make_pool(
            queries, workers=1, dispatch_batch=16, max_restarts=0
        )
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
