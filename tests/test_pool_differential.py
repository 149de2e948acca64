"""Differential suite: ShardWorkerPool vs the in-process StreamRouter.

The pool's contract is byte-identity, not mere equivalence: for any worker
count, matches, deterministic statistics and report order must equal what
the single-process router produces over the same event sequence.  Workloads
are randomized (seeds in every failure message) and cover multi-group
queries, jittered arrival, mid-stream draining, and the merged hand-back
of a graceful stop.
"""

from __future__ import annotations

import json
import os
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FrameObservation, Q, Session
from repro.streaming import (
    Fault,
    FaultPlan,
    ShardWorkerPool,
    StreamRouter,
    deterministic_stats,
    match_report,
)
from repro.streaming.checkpoint import from_bytes, to_bytes
from repro.workloads.streams import bench_scenario, interleave_feeds

#: Worker counts the differential property is pinned at.
WORKER_COUNTS = (1, 2, 4)

#: Window groups of the randomized scenarios (small enough to stay fast).
GROUPS = ((8, 4), (12, 7))


def scenario(seed, num_feeds=3, frames=60, jitter=0):
    """Feeds, queries and the interleaved event list for one random case."""
    feeds, queries = bench_scenario(num_feeds, frames, GROUPS, 2, seed)
    events = list(interleave_feeds(feeds, jitter=jitter, seed=seed))
    return feeds, queries, events


def run_oracle(queries, events, **router_kwargs):
    """The single-process reference run."""
    router = StreamRouter(queries, **router_kwargs)
    router.route_many(events)
    router.flush()
    return router


def make_pool(queries, workers, **router_kwargs):
    return ShardWorkerPool(
        StreamRouter(queries, **router_kwargs),
        num_workers=workers,
        dispatch_batch=16,
        checkpoint_every=4,
    )


def stats_bytes(stats):
    """Canonical bytes of a deterministic stats report (order included)."""
    return json.dumps(
        deterministic_stats(stats), separators=(",", ":"), sort_keys=False
    ).encode()


class TestPoolDifferential:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_stats_and_report_order_are_byte_identical(
        self, workers, seed
    ):
        feeds, queries, events = scenario(seed)
        oracle = run_oracle(queries, events, batch_size=5)
        pool = make_pool(queries, workers, batch_size=5)
        pool.start()
        try:
            pool.route_many(events)
            pool.flush()
            assert pool.stream_ids() == oracle.stream_ids(), (
                f"seed={seed} workers={workers}: stream order diverged"
            )
            pool_report = match_report(
                {sid: pool.matches_for(sid) for sid in pool.stream_ids()}
            )
            oracle_report = match_report(
                {sid: oracle.matches_for(sid) for sid in oracle.stream_ids()}
            )
            assert pool_report == oracle_report, (
                f"seed={seed} workers={workers}: match report diverged"
            )
            assert stats_bytes(pool.stats()) == stats_bytes(oracle.stats()), (
                f"seed={seed} workers={workers}: deterministic stats diverged"
            )
        finally:
            pool.terminate()

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_jittered_arrival_reorder_counters_match(self, workers):
        seed = 5
        feeds, queries, events = scenario(seed, jitter=3)
        oracle = run_oracle(queries, events, batch_size=4, watermark=3)
        oracle_stats = oracle.stats()
        assert oracle_stats["totals"]["reordered"] > 0, (
            f"seed={seed}: vacuous scenario, no reordering produced"
        )
        pool = make_pool(queries, workers, batch_size=4, watermark=3)
        pool.start()
        try:
            pool.route_many(events)
            pool.flush()
            assert stats_bytes(pool.stats()) == stats_bytes(oracle_stats), (
                f"seed={seed} workers={workers}: reorder/late counters diverged"
            )
            assert pool.stream_ids() == oracle.stream_ids(), (
                f"seed={seed} workers={workers}: stream order diverged"
            )
            report = match_report(
                {sid: pool.matches_for(sid) for sid in pool.stream_ids()}
            )
            assert report == match_report(
                {sid: oracle.matches_for(sid) for sid in oracle.stream_ids()}
            ), f"seed={seed} workers={workers}"
        finally:
            pool.terminate()

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_mid_stream_drain_matches_router_drain(self, workers):
        seed = 9
        feeds, queries, events = scenario(seed)
        half = len(events) // 2
        oracle = StreamRouter(queries, batch_size=5)
        oracle.route_many(events[:half])
        oracle.flush()
        oracle_first = oracle.drain_matches()
        oracle.route_many(events[half:])
        oracle.flush()
        oracle_second = oracle.drain_matches()

        pool = make_pool(queries, workers, batch_size=5)
        pool.start()
        try:
            pool.route_many(events[:half])
            # A drain equals the router's exactly at a flush point; between
            # flushes it returns what has arrived (see TestPushDelivery).
            pool.flush()
            pool_first = pool.drain_matches()
            pool.route_many(events[half:])
            pool.flush()
            pool_second = pool.drain_matches()
            assert match_report(pool_first) == match_report(oracle_first), (
                f"seed={seed} workers={workers}: first drain diverged"
            )
            assert match_report(pool_second) == match_report(oracle_second), (
                f"seed={seed} workers={workers}: second drain diverged"
            )
            # Drained matches must not reappear anywhere.
            assert pool.drain_matches() == {}, f"seed={seed} workers={workers}"
        finally:
            pool.terminate()

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_stop_hands_state_back_byte_identically(self, workers):
        """After stop(), the returned router equals an uninterrupted run."""
        seed = 13
        feeds, queries, events = scenario(seed)
        oracle = run_oracle(queries, events, batch_size=5)
        pool = make_pool(queries, workers, batch_size=5)
        pool.start()
        pool.route_many(events)
        pool.flush()
        router = pool.stop()
        assert router.stream_ids() == oracle.stream_ids(), (
            f"seed={seed} workers={workers}: stream order diverged"
        )
        assert match_report(
            {sid: router.matches_for(sid) for sid in router.stream_ids()}
        ) == match_report(
            {sid: oracle.matches_for(sid) for sid in oracle.stream_ids()}
        ), f"seed={seed} workers={workers}"
        # The post-stop stats equal an uninterrupted run's byte for byte.
        assert stats_bytes(router.stats()) == stats_bytes(oracle.stats()), (
            f"seed={seed} workers={workers}: post-stop stats diverged"
        )
        # The returned router keeps serving: route a fresh stream.
        extra_feeds, _ = bench_scenario(1, 20, GROUPS, 2, seed + 100)
        relation = next(iter(extra_feeds.values()))
        for frame in relation.frames():
            router.route("late-stream", frame)
            oracle.route("late-stream", frame)
        router.flush()
        oracle.flush()
        assert router.matches_for("late-stream") == oracle.matches_for(
            "late-stream"
        ), f"seed={seed} workers={workers}"

    def test_pool_takes_over_a_router_with_live_state(self):
        """start() mid-stream: the live shards resume inside the workers."""
        seed = 17
        feeds, queries, events = scenario(seed)
        half = len(events) // 2
        oracle = run_oracle(queries, events, batch_size=5)
        router = StreamRouter(queries, batch_size=5)
        router.route_many(events[:half])
        pool = ShardWorkerPool(
            router, num_workers=2, dispatch_batch=16, checkpoint_every=4
        )
        pool.start()
        try:
            # The origin refuses frames for streams the pool now owns.
            stream_id, frame = events[half]
            with pytest.raises(ValueError):
                router.route(stream_id, frame)
            pool.route_many(events[half:])
            pool.flush()
            assert match_report(
                {sid: pool.matches_for(sid) for sid in pool.stream_ids()}
            ) == match_report(
                {sid: oracle.matches_for(sid) for sid in oracle.stream_ids()}
            ), f"seed={seed}"
        finally:
            pool.terminate()

    @pytest.mark.parametrize("workers", (1, 3))
    def test_start_hands_live_shards_over_without_operations(self, workers):
        """start() dispatches no operation: each worker spawns from its
        slice of one router document, so the pool's merged document right
        after start() is the origin's document before it."""
        feeds, queries, events = scenario(19, num_feeds=4, frames=20)
        router = StreamRouter(queries, batch_size=5)
        router.route_many(events)
        before = to_bytes("router", router.checkpoint())
        assert len(router.shards()) == 4
        pool = ShardWorkerPool(router, num_workers=workers)
        pool.start()
        try:
            assert router.shards() == {}
            assert pool.stats()["pool"]["ops_dispatched"] == 0
            assert to_bytes("router", pool.checkpoint_router()) == before
        finally:
            pool.terminate()


    @pytest.mark.parametrize("first,second", ((1, 2), (2, 3)))
    def test_a_stopped_pools_router_starts_the_next_pool(self, first, second):
        """stop() then start(): the router one pool returns hands its shards
        to a pool of another size, and the run ends as an uninterrupted
        one."""
        seed = 15
        feeds, queries, events = scenario(seed)
        half = len(events) // 2
        oracle = run_oracle(queries, events, batch_size=5)
        pool = make_pool(queries, first, batch_size=5)
        pool.start()
        pool.route_many(events[:half])
        successor = ShardWorkerPool(
            pool.stop(), num_workers=second, dispatch_batch=16,
            checkpoint_every=4,
        )
        successor.start()
        try:
            successor.route_many(events[half:])
            successor.flush()
            assert match_report(
                {sid: successor.matches_for(sid)
                 for sid in successor.stream_ids()}
            ) == match_report(
                {sid: oracle.matches_for(sid) for sid in oracle.stream_ids()}
            ), f"seed={seed} {first}->{second} workers"
            assert stats_bytes(successor.stats()) == stats_bytes(
                oracle.stats()
            ), f"seed={seed} {first}->{second} workers"
        finally:
            successor.terminate()


def deliver(delivered, drained):
    """Append one drain's matches to the per-``(query, stream)`` lists."""
    for matches in drained.values():
        for match in matches:
            delivered.setdefault(
                (match.query_id, match.stream_id), []
            ).append(match.to_record())


#: One step of a pool-vs-router interleaving (see TestPushDelivery).
STEPS = st.one_of(
    st.tuples(st.just("route"), st.integers(1, 40)),
    st.tuples(st.just("drain")),
    st.tuples(st.just("flush")),
    st.tuples(st.just("register")),
    st.tuples(st.just("cancel"), st.integers(0, 7)),
    st.tuples(st.just("restore"), st.integers(1, 3)),
)


class TestPushDelivery:
    """Matches ride the workers' acks, and a drain returns what has
    arrived: it waits only for the operations sent before the previous
    drain.  Each ``(query, stream)`` still receives the router's match
    sequence, split differently over the drains; right after a flush both
    have delivered the same, and a drain there equals the router's byte
    for byte when the deliveries before it were equal.

    A cancellation is preceded by a flush and a drain on both sides, as
    :meth:`Session.cancel` does: a cancelled query's undelivered matches
    are dropped, and only at a flush point are both sides' undelivered
    matches the same.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        workers=st.integers(1, 3),
        steps=st.lists(STEPS, min_size=1, max_size=10),
    )
    def test_interleavings_deliver_the_routers_matches(self, workers, steps):
        feeds, queries, events = scenario(41, frames=40)
        extra = [
            query.with_id(None)
            for query in bench_scenario(1, 1, GROUPS, 2, 43)[1]
        ]
        live = [query.query_id for query in queries]
        oracle = StreamRouter(queries, batch_size=5)
        pool = make_pool(queries, workers, batch_size=5).start()
        got, want = {}, {}
        position = 0

        def barrier():
            pool.flush()
            oracle.flush()
            synced = got == want
            drained, expected = pool.drain_matches(), oracle.drain_matches()
            if synced:
                assert match_report(drained) == match_report(expected), steps
            deliver(got, drained)
            deliver(want, expected)
            assert got == want, steps

        try:
            for step in steps:
                kind = step[0]
                if kind == "route":
                    chunk = events[position:position + step[1]]
                    position += len(chunk)
                    pool.route_many(chunk)
                    oracle.route_many(chunk)
                elif kind == "drain":
                    deliver(got, pool.drain_matches())
                    deliver(want, oracle.drain_matches())
                elif kind == "flush":
                    barrier()
                elif kind == "register" and extra:
                    query = extra.pop()
                    query_id = pool.register_query(query).query_id
                    assert query_id == oracle.register_query(query).query_id
                    live.append(query_id)
                elif kind == "cancel" and live:
                    barrier()
                    query_id = live.pop(step[1] % len(live))
                    pool.cancel_query(query_id)
                    oracle.cancel_query(query_id)
                elif kind == "restore":
                    document = pool.checkpoint_router()
                    if got == want:
                        # Equal deliveries leave equal undrained matches.
                        assert to_bytes("router", document) == \
                            oracle.to_bytes(), steps
                    pool.terminate()
                    pool = ShardWorkerPool(
                        StreamRouter.from_checkpoint(document),
                        num_workers=step[1], dispatch_batch=16,
                        checkpoint_every=4,
                    ).start()
                    oracle = StreamRouter.from_checkpoint(oracle.checkpoint())
            pool.route_many(events[position:])
            oracle.route_many(events[position:])
            barrier()
        finally:
            pool.terminate()

    def test_a_drain_waits_only_for_the_previous_drains_operations(self):
        """Frames dispatched by a drain are waited for by the next drain
        that finds new operations, not by itself; a drain that finds none
        waits for nothing."""
        feeds, queries, events = scenario(47, frames=40)
        half = len(events) // 2
        pool = make_pool(queries, 2, batch_size=5).start()
        try:
            pool.route_many(events[:half])
            pool.drain_matches()
            marks = [worker.drain_mark for worker in pool._workers]
            assert marks == [worker.last_op_seq for worker in pool._workers]
            pool.drain_matches()
            assert [w.drain_mark for w in pool._workers] == marks
            pool.route_many(events[half:])
            pool.drain_matches()
            assert all(
                worker.max_acked >= mark
                for worker, mark in zip(pool._workers, marks)
            )
        finally:
            pool.terminate()

    @pytest.mark.parametrize("workers", (1, 2))
    def test_cancel_drops_matches_still_on_their_way(self, workers):
        """Matches of a cancelled query produced before the cancellation
        but not yet drained are dropped, also those whose acks arrive after
        it — as the router drops its undrained ones."""
        feeds, queries, events = scenario(49, frames=40)
        doomed = queries[0].query_id
        oracle = StreamRouter(queries, batch_size=5)
        oracle.route_many(events)
        pool = make_pool(queries, workers, batch_size=5).start()
        try:
            pool.route_many(events)
            oracle.cancel_query(doomed)
            pool.cancel_query(doomed)
            oracle.flush()
            pool.flush()
            drained, expected = pool.drain_matches(), oracle.drain_matches()
            assert match_report(drained) == match_report(expected)
            assert all(
                match.query_id != doomed
                for matches in drained.values() for match in matches
            )
        finally:
            pool.terminate()

    def test_sigkill_after_a_frames_ack_delivers_every_match_once(self):
        """The worker dies after acking frames whose matches are in the
        parent, before the next periodic checkpoint: its replay re-acks
        them and the parent drops the duplicates, so the drains between
        and after deliver each match exactly once."""
        feeds, queries, events = scenario(45, num_feeds=2, frames=60)
        oracle = StreamRouter(queries, batch_size=5)
        oracle.route_many(events)
        oracle.flush()
        expected = {}
        deliver(expected, oracle.drain_matches())
        # checkpoint_every=4: the checkpoint requested after the fourth op
        # is the recovery base, and the sixth frames op dies before the
        # next one, so the fifth op's acked matches replay.
        plan = FaultPlan(
            [Fault("sigkill", 0, op_kind="frames", after_ops=6)], seed=45,
        )
        pool = ShardWorkerPool(
            StreamRouter(queries, batch_size=5), num_workers=1,
            dispatch_batch=8, checkpoint_every=4,
        )
        got = {}
        try:
            with plan.install():
                pool.start()
                for start in range(0, len(events), 16):
                    pool.route_many(events[start:start + 16])
                    deliver(got, pool.drain_matches())
                pool.flush()
            deliver(got, pool.drain_matches())
            assert plan.fire_counts()[0] == 1
            assert pool.restarts == 1
            assert got == expected
            shipped = pool.stats()["pool"]["matches_shipped"]
            assert shipped == sum(map(len, expected.values()))
        finally:
            pool.terminate()

    def test_a_drain_returns_after_a_crashed_workers_replay(self):
        """The worker dies inside its third frames op; the next drain
        respawns it and returns only once the replay is acked, so a kill
        right after the drain is blamed on no replayed op: two deaths on
        one op would read as poison and quarantine a healthy op."""
        feeds, queries, events = scenario(46, num_feeds=2, frames=60)
        oracle = StreamRouter(queries, batch_size=5)
        oracle.route_many(events)
        oracle.flush()
        expected = {}
        deliver(expected, oracle.drain_matches())
        plan = FaultPlan(
            [Fault("sigkill", 0, op_kind="frames", after_ops=3)], seed=46,
        )
        pool = ShardWorkerPool(
            StreamRouter(queries, batch_size=5), num_workers=1,
            dispatch_batch=8, checkpoint_every=100,
        )
        got = {}
        try:
            with plan.install():
                pool.start()
                pool.route_many(events[:24])  # three frames ops
                pool._workers[0].process.join(5)
                deliver(got, pool.drain_matches())
                worker = pool._workers[0]
                assert pool.restarts == 1
                assert worker.recovery_target_seq is None
                os.kill(worker.process.pid, signal.SIGKILL)
                worker.process.join(5)
                pool.route_many(events[24:])
                pool.flush()
                deliver(got, pool.drain_matches())
            assert pool.restarts == 2
            assert pool.quarantined == []
            assert got == expected
        finally:
            pool.terminate()


class TestFixedPlacement:
    """Placement is one rule: the k-th stream the pool sees lives on worker
    k mod num_workers.  It is derived from first-seen order, never
    persisted, and never changes results."""

    @staticmethod
    def layout(pool):
        return {
            stream_id: entry["worker"]
            for stream_id, entry in pool.stream_health().items()
        }

    @staticmethod
    def modulo(stream_ids, workers):
        return {
            stream_id: k % workers for k, stream_id in enumerate(stream_ids)
        }

    @pytest.mark.parametrize("workers", (1, 2, 3, 4))
    def test_kth_stream_lives_on_worker_k_mod_n(self, workers):
        feeds, queries, events = scenario(31, num_feeds=5, frames=30)
        pool = make_pool(queries, workers, batch_size=5)
        pool.start()
        try:
            pool.route_many(events)
            pool.flush()
            assert len(pool.stream_ids()) == 5
            assert self.layout(pool) == self.modulo(
                pool.stream_ids(), workers
            ), f"workers={workers}"
        finally:
            pool.terminate()

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_live_checkpoint_is_a_plain_router_document(self, workers):
        """checkpoint_router() writes the router's keys, in the router's
        order, and no placement block."""
        feeds, queries, events = scenario(33)
        oracle = run_oracle(queries, events, batch_size=5)
        pool = make_pool(queries, workers, batch_size=5)
        pool.start()
        try:
            pool.route_many(events)
            pool.flush()
            document = pool.checkpoint_router()
        finally:
            pool.terminate()
        assert list(document) == list(oracle.checkpoint())
        assert document["stream_order"] == oracle.stream_ids()

    @pytest.mark.parametrize("workers,restored", ((2, 3), (3, 1), (4, 2)))
    def test_restored_pool_rederives_the_layout(self, workers, restored):
        """A pool built from a checkpoint places stream k on worker
        k mod N for its own N (a stale placement block from an older pool
        is ignored), new streams continue the sequence, and the results
        equal an uninterrupted router's."""
        feeds, queries, events = scenario(35, num_feeds=5, frames=30)
        late = sorted(feeds)[-1]
        early = [event for event in events if event[0] != late]
        tail = [event for event in events if event[0] == late]
        oracle = run_oracle(queries, early + tail, batch_size=5)
        pool = make_pool(queries, workers, batch_size=5)
        pool.start()
        try:
            pool.route_many(early)
            document = pool.checkpoint_router()
        finally:
            pool.terminate()
        document["placement"] = {
            "policy": "least-loaded",
            "num_workers": workers,
            "first_seen": len(document["stream_order"]),
            "assignment": [[sid, 0] for sid in document["stream_order"]],
            "stream_frames": [],
        }
        resumed = ShardWorkerPool(
            StreamRouter.from_checkpoint(document), num_workers=restored,
            dispatch_batch=16, checkpoint_every=4,
        )
        resumed.start()
        try:
            assert self.layout(resumed) == self.modulo(
                resumed.stream_ids(), restored
            )
            resumed.route_many(tail)
            resumed.flush()
            assert resumed.stream_ids() == oracle.stream_ids()
            assert self.layout(resumed) == self.modulo(
                resumed.stream_ids(), restored
            )
            assert match_report(
                {sid: resumed.matches_for(sid) for sid in resumed.stream_ids()}
            ) == match_report(
                {sid: oracle.matches_for(sid) for sid in oracle.stream_ids()}
            )
        finally:
            resumed.terminate()

    def test_pool_stats_block_holds_only_what_the_pool_does(self):
        feeds, queries, events = scenario(37, frames=20)
        pool = make_pool(queries, 2, batch_size=5)
        pool.start()
        try:
            pool.route_many(events)
            block = pool.stats()["pool"]
        finally:
            pool.terminate()
        assert set(block) == {
            "workers", "restarts", "checkpoints_taken", "matches_shipped",
            "match_records_shipped", "ops_dispatched", "frames_dispatched",
            "degraded", "supervision",
        }
        assert set(block["supervision"]) == {
            "workers", "checkpoint_failures", "quarantines",
            "backoff_seconds_total", "recovery",
        }


class TestSessionDifferential:
    """One mixed workload through ``Session`` on all three backends.

    The session facade's contract: matches (per stream, order included) and
    the deterministic session-stats core are byte-identical whether the
    workload runs on dedicated inline engines, the sharded router, or the
    multiprocess worker pool — across live registrations, cancellations,
    mid-stream drains and a final flush.
    """

    BACKENDS = ("inline", "router", "pool")

    @staticmethod
    def _session_stats_bytes(stats):
        core = {
            key: value
            for key, value in stats.items()
            if key not in ("backend", "backend_stats")
        }
        return json.dumps(core, separators=(",", ":"), sort_keys=False).encode()

    def _drive(self, backend, events, queries, seed):
        """The mixed lifecycle workload; returns its observable artefacts."""
        third = len(events) // 3
        session = Session(backend=backend, batch_size=5)
        handles = [session.register(query) for query in queries]
        session.ingest_many(events[:third])
        # A pool drain returns what has arrived; only after the flush
        # barrier does it equal the other backends' drain exactly.
        session.flush()
        mid_drain = match_report(session.drain())
        late = session.register(
            (Q("car") >= 1) & (Q("person") >= 1),
            window=GROUPS[0][0],
            duration=GROUPS[0][1],
            name=f"late-{seed}",
        )
        session.cancel(handles[1])
        session.ingest_many(events[third:])
        session.flush()
        final_drain = match_report(session.drain())
        stats = self._session_stats_bytes(session.stats())
        per_query = [
            (handle.query_id, [m.to_record() for m in handle.matches()])
            for handle in session.handles
        ]
        session.close()
        return {
            "late_id": late.query_id,
            "watermarks": late.warmup_watermarks(),
            "mid": mid_drain,
            "final": final_drain,
            "stats": stats,
            "per_query": per_query,
        }

    @pytest.mark.parametrize("seed", range(2))
    def test_mixed_workload_is_byte_identical_across_backends(self, seed):
        feeds, queries, events = scenario(seed)
        reference = self._drive(self.BACKENDS[0], events, queries, seed)
        for backend in self.BACKENDS[1:]:
            result = self._drive(backend, events, queries, seed)
            for key in reference:
                assert result[key] == reference[key], (
                    f"seed={seed} backend={backend}: session {key} diverged "
                    f"from {self.BACKENDS[0]}"
                )


    @pytest.mark.parametrize("backend", ("inline", "router", "pool"))
    def test_a_stream_seen_before_the_first_registration_keeps_its_place(
        self, backend
    ):
        """A frame ingested while no query is registered still makes its
        stream seen: every backend counts it and orders it first, as
        Session.stream_ids() does."""
        session = Session(backend=backend, batch_size=1)
        session.ingest("ghost", FrameObservation(1, {1: "car"}))
        session.register(Q("car") >= 1, window=4, duration=1)
        for frame_id in range(2, 6):
            for stream_id in ("early", "late"):
                session.ingest(stream_id, FrameObservation(frame_id, {1: "car"}))
        session.flush()
        state = from_bytes(session.checkpoint(), expect_kind="session")["state"]
        try:
            assert state["stream_order"] == ["ghost", "early", "late"]
            assert session.stream_ids() == state["stream_order"]
            assert session.stats()["backend_stats"]["streams"] == 3
        finally:
            session.close()


class TestRetiredCounters:
    """Shards retired before the pool started and shards retired inside
    the workers are each counted once: in the pool's stats, its live
    checkpoint and the router stop() returns."""

    def test_stop_preserves_streams_emptied_by_mid_pool_cancellation(self):
        """A stream whose every shard was retired by a mid-pool group
        cancellation must survive stop(): the router it returns keeps it
        in first-seen order, exactly like an uninterrupted run."""
        seed = 27
        feeds, queries, events = scenario(seed)
        group = GROUPS[0]
        doomed = [q for q in queries if (q.window, q.duration) == group]

        oracle = StreamRouter(queries, batch_size=5)
        oracle.route_many(events)
        oracle.flush()
        pool = make_pool(queries, 2, batch_size=5)
        pool.start()
        pool.route_many(events)
        pool.flush()
        # Cancel both groups' queries, one group at a time: after the first
        # loop every stream still has the other group's shards; after the
        # second, every stream is fully retired inside the workers.
        other = [q for q in queries if (q.window, q.duration) != group]
        for query in doomed + other:
            oracle.cancel_query(query.query_id)
            pool.cancel_query(query.query_id)
        router = pool.stop()
        assert router.stream_ids() == oracle.stream_ids(), (
            f"seed={seed}: fully-retired streams were dropped by stop()"
        )
        assert stats_bytes(router.stats()) == stats_bytes(oracle.stats()), (
            f"seed={seed}: post-stop stats diverged after full retirement"
        )

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_pre_pool_retirements_count_once(self, workers):
        seed = 29
        feeds, queries, events = scenario(seed)
        half = len(events) // 2

        def retire_then_resume(router):
            router.route_many(events[:half])
            for query in queries:
                router.cancel_query(query.query_id)
            for query in queries:
                router.register_query(query.with_id(None))

        oracle = StreamRouter(queries, batch_size=5)
        retire_then_resume(oracle)
        router = StreamRouter(queries, batch_size=5)
        retire_then_resume(router)
        assert router.stats()["retired"]["shards"] == 3
        oracle.route_many(events[half:])
        oracle.flush()
        pool = ShardWorkerPool(router, num_workers=workers, dispatch_batch=16)
        pool.start()
        pool.route_many(events[half:])
        pool.flush()
        expected = stats_bytes(oracle.stats())
        assert stats_bytes(pool.stats()) == expected, f"seed={seed}"
        restored = StreamRouter.from_checkpoint(pool.checkpoint_router())
        assert stats_bytes(restored.stats()) == expected, f"seed={seed}"
        assert stats_bytes(pool.stop().stats()) == expected, f"seed={seed}"
