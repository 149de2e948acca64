"""Session facade: registration/cancellation lifecycle, warm-up watermark
guarantees, checkpoint/restore, and the top-level exports.

The acceptance property pinned here: a query registered on a *live* session
after N frames produces, from its warm-up watermark onward, matches
identical to the same query present from frame 0 — on every backend — and a
checkpoint taken mid-lifecycle preserves registered + cancelled query state
byte-identically.
"""

from __future__ import annotations

import pytest

from repro import Q, Session
from repro.datamodel import FrameObservation
from repro.query import parse_query
from repro.streaming import match_report
from repro.workloads.streams import interleave_feeds, simulated_feeds

BACKENDS = ("inline", "router", "pool")

#: Small-but-busy scenario shared by the lifecycle tests.
WINDOW, DURATION = 10, 5


def scenario(seed, num_feeds=2, frames=70):
    feeds = simulated_feeds(num_feeds, seed=seed, num_frames=frames)
    return list(interleave_feeds(feeds))


def make_session(backend, **kwargs):
    kwargs.setdefault("batch_size", 5)
    return Session(backend=backend, **kwargs)


class TestRegistration:
    def test_register_accepts_all_query_forms(self):
        with make_session("inline") as session:
            a = session.register("car >= 2", window=WINDOW, duration=DURATION)
            b = session.register(Q("person") >= 1, window=WINDOW, duration=DURATION)
            c = session.register(
                parse_query("bus >= 1", window=WINDOW, duration=DURATION)
            )
            assert [h.query_id for h in (a, b, c)] == [0, 1, 2]
            assert session.queries == [a.query, b.query, c.query]

    def test_temporal_overrides_apply_to_prebuilt_queries(self):
        with make_session("inline") as session:
            handle = session.register(
                parse_query("car >= 1", window=300, duration=240),
                window=WINDOW,
                duration=DURATION,
                name="renamed",
            )
            assert handle.query.window == WINDOW
            assert handle.query.duration == DURATION
            assert handle.name == "renamed"

    def test_duplicate_registration_detected_structurally(self):
        with make_session("inline") as session:
            session.register("car >= 2 AND bus <= 1", window=WINDOW, duration=DURATION)
            with pytest.raises(ValueError, match="duplicate registration"):
                # Different spelling, same canonical query.
                session.register(
                    (Q("bus") <= 1) & (Q("car") >= 2),
                    window=WINDOW,
                    duration=DURATION,
                )
            # A different window group is a different query.
            session.register("car >= 2 AND bus <= 1", window=WINDOW + 2, duration=DURATION)

    def test_cancelled_query_can_be_reregistered_under_fresh_id(self):
        with make_session("inline") as session:
            first = session.register("car >= 2", window=WINDOW, duration=DURATION)
            session.register("person >= 1", window=WINDOW, duration=DURATION)
            first.cancel()
            again = session.register("car >= 2", window=WINDOW, duration=DURATION)
            assert not first.active
            assert again.query_id == 2  # ids are never recycled

    def test_rejected_registration_consumes_no_id(self):
        with make_session("inline", enable_pruning=True) as session:
            session.register("car >= 2", window=WINDOW, duration=DURATION)
            with pytest.raises(ValueError):
                session.register("car <= 2", window=WINDOW, duration=DURATION)
            ok = session.register("bus >= 1", window=WINDOW, duration=DURATION)
            assert ok.query_id == 1

    def test_rejected_initial_query_closes_the_backend(self):
        """A bad `queries=` argument must not leak pool worker processes."""
        import multiprocessing

        before = len(multiprocessing.active_children())
        with pytest.raises(ValueError):
            Session(
                backend="pool",
                enable_pruning=True,
                queries=["car <= 2"],
            )
        # Workers spawned eagerly by the pool backend were stopped again.
        for child in multiprocessing.active_children():
            child.join(timeout=5)
        assert len(multiprocessing.active_children()) <= before

    def test_rejected_registration_does_not_flush_buffers(self):
        """Validation runs before the flush barrier: a failed register()
        must not force buffered frames through."""
        session = make_session("router", enable_pruning=True)
        session.register("person >= 1", window=WINDOW, duration=DURATION)
        for fid in range(3):  # stays below batch_size: all buffered
            session.ingest("cam-a", FrameObservation(fid, {1: "person"}))
        with pytest.raises(ValueError):
            session.register("car <= 2", window=WINDOW, duration=DURATION)
        stats = session.stats()["backend_stats"]
        assert stats["totals"]["frames_processed"] == 0, (
            "the rejected registration flushed the shard buffers"
        )
        session.close()

    def test_unknown_backend_and_bad_query_type(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Session(backend="cluster")
        with make_session("inline") as session:
            with pytest.raises(TypeError):
                session.register(42)


class TestMatchesAndCancellation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_flow_to_handles_and_streams(self, backend):
        events = scenario(31)
        with make_session(backend) as session:
            cars = session.register("car >= 1", window=WINDOW, duration=DURATION)
            session.ingest_many(events)
            session.flush()
            drained = session.drain()
            by_stream = sum(len(m) for m in drained.values())
            assert by_stream > 0
            assert len(cars.matches()) == by_stream
            # drain() is exactly-once: nothing is re-delivered.
            assert session.drain() == {}
            assert len(cars.matches()) == by_stream
            # take_matches transfers ownership (bounded-memory polling).
            assert len(cars.take_matches()) == by_stream
            assert cars.matches() == []
            assert cars.take_matches() == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cancel_salvages_produced_matches_then_stops_delivery(self, backend):
        events = scenario(32)
        half = len(events) // 2
        with make_session(backend) as session:
            doomed = session.register("car >= 1", window=WINDOW, duration=DURATION)
            keeper = session.register("person >= 1", window=WINDOW, duration=DURATION)
            session.ingest_many(events[:half])
            session.flush()
            doomed.cancel()
            before = len(doomed.matches())
            session.ingest_many(events[half:])
            session.flush()
            session.drain()
            assert len(doomed.matches()) == before, "cancelled query kept producing"
            assert all(
                m.query_id != doomed.query_id
                for ms in session.drain().values()
                for m in ms
            )
            assert keeper.active and len(keeper.matches()) >= 0
            with pytest.raises(ValueError):
                doomed.cancel()

    def test_cancelling_last_query_of_group_releases_state(self):
        events = scenario(33)
        with make_session("inline") as session:
            only = session.register("car >= 1", window=WINDOW, duration=DURATION)
            other = session.register("car >= 1", window=WINDOW + 2, duration=DURATION)
            session.ingest_many(events[: len(events) // 2])
            router = session._backend.router
            assert all(
                (WINDOW, DURATION) in shard.engine.group_keys
                for shard in router.shards().values()
            )
            only.cancel()
            assert not any(
                (WINDOW, DURATION) in shard.engine.group_keys
                for shard in router.shards().values()
            )
            # The other group keeps serving.
            session.ingest_many(events[len(events) // 2:])
            assert other.active

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_idle_polling_skips_the_backend_round_trip(self, backend):
        """handle.matches() polls must not pay a backend drain (a
        cross-process barrier on the pool backend) when nothing was
        ingested since the last drain."""
        events = scenario(39)
        with make_session(backend) as session:
            handle = session.register("car >= 1", window=WINDOW, duration=DURATION)
            session.ingest_many(events)
            session.flush()
            first = handle.matches()
            calls = []
            original = session._backend.drain
            session._backend.drain = lambda: calls.append(1) or original()
            assert handle.matches() == first
            assert handle.matches() == first
            assert calls == [], "idle polls still hit the backend"
            # New frames re-arm the drain path.
            session.ingest("cam-00", FrameObservation(10_000, {1: "car"}))
            handle.matches()
            assert calls == [1]
            session._backend.drain = original

    def test_closed_session_keeps_delivered_matches_readable(self):
        events = scenario(34)
        session = make_session("inline")
        handle = session.register("car >= 1", window=WINDOW, duration=DURATION)
        session.ingest_many(events)
        session.close()
        assert session.closed
        assert len(handle.matches()) > 0  # drained into the handle by close()
        with pytest.raises(RuntimeError):
            session.ingest("cam-00", FrameObservation(10_000, {1: "car"}))
        session.close()  # idempotent

    def test_inline_counts_late_and_repeated_frames(self):
        """An inline session drops a frame behind its frontier instead of
        raising: a repeat of the last frame is a duplicate, an older one
        is late — the same accounting as the batched backends."""
        with make_session("inline") as session:
            session.register("car >= 1", window=WINDOW, duration=DURATION)
            for frame_id in (0, 1, 2, 2, 1):
                session.ingest("cam-00", FrameObservation(frame_id, {1: "car"}))
            totals = session.stats()["backend_stats"]["totals"]
        assert totals["frames_processed"] == 3
        assert totals["duplicates"] == 1
        assert totals["dropped_late"] == 1


class TestLifecycleBarriers:
    """Register, cancel and close are flush barriers: the same API call
    sequence — with frames still sitting in batch/reorder buffers — must
    behave identically on buffered (router/pool) and synchronous (inline)
    backends."""

    @staticmethod
    def _matching_frames(n, start=0):
        return [
            ("cam-a", FrameObservation(start + i, {1: "person", 2: "person"}))
            for i in range(n)
        ]

    def _frames_matched(self, backend, drive):
        # batch_size 8 with 5 frames leaves everything buffered on the
        # router/pool backends unless the lifecycle call forces a barrier.
        session = Session(backend=backend, batch_size=8)
        result = drive(session)
        session.close()
        return result

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_register_never_sees_previously_ingested_frames(self, backend):
        def drive(session):
            session.ingest_many(self._matching_frames(5))
            handle = session.register("person >= 1", window=6, duration=2)
            session.ingest_many(self._matching_frames(5, start=5))
            session.flush()
            return sorted({m.frame_id for m in handle.matches()})

        assert self._frames_matched(backend, drive) == self._frames_matched(
            "inline", drive
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cancel_delivers_matches_of_buffered_frames(self, backend):
        def drive(session):
            handle = session.register("person >= 1", window=6, duration=2)
            session.ingest_many(self._matching_frames(5))
            handle.cancel()
            return sorted({m.frame_id for m in handle.matches()})

        delivered = self._frames_matched(backend, drive)
        assert delivered == self._frames_matched("inline", drive)
        assert delivered, "vacuous: the buffered frames produced no matches"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_close_flushes_the_buffered_tail(self, backend):
        session = Session(backend=backend, batch_size=8)
        handle = session.register("person >= 1", window=6, duration=2)
        session.ingest_many(self._matching_frames(10))
        session.close()  # no explicit flush
        frames = sorted({m.frame_id for m in handle.matches()})
        assert frames == list(range(1, 10)), (
            f"backend={backend}: the buffered tail was dropped at close"
        )


class TestWarmupWatermark:
    """Acceptance: live registration == from-frame-0 beyond the watermark.

    Identity is per window (i.e. as a set of matches per frame): beyond the
    watermark every window lies entirely after the registration point, so
    both runs maintain identical state *content* — but emission order within
    a frame follows state-table creation order, which legitimately reflects
    the pre-watermark history.  The comparison therefore sorts each side's
    records (frame id first) before asserting byte equality.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_live_registration_matches_from_watermark_on(self, backend):
        events = scenario(35, frames=80)
        cut = len(events) // 2
        late_query = (Q("person") >= 1) | (Q("truck") >= 1)

        baseline = make_session(backend)
        baseline.register(Q("car") >= 1, window=WINDOW, duration=DURATION)
        oracle = baseline.register(late_query, window=WINDOW, duration=DURATION)
        baseline.ingest_many(events)
        baseline.flush()
        oracle_by_stream = baseline.drain()

        live = make_session(backend)
        live.register(Q("car") >= 1, window=WINDOW, duration=DURATION)
        live.ingest_many(events[:cut])
        late = live.register(late_query, window=WINDOW, duration=DURATION)
        live.ingest_many(events[cut:])
        live.flush()
        live_by_stream = live.drain()

        assert late.query_id == oracle.query_id
        watermarks = late.warmup_watermarks()
        assert set(watermarks) == set(live.stream_ids())
        compared = 0
        for stream_id in live.stream_ids():
            watermark = late.warmup_watermark(stream_id)
            assert watermark == watermarks[stream_id]

            def post_watermark(matches):
                return sorted(
                    m.to_record()
                    for m in matches
                    if m.query_id == late.query_id and m.frame_id >= watermark
                )

            live_matches = post_watermark(live_by_stream.get(stream_id, []))
            oracle_matches = post_watermark(oracle_by_stream.get(stream_id, []))
            assert live_matches == oracle_matches, (
                f"backend={backend} stream={stream_id}: post-watermark "
                "matches diverge from the from-frame-0 run"
            )
            compared += len(live_matches)
        assert compared > 0, "vacuous scenario: no post-watermark matches"
        baseline.close()
        live.close()

    def test_stream_started_after_registration_has_no_warmup(self):
        events = scenario(36)
        with make_session("inline") as session:
            session.ingest_many(events)
            handle = session.register("car >= 1", window=WINDOW, duration=DURATION)
            assert handle.warmup_watermark("brand-new-stream") is None
            for stream_id in session.stream_ids():
                assert handle.warmup_watermark(stream_id) is not None


class TestCheckpointRestore:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mid_lifecycle_checkpoint_roundtrip(self, backend):
        events = scenario(37)
        half = len(events) // 2
        session = make_session(backend)
        first = session.register("car >= 1", window=WINDOW, duration=DURATION)
        session.register("person >= 1", window=WINDOW, duration=DURATION)
        session.ingest_many(events[:half])
        late = session.register(
            "truck >= 1 OR bus >= 1", window=WINDOW, duration=DURATION, name="late"
        )
        session.cancel(first)

        snapshot = session.checkpoint()
        restored = Session.restore(snapshot)
        # Registered + cancelled query state is preserved byte-identically:
        # the restored session re-checkpoints to the very same bytes.
        assert restored.checkpoint() == snapshot

        restored_late = restored.handle(late.query_id)
        assert restored_late.name == "late" and restored_late.active
        assert not restored.handle(first.query_id).active
        assert restored_late.warmup_watermarks() == late.warmup_watermarks()

        # Both sessions continue identically from the snapshot point.
        for s in (session, restored):
            s.ingest_many(events[half:])
            s.flush()
        assert match_report(session.drain()) == match_report(restored.drain())
        assert session.stream_ids() == restored.stream_ids()
        session.close()
        restored.close()

    def test_restore_rejects_foreign_payloads(self):
        from repro.streaming import CheckpointError

        with pytest.raises(CheckpointError):
            Session.restore(b"junk")
        with make_session("inline") as session:
            session.register("car >= 1", window=WINDOW, duration=DURATION)
            blob = session.checkpoint()
        from repro.streaming.checkpoint import from_bytes, to_bytes

        payload = from_bytes(blob, expect_kind="session")
        del payload["registry"]
        with pytest.raises(CheckpointError):
            Session.restore(to_bytes("session", payload))


class TestPoolLifecycleRobustness:
    def test_live_registration_survives_worker_crash(self):
        """Register/cancel ops are logged: a SIGKILLed worker replays them
        and converges to the uninterrupted run."""
        import os
        import signal

        events = scenario(38)
        third = len(events) // 3

        def drive(session, crash=False):
            session.register("car >= 1", window=WINDOW, duration=DURATION)
            session.ingest_many(events[:third])
            session.register("person >= 1", window=WINDOW, duration=DURATION, name="late")
            session.ingest_many(events[third: 2 * third])
            if crash:
                pool = session._backend.pool
                os.kill(pool.worker_pids()[0], signal.SIGKILL)
            session.ingest_many(events[2 * third:])
            session.flush()
            return session.drain()

        oracle = drive(make_session("router"))
        crashed = make_session("pool", num_workers=2)
        got = drive(crashed, crash=True)
        assert crashed._backend.pool.restarts >= 1
        assert match_report(got) == match_report(oracle)
        crashed.close()


class TestPreSessionEntryPoints:
    """The pre-session classes live in ``repro.engine`` only, as the README
    migration table says; the top-level package no longer resolves them."""

    @pytest.mark.parametrize("name", (
        "TemporalVideoQueryEngine", "EngineConfig", "EngineRunResult", "MCOSMethod",
    ))
    def test_importable_from_repro_engine_only(self, name):
        import repro
        import repro.engine

        assert name in repro.engine.__all__
        assert name not in repro.__all__
        with pytest.raises(AttributeError, match=name):
            getattr(repro, name)
        namespace = {}
        exec("from repro import *", namespace)
        assert name not in namespace
