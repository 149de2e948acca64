"""Cross-backend Session.restore and stream-attributed matches.

A session checkpoint taken on any backend resumes on any other: the 3×3
matrix below drives the identical workload tail after every restore and
pins final drains (order included) and the deterministic session-stats
core against the stay-on-the-same-backend reference.  Every backend
checkpoints one router-layout document, so every cell is byte-transparent:
the restored session re-exports the identical state document.  A blob in
the retired inline layout is refused as a malformed checkpoint, and a blob
naming a retired knob or carrying a retired pool placement block still
restores everywhere.

Stream attribution: every streaming surface stamps ``QueryMatch.stream_id``
(identically across backends), serialisation round-trips it, and
pre-attribution records still load.
"""

from __future__ import annotations

import json

import pytest

from repro import FrameObservation, Session
from repro.query.evaluator import QueryMatch
from repro.streaming import CheckpointError, match_report
from repro.streaming.checkpoint import from_bytes, to_bytes
from repro.workloads.streams import (
    bench_scenario,
    interleave_feeds,
    simulated_feeds,
)

BACKENDS = ("inline", "router", "pool")
GROUPS = ((8, 4), (12, 7))
POOL_SIZING = ("num_workers", "dispatch_batch", "checkpoint_every")


def scenario(seed, num_feeds=3, frames=60):
    feeds, queries = bench_scenario(num_feeds, frames, GROUPS, 2, seed)
    return queries, list(interleave_feeds(feeds))


def make_session(backend, queries, **kwargs):
    kwargs.setdefault("batch_size", 5)
    session = Session(backend=backend, **kwargs)
    for query in queries:
        session.register(query)
    return session


def stats_core_bytes(session):
    core = {
        key: value
        for key, value in session.stats().items()
        if key not in ("backend", "backend_stats")
    }
    return json.dumps(core, separators=(",", ":"), sort_keys=False).encode()


def finish(session, tail_events):
    session.ingest_many(tail_events)
    session.flush()
    report = match_report(session.drain())
    stats = stats_core_bytes(session)
    per_query = [
        (handle.query_id, [m.to_record() for m in handle.matches()])
        for handle in session.handles
    ]
    session.close()
    return report, stats, per_query


def state_of(checkpoint_bytes):
    return from_bytes(checkpoint_bytes, expect_kind="session")["state"]


def router_document(checkpoint_bytes):
    """The state document as canonical bytes."""
    return to_bytes("router", state_of(checkpoint_bytes))


#: Checkpoint fields that read the wall clock, so two runs of the same
#: operations disagree on them.
WALL_CLOCK = (
    "processing_seconds", "frames_per_sec", "mcos_seconds",
    "evaluation_seconds",
)


def without_wall_clock(value):
    """A checkpoint document with every :data:`WALL_CLOCK` field zeroed."""
    if isinstance(value, dict):
        return {
            key: 0.0 if key in WALL_CLOCK else without_wall_clock(item)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [without_wall_clock(item) for item in value]
    return value


def pool_layout(session):
    """Stream → worker index of a pool-backed session."""
    return {
        stream_id: entry["worker"]
        for stream_id, entry in session._pool.stream_health().items()
    }


def modulo_layout(stream_ids, num_workers):
    """The fixed placement rule: the k-th stream lives on worker k mod N."""
    return {
        stream_id: k % num_workers for k, stream_id in enumerate(stream_ids)
    }


class TestCrossBackendMatrix:
    @pytest.mark.parametrize("source", BACKENDS)
    def test_restore_matrix_continues_identically(self, source):
        """One source backend against all three targets (the full 3×3
        matrix across the parametrized sources): mid-lifecycle checkpoint,
        restore, identical tail → byte-identical drains and stats core."""
        queries, events = scenario(61)
        half = len(events) // 2

        def checkpoint_at_half():
            session = make_session(source, queries)
            session.ingest_many(events[:half])
            # Mid-lifecycle: one cancellation so tombstoned ids must
            # survive the change of backend.
            session.cancel(session.handles[1])
            blob = session.checkpoint()
            return session, blob

        session, blob = checkpoint_at_half()
        reference_streams = session.stream_ids()
        reference = finish(session, events[half:])
        for target in BACKENDS:
            restored = Session.restore(blob, backend=target)
            assert restored.backend_kind == target
            assert router_document(restored.checkpoint()) == \
                router_document(blob), (
                    f"{source}->{target}: state document not byte-transparent"
                )
            assert restored.stream_ids() == reference_streams, (
                f"{source}->{target}: stream first-seen order diverged"
            )
            result = finish(restored, events[half:])
            assert result[0] == reference[0], (
                f"{source}->{target}: final drain diverged"
            )
            assert result[1] == reference[1], (
                f"{source}->{target}: session stats core diverged"
            )
            assert result[2] == reference[2], (
                f"{source}->{target}: per-query deliveries diverged"
            )

    @pytest.mark.parametrize("target", BACKENDS)
    def test_retired_inline_layout_is_a_checkpoint_error(self, target):
        """A blob whose state holds the retired inline layout (``groups`` /
        ``streams`` / ``engines``) is malformed data on every backend,
        never a raw ``KeyError``."""
        queries, events = scenario(70, num_feeds=2, frames=20)
        session = make_session("inline", queries)
        session.ingest_many(events)
        payload = from_bytes(session.checkpoint(), expect_kind="session")
        session.close()
        shard = payload["state"]["shards"][0]
        payload["state"] = {
            "groups": [[8, 4, payload["state"]["queries"]]],
            "streams": [shard["stream_id"]],
            "engines": [
                [shard["stream_id"], [8, 4], shard["engine"], []],
            ],
        }
        with pytest.raises(CheckpointError):
            Session.restore(to_bytes("session", payload), backend=target)

    def test_restore_rejects_unknown_backend(self):
        queries, events = scenario(62, num_feeds=2, frames=20)
        session = make_session("inline", queries)
        blob = session.checkpoint()
        session.close()
        with pytest.raises(ValueError, match="unknown backend"):
            Session.restore(blob, backend="gpu-farm")
        # Overrides are argument errors, never "corrupt checkpoint": a bad
        # worker count raises ValueError eagerly, not CheckpointError.
        with pytest.raises(ValueError, match="num_workers"):
            Session.restore(blob, num_workers=0)

    @pytest.mark.parametrize("bad", (0, "2"), ids=("non-positive", "non-int"))
    @pytest.mark.parametrize("knob", POOL_SIZING)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pool_sizing_is_validated_on_every_backend(
        self, backend, knob, bad
    ):
        """Every backend records the pool sizing in its checkpoint (which
        may resume on a pool), so each knob must be a positive int at
        construction, whatever the backend."""
        for value in ((bad, -3) if bad == 0 else (bad, 1.5, True)):
            with pytest.raises(ValueError, match=knob):
                Session(backend=backend, **{knob: value})

    @pytest.mark.parametrize("target", BACKENDS)
    @pytest.mark.parametrize("knob", POOL_SIZING)
    def test_bad_pool_sizing_in_a_blob_is_a_checkpoint_error(
        self, knob, target
    ):
        queries, events = scenario(62, num_feeds=2, frames=20)
        session = make_session("router", queries)
        payload = from_bytes(session.checkpoint(), expect_kind="session")
        session.close()
        payload["config"][knob] = 0
        with pytest.raises(CheckpointError, match=knob):
            Session.restore(to_bytes("session", payload), backend=target)

    @pytest.mark.parametrize("bad", (0, -1, 1.5, True))
    def test_num_workers_override_must_be_a_positive_int(self, bad):
        queries, events = scenario(62, num_feeds=2, frames=20)
        session = make_session("router", queries)
        blob = session.checkpoint()
        session.close()
        with pytest.raises(ValueError, match="num_workers"):
            Session.restore(blob, backend="pool", num_workers=bad)


class TestQueriesNamedById:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_registry_naming_an_id_the_router_lacks_is_refused(self, backend):
        """An active handle carries only its query id; restore resolves it
        against the restored router, and an id the router does not hold is
        a malformed checkpoint on every backend."""
        queries, events = scenario(71, num_feeds=2, frames=20)
        session = make_session("router", queries)
        session.ingest_many(events)
        session.cancel(session.handles[0])
        payload = from_bytes(session.checkpoint(), expect_kind="session")
        session.close()
        handles = payload["registry"]["handles"]
        assert "query" in handles[0] and "query_id" not in handles[0]
        assert "query_id" in handles[1] and "query" not in handles[1]
        assert handles[0]["query"]["query_id"] not in {
            query["query_id"] for query in payload["state"]["queries"]
        }, "a cancelled query is still in the router document"
        handles[1]["query_id"] = 99
        with pytest.raises(CheckpointError, match="99"):
            Session.restore(to_bytes("session", payload), backend=backend)
        # The cancelled handle's id is not the router's either.
        handles[1]["query_id"] = handles[0]["query"]["query_id"]
        with pytest.raises(CheckpointError):
            Session.restore(to_bytes("session", payload), backend=backend)

class TestRouterPoolByteTransparency:
    def _driven_session(self, backend, queries, events):
        session = make_session(backend, queries)
        session.ingest_many(events)
        session.flush()
        return session

    def test_router_checkpoint_on_pool_reexports_byte_identically(self):
        """Router snapshot → pool → re-checkpoint: the pool's state is the
        identical router-layout document, and the round trip back onto a
        router is byte-identical too."""
        queries, events = scenario(63)
        router_session = self._driven_session("router", queries, events)
        router_blob = router_session.checkpoint()
        router_state = state_of(router_blob)
        router_session.close()

        pool_session = Session.restore(router_blob, backend="pool")
        pool_blob = pool_session.checkpoint()
        pool_session.close()
        assert router_document(pool_blob) == to_bytes(
            "router", router_state
        ), "pool re-export diverged from the router checkpoint"

        # Round trip back: the pool export restored onto a router
        # re-exports the original router document verbatim.
        round_trip = Session.restore(pool_blob, backend="router")
        assert to_bytes("router", state_of(round_trip.checkpoint())) == \
            to_bytes("router", router_state)
        round_trip.close()

    @pytest.mark.parametrize("num_workers", (1, 2, 3))
    def test_pool_state_equals_router_state(self, num_workers):
        """On the same operations a pool session checkpoints the state
        document a router session does, byte for byte (wall-clock fields
        aside), whatever its worker count: placement is derived, so the
        pool writes no block of its own.  A stream seen only before the
        first registration takes its first-seen place on both."""
        queries, events = scenario(64)
        half = len(events) // 2
        states = []
        for backend, kwargs in (("router", {}),
                                ("pool", {"num_workers": num_workers})):
            session = make_session(backend, [], **kwargs)
            session.ingest("ghost", FrameObservation(0, {1: "car"}))
            for query in queries:
                session.register(query)
            session.ingest_many(events[:half])
            session.cancel(session.handles[1])
            session.ingest_many(events[half:])
            session.flush()
            state = state_of(session.checkpoint())
            assert state["stream_order"] == session.stream_ids(), backend
            assert state["stream_order"][0] == "ghost", backend
            states.append(to_bytes("router", without_wall_clock(state)))
            session.close()
        assert states[0] == states[1], (
            f"{num_workers}-worker pool state diverged from the router's"
        )

    def test_inline_round_trip_through_router_is_byte_identical(self):
        """Inline → router → inline: shards, retained matches, groups and
        stream order survive the double restore byte for byte."""
        queries, events = scenario(65)
        inline_session = self._driven_session("inline", queries, events)
        inline_blob = inline_session.checkpoint()
        inline_state = state_of(inline_blob)
        inline_session.close()

        router_session = Session.restore(inline_blob, backend="router")
        router_blob = router_session.checkpoint()
        router_session.close()
        back = Session.restore(router_blob, backend="inline")
        back_state = state_of(back.checkpoint())
        back.close()
        # Canonical-bytes comparison (insertion order included); the
        # "session" kind is just the canonical encoder here.
        assert to_bytes("session", back_state) == to_bytes(
            "session", inline_state
        )

    @pytest.mark.parametrize("workers,restored_workers",
                             ((3, 2), (2, 3), (1, 2), (4, 1)))
    def test_stream_k_lives_on_worker_k_mod_n(self, workers,
                                              restored_workers):
        """Stream k sits on worker k mod N while the pool runs, and on
        worker k mod N' after a restore onto N' workers, new streams
        included."""
        feeds, queries = bench_scenario(5, 40, GROUPS, 2, 66)
        late = sorted(feeds)[-1]
        early = list(interleave_feeds(
            {sid: feed for sid, feed in feeds.items() if sid != late}
        ))
        session = make_session("pool", queries, num_workers=workers)
        session.ingest_many(early)
        session.flush()
        assert len(session.stream_ids()) == 4
        assert pool_layout(session) == modulo_layout(
            session.stream_ids(), workers
        )
        blob = session.checkpoint()
        session.close()
        restored = Session.restore(blob, num_workers=restored_workers)
        try:
            assert restored._pool.num_workers == restored_workers
            assert pool_layout(restored) == modulo_layout(
                restored.stream_ids(), restored_workers
            )
            restored.ingest_many(interleave_feeds({late: feeds[late]}))
            restored.flush()
            assert restored.stream_ids()[-1] == late
            assert pool_layout(restored) == modulo_layout(
                restored.stream_ids(), restored_workers
            )
        finally:
            restored.close()

    def test_malformed_registry_does_not_leak_pool_workers(self):
        """A registry that fails to parse after the pool backend spawned
        must close the backend (no orphaned worker processes)."""
        import multiprocessing

        queries, events = scenario(69, num_feeds=2, frames=20)
        session = self._driven_session("pool", queries, events)
        blob = session.checkpoint()
        session.close()
        payload = from_bytes(blob, expect_kind="session")
        payload["registry"]["handles"][0]["matches"] = [["corrupt"]]
        before = len(multiprocessing.active_children())
        with pytest.raises(CheckpointError):
            Session.restore(to_bytes("session", payload))
        assert len(multiprocessing.active_children()) <= before, (
            "restore leaked pool worker processes"
        )

class TestRetiredConfigKey:
    """Older session checkpoints name knobs and blocks this version no
    longer has; each still restores on every backend, re-checkpoints
    without it, and finishes with the same matches."""

    #: Retired ``config`` keys, with a value an older session could write.
    #: The former shared-memory dispatch switch is assembled from parts so
    #: the tree holds no live spelling of the removed option.
    RETIRED_CONFIG = {
        "_".join(("shared", "memory")): True,
        "placement": "least-loaded",
        "auto_rebalance": {
            "watermark": 1.5, "cooldown": 5.0, "interval": 0.25,
            "min_frames": 64, "hysteresis": 2, "policy": "least-loaded",
        },
    }

    @staticmethod
    def _retire(payload, retired):
        """Write the retired item into a session checkpoint payload."""
        if retired == "state.placement":
            stream_ids = [sid for sid, _, _ in payload["streams"]]
            payload["state"]["placement"] = {
                "policy": "least-loaded",
                "num_workers": 3,
                "first_seen": len(stream_ids),
                "assignment": [[sid, 2] for sid in stream_ids],
                "stream_frames": [[sid, 7] for sid in stream_ids],
            }
        else:
            payload["config"][retired] = \
                TestRetiredConfigKey.RETIRED_CONFIG[retired]

    @pytest.mark.parametrize(
        "retired", (*RETIRED_CONFIG, "state.placement")
    )
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("source", BACKENDS)
    def test_old_blob_naming_the_knob_still_restores(
        self, source, backend, retired
    ):
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
        self._retire(payload, retired)
        restored = Session.restore(
            to_bytes("session", payload), backend=backend
        )
        try:
            rewritten = from_bytes(
                restored.checkpoint(), expect_kind="session"
            )
            assert retired not in rewritten["config"]
            assert "placement" not in rewritten["state"]
            if backend == source:
                assert restored.checkpoint() == snapshot
            restored.ingest_many(events[half:])
            restored.flush()
            assert match_report(restored.drain()) == expected
        finally:
            restored.close()


class TestStreamAttribution:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_carry_their_stream_id(self, backend):
        queries, events = scenario(68)
        session = make_session(backend, queries)
        session.ingest_many(events)
        session.flush()
        drained = session.drain()
        assert drained, "vacuous scenario: no matches produced"
        for stream_id, matches in drained.items():
            assert matches and all(
                match.stream_id == stream_id for match in matches
            ), f"backend={backend}: stream attribution missing on {stream_id}"
        # The per-query surfaces see the same attribution.
        attributed = [
            match
            for handle in session.handles
            for match in handle.take_matches()
        ]
        assert attributed and all(m.stream_id for m in attributed)
        session.close()

    def test_record_round_trip_preserves_stream_id(self):
        match = QueryMatch(
            query_id=1,
            frame_id=10,
            object_ids=frozenset({1, 2}),
            frame_ids=(8, 9, 10),
            class_counts=(("car", 2),),
            stream_id="cam-07",
        )
        record = match.to_record()
        assert record[-1] == "cam-07"
        loaded = QueryMatch.from_record(record)
        assert loaded == match and loaded.stream_id == "cam-07"

    def test_pre_attribution_records_still_load(self):
        old_record = [1, 10, [1, 2], [8, 9, 10], [["car", 2]]]
        loaded = QueryMatch.from_record(old_record)
        assert loaded.stream_id == ""
        assert loaded.query_id == 1 and loaded.frame_id == 10

    def test_stream_id_is_not_part_of_match_identity(self):
        """Engine-level matches (no stream) compare equal to the same match
        stamped by a shard — attribution is provenance, not identity."""
        bare = QueryMatch(
            query_id=1, frame_id=5, object_ids=frozenset({3}),
            frame_ids=(5,), class_counts=(("bus", 1),),
        )
        stamped = bare.for_stream("cam-01")
        assert stamped == bare
        assert hash(stamped) == hash(bare)
        assert stamped.stream_id == "cam-01" and bare.stream_id == ""
        assert bare.for_stream("") is bare
