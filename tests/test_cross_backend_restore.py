"""Cross-backend Session.restore and stream-attributed matches.

A session checkpoint taken on any backend resumes on any other: the 3×3
matrix below drives the identical workload tail after every restore and
pins final drains (order included) and the deterministic session-stats
core against the stay-on-the-same-backend reference.  Every backend
checkpoints one router-layout document, so every cell is byte-transparent:
the restored session re-exports the identical state document (modulo the
pool's placement block).  A blob in the retired inline layout is refused
as a malformed checkpoint.

Stream attribution: every streaming surface stamps ``QueryMatch.stream_id``
(identically across backends), serialisation round-trips it, and
pre-attribution records still load.
"""

from __future__ import annotations

import json

import pytest

from repro import Session
from repro.query.evaluator import QueryMatch
from repro.streaming import CheckpointError, match_report
from repro.streaming.checkpoint import from_bytes, to_bytes
from repro.workloads.streams import bench_scenario, interleave_feeds

BACKENDS = ("inline", "router", "pool")
GROUPS = ((8, 4), (12, 7))


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
    """The state document as canonical bytes, without a pool's placement."""
    state = state_of(checkpoint_bytes)
    state.pop("placement", None)
    return to_bytes("router", state)


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
            "streams": [shard["key"]["stream_id"]],
            "engines": [
                [shard["key"]["stream_id"], [8, 4], shard["engine"], []],
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
        # Overrides are argument errors, never "corrupt checkpoint":
        # a placement typo raises ValueError eagerly, not CheckpointError.
        with pytest.raises(ValueError, match="unknown placement policy"):
            Session.restore(blob, placement="warmest-core")
        with pytest.raises(ValueError, match="unknown placement policy"):
            Session(backend="inline", placement="warmest-core")


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

    def test_pool_migration_resumes_byte_identically(self):
        """A stream moved between workers (expel → standalone shard
        documents → adopt) checkpoints, restores and continues exactly like
        the same workload on a router."""
        queries, events = scenario(72, num_feeds=3, frames=40)
        half = len(events) // 2
        reference = make_session("router", queries)
        reference.ingest_many(events[:half])
        expected = finish(reference, events[half:])

        session = make_session("pool", queries)
        session.ingest_many(events[:half])
        pool = session._backend.pool
        stream_id = pool.stream_ids()[0]
        target = (pool.assignment()[stream_id] + 1) % pool.num_workers
        assert pool.migrate_stream(stream_id, target)
        blob = session.checkpoint()
        session.close()

        restored = Session.restore(blob)
        assert restored.checkpoint() == blob
        assert finish(restored, events[half:]) == expected


class TestRouterPoolByteTransparency:
    def _driven_session(self, backend, queries, events):
        session = make_session(backend, queries)
        session.ingest_many(events)
        session.flush()
        return session

    def test_router_checkpoint_on_pool_reexports_byte_identically(self):
        """Router snapshot → pool → re-checkpoint: the pool's state is the
        identical router-layout document plus its placement block; dropping
        the block restores byte equality, and the round trip back onto a
        router is byte-identical with no caveats."""
        queries, events = scenario(63)
        router_session = self._driven_session("router", queries, events)
        router_blob = router_session.checkpoint()
        router_state = state_of(router_blob)
        router_session.close()

        pool_session = Session.restore(router_blob, backend="pool")
        pool_blob = pool_session.checkpoint()
        pool_session.close()
        pool_state = state_of(pool_blob)
        placement = pool_state.pop("placement")
        assert placement["assignment"], "pool did not place the streams"
        assert to_bytes("router", pool_state) == to_bytes(
            "router", router_state
        ), "pool re-export diverged from the router checkpoint"

        # Round trip back: pool export (placement block included) restored
        # onto a router re-exports the original router document verbatim.
        round_trip = Session.restore(pool_blob, backend="router")
        assert to_bytes("router", state_of(round_trip.checkpoint())) == \
            to_bytes("router", router_state)
        round_trip.close()

    def test_pool_checkpoint_on_router_and_back_keeps_placement_fresh(self):
        """Pool → router → pool: the router leg drops the placement block,
        so the second pool re-places streams; everything else round-trips
        byte-identically."""
        queries, events = scenario(64)
        pool_session = self._driven_session("pool", queries, events)
        pool_blob = pool_session.checkpoint()
        pool_state = state_of(pool_blob)
        pool_session.close()

        router_session = Session.restore(pool_blob, backend="router")
        router_state = state_of(router_session.checkpoint())
        router_session.close()
        assert "placement" not in router_state
        expected = dict(pool_state)
        original_placement = expected.pop("placement")
        assert to_bytes("router", router_state) == to_bytes("router", expected)

        second_pool = Session.restore(pool_blob, backend="pool")
        assert state_of(second_pool.checkpoint())["placement"] == \
            original_placement
        second_pool.close()

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

    def test_restore_with_num_workers_override_remaps_layout(self):
        queries, events = scenario(66)
        session = make_session("pool", queries, num_workers=3)
        session.ingest_many(events)
        session.flush()
        blob = session.checkpoint()
        layout = {
            sid: idx
            for sid, idx in state_of(blob)["placement"]["assignment"]
        }
        session.close()
        restored = Session.restore(blob, num_workers=2)
        try:
            assert restored._backend.pool.num_workers == 2
            assert restored._backend.pool.assignment() == {
                sid: idx % 2 for sid, idx in layout.items()
            }
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

    def test_malformed_placement_block_is_a_checkpoint_error(self):
        queries, events = scenario(67, num_feeds=2, frames=20)
        session = self._driven_session("pool", queries, events)
        blob = session.checkpoint()
        session.close()
        payload = from_bytes(blob, expect_kind="session")
        broken = from_bytes(blob, expect_kind="session")
        broken["state"]["placement"]["assignment"] = [["cam-00"]]
        with pytest.raises(CheckpointError):
            Session.restore(to_bytes("session", broken))
        # An assignment that parses but names an impossible layout is
        # malformed *data* too — CheckpointError, not a raw PoolError.
        negative = from_bytes(blob, expect_kind="session")
        negative["state"]["placement"]["assignment"][0][1] = -1
        with pytest.raises(CheckpointError, match="invalid placement"):
            Session.restore(to_bytes("session", negative))
        # Load history for a stream the layout does not assign: same
        # contract.
        orphaned = from_bytes(blob, expect_kind="session")
        orphaned["state"]["placement"]["assignment"] = []
        with pytest.raises(CheckpointError, match="no persisted assignment"):
            Session.restore(to_bytes("session", orphaned))


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
