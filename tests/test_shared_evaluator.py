"""The router owns the workload: one query evaluator per window group.

Every stream's engine evaluates against its router's evaluator of the
group, so a registration indexes its query once however many streams are
live, a restore indexes each live query once, and checkpoints state each
query, window group and setting once: shard entries hold per-stream state
only, session documents no copy of the router's id counter or group order.
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.query import CNFEvalEIndex, parse_query
from repro.streaming import StreamRouter
from repro.streaming.checkpoint import from_bytes
from repro.workloads.streams import bench_scenario, interleave_feeds

GROUPS = [(6, 3), (9, 4)]


@pytest.fixture
def index_insertions(monkeypatch):
    """A list that counts every ``CNFEvalEIndex.add_query`` call."""
    calls = []
    add_query = CNFEvalEIndex.add_query

    def counted(index, query):
        calls.append(query.query_id)
        return add_query(index, query)

    monkeypatch.setattr(CNFEvalEIndex, "add_query", counted)
    return calls


def live_session(backend: str, streams: int) -> tuple:
    """A session whose ``streams`` streams all carry frames, with half of
    a two-group workload registered before and half after they start."""
    feeds, queries = bench_scenario(streams, 12, GROUPS, 2, 3)
    events = list(interleave_feeds(feeds))
    session = Session(backend=backend, batch_size=2)
    for query in queries[::2]:
        session.register(query)
    session.ingest_many(events)
    session.flush()
    assert len(session._router.shards()) == streams
    return session, queries[1::2]


@pytest.mark.parametrize("streams", [1, 8])
@pytest.mark.parametrize("backend", ["inline", "router"])
def test_registration_indexes_each_query_once(backend, streams, index_insertions):
    session, later = live_session(backend, streams)
    with session:
        index_insertions.clear()
        for query in later:
            session.register(query)
        assert len(index_insertions) == len(later)
        # Cancelling never indexes.
        session.cancel(session.handles[0])
        assert len(index_insertions) == len(later)


@pytest.mark.parametrize("backend", ["inline", "router"])
def test_restore_indexes_each_live_query_once(backend, index_insertions):
    session, later = live_session(backend, 8)
    with session:
        for query in later:
            session.register(query)
        session.cancel(session.handles[1])
        live = [handle.query_id for handle in session.handles if handle.active]
        blob = session.checkpoint()
    index_insertions.clear()
    with Session.restore(blob) as restored:
        assert sorted(index_insertions) == live
        assert restored.checkpoint() == blob


def test_every_shard_evaluates_against_the_routers_evaluators():
    feeds, queries = bench_scenario(3, 12, GROUPS, 2, 5)
    router = StreamRouter(queries[:2] + queries[3:], batch_size=1)
    router.route_many(interleave_feeds(feeds))
    router.register_query(queries[2])
    router.register_query(parse_query("car >= 1", window=11, duration=5))
    restored = StreamRouter.from_bytes(router.to_bytes())
    for owner in (router, restored):
        evaluators = owner._groups
        assert list(evaluators) == owner.group_keys == GROUPS + [(11, 5)]
        for shard in owner.shards().values():
            served = {
                key: group.evaluator
                for key, group in shard.engine._groups.items()
            }
            assert list(served) == list(evaluators)
            assert all(served[key] is evaluators[key] for key in evaluators)


def test_evaluator_counters_are_router_level():
    feeds, queries = bench_scenario(2, 12, GROUPS, 2, 7)
    router = StreamRouter(queries, batch_size=1)
    router.route_many(interleave_feeds(feeds))
    stats = router.stats()
    assert all("evaluator" not in entry for entry in stats["per_shard"].values())
    states = sum(
        evaluator.stats.states_evaluated
        for evaluator in router._groups.values()
    )
    assert stats["evaluator"]["states_evaluated"] == states > 0


def test_documents_state_each_workload_fact_once():
    feeds, queries = bench_scenario(2, 12, GROUPS, 2, 9)
    events = list(interleave_feeds(feeds))
    with Session(backend="router", batch_size=3) as session:
        for query in queries:
            session.register(query)
        session.ingest_many(events)
        session.cancel(session.handles[0])
        document = from_bytes(session.checkpoint(), expect_kind="session")
    assert set(document) == {"config", "registry", "streams", "state"}
    assert set(document["registry"]) == {
        "ids", "cancelled", "delivered", "matches", "registered_at",
    }
    router = document["state"]
    assert router["group_order"] == [list(group) for group in GROUPS]
    assert len(router["shards"]) == 2
    for entry in router["shards"]:
        assert set(entry) == {
            "stream_id", "max_seen", "last_emitted", "pending", "retained",
            "stats", "engine",
        }
        assert set(entry["engine"]) == {
            "sources", "labels", "counters", "generators",
        }
