"""The query table: a workload written once as columns, read back exactly.

``pack_queries`` is how every document holding queries writes them — a
router's ``queries``, an engine document's groups, a session registry's
cancelled handles.  ``unpack_queries`` must give back every query with
its id, name, window and duration, its clauses and their conditions in
their original order, and packing that again must give the same bytes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import Session
from repro.query import CNFQuery, Comparison, Condition, Disjunction
from repro.query import pack_queries, unpack_queries
from repro.streaming import checkpoint as ckpt
from repro.workloads.generator import random_cnf_workload
from repro.workloads.streams import bench_scenario, interleave_feeds


def fields(queries):
    """Everything a query carries, clause and condition order included."""
    return [
        (
            query.query_id, query.name, query.window, query.duration,
            [
                [(c.label, c.comparison, c.threshold) for c in d.conditions]
                for d in query.disjunctions
            ],
        )
        for query in queries
    ]


def table_bytes(table) -> bytes:
    return ckpt.to_bytes("router", {"queries": table})


def assert_round_trips(queries) -> None:
    """The table restores every field, shares one condition per distinct
    triple, and packs again to the same bytes, also through the codec."""
    table = pack_queries(queries)
    restored = unpack_queries(table)
    assert fields(restored) == fields(queries)
    assert restored == queries  # structural equality, window and duration
    distinct = {}
    for query in restored:
        for condition in query.conditions():
            key = (condition.label, condition.comparison, condition.threshold)
            assert distinct.setdefault(key, condition) is condition
    assert len(distinct) == len(table["labels"])
    assert table_bytes(pack_queries(restored)) == table_bytes(table)
    decoded = ckpt.from_bytes(table_bytes(table))["queries"]
    assert decoded == table
    assert table_bytes(pack_queries(unpack_queries(decoded))) == table_bytes(table)


@settings(max_examples=60, deadline=None)
@given(
    num_queries=st.integers(0, 40),
    max_disjunctions=st.integers(1, 4),
    max_conditions=st.integers(1, 4),
    max_threshold=st.integers(1, 300),
    window=st.integers(1, 400),
    seed=st.integers(0, 2**16),
    first_id=st.integers(0, 2**40),
)
def test_random_workloads_round_trip(
    num_queries, max_disjunctions, max_conditions, max_threshold, window,
    seed, first_id,
):
    workload = random_cnf_workload(
        num_queries, window=window, duration=window // 2,
        max_disjunctions=max_disjunctions, max_conditions=max_conditions,
        min_threshold=0, max_threshold=max_threshold, seed=seed,
    )
    assert_round_trips([
        query.with_id(first_id + 3 * at)
        for at, query in enumerate(workload.queries)
    ])


def query(groups, query_id=0, name="", window=8, duration=4):
    return CNFQuery(
        tuple(Disjunction(tuple(group)) for group in groups),
        window=window, duration=duration, query_id=query_id, name=name,
    )


def test_every_operator_round_trips():
    conditions = [Condition("car", comparison, 2) for comparison in Comparison]
    assert_round_trips([
        query([conditions], 0),
        query([[c] for c in reversed(conditions)], 1),
    ])


def test_a_legacy_label_round_trips_through_trusted():
    """Labels written before the label grammar existed restore through
    :meth:`Condition.trusted`, as they did from query dicts."""
    for label in ("traffic light", "café"):
        with pytest.raises(ValueError):
            Condition(label, Comparison.GE, 1)
        legacy = Condition.trusted(label, Comparison.GE, 1)
        assert_round_trips([query([[legacy], [Condition("car", Comparison.LE, 0)]])])


def test_unicode_and_empty_names_round_trip():
    car = Condition("car", Comparison.GE, 1)
    assert_round_trips([
        query([[car]], 0, name=""),
        query([[car]], 1, name="перекрёсток ☃"),
        query([[car]], 2, name=""),
    ])


def test_single_condition_queries_and_the_empty_list_round_trip():
    assert_round_trips([])
    assert pack_queries([]) == {key: [] for key in pack_queries([])}
    assert_round_trips([
        query([[Condition("bus", Comparison.EQ, n)]], n, window=n + 1, duration=n)
        for n in range(10)
    ])


def test_the_dictionary_lists_conditions_in_first_use_order():
    bus, car = Condition("bus", Comparison.GE, 1), Condition("car", Comparison.LE, 3)
    table = pack_queries([query([[car], [bus, car]], 0), query([[bus]], 1)])
    assert table["conditions"] == [0, 1, 0, 1]
    assert (table["labels"], table["operators"], table["thresholds"]) == (
        ["car", "bus"], [0, 2], [3, 1]
    )
    assert (table["clauses"], table["sizes"]) == ([2, 1], [1, 2, 1])


@pytest.mark.parametrize("cancel", [0, 1, 3], ids=lambda n: f"cancelled={n}")
def test_session_registries_round_trip(cancel):
    """Cancelled handles are the registry's own query table; an empty
    registry and a registry without cancellations restore too, and each
    restored session re-checkpoints byte-identically."""
    feeds, queries = bench_scenario(2, 30, [(8, 4), (12, 6)], 2, 3)
    events = list(interleave_feeds(feeds))
    with Session(backend="router", batch_size=3) as session:
        empty = session.checkpoint()
        handles = [session.register(q) for q in queries]
        session.ingest_many(events[:20])
        for handle in handles[:cancel]:
            handle.cancel()
        session.ingest_many(events[20:])
        blob = session.checkpoint()
        registry = ckpt.from_bytes(blob)["registry"]
        assert registry["ids"] == [handle.query_id for handle in handles]
        assert registry["cancelled"]["ids"] == [
            handle.query_id for handle in handles[:cancel]
        ]
        with Session.restore(blob) as restored:
            assert fields(h.query for h in restored.handles) == fields(
                h.query for h in handles
            )
            assert [h.active for h in restored.handles] == [
                h.active for h in handles
            ]
            assert restored.checkpoint() == blob
    with Session.restore(empty) as restored:
        assert restored.handles == []
        assert restored.checkpoint() == empty
