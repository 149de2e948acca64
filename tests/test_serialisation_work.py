"""Work-counter gates on what serialising costs.

Wall clock is advisory on a shared machine; these counts repeat exactly, so
they are what fails CI when serialisation goes back to paying per value or
per match:

* ``Session.checkpoint()`` is counted in Python-level calls per live state
  (``sys.setprofile`` ``call`` events, the way the stack benchmark counts
  ``py_calls``) — a codec or exporter that walks one call per value reads in
  the hundreds;
* ``Session.checkpoint()`` and ``Session.restore`` are counted in executed
  Python lines per live state (``sys.settrace`` ``line`` events) — an
  exporter or importer that loops in Python over frames, runs or memo
  entries instead of handing whole columns to C reads in the hundreds;
* ``Session.checkpoint()`` and ``Session.restore`` of a 300-query session
  are counted in executed Python lines per query — a codec that walks the
  workload value by value, or a restore that builds a query twice, reads
  several times the gate;
* a pool drain is counted in records shipped per result state;
* a registration's duplicate check is counted in ``CNFQuery.__eq__``
  calls, flat in the number of active queries;
* a session checkpoint writes each query as one row of one query table
  (the router's ``queries`` for an active query, the registry's
  ``cancelled`` for a cancelled one) and names it by id everywhere else,
  and its restore builds each query once, whatever the number of streams
  and window groups.
"""

from __future__ import annotations

import gc
import random
import sys
from typing import Dict, Iterator

import pytest

from repro.datamodel import FrameObservation
from repro.query.model import CNFQuery, pack_queries
from repro.session import Session
from repro.streaming import StreamRouter
from repro.streaming.checkpoint import from_bytes
from repro.workloads.generator import random_cnf_workload
from repro.workloads.streams import bench_scenario, interleave_feeds

#: Python calls one checkpoint may make per live state.  Measured: 2.8 on
#: this scene (187 when every state was a dict and every value a call).
CALLS_PER_LIVE_STATE = 16

#: Python lines one checkpoint and one restore may run per live state.
#: Measured on this scene with Python 3.11: 21 and 72 (235 and 148 when
#: frames were written as runs and the edge memo as one global set of
#: serial pairs).
LINES_PER_LIVE_STATE = {"checkpoint": 80, "restore": 115}


#: Python lines one checkpoint and one restore may run per query of
#: :func:`fanout_session`.  Measured with Python 3.11: 189 and 339 (951
#: and 1680 when each query was a dict tree, decoded value by value and
#: built twice; the restore's 384 when the index kept three posting-list
#: indexes).  Indexing the queries is most of the restore's.
LINES_PER_QUERY = {"checkpoint": 380, "restore": 680}


def python_calls(function) -> int:
    """Python-level calls made while ``function`` runs.

    The garbage collector runs first and is paused meanwhile: a collection
    inside ``function`` would add the finalizers of earlier tests' garbage
    (weakref callbacks, ``__del__``) to its calls.
    """
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        function()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def python_lines(function) -> int:
    """Python lines executed while ``function`` runs (``sys.settrace``
    ``line`` events), with the garbage collector paused as in
    :func:`python_calls`."""
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return trace

    gc.collect()
    gc.disable()
    sys.settrace(trace)
    try:
        function()
    finally:
        sys.settrace(None)
        gc.enable()
    return lines


def dense_scene(seed: int, frames: int, objects: int = 10, presence: float = 0.8):
    """Every object in most frames, each flickering on its own: the window
    holds hundreds of distinct co-occurrence sets."""
    rng = random.Random(seed)
    labels = {oid: ("car", "person", "truck")[oid % 3] for oid in range(objects)}
    return [
        FrameObservation(frame_id, {
            oid: label for oid, label in labels.items() if rng.random() < presence
        })
        for frame_id in range(frames)
    ]


def dense_session() -> Session:
    """An inline SSG session fed :func:`dense_scene`, its matches taken."""
    window = 30
    session = Session(backend="inline", method="SSG")
    for conditions in (
        [[("car", ">=", 1)]],
        [[("person", ">=", 1)]],
        [[("car", ">=", 2), ("truck", ">=", 2)]],
    ):
        session.register(CNFQuery.from_condition_lists(
            conditions, window=window, duration=window * 4 // 5
        ))
    for frame in dense_scene(7, frames=80):
        session.ingest("dense", frame)
    for handle in session.handles:
        handle.take_matches()
    return session


def live_states(session: Session) -> int:
    live = sum(
        shard.engine.generator.live_state_count()
        for shard in session._router.shards().values()
    )
    assert live >= 200, "scene too small to say anything per state"
    return live


def test_checkpoint_costs_a_few_calls_per_live_state():
    with dense_session() as session:
        live = live_states(session)
        calls = python_calls(session.checkpoint)
    assert calls <= CALLS_PER_LIVE_STATE * live, (
        f"{calls} Python calls for {live} live states "
        f"({calls / live:.1f} per state)"
    )


def test_checkpoint_and_restore_run_a_few_lines_per_live_state():
    with dense_session() as session:
        live = live_states(session)
        blob = session.checkpoint()
        lines = {"checkpoint": python_lines(session.checkpoint)}
        restored = []
        lines["restore"] = python_lines(
            lambda: restored.append(Session.restore(blob))
        )
    with restored[0]:
        assert restored[0].checkpoint() == blob
    for step, limit in LINES_PER_LIVE_STATE.items():
        assert lines[step] <= limit * live, (
            f"{step}: {lines[step]} Python lines for {live} live states "
            f"({lines[step] / live:.1f} per state)"
        )


def fanout_session() -> Session:
    """An inline session of 300 random CNF queries of up to 10 clauses in
    three window groups, 30 of them cancelled, fed a short two-stream
    scene, its matches taken."""
    feeds, _ = bench_scenario(2, 20, [(8, 4)], 1, 3)
    session = Session(backend="inline")
    handles = [
        session.register(query)
        for seed, (window, duration) in enumerate(((8, 4), (12, 6), (16, 8)))
        for query in random_cnf_workload(
            100, window=window, duration=duration, max_disjunctions=10,
            seed=seed,
        ).queries
    ]
    session.ingest_many(interleave_feeds(feeds))
    for handle in handles:
        handle.take_matches()
    for handle in handles[:30]:
        handle.cancel()
    return session


def test_checkpoint_and_restore_run_a_few_lines_per_query():
    with fanout_session() as session:
        queries = len(session.handles)
        assert queries >= 300
        blob = session.checkpoint()
        lines = {"checkpoint": python_lines(session.checkpoint)}
        restored = []
        lines["restore"] = python_lines(
            lambda: restored.append(Session.restore(blob))
        )
    with restored[0]:
        assert restored[0].checkpoint() == blob
    for step, limit in LINES_PER_QUERY.items():
        assert lines[step] <= limit * queries, (
            f"{step}: {lines[step]} Python lines for {queries} queries "
            f"({lines[step] / queries:.1f} per query)"
        )


def test_pool_drain_ships_one_record_per_result_state():
    feeds, queries = bench_scenario(4, 80, [(8, 4), (12, 6)], 4, 11)
    events = list(interleave_feeds(feeds))
    # The in-process router says how many result states matched something.
    oracle = StreamRouter(queries, batch_size=4)
    oracle.route_many(events)
    oracle.flush()
    group_of = {q.query_id: (q.window, q.duration) for q in oracle.queries}
    result_states = matches = 0
    for shard in oracle.shards().values():
        matches += len(shard.matches)
        result_states += len({
            (m.frame_id, m.object_ids, m.frame_ids, group_of[m.query_id])
            for m in shard.matches
        })
    assert 0 < result_states < matches
    with Session(backend="pool", method="SSG", batch_size=4, num_workers=2) as session:
        handles = [session.register(query) for query in queries]
        delivered = 0
        for count, (stream_id, frame) in enumerate(events, 1):
            session.ingest(stream_id, frame)
            if count % 32 == 0:
                delivered += sum(len(h.take_matches()) for h in handles)
        session.flush()
        delivered += sum(len(h.take_matches()) for h in handles)
        shipped = session.stats()["backend_stats"]["pool"]
    assert delivered == matches == shipped["matches_shipped"]
    assert shipped["match_records_shipped"] <= result_states, shipped


#: The columns of a query table (:func:`pack_queries`).
TABLE_COLUMNS = set(pack_queries([]))


def query_tables(tree) -> Iterator[Dict]:
    """Every query table in a document tree."""
    if isinstance(tree, dict):
        if set(tree) == TABLE_COLUMNS:
            yield tree
            return
        tree = list(tree.values())
    if isinstance(tree, list):
        for item in tree:
            yield from query_tables(item)


#: Three window groups of three queries each; two of the first group's are
#: cancelled mid-stream, which leaves that group live.
QUERY_GROUPS = ((8, 4), (12, 7), (16, 9))
QUERIES_PER_GROUP = 3
CANCELLED = 2


def query_rows(backend: str, num_streams: int, monkeypatch):
    """(distinct queries, query ids of every query-table row of a
    checkpoint, queries its restore builds) on a session with
    ``num_streams`` streams."""
    feeds, queries = bench_scenario(
        num_streams, 40, QUERY_GROUPS, QUERIES_PER_GROUP, 11
    )
    events = list(interleave_feeds(feeds))
    session = Session(backend=backend, batch_size=4)
    handles = [session.register(query) for query in queries]
    session.ingest_many(events[: len(events) // 2])
    for handle in handles[:CANCELLED]:
        handle.cancel()
    session.ingest_many(events[len(events) // 2:])
    distinct = len(session.handles)
    assert len(session.queries) == distinct - CANCELLED
    assert len(session.stream_ids()) == num_streams
    blob = session.checkpoint()
    session.close()
    rows = [
        query_id
        for table in query_tables(from_bytes(blob, expect_kind="session"))
        for query_id in table["ids"]
    ]
    built = []
    post_init = CNFQuery.__post_init__

    def counted_post_init(query):
        built.append(query.query_id)
        post_init(query)

    monkeypatch.setattr(CNFQuery, "__post_init__", counted_post_init)
    try:
        restored = Session.restore(blob)
    finally:
        monkeypatch.undo()
    assert restored.checkpoint() == blob
    restored.close()
    return distinct, rows, built


@pytest.mark.parametrize("backend", ["inline", "router"])
def test_each_query_is_one_row_of_exactly_one_table(backend, monkeypatch):
    """A checkpoint writes each query as one row of one query table (the
    router's ``queries`` for an active query, the registry's
    ``cancelled`` for a cancelled one), and a restore builds each query
    once, whatever the number of streams and window groups."""
    for num_streams in (1, 3):
        distinct, rows, built = query_rows(backend, num_streams, monkeypatch)
        assert distinct == len(QUERY_GROUPS) * QUERIES_PER_GROUP
        assert sorted(rows) == list(range(distinct)), (
            f"S={num_streams}: the checkpoint's query tables hold rows "
            f"{rows} for {distinct} distinct queries"
        )
        assert sorted(built) == list(range(distinct)), (
            f"S={num_streams}: restore built queries {built} for "
            f"{distinct} distinct queries"
        )


def test_duplicate_detection_is_flat_in_the_active_workload(monkeypatch):
    """``Session.register`` finds a duplicate with one dict lookup: its
    ``CNFQuery.__eq__`` calls and its Python calls do not grow with the
    number of active queries (a scan of the workload made one comparison
    per active query)."""
    queries = random_cnf_workload(
        260, window=8, duration=4, max_disjunctions=3, seed=5
    ).queries
    equality = CNFQuery.__eq__
    compared = []

    def counted_eq(self, other):
        compared.append(1)
        return equality(self, other)

    monkeypatch.setattr(CNFQuery, "__eq__", counted_eq)
    distinct = list(dict.fromkeys(queries))
    probe = distinct.pop()
    per_size = {}
    with Session(backend="router") as session:
        fill = iter(distinct)
        for size in (10, 200):
            while len(session.queries) < size:
                session.register(next(fill))
            compared.clear()
            calls = python_calls(
                lambda: session.register(CNFQuery.from_dict(probe.to_dict()))
            )
            fresh_eq = len(compared)
            compared.clear()
            with pytest.raises(ValueError, match="duplicate registration"):
                session.register(CNFQuery.from_dict(probe.to_dict()))
            per_size[size] = (calls, fresh_eq, len(compared))
            session.cancel(session.handles[-1])
    assert per_size[10] == per_size[200], per_size
    assert per_size[200][1] == 0 and per_size[200][2] == 1, per_size
