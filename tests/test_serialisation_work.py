"""Work-counter gates on what serialising costs.

Wall clock is advisory on a shared machine; these counts repeat exactly, so
they are what fails CI when serialisation goes back to paying per value or
per match:

* ``Session.checkpoint()`` is counted in Python-level calls per live state
  (``sys.setprofile`` ``call`` events, the way the stack benchmark counts
  ``py_calls``) — a codec or exporter that walks one call per value reads in
  the hundreds;
* a pool drain is counted in records shipped per result state;
* a registration's duplicate check is counted in ``CNFQuery.__eq__``
  calls, flat in the number of active queries;
* a session checkpoint and restore are counted in
  :meth:`CNFQuery.to_dict` / :meth:`CNFQuery.from_dict` calls: a document
  holds each query once (the router's ``queries`` for an active query, its
  registry entry for a cancelled one) and names it by id everywhere else,
  so both counts equal the number of distinct queries, whatever the number
  of streams and window groups.
"""

from __future__ import annotations

import gc
import random
import sys

import pytest

from repro.datamodel import FrameObservation
from repro.query.model import CNFQuery
from repro.session import Session
from repro.streaming import StreamRouter
from repro.workloads.generator import random_cnf_workload
from repro.workloads.streams import bench_scenario, interleave_feeds

#: Python calls one checkpoint may make per live state.  Measured: 2.8 on
#: this scene (187 when every state was a dict and every value a call).
CALLS_PER_LIVE_STATE = 16


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


def test_checkpoint_costs_a_few_calls_per_live_state():
    window = 30
    with Session(backend="inline", method="SSG") as session:
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
        live = sum(
            shard.engine.generator.live_state_count()
            for shard in session._router.shards().values()
        )
        assert live >= 200, "scene too small to say anything per state"
        calls = python_calls(session.checkpoint)
    assert calls <= CALLS_PER_LIVE_STATE * live, (
        f"{calls} Python calls for {live} live states "
        f"({calls / live:.1f} per state)"
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


class CallCounter:
    """Counts calls of ``CNFQuery.to_dict`` and ``CNFQuery.from_dict``."""

    def __init__(self, monkeypatch):
        self.to_dict = 0
        self.from_dict = 0
        to_dict = CNFQuery.to_dict
        from_dict = CNFQuery.from_dict.__func__

        def counted_to_dict(query):
            self.to_dict += 1
            return to_dict(query)

        def counted_from_dict(cls, payload):
            self.from_dict += 1
            return from_dict(cls, payload)

        monkeypatch.setattr(CNFQuery, "to_dict", counted_to_dict)
        monkeypatch.setattr(
            CNFQuery, "from_dict", classmethod(counted_from_dict)
        )

    def reset(self) -> None:
        self.to_dict = self.from_dict = 0


#: Three window groups of three queries each; two of the first group's are
#: cancelled mid-stream, which leaves that group live.
QUERY_GROUPS = ((8, 4), (12, 7), (16, 9))
QUERIES_PER_GROUP = 3
CANCELLED = 2


def query_serialisation_calls(backend: str, num_streams: int, monkeypatch):
    """(distinct queries, to_dict calls of a checkpoint, from_dict calls of
    its restore) on a session with ``num_streams`` streams."""
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
    counter = CallCounter(monkeypatch)
    try:
        blob = session.checkpoint()
        written = counter.to_dict
        counter.reset()
        restored = Session.restore(blob)
        read = counter.from_dict
    finally:
        monkeypatch.undo()
        session.close()
    assert restored.checkpoint() == blob
    restored.close()
    return distinct, written, read


@pytest.mark.parametrize("backend", ["inline", "router"])
def test_checkpoint_writes_and_restore_reads_each_query_once(
    backend, monkeypatch
):
    counts = {}
    for num_streams in (1, 3):
        distinct, written, read = query_serialisation_calls(
            backend, num_streams, monkeypatch
        )
        assert distinct == len(QUERY_GROUPS) * QUERIES_PER_GROUP
        assert written == distinct, (
            f"S={num_streams}: checkpoint made {written} to_dict calls for "
            f"{distinct} distinct queries"
        )
        assert read == distinct, (
            f"S={num_streams}: restore made {read} from_dict calls for "
            f"{distinct} distinct queries"
        )
        counts[num_streams] = (written, read)
    assert counts[1] == counts[3], "query serialisation grows with streams"


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
