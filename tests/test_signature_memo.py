"""The count-signature memo of ``QueryEvaluator`` and its delta maintenance.

The memo must be invisible: whatever is registered, cancelled or evaluated
in whatever order, every answer equals the index-free oracle and a fresh
evaluator; sharing one evaluator between streams with different label maps
is safe; and since the memo is never checkpointed, a restore resumes cold
yet delivers exactly what an uninterrupted run does.  The same holds for
the per-result-set memo that lets a state surviving from the previous frame
skip its evaluation: an engine's matches and counters equal a cold
state-by-state evaluation's.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Session
from repro.core.result import ResultState, ResultStateSet
from repro.datamodel import FrameObservation
from repro.engine import EngineConfig, MCOSMethod, TemporalVideoQueryEngine
from repro.query import CNFEvalEIndex, QueryEvaluator, parse_query
from repro.query.evaluator import pack_matches
from repro.query.inequality import SLOT_SLACK
from repro.streaming import match_report
from repro.workloads import random_cnf_workload
from repro.workloads.streams import bench_scenario, interleave_feeds

LABELS = ("person", "car", "truck", "bus")
#: Thresholds up to 6 over four classes; a few queries mention a fifth class
#: and a larger threshold so registrations raise clamps mid-sequence.
POOL = (
    random_cnf_workload(500, max_threshold=4, seed=31).queries
    + random_cnf_workload(
        12, classes=LABELS + ("bike",), max_threshold=6, seed=32
    ).queries
)
COUNTS = st.dictionaries(
    st.sampled_from(LABELS + ("bike", "dog")), st.integers(0, 9), max_size=6
)
#: A fixed sweep of count vectors over the pool's classes (missing = 0).
SWEEP = [
    dict(zip(LABELS + ("bike",), random.Random(seed).choices(range(8), k=5)))
    for seed in range(40)
] + [{}]


def check(evaluator, live, counts):
    """``evaluator``'s answer against the oracle and a fresh evaluator."""
    answer = evaluator.evaluate_counts(counts)
    assert list(answer) == sorted(answer)
    assert set(answer) == evaluator.brute_force_matching(counts)
    assert set(answer) == {
        query_id for query_id, query in live.items() if query.evaluate(counts)
    }
    fresh = QueryEvaluator(live.values())
    assert fresh.evaluate_counts(counts) == answer
    assert fresh.labels_of_interest() == evaluator.labels_of_interest()


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_interleaved_register_cancel_evaluate(self, data):
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        # Explicit, non-monotone ids: a shuffled, sparse id space.
        ids = rng.sample(range(5_000), len(POOL))
        unused = list(zip(ids, POOL))
        evaluator = QueryEvaluator()
        live = {}
        for query_id, query in unused[:data.draw(st.integers(0, 512))]:
            live[query_id] = evaluator.add_query(query.with_id(query_id))
        del unused[:len(live)]
        warm = data.draw(st.lists(COUNTS, max_size=6))
        for counts in warm:
            evaluator.evaluate_counts(counts)
        for _ in range(data.draw(st.integers(1, 24))):
            op = data.draw(st.sampled_from(("add", "remove", "evaluate")))
            if op == "add" and unused and len(live) < 512:
                query_id, query = unused.pop()
                live[query_id] = evaluator.add_query(query.with_id(query_id))
            elif op == "remove" and live:
                query_id = data.draw(st.sampled_from(sorted(live)))
                assert evaluator.remove_query(query_id) is live.pop(query_id)
            else:
                check(evaluator, live, data.draw(COUNTS))
        for counts in warm:
            check(evaluator, live, counts)
        assert [q.query_id for q in evaluator.queries] == list(live)

    def test_remove_leaves_the_index_as_if_never_added(self):
        queries = [q.with_id(i) for i, q in enumerate(POOL[:64])]
        index = CNFEvalEIndex(queries)
        for query in queries[::2]:
            index.remove_query(query.query_id)
        fresh = CNFEvalEIndex(queries[1::2])
        assert index._conditions.keys() == fresh._conditions.keys()
        assert index.labels() == fresh.labels()
        for counts in SWEEP:
            assert index.matching_queries(counts) == fresh.matching_queries(counts)
        # The id floor is the one thing removal must not roll back.
        assert index.next_query_id == 64

    def test_churn_keeps_the_slots_bounded(self):
        rng = random.Random(5)
        evaluator = QueryEvaluator(POOL[:40])
        index = evaluator.index
        for cycle in range(10_000):
            evaluator.remove_query(rng.choice(list(index.queries)))
            evaluator.add_query(rng.choice(POOL))
            clauses = sum(len(q.disjunctions) for q in index.queries.values())
            assert index._next_slot <= 2 * clauses + SLOT_SLACK
            if cycle % 500 == 0:
                for counts in SWEEP:
                    assert index.matching_queries(counts) \
                        == evaluator.brute_force_matching(counts)
        assert len(index) == 40

    def test_patching_keeps_cached_answers_and_clamp_growth_drops_them(self):
        evaluator = QueryEvaluator([parse_query("car >= 2"), parse_query("person <= 1")])
        assert evaluator.evaluate_counts({"car": 7}) == (0, 1)
        assert evaluator.evaluate_counts({"car": 3}) == (0, 1)  # same signature
        assert (evaluator.stats.signature_hits, evaluator.stats.signature_misses) == (1, 1)
        # Within the clamps: patched in place, answered without a cold probe.
        added = evaluator.add_query(parse_query("car >= 1 AND person <= 0"))
        assert evaluator.evaluate_counts({"car": 9}) == (0, 1, added.query_id)
        evaluator.remove_query(0)
        assert evaluator.evaluate_counts({"car": 9}) == (1, added.query_id)
        assert evaluator.stats.signature_misses == 1
        # A larger threshold needs a finer signature: cold again.
        evaluator.add_query(parse_query("car >= 8"))
        assert evaluator.evaluate_counts({"car": 7}) == (1, added.query_id)
        assert evaluator.evaluate_counts({"car": 9}) == (1, added.query_id, 3)
        assert evaluator.stats.signature_misses == 3


def test_shared_evaluator_with_colliding_object_ids():
    """One evaluator, two streams that give the same object ids different
    classes: answers follow the counts, never the ids."""
    evaluator = QueryEvaluator(
        [parse_query("car >= 2"), parse_query("person >= 2"),
         parse_query("car >= 1 AND person >= 1")]
    )
    car, person, mixed = (q.query_id for q in evaluator.queries)
    labels = {"cam-a": {1: "car", 2: "car"}, "cam-b": {1: "person", 2: "person"},
              "cam-c": {1: "person", 2: "car"}}
    expected = {"cam-a": [car], "cam-b": [person], "cam-c": [mixed]}
    for frame_id in range(3):
        results = ResultStateSet(frame_id, [ResultState(frozenset({1, 2}), (frame_id,))])
        for stream_id in labels:
            matches = evaluator.evaluate_result_set(results, labels[stream_id], stream_id)
            assert [m.query_id for m in matches] == expected[stream_id]
            assert {m.stream_id for m in matches} == {stream_id}
    assert evaluator.stats.signature_misses == 3
    assert evaluator.stats.signature_hits == 6


def _evaluator_counters(session):
    return session.stats()["backend_stats"]["evaluator"]


@pytest.mark.parametrize("backend", ("inline", "router", "pool"))
def test_restore_with_warm_memo_equals_uninterrupted_run(backend):
    feeds, queries = bench_scenario(3, 60, ((8, 4), (12, 7)), 2, 71)
    events = list(interleave_feeds(feeds))
    half = len(events) // 2

    def open_session():
        session = Session(backend=backend, batch_size=5)
        for query in queries:
            session.register(query)
        return session

    def finish(session):
        session.ingest_many(events[half:])
        session.flush()
        report = match_report(session.drain())
        document = session.checkpoint()
        session.close()
        return report, document

    reference = open_session()
    reference.ingest_many(events[:half])
    expected = finish(reference)

    session = open_session()
    session.ingest_many(events[:half])
    assert _evaluator_counters(session)["signature_hits"] > 0
    blob = session.checkpoint()
    session.close()
    restored = Session.restore(blob)
    # Nothing of the memo travelled: the restored evaluators have seen nothing.
    assert not any(_evaluator_counters(restored).values())
    assert finish(restored) == expected


def cold_checked(engine):
    """Make ``engine`` check every result set against a cold evaluation.

    The cold evaluator mirrors the registry and the signature memo's
    lifecycle but evaluates state by state, without the result-set memo;
    matches (as packed records, so the shared fields must line up too) and
    every counter must agree.  Returns the cold evaluator.
    """
    warm = engine.evaluator
    cold = QueryEvaluator(engine.queries)
    evaluate = warm.evaluate_result_set

    def checked(results, labels, stream_id="", reuse=None):
        matches = evaluate(results, labels, stream_id, reuse)
        expected = [
            match
            for state in results
            for match in cold.evaluate_state(
                state, labels, results.current_frame_id, stream_id)
        ]
        assert pack_matches(matches) == pack_matches(expected)
        assert warm.stats == cold.stats
        return matches

    warm.evaluate_result_set = checked
    return cold


MEMO_LABELS = ("car", "person", "bus")
MEMO_POOL = random_cnf_workload(
    24, window=3, duration=2, classes=MEMO_LABELS, max_threshold=3, seed=41
).queries


class TestResultSetMemo:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_engine_matches_a_cold_evaluation(self, data):
        """Runs of repeated frames, with registration, cancellation,
        restore and reset between frames; objects come back under another
        label once the engine's label pruning (every 4·w = 12 frames) has
        forgotten them."""
        method = data.draw(st.sampled_from(list(MCOSMethod)))
        engine = TemporalVideoQueryEngine(
            MEMO_POOL[:4], EngineConfig(method=method, window_size=3, duration=2)
        )
        cold = cold_checked(engine)
        pending = list(MEMO_POOL[4:])
        frame_id = 0
        for _ in range(data.draw(st.integers(1, 14))):
            op = data.draw(st.sampled_from(
                ("run", "run", "run", "register", "cancel", "restore", "reset")
            ))
            if op == "run":
                objects = data.draw(st.frozensets(st.integers(0, 5), max_size=4))
                epoch = data.draw(st.integers(0, 2))
                labels = {
                    oid: MEMO_LABELS[(oid + epoch) % len(MEMO_LABELS)]
                    for oid in objects
                }
                for _ in range(data.draw(st.integers(1, 8))):
                    engine.process_frame(FrameObservation(frame_id, labels))
                    frame_id += 1
            elif op == "register" and pending:
                cold.add_query(engine.register_query(pending.pop()))
            elif op == "cancel" and len(engine.queries) > 1:
                query_id = data.draw(st.sampled_from(
                    [query.query_id for query in engine.queries]))
                engine.cancel_query(query_id)
                cold.remove_query(query_id)
            elif op == "restore":
                engine.restore(engine.checkpoint())
                cold.forget_signatures()
            elif op == "reset":
                engine.reset()
                cold.forget_signatures()
                frame_id = 0

    def test_an_object_set_recreated_with_a_changed_label(self):
        """{1, 2} matches ``car >= 2`` until both objects leave; once label
        pruning forgets them, {1, 2} comes back with object 1 a person."""
        engine = TemporalVideoQueryEngine(
            [parse_query("car >= 2", window=2, duration=1),
             parse_query("car >= 1 AND person >= 1", window=2, duration=1)],
            EngineConfig(window_size=2, duration=1),
        )
        two_cars, mixed = (query.query_id for query in engine.queries)
        cold_checked(engine)
        feed = ([{1: "car", 2: "car"}] * 3 + [{}] * 6
                + [{1: "person", 2: "car"}] * 3)
        answers = [
            {match.query_id for match in engine.process_frame(
                FrameObservation(frame_id, labels))}
            for frame_id, labels in enumerate(feed)
        ]
        assert answers[:3] == [{two_cars}] * 3
        assert answers[-3:] == [{mixed}] * 3
        # The surviving states were answered from the result-set memo.
        assert engine.evaluator.stats.signature_hits >= 4

    def test_registration_reaches_a_surviving_state(self):
        engine = TemporalVideoQueryEngine(
            [parse_query("car >= 1", window=3, duration=1)],
            EngineConfig(window_size=3, duration=1),
        )
        cold = cold_checked(engine)
        frames = (FrameObservation(frame_id, {1: "car"}) for frame_id in range(4))
        engine.process_frame(next(frames))
        engine.process_frame(next(frames))
        added = engine.register_query(parse_query("car <= 2", window=3, duration=1))
        cold.add_query(added)
        assert {m.query_id for m in engine.process_frame(next(frames))} == {
            0, added.query_id}
        engine.cancel_query(0)
        cold.remove_query(0)
        assert {m.query_id for m in engine.process_frame(next(frames))} == {
            added.query_id}

    def test_label_pruning_keeps_the_labels_of_a_repeated_frame(self):
        """Pruning (every 4·w = 8 frames) drops the label of the dog no
        query asks about; the next frame, a repeat, records it again."""
        engine = TemporalVideoQueryEngine(
            [parse_query("car >= 1", window=2, duration=1)],
            EngineConfig(window_size=2, duration=1),
        )
        for frame_id in range(10):
            engine.process_frame(FrameObservation(frame_id, {1: "car", 5: "dog"}))
            assert dict(engine.checkpoint()["labels"]) == (
                {1: "car"} if frame_id == 7 else {1: "car", 5: "dog"})

    def test_a_new_label_map_drops_the_result_set_memo(self):
        evaluator = QueryEvaluator([parse_query("car >= 2")])
        results = ResultStateSet(0, [ResultState(frozenset({1, 2}), (0,))])
        assert len(evaluator.evaluate_result_set(results, {1: "car", 2: "car"})) == 1
        assert evaluator.evaluate_result_set(results, {1: "car", 2: "bus"}) == []
        assert (evaluator.stats.signature_hits, evaluator.stats.signature_misses) == (0, 2)
