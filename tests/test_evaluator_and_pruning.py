"""Tests for the query evaluator, the Proposition-1 pruning, and the engine."""

import pytest

from repro.core import MarkedFrameSetGenerator
from repro.core.result import ResultState, ResultStateSet
from repro.datamodel import VideoRelation
from repro.engine import EngineConfig, MCOSMethod, TemporalVideoQueryEngine
from repro.query import QueryEvaluator, StatePruner, parse_query, queries_support_pruning
from repro.query.model import CNFQuery
from repro.workloads import ge_only_workload, incident_workload, random_cnf_workload

from tests.conftest import random_relation


class TestQueryEvaluator:
    def test_evaluate_result_set(self):
        evaluator = QueryEvaluator([parse_query("car >= 2"), parse_query("person >= 1")])
        labels = {1: "car", 2: "car", 3: "person"}
        results = ResultStateSet(9)
        results.add(ResultState(frozenset({1, 2}), (5, 6, 7)))
        results.add(ResultState(frozenset({3}), (5, 6, 7, 8)))
        matches = evaluator.evaluate_result_set(results, labels)
        matched = {(m.query_id, m.object_ids) for m in matches}
        q_car, q_person = [q.query_id for q in evaluator.queries]
        assert (q_car, frozenset({1, 2})) in matched
        assert (q_person, frozenset({3})) in matched
        assert (q_car, frozenset({3})) not in matched

    def test_labels_of_interest(self):
        evaluator = QueryEvaluator(
            [parse_query("car >= 1 AND bus >= 1"), parse_query("person >= 2")]
        )
        assert evaluator.labels_of_interest() == {"car", "bus", "person"}

    def test_index_agrees_with_brute_force(self):
        workload = random_cnf_workload(30, seed=5)
        evaluator = QueryEvaluator(workload.queries)
        for counts in ({"car": 2}, {"person": 5, "car": 1}, {}, {"bus": 3, "truck": 2}):
            assert set(evaluator.evaluate_counts(counts)) == evaluator.brute_force_matching(counts)


class TestStatePruner:
    def test_requires_ge_only_queries(self):
        evaluator = QueryEvaluator([parse_query("car <= 2")])
        assert not queries_support_pruning(evaluator.queries)
        with pytest.raises(ValueError):
            StatePruner(evaluator)

    def test_termination_decisions(self):
        evaluator = QueryEvaluator([parse_query("car >= 2 AND person >= 1")])
        pruner = StatePruner(evaluator)
        assert pruner({"car": 2, "person": 1})
        assert not pruner({"car": 1})
        assert pruner.stats.states_terminated == 1
        assert pruner.stats.states_checked == 2

    def test_disabled_pruner_keeps_everything(self):
        evaluator = QueryEvaluator([parse_query("car >= 2")])
        pruner = StatePruner(evaluator, enabled=False)
        assert pruner({"car": 1})
        assert pruner.stats.states_terminated == 0


class TestEngine:
    def _relation(self):
        # Two cars (1, 2) jointly present throughout; a person (3) joins later;
        # a bus (4) appears briefly.
        frames = []
        for fid in range(30):
            objects = {1: "car", 2: "car"}
            if fid >= 10:
                objects[3] = "person"
            if 12 <= fid < 16:
                objects[4] = "bus"
            frames.append(objects)
        relation = VideoRelation()
        for objects in frames:
            relation.append_objects(objects)
        return relation

    def test_engine_reports_expected_matches(self):
        relation = self._relation()
        queries = [
            parse_query("car >= 2", window=10, duration=8, name="two-cars"),
            parse_query("car >= 2 AND person >= 1", window=10, duration=8, name="with-person"),
            parse_query("bus >= 2", window=10, duration=8, name="impossible"),
        ]
        engine = TemporalVideoQueryEngine(
            queries, EngineConfig(method="MFS", window_size=10, duration=8)
        )
        run = engine.run(relation)
        by_query = run.matches_by_query()
        ids = {q.name: q.query_id for q in engine.queries}
        assert ids["two-cars"] in by_query
        assert ids["with-person"] in by_query
        assert ids["impossible"] not in by_query
        # The two-car query matches as soon as 8 joint frames exist (frame 7).
        assert min(m.frame_id for m in by_query[ids["two-cars"]]) == 7
        # The person joins at frame 10, so 8 joint frames exist at frame 17.
        assert min(m.frame_id for m in by_query[ids["with-person"]]) == 17

    def test_all_methods_agree_on_matches(self):
        relation = random_relation(42, max_objects=6, max_frames=60)
        labeled = VideoRelation()
        label_map = {oid: label for oid, label in
                     zip(sorted(relation.object_ids()),
                         ["car", "person", "car", "truck", "bus", "person", "car", "car"])}
        for frame in relation.frames():
            labeled.append_objects({oid: label_map[oid] for oid in frame.object_ids})

        queries = [
            parse_query("car >= 1", window=8, duration=4),
            parse_query("car >= 1 AND person >= 1", window=8, duration=4),
            parse_query("truck >= 1 OR bus >= 1", window=8, duration=4),
        ]
        outcomes = {}
        for method in (MCOSMethod.NAIVE, MCOSMethod.MFS, MCOSMethod.SSG):
            engine = TemporalVideoQueryEngine(
                queries, EngineConfig(method=method, window_size=8, duration=4)
            )
            run = engine.run(labeled)
            outcomes[method] = {
                (m.query_id, m.frame_id, m.object_ids) for m in run.matches
            }
        assert outcomes[MCOSMethod.NAIVE] == outcomes[MCOSMethod.MFS]
        assert outcomes[MCOSMethod.MFS] == outcomes[MCOSMethod.SSG]

    def test_pruning_preserves_query_answers(self):
        """The *_O variants must report exactly the same (query, window) answers."""
        relation = random_relation(17, max_objects=7, max_frames=80)
        labeled = VideoRelation()
        labels = ["car", "person", "car", "truck", "car", "person", "bus", "car"]
        label_map = {oid: labels[i % len(labels)]
                     for i, oid in enumerate(sorted(relation.object_ids()))}
        for frame in relation.frames():
            labeled.append_objects({oid: label_map[oid] for oid in frame.object_ids})

        workload = ge_only_workload(20, n_min=1, window=8, duration=4, seed=3)
        answers = {}
        for method in (MCOSMethod.MFS, MCOSMethod.SSG):
            for pruning in (False, True):
                config = EngineConfig(
                    method=method, window_size=8, duration=4, enable_pruning=pruning
                )
                engine = TemporalVideoQueryEngine(workload.queries, config)
                run = engine.run(labeled)
                answers[(method, pruning)] = {
                    (m.query_id, m.frame_id) for m in run.matches
                }
        assert answers[(MCOSMethod.MFS, True)] == answers[(MCOSMethod.MFS, False)]
        assert answers[(MCOSMethod.SSG, True)] == answers[(MCOSMethod.SSG, False)]
        assert answers[(MCOSMethod.MFS, False)] == answers[(MCOSMethod.SSG, False)]

    def test_pruning_requires_ge_only(self):
        with pytest.raises(ValueError):
            TemporalVideoQueryEngine(
                [parse_query("car <= 3")],
                EngineConfig(method="MFS", window_size=10, duration=5, enable_pruning=True),
            )

    def test_engine_requires_queries(self):
        with pytest.raises(ValueError):
            TemporalVideoQueryEngine([], EngineConfig())

    def test_incident_workload_runs(self):
        relation = self._relation()
        workload = incident_workload(window=10, duration=5)
        engine = TemporalVideoQueryEngine(
            workload.queries,
            EngineConfig(method="SSG", window_size=10, duration=5),
        )
        run = engine.run(relation)
        assert run.frames_processed == relation.num_frames
        assert run.method == "SSG"
