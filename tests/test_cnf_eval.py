"""Tests for the CNFEvalE inequality index."""

from hypothesis import given, settings, strategies as st

from repro.query.inequality import CNFEvalEIndex
from repro.query.model import CNFQuery
from repro.workloads import random_cnf_workload


class TestCNFEvalEIndex:
    def test_paper_inequality_example(self):
        """q2 = (car>=2 OR person<=3) AND (car>=3 OR person>=2) AND car<=5."""
        query = CNFQuery.from_condition_lists(
            [
                [("car", ">=", 2), ("person", "<=", 3)],
                [("car", ">=", 3), ("person", ">=", 2)],
                [("car", "<=", 5)],
            ]
        )
        index = CNFEvalEIndex([query])
        qid = list(index.queries)[0]
        assert index.matching_queries({"car": 3, "person": 1}) == {qid}
        assert index.matching_queries({"car": 6, "person": 2}) == set()
        assert index.matching_queries({"car": 2, "person": 2}) == {qid}

    def test_zero_counts_satisfy_le_conditions(self):
        query = CNFQuery.from_condition_lists([[("person", "<=", 0)], [("car", ">=", 1)]])
        index = CNFEvalEIndex([query])
        qid = list(index.queries)[0]
        assert index.matching_queries({"car": 2}) == {qid}
        assert index.matching_queries({"car": 2, "person": 1}) == set()

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        counts=st.dictionaries(
            st.sampled_from(["person", "car", "truck", "bus"]),
            st.integers(0, 7),
            max_size=4,
        ),
    )
    def test_matches_brute_force(self, seed, counts):
        workload = random_cnf_workload(12, seed=seed)
        index = CNFEvalEIndex(workload.queries)
        expected = {
            query.query_id
            for query in index.queries.values()
            if query.evaluate(counts)
        }
        assert index.matching_queries(counts) == expected
