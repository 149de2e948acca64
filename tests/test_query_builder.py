"""Fluent builder, canonical CNF form, structural identity, and the
parser/printer round-trip property (hypothesis-driven)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import Q, QueryExpr, parse_expression, parse_query
from repro.query.evaluator import QueryEvaluator
from repro.query.model import CNFQuery, Comparison, Condition, Disjunction
from repro.query.parser import QueryParseError


class TestBuilderAtoms:
    def test_operator_atoms(self):
        expr = Q("car") >= 2
        assert isinstance(expr, QueryExpr)
        (clause,) = expr.clauses
        assert clause == (Condition("car", Comparison.GE, 2),)
        assert (Q("car") <= 3).clauses[0][0].comparison is Comparison.LE
        assert (Q("car") == 1).clauses[0][0].comparison is Comparison.EQ

    def test_named_aliases_match_operators(self):
        assert Q("bus").at_least(2).clauses == (Q("bus") >= 2).clauses
        assert Q("bus").at_most(2).clauses == (Q("bus") <= 2).clauses
        assert Q("bus").exactly(2).clauses == (Q("bus") == 2).clauses

    def test_invalid_labels_rejected(self):
        for label in ("", "2cars", "a b", "AND", "or"):
            with pytest.raises(ValueError):
                Q(label) >= 1

    def test_boolean_keywords_raise_helpfully(self):
        with pytest.raises(TypeError, match="'&'"):
            bool((Q("car") >= 1))


class TestBuilderComposition:
    def test_and_concatenates_clauses(self):
        expr = (Q("car") >= 2) & (Q("person") >= 1)
        assert len(expr.clauses) == 2

    def test_or_distributes_to_cnf(self):
        left = (Q("a") >= 1) & (Q("b") >= 1)
        right = (Q("c") >= 1) & (Q("d") >= 1)
        expr = left | right
        # (a AND b) OR (c AND d) -> (a|c)(a|d)(b|c)(b|d)
        assert len(expr.clauses) == 4
        assert all(len(clause) == 2 for clause in expr.clauses)
        query = expr.to_query()
        evaluated = [
            query.evaluate({"a": 1, "b": 1}),
            query.evaluate({"c": 1, "d": 1}),
            query.evaluate({"a": 1, "d": 1}),
            query.evaluate({}),
        ]
        assert evaluated == [True, True, False, False]

    def test_builder_and_parser_agree_structurally(self):
        built = ((Q("car") >= 2) & ((Q("person") <= 3) | (Q("truck") >= 1))).to_query(
            window=90, duration=45
        )
        parsed = parse_query(
            "car >= 2 AND (person <= 3 OR truck >= 1)", window=90, duration=45
        )
        assert built == parsed
        assert hash(built) == hash(parsed)
        assert built.to_dict()["groups"] == parsed.to_dict()["groups"]

    def test_to_query_canonicalises(self):
        expr = ((Q("b") >= 1) | (Q("a") >= 1)) & (Q("a") >= 1) & (Q("a") >= 1)
        query = expr.to_query()
        assert str(query) == "(a >= 1) AND (a >= 1 OR b >= 1)"


class TestCanonicalForm:
    def test_sorts_and_dedupes(self):
        query = CNFQuery.from_condition_lists(
            [
                [("car", ">=", 2), ("car", ">=", 2), ("bus", "<=", 1)],
                [("car", ">=", 2), ("bus", "<=", 1)],
                [("person", ">=", 1)],
            ]
        )
        canonical = query.canonical()
        assert str(canonical) == (
            "(bus <= 1 OR car >= 2) AND (person >= 1)"
        )
        # Idempotent, and canonical inputs are returned as-is.
        assert canonical.canonical() is canonical

    def test_structural_equality_ignores_id_and_name(self):
        a = parse_query("car >= 2 AND person >= 1", name="a").with_id(3)
        b = parse_query("person >= 1 AND car >= 2", name="b")
        assert a == b
        assert hash(a) == hash(b)

    def test_window_and_duration_are_semantic(self):
        a = parse_query("car >= 2", window=60, duration=30)
        b = parse_query("car >= 2", window=90, duration=30)
        c = parse_query("car >= 2", window=60, duration=20)
        assert a != b and a != c and b != c
        assert a == parse_query("car >= 2", window=60, duration=30)

    def test_queries_hash_into_sets(self):
        variants = {
            parse_query("car >= 2 AND bus <= 1"),
            parse_query("bus <= 1 AND car >= 2"),
            CNFQuery.from_condition_lists(
                [[("bus", "<=", 1)], [("car", ">=", 2)]]
            ),
        }
        assert len(variants) == 1


#: Labels drawn from the parser's token grammar, minus reserved keywords.
_labels = st.from_regex(r"[A-Za-z_][A-Za-z0-9_\-]{0,8}", fullmatch=True).filter(
    lambda label: label.lower() not in ("and", "or")
)
_conditions = st.builds(
    Condition,
    label=_labels,
    comparison=st.sampled_from(list(Comparison)),
    threshold=st.integers(min_value=0, max_value=9),
)
_disjunctions = st.lists(_conditions, min_size=1, max_size=4).map(
    lambda conditions: Disjunction(tuple(conditions))
)


@st.composite
def _queries(draw, default_temporal=False):
    disjunctions = tuple(draw(st.lists(_disjunctions, min_size=1, max_size=4)))
    if default_temporal:
        window, duration = 300, 240
    else:
        window = draw(st.integers(min_value=1, max_value=400))
        duration = draw(st.integers(min_value=0, max_value=window))
    return CNFQuery(
        disjunctions,
        window=window,
        duration=duration,
        name=draw(st.sampled_from(["", "named"])),
    )


class TestParserPrinterRoundTrip:
    """Satellite: ``parse_query(str(q)) == q`` is a guaranteed round trip."""

    @settings(max_examples=200, deadline=None)
    @given(_queries(default_temporal=True))
    def test_default_temporal_round_trip(self, query):
        assert parse_query(str(query)) == query

    @settings(max_examples=200, deadline=None)
    @given(_queries())
    def test_round_trip_with_temporal_parameters(self, query):
        parsed = parse_query(
            str(query), window=query.window, duration=query.duration
        )
        assert parsed == query
        assert hash(parsed) == hash(query)
        # And the canonical forms agree structurally, byte for byte.
        assert parsed.to_dict()["groups"] == query.canonical().to_dict()["groups"]

    @settings(max_examples=100, deadline=None)
    @given(_queries())
    def test_round_trip_preserves_semantics(self, query):
        parsed = parse_query(
            str(query), window=query.window, duration=query.duration
        )
        labels = sorted(query.labels())
        for counts in ({}, {label: 1 for label in labels},
                       {label: 3 for label in labels}):
            assert parsed.evaluate(counts) == query.evaluate(counts)

    def test_double_equals_parses_to_single_equals_printing(self):
        query = parse_query("car == 2")
        assert str(query) == "(car = 2)"
        assert parse_query(str(query)) == query

    def test_reserved_word_labels_cannot_be_constructed(self):
        # The printer/parser asymmetry is closed at the model level: a
        # condition that could not be re-parsed cannot exist.
        with pytest.raises(ValueError):
            Condition("AND", Comparison.GE, 1)
        with pytest.raises(QueryParseError):
            parse_query("AND >= 1")


class TestParseExpression:
    def test_returns_builder_expression(self):
        expr = parse_expression("car >= 2 AND (person <= 3 OR truck >= 1)")
        assert isinstance(expr, QueryExpr)
        assert expr.to_query(window=50, duration=25) == parse_query(
            "car >= 2 AND (person <= 3 OR truck >= 1)", window=50, duration=25
        )


class TestEvaluatorRemoveQuery:
    def test_remove_patches_index_and_tombstones_id(self):
        evaluator = QueryEvaluator(
            [parse_query("car >= 2"), parse_query("person >= 1")]
        )
        assert evaluator.evaluate_counts({"car": 2, "person": 1}) == (0, 1)
        removed = evaluator.remove_query(0)
        assert removed.query_id == 0
        assert evaluator.evaluate_counts({"car": 2, "person": 1}) == (1,)
        assert [q.query_id for q in evaluator.queries] == [1]
        # A fresh registration never reuses the cancelled id.
        added = evaluator.add_query(parse_query("bus >= 1"))
        assert added.query_id == 2

    def test_remove_unknown_id_raises(self):
        evaluator = QueryEvaluator([parse_query("car >= 2")])
        with pytest.raises(KeyError):
            evaluator.remove_query(99)


class TestLegacyCheckpointLabels:
    def test_from_dict_restores_labels_the_grammar_now_rejects(self):
        """Snapshots written before label validation may carry labels with
        spaces or non-ASCII characters; restoring them must keep working."""
        for label in ("traffic light", "café"):
            with pytest.raises(ValueError):
                Condition(label, Comparison.GE, 1)
            payload = {
                "groups": [[[label, ">=", 1]]],
                "window": 30,
                "duration": 15,
                "query_id": 4,
                "name": "legacy",
            }
            query = CNFQuery.from_dict(payload)
            assert query.evaluate({label: 1})
            assert not query.evaluate({})
            assert query.to_dict() == payload
            # Canonical machinery still works on trusted labels.
            assert query == CNFQuery.from_dict(payload)

    def test_trusted_still_validates_thresholds(self):
        with pytest.raises(ValueError):
            Condition.trusted("x", Comparison.GE, -1)

    @pytest.mark.parametrize("operator", ["=>", "GE", "", None, 2, [">="]])
    def test_from_dict_rejects_unknown_operators(self, operator):
        """Operators resolve through a lookup table, not ``Comparison(...)``;
        one it does not hold is the same ``ValueError`` the enum raised."""
        payload = {"groups": [[["car", operator, 1]]], "window": 30, "duration": 15}
        with pytest.raises(ValueError, match="not a valid Comparison"):
            CNFQuery.from_dict(payload)
        for comparison in Comparison:
            payload["groups"] = [[["car", comparison.value, 1]]]
            (condition,) = CNFQuery.from_dict(payload).conditions()
            assert condition.comparison is comparison
