"""CNF temporal queries over video feeds and their evaluation.

Queries (Section 2 of the paper) are Conjunctive Normal Form expressions
whose atomic conditions constrain the number of objects of a class inside a
Maximum Co-occurrence Object Set, e.g. ``car >= 2 AND (person <= 3 OR
truck >= 1)``, evaluated with a window size ``w`` and duration ``d``.

The evaluation machinery follows Section 5:

* :mod:`repro.query.inequality` implements ``CNFEvalE``, the paper's
  ``>= / <= / =`` extension of the Boolean-expression index of Whang et
  al., as one clause bitmask per distinct condition;
* :mod:`repro.query.evaluator` applies the index to the result state sets
  produced by the MCOS generation layer;
* :mod:`repro.query.pruning` implements the Proposition-1 state pruning used
  by the optimised ``MFS_O`` / ``SSG_O`` variants.
"""

from repro.query.builder import Q, QueryExpr
from repro.query.evaluator import (
    QueryEvaluator,
    QueryMatch,
    pack_matches,
    unpack_matches,
)
from repro.query.inequality import CNFEvalEIndex
from repro.query.model import (
    CNFQuery,
    Comparison,
    Condition,
    Disjunction,
    pack_queries,
    unpack_queries,
)
from repro.query.parser import parse_expression, parse_query
from repro.query.pruning import StatePruner, queries_support_pruning

__all__ = [
    "Comparison",
    "Condition",
    "Disjunction",
    "CNFQuery",
    "pack_queries",
    "unpack_queries",
    "Q",
    "QueryExpr",
    "parse_expression",
    "parse_query",
    "CNFEvalEIndex",
    "QueryEvaluator",
    "QueryMatch",
    "pack_matches",
    "unpack_matches",
    "StatePruner",
    "queries_support_pruning",
]
