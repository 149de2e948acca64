"""Result-driven state pruning (Section 5.3, Proposition 1).

When every registered query uses only ``>=`` conditions, a state whose MCOS
fails all queries can be *terminated*: every state derived from it has a
subset of its objects, hence smaller per-class counts, hence also fails all
queries.  Terminated states are never materialised by the MCOS generation
layer, which is the optimisation behind the ``MFS_O`` and ``SSG_O`` variants
of the evaluation (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.query.evaluator import QueryEvaluator
from repro.query.model import CNFQuery


def queries_support_pruning(queries: Iterable[CNFQuery]) -> bool:
    """True when Proposition 1 applies, i.e. every condition uses ``>=``."""
    queries = list(queries)
    return bool(queries) and all(query.uses_only_ge() for query in queries)


def require_pruning_compatible(query: CNFQuery) -> None:
    """Raise unless the query may join a pruning-enabled workload.

    Single source of the check (and its error message) for every
    registration surface — engine, router, session backends — so the rule
    can never drift between them.
    """
    if not query.uses_only_ge():
        raise ValueError(
            "pruning (the *_O variants) requires all query conditions to use '>='"
        )


@dataclass
class PruningStats:
    """Counters of the pruning strategy."""

    states_checked: int = 0
    states_terminated: int = 0


class StatePruner:
    """State filter implementing Proposition 1.

    Instances are passed as the ``state_filter`` of an MCOS generator; they
    are called with the per-class counts of every freshly created state and
    return ``False`` (terminate) when no registered query can be satisfied
    by the state or any state derived from it.
    """

    def __init__(self, evaluator: QueryEvaluator, enabled: bool = True):
        if enabled and not queries_support_pruning(evaluator.queries):
            raise ValueError(
                "Proposition-1 pruning requires every query condition to use '>='"
            )
        self._evaluator = evaluator
        self._enabled = enabled
        self.stats = PruningStats()

    @property
    def enabled(self) -> bool:
        """Whether pruning is active."""
        return self._enabled

    def __call__(self, counts: Mapping[str, int]) -> bool:
        """Return True to keep the state, False to terminate it."""
        if not self._enabled:
            return True
        self.stats.states_checked += 1
        if self._evaluator.evaluate_counts(counts):
            return True
        self.stats.states_terminated += 1
        return False
