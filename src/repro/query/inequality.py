"""CNFEvalE: CNF evaluation with inequality predicates (Section 5.2).

The paper extends CNFEval to the count conditions ``label theta n`` (theta
in ``<=, =, >=``) with three inverted indexes, one per operator, keyed by
label, whose posting lists of ``(query, disjunction)`` pairs are ordered by
threshold: a probe with count ``c`` scans the ``>=`` thresholds up to ``c``,
the ``<=`` thresholds from ``c`` and the ``=`` bucket of ``c``.

This index keys the same postings by the whole condition: one entry per
*distinct* ``(label, operator, threshold)``, an ``int`` bitmask of the
clause slots (one per disjunction of a registered query) it appears in.
The per-operator lists are these entries grouped by operator, and the
prefix a probe scans is the set of those that hold.  A probe tests every
distinct condition once and ORs the masks of those that hold.  That
suffices: a condition's truth depends only on its own triple and the
count, so every slot holding it gets the same verdict, and a clause holds
when any of its conditions does.  Workloads repeat a few distinct
conditions over many clauses, so the scan is short and needs no order.

Each query owns one contiguous run of slots and matches when every bit of
its run is set.  A cancelled query leaves a hole; once the slots outnumber
twice the live clauses plus :data:`SLOT_SLACK`, the live queries are
renumbered, which keeps the masks as narrow as the workload at amortised
O(1) per registration.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Set, Tuple

from repro.query.model import CNFQuery, Comparison

#: Slots beyond twice the live clauses tolerated before renumbering.
SLOT_SLACK = 64


class CNFEvalEIndex:
    """Condition-dictionary evaluator for CNF count queries (CNFEvalE)."""

    def __init__(self, queries: Iterable[CNFQuery] = ()):
        #: Distinct condition -> bitmask of the clause slots holding it.
        self._conditions: Dict[Tuple[str, Comparison, int], int] = {}
        self._queries: Dict[int, CNFQuery] = {}
        #: query id -> bitmask of its run of clause slots.
        self._clauses: Dict[int, int] = {}
        self._next_slot = 0
        self._live_clauses = 0
        self._next_id = 0
        for query in queries:
            self.add_query(query)

    def add_query(self, query: CNFQuery) -> CNFQuery:
        """Register a query; returns the copy carrying its assigned id."""
        if query.query_id is None:
            query = query.with_id(self._next_id)
        self._next_id = max(self._next_id, query.query_id + 1)
        if query.query_id in self._queries:
            raise ValueError(f"duplicate query id {query.query_id}")
        self._queries[query.query_id] = query
        self._live_clauses += len(query.disjunctions)
        if self._next_slot + len(query.disjunctions) \
                <= 2 * self._live_clauses + SLOT_SLACK:
            self._place(query)
            return query
        # Renumber: re-place every live query from slot 0.
        self._conditions, self._clauses, self._next_slot = {}, {}, 0
        for live in self._queries.values():
            self._place(live)
        return query

    def _place(self, query: CNFQuery) -> None:
        """Give ``query`` the next run of slots and set its conditions' bits."""
        first = self._next_slot
        conditions = self._conditions
        for slot, disjunction in enumerate(query.disjunctions, first):
            bit = 1 << slot
            for condition in disjunction.conditions:
                key = (condition.label, condition.comparison, condition.threshold)
                conditions[key] = conditions.get(key, 0) | bit
        self._next_slot = first + len(query.disjunctions)
        self._clauses[query.query_id] = (1 << self._next_slot) - (1 << first)

    def remove_query(self, query_id: int) -> CNFQuery:
        """Unregister a query in O(its conditions), clearing its slots' bits.

        A condition no live clause holds leaves the dictionary.  The id
        counter is left untouched: a cancelled id is never handed out again.
        """
        removed = self._queries.pop(query_id, None)
        if removed is None:
            raise KeyError(f"no registered query with id {query_id}")
        keep = ~self._clauses.pop(query_id)
        self._live_clauses -= len(removed.disjunctions)
        conditions = self._conditions
        for condition in removed.conditions():
            key = (condition.label, condition.comparison, condition.threshold)
            # Absent when an earlier clause of the query held it too.
            bits = conditions.get(key, 0) & keep
            if bits:
                conditions[key] = bits
            else:
                conditions.pop(key, None)
        return removed

    @property
    def next_query_id(self) -> int:
        """The id floor: the smallest id a future auto-assignment may use.

        Never decreases — cancelled ids below it stay tombstoned.  Stored
        in engine checkpoints so the no-reuse guarantee survives restores.
        """
        return self._next_id

    def reserve_ids(self, next_query_id: int) -> None:
        """Raise the id floor (checkpoint restore path; never lowers it)."""
        self._next_id = max(self._next_id, int(next_query_id))

    def __len__(self) -> int:
        return len(self._queries)

    @property
    def queries(self) -> Dict[int, CNFQuery]:
        """Registered queries keyed by id."""
        return self._queries

    def query(self, query_id: int) -> CNFQuery:
        """Return a registered query by id."""
        return self._queries[query_id]

    def labels(self) -> Set[str]:
        """The class labels referenced by at least one registered condition."""
        return {label for label, _, _ in self._conditions}

    def matching_queries(self, counts: Mapping[str, int]) -> Set[int]:
        """Return ids of all queries satisfied by the per-class counts.

        Labels absent from ``counts`` are treated as count 0, so conditions
        such as ``person <= 3`` hold when no person is part of the MCOS.
        """
        held = 0
        for (label, comparison, threshold), slots in self._conditions.items():
            if comparison.evaluate(counts.get(label, 0), threshold):
                held |= slots
        return {
            query_id
            for query_id, clauses in self._clauses.items()
            if held & clauses == clauses
        }
