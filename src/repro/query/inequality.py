"""CNFEvalE: CNF evaluation with inequality predicates (Section 5.2).

The original CNFEval algorithm only supports set-membership predicates.  The
paper extends it to the count conditions ``label theta n`` (theta in
``<=, =, >=``) by building three separate inverted indexes, one per operator,
keyed by the class label.  Each key is associated with a posting list ordered
by threshold value: ascending for ``>=`` (so that all thresholds ``<= count``
form a prefix) and descending for ``<=`` (so that all thresholds ``>= count``
form a prefix).  Given the per-class aggregate counts of an MCOS, the
evaluator scans only those prefixes and the exact-match bucket of ``=``,
collects the satisfied ``(query, disjunction)`` pairs and reports the queries
whose disjunctions are all satisfied.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.query.model import CNFQuery, Comparison


@dataclass(frozen=True)
class CountPosting:
    """One posting entry: the ``(qid, disjId)`` pair of a count condition."""

    query_id: int
    disjunction_id: int


_Postings = Dict[Tuple[str, int], List[CountPosting]]


def _discard(postings: _Postings, key: Tuple[str, int], query_id: int) -> bool:
    """Delete ``query_id``'s entries under ``key`` in place.

    Returns True when that emptied the posting list (the key is dropped
    with it).  A missing key is a no-op: an earlier condition of the same
    query already emptied it.
    """
    entries = postings.get(key)
    if entries is None:
        return False
    entries[:] = [entry for entry in entries if entry.query_id != query_id]
    if entries:
        return False
    del postings[key]
    return True


class _OrderedIndex:
    """Posting lists per label, ordered by threshold value.

    ``ascending=True`` orders thresholds ascending (used by the ``>=`` index);
    ``ascending=False`` orders them descending (used by the ``<=`` index).
    """

    def __init__(self, ascending: bool):
        self._ascending = ascending
        # label -> sorted list of thresholds (always ascending internally;
        # the prefix/suffix logic below accounts for direction).
        self._thresholds: Dict[str, List[int]] = {}
        self._postings: _Postings = {}

    def add(self, label: str, threshold: int, posting: CountPosting) -> None:
        key = (label, threshold)
        if key not in self._postings:
            thresholds = self._thresholds.setdefault(label, [])
            bisect.insort(thresholds, threshold)
            self._postings[key] = []
        self._postings[key].append(posting)

    def discard(self, label: str, threshold: int, query_id: int) -> None:
        """Drop ``query_id``'s postings under ``(label, threshold)`` in place.

        A threshold whose posting list empties leaves the ordered threshold
        list, so probes never scan dead thresholds.
        """
        if _discard(self._postings, (label, threshold), query_id):
            thresholds = self._thresholds[label]
            del thresholds[bisect.bisect_left(thresholds, threshold)]
            if not thresholds:
                del self._thresholds[label]

    def probe(self, label: str, count: int) -> Iterable[CountPosting]:
        """Yield the postings of every satisfied condition for ``label``.

        For the ``>=`` index these are conditions with ``threshold <= count``;
        for the ``<=`` index, conditions with ``threshold >= count``.
        """
        thresholds = self._thresholds.get(label)
        if not thresholds:
            return
        if self._ascending:
            end = bisect.bisect_right(thresholds, count)
            selected = thresholds[:end]
        else:
            start = bisect.bisect_left(thresholds, count)
            selected = thresholds[start:]
        for threshold in selected:
            yield from self._postings[(label, threshold)]


class CNFEvalEIndex:
    """Inverted-index evaluator for CNF count queries (the CNFEvalE algorithm)."""

    def __init__(self, queries: Iterable[CNFQuery] = ()):
        self._ge_index = _OrderedIndex(ascending=True)
        self._le_index = _OrderedIndex(ascending=False)
        self._eq_index: _Postings = {}
        #: label -> number of registered conditions on it.  Its keys are the
        #: labels a probe must visit, and the label projection of the MCOS
        #: generation layer.
        self._label_refs: Dict[str, int] = {}
        self._queries: Dict[int, CNFQuery] = {}
        self._disjunction_counts: Dict[int, int] = {}
        self._next_id = 0
        for query in queries:
            self.add_query(query)

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------
    def add_query(self, query: CNFQuery) -> CNFQuery:
        """Register a query; returns the copy carrying its assigned id."""
        if query.query_id is None:
            query = query.with_id(self._next_id)
        self._next_id = max(self._next_id, query.query_id + 1)
        if query.query_id in self._queries:
            raise ValueError(f"duplicate query id {query.query_id}")
        self._queries[query.query_id] = query
        self._disjunction_counts[query.query_id] = len(query.disjunctions)
        label_refs = self._label_refs
        for disj_id, disjunction in enumerate(query.disjunctions):
            for condition in disjunction.conditions:
                posting = CountPosting(query.query_id, disj_id)
                label = condition.label
                label_refs[label] = label_refs.get(label, 0) + 1
                if condition.comparison is Comparison.GE:
                    self._ge_index.add(label, condition.threshold, posting)
                elif condition.comparison is Comparison.LE:
                    self._le_index.add(label, condition.threshold, posting)
                else:
                    key = (label, condition.threshold)
                    self._eq_index.setdefault(key, []).append(posting)
        return query

    def remove_query(self, query_id: int) -> CNFQuery:
        """Unregister a query, deleting its postings in place.

        Costs O(the query's conditions x their posting lists), independent
        of how many other queries are registered.  The id counter is
        preserved: a cancelled id is never handed out again.
        """
        removed = self._queries.pop(query_id, None)
        if removed is None:
            raise KeyError(f"no registered query with id {query_id}")
        del self._disjunction_counts[query_id]
        # ``_next_id`` is deliberately left untouched: it never shrinks, so
        # the cancelled id stays tombstoned and is never handed out again.
        label_refs = self._label_refs
        for condition in removed.conditions():
            label = condition.label
            if label_refs[label] == 1:
                del label_refs[label]
            else:
                label_refs[label] -= 1
            if condition.comparison is Comparison.GE:
                self._ge_index.discard(label, condition.threshold, query_id)
            elif condition.comparison is Comparison.LE:
                self._le_index.discard(label, condition.threshold, query_id)
            else:
                _discard(self._eq_index, (label, condition.threshold), query_id)
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

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def labels(self) -> Set[str]:
        """The class labels referenced by at least one registered condition."""
        return set(self._label_refs)

    def matching_queries(self, counts: Mapping[str, int]) -> Set[int]:
        """Return ids of all queries satisfied by the per-class counts.

        Every indexed label is probed; labels absent from ``counts`` are
        treated as count 0, so conditions such as ``person <= 3`` hold when
        no person is part of the MCOS.
        """
        satisfied_pairs: Set[Tuple[int, int]] = set()
        for label in self._label_refs:
            count = counts.get(label, 0)
            for posting in self._ge_index.probe(label, count):
                satisfied_pairs.add((posting.query_id, posting.disjunction_id))
            for posting in self._le_index.probe(label, count):
                satisfied_pairs.add((posting.query_id, posting.disjunction_id))
            for posting in self._eq_index.get((label, count), ()):
                satisfied_pairs.add((posting.query_id, posting.disjunction_id))

        per_query: Dict[int, int] = {}
        for query_id, _disj_id in satisfied_pairs:
            per_query[query_id] = per_query.get(query_id, 0) + 1
        return {
            query_id
            for query_id, hits in per_query.items()
            if hits == self._disjunction_counts[query_id]
        }

    def any_match(self, counts: Mapping[str, int]) -> bool:
        """True when at least one registered query is satisfied by ``counts``."""
        return bool(self.matching_queries(counts))
