"""Query model: CNF expressions over per-class object counts.

A query (Section 2) is a CNF expression whose atomic conditions have the form
``class_label theta n`` with ``theta`` one of ``<=``, ``=``, ``>=``.  The
query is evaluated against the aggregate class counts of a Maximum
Co-occurrence Object Set; it also carries the temporal parameters ``window``
(``w``) and ``duration`` (``d``).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)


class Comparison(enum.Enum):
    """Comparison operator of a count condition."""

    LE = "<="
    EQ = "="
    GE = ">="

    def evaluate(self, value: int, threshold: int) -> bool:
        """Apply the comparison to ``value theta threshold``."""
        if self is Comparison.LE:
            return value <= threshold
        if self is Comparison.GE:
            return value >= threshold
        return value == threshold

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Rank used by the canonical condition ordering (stable and independent of
#: the operators' surface spelling).
_COMPARISON_RANK = {Comparison.LE: 0, Comparison.EQ: 1, Comparison.GE: 2}

_COMPARISON_BY_SYMBOL = {comparison.value: comparison for comparison in Comparison}


def _comparison(symbol: Any) -> Comparison:
    """``Comparison(symbol)`` by dict lookup: a restore resolves one operator
    per condition of every query it carries, and ``Enum.__call__`` costs
    ten times the lookup."""
    try:
        return _COMPARISON_BY_SYMBOL[symbol]
    except (KeyError, TypeError):
        raise ValueError(f"{symbol!r} is not a valid Comparison") from None

#: Labels must be parseable back out of ``str(query)`` — the printer/parser
#: round-trip contract — so they are restricted to the parser's token shape
#: (ASCII-only, exactly as documented: ``[A-Za-z_][A-Za-z0-9_-]*``).
_LABEL_RE = re.compile(r"^[A-Za-z_][\w\-]*\Z", re.ASCII)

#: Keywords of the query grammar; a label spelled like one could never be
#: re-parsed from the printed form.
_RESERVED_LABELS = frozenset({"and", "or"})

#: Package-wide default temporal parameters (frames).  Single source of
#: truth for ``CNFQuery``, the text parser, the fluent builder and the
#: session facade.
DEFAULT_WINDOW = 300
DEFAULT_DURATION = 240

#: Shape of :meth:`CNFQuery.structural_key`: the canonical disjunctions'
#: sort keys plus the temporal parameters.
_StructuralKey = Tuple[
    Tuple[Tuple[Tuple[str, int, int], ...], ...], int, int
]


@dataclass(frozen=True)
class Condition:
    """An atomic count condition ``label theta threshold``.

    Examples: ``car >= 2``, ``person <= 3``, ``bus = 1``.
    """

    label: str
    comparison: Comparison
    threshold: int

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError("condition thresholds must be non-negative")
        if not _LABEL_RE.match(self.label):
            raise ValueError(
                f"invalid class label {self.label!r}: labels must match "
                "[A-Za-z_][A-Za-z0-9_-]* so conditions can be printed and "
                "re-parsed"
            )
        if self.label.lower() in _RESERVED_LABELS:
            raise ValueError(
                f"class label {self.label!r} collides with a query keyword"
            )

    @classmethod
    def trusted(cls, label: str, comparison: Comparison, threshold: int) -> "Condition":
        """Construct a condition without the label-grammar check.

        Checkpoint-restore compatibility: snapshots written before label
        validation existed may carry labels the grammar now rejects (spaces,
        non-ASCII).  Restoring them must keep working — evaluation only ever
        compares label strings — even though such a query can no longer be
        pretty-printed and re-parsed.  Thresholds are still validated.
        """
        if threshold < 0:
            raise ValueError("condition thresholds must be non-negative")
        condition = object.__new__(cls)
        object.__setattr__(condition, "label", label)
        object.__setattr__(condition, "comparison", comparison)
        object.__setattr__(condition, "threshold", threshold)
        return condition

    def evaluate(self, counts: Mapping[str, int]) -> bool:
        """Evaluate the condition against per-class counts (missing = 0)."""
        return self.comparison.evaluate(counts.get(self.label, 0), self.threshold)

    def sort_key(self) -> Tuple[str, int, int]:
        """Total order used by the canonical CNF form."""
        return (self.label, _COMPARISON_RANK[self.comparison], self.threshold)

    def __str__(self) -> str:
        return f"{self.label} {self.comparison.value} {self.threshold}"


@dataclass(frozen=True)
class Disjunction:
    """A disjunction (OR) of atomic conditions."""

    conditions: Tuple[Condition, ...]

    def __post_init__(self) -> None:
        if not self.conditions:
            raise ValueError("a disjunction must contain at least one condition")

    def evaluate(self, counts: Mapping[str, int]) -> bool:
        """True when at least one condition holds."""
        return any(condition.evaluate(counts) for condition in self.conditions)

    def labels(self) -> FrozenSet[str]:
        """Class labels referenced by the disjunction."""
        return frozenset(condition.label for condition in self.conditions)

    def canonical(self) -> "Disjunction":
        """The disjunction with duplicate conditions dropped, in sorted order."""
        ordered = tuple(sorted(set(self.conditions), key=Condition.sort_key))
        return self if ordered == self.conditions else Disjunction(ordered)

    def sort_key(self) -> Tuple[Tuple[str, int, int], ...]:
        """Total order of canonical disjunctions (assumes sorted conditions)."""
        return tuple(condition.sort_key() for condition in self.conditions)

    def __str__(self) -> str:
        return " OR ".join(str(c) for c in self.conditions)


@dataclass(frozen=True, eq=False)
class CNFQuery:
    """A CNF query: a conjunction of disjunctions of count conditions.

    Attributes
    ----------
    disjunctions:
        The conjuncts of the CNF expression.
    window:
        Sliding window size ``w`` in frames.
    duration:
        Duration threshold ``d`` in frames (``0 <= d <= w``).
    query_id:
        Optional identifier; assigned by the evaluator when registered.
    name:
        Optional human-readable name.

    Two queries are equal (and hash equally) when their *canonical forms*
    agree: same window, same duration, and the same set of deduplicated,
    sorted disjunction clauses.  ``query_id`` and ``name`` are bookkeeping,
    not semantics, and do not participate — so a builder-produced query, its
    parsed pretty-printed form and its registered copy all compare equal,
    which is how duplicate registrations are detected.
    """

    disjunctions: Tuple[Disjunction, ...]
    window: int = DEFAULT_WINDOW
    duration: int = DEFAULT_DURATION
    query_id: Optional[int] = None
    name: str = ""

    def __post_init__(self) -> None:
        if not self.disjunctions:
            raise ValueError("a CNF query must contain at least one disjunction")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if not 0 <= self.duration <= self.window:
            raise ValueError("duration must satisfy 0 <= d <= window")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_condition_lists(
        cls,
        groups: Sequence[Sequence[Tuple[str, str, int]]],
        window: int = DEFAULT_WINDOW,
        duration: int = DEFAULT_DURATION,
        name: str = "",
    ) -> "CNFQuery":
        """Build a query from nested ``(label, operator, threshold)`` tuples.

        ``groups`` is a list of disjunctions, each a list of conditions, e.g.::

            CNFQuery.from_condition_lists(
                [[("car", ">=", 2), ("person", "<=", 3)], [("car", "<=", 5)]]
            )
        """
        disjunctions: List[Disjunction] = []
        for group in groups:
            conditions = tuple(
                Condition(label, Comparison(op), threshold)
                for label, op, threshold in group
            )
            disjunctions.append(Disjunction(conditions))
        return cls(tuple(disjunctions), window=window, duration=duration, name=name)

    def to_dict(self) -> Dict[str, Any]:
        """Serialise the query as a JSON-friendly dict (see :meth:`from_dict`).

        Used by the streaming checkpoint format so that a shard snapshot is
        self-contained: a fresh process can rebuild the engine without access
        to the original query objects.
        """
        return {
            "groups": [
                [[c.label, c.comparison.value, c.threshold] for c in d.conditions]
                for d in self.disjunctions
            ],
            "window": self.window,
            "duration": self.duration,
            "query_id": self.query_id,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CNFQuery":
        """Rebuild a query from a :meth:`to_dict` payload.

        Labels are restored through :meth:`Condition.trusted`: snapshots
        written before the label grammar existed stay restorable even when
        their labels would be rejected by today's constructors.
        """
        disjunctions = tuple(
            Disjunction(
                tuple(
                    Condition.trusted(str(label), _comparison(op), int(threshold))
                    for label, op, threshold in group
                )
            )
            for group in payload["groups"]
        )
        query_id = payload.get("query_id")
        return cls(
            disjunctions,
            window=int(payload["window"]),
            duration=int(payload["duration"]),
            query_id=int(query_id) if query_id is not None else None,
            name=payload.get("name", ""),
        )

    def with_id(self, query_id: int) -> "CNFQuery":
        """Return a copy of the query carrying the given identifier."""
        return CNFQuery(
            self.disjunctions,
            window=self.window,
            duration=self.duration,
            query_id=query_id,
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Canonical form and structural identity
    # ------------------------------------------------------------------
    def canonical(self) -> "CNFQuery":
        """The query in canonical form: sorted, deduplicated clauses.

        Conditions are deduplicated and sorted inside each disjunction, and
        the disjunctions themselves are deduplicated and sorted, so any two
        ways of writing the same CNF expression — builder combinators,
        parser text, hand-built tuples — produce literally the same
        structure (and therefore the same checkpoint bytes).  ``window``,
        ``duration``, ``query_id`` and ``name`` are preserved.  Returns
        ``self`` when already canonical.
        """
        clauses: List[Disjunction] = []
        seen: Set[Tuple[Tuple[str, int, int], ...]] = set()
        for disjunction in self.disjunctions:
            ordered = disjunction.canonical()
            key = ordered.sort_key()
            if key not in seen:
                seen.add(key)
                clauses.append(ordered)
        clauses.sort(key=Disjunction.sort_key)
        ordered_clauses = tuple(clauses)
        if ordered_clauses == self.disjunctions:
            return self
        return CNFQuery(
            ordered_clauses,
            window=self.window,
            duration=self.duration,
            query_id=self.query_id,
            name=self.name,
        )

    def structural_key(self) -> "_StructuralKey":
        """Hashable identity of the query's semantics (canonical clauses +
        temporal parameters); the basis of ``__eq__`` and ``__hash__``.

        Memoised per instance (the dataclass is frozen, so the key can
        never change): equality scans over standing workloads and dict/set
        use would otherwise re-canonicalise on every comparison.
        """
        cached: Optional[_StructuralKey] = self.__dict__.get("_structural_key")
        if cached is None:
            canonical = self.canonical()
            cached = (
                tuple(d.sort_key() for d in canonical.disjunctions),
                self.window,
                self.duration,
            )
            object.__setattr__(self, "_structural_key", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CNFQuery):
            return NotImplemented
        return self.structural_key() == other.structural_key()

    def __hash__(self) -> int:
        return hash(self.structural_key())

    # ------------------------------------------------------------------
    # Evaluation and inspection
    # ------------------------------------------------------------------
    def evaluate(self, counts: Mapping[str, int]) -> bool:
        """Direct (index-free) evaluation against per-class counts.

        Used as the brute-force oracle in tests and by small workloads.
        """
        return all(disjunction.evaluate(counts) for disjunction in self.disjunctions)

    def labels(self) -> FrozenSet[str]:
        """All class labels referenced by the query."""
        return frozenset(
            chain.from_iterable(d.labels() for d in self.disjunctions)
        )

    def conditions(self) -> List[Condition]:
        """All atomic conditions of the query, in disjunction order."""
        return [c for d in self.disjunctions for c in d.conditions]

    def uses_only_ge(self) -> bool:
        """True when every condition uses ``>=`` (enables Proposition-1 pruning)."""
        return all(c.comparison is Comparison.GE for c in self.conditions())

    def min_threshold(self) -> int:
        """The smallest threshold used by any condition (``n_min`` in Figure 9)."""
        return min(c.threshold for c in self.conditions())

    def __str__(self) -> str:
        return " AND ".join(f"({d})" for d in self.disjunctions)


# ----------------------------------------------------------------------
# The query table: a workload as columns
# ----------------------------------------------------------------------
#: The comparison of each operator code a query table writes: its rank in
#: the canonical condition order (:meth:`Condition.sort_key`).
_COMPARISON_BY_CODE = tuple(
    sorted(_COMPARISON_RANK, key=_COMPARISON_RANK.__getitem__)
)

#: Every column of a query table and the type of its entries.
_COLUMN_TYPES: Dict[str, Any] = {
    "ids": int, "windows": int, "durations": int, "names": str,
    "clauses": int, "sizes": int, "conditions": int,
    "labels": str, "operators": int, "thresholds": int,
}


def pack_queries(queries: Iterable[CNFQuery]) -> Dict[str, List[Any]]:
    """Write a query list as a table of columns, one row per query.

    ``ids``, ``windows``, ``durations``, ``names`` and ``clauses`` (the
    number of disjunctions) hold one entry per query; ``sizes`` one per
    clause, its number of conditions, in query order; ``conditions`` one
    per condition slot, in clause order: the position of its condition in
    the dictionary of distinct ``(label, operator code, threshold)``
    triples, the columns ``labels``, ``operators`` (``<=`` 0, ``=`` 1,
    ``>=`` 2) and ``thresholds``, listed in first-use order.  So the table
    is a pure function of the list, and a condition shared by many queries
    is written once.  Every query carries its id.
    """
    ids: List[Optional[int]] = []
    windows: List[int] = []
    durations: List[int] = []
    names: List[str] = []
    clauses: List[int] = []
    sizes: List[int] = []
    slots: List[int] = []
    dictionary: Dict[Tuple[str, Comparison, int], int] = {}
    for query in queries:
        ids.append(query.query_id)
        windows.append(query.window)
        durations.append(query.duration)
        names.append(query.name)
        clauses.append(len(query.disjunctions))
        for disjunction in query.disjunctions:
            sizes.append(len(disjunction.conditions))
            for condition in disjunction.conditions:
                key = (condition.label, condition.comparison, condition.threshold)
                position = dictionary.get(key)
                if position is None:
                    position = dictionary[key] = len(dictionary)
                slots.append(position)
    return {
        "ids": ids,
        "windows": windows,
        "durations": durations,
        "names": names,
        "clauses": clauses,
        "sizes": sizes,
        "conditions": slots,
        "labels": [label for label, _, _ in dictionary],
        "operators": [_COMPARISON_RANK[op] for _, op, _ in dictionary],
        "thresholds": [threshold for _, _, threshold in dictionary],
    }


def _table_error(column: str, problem: str) -> ValueError:
    return ValueError(f"query table column {column!r}: {problem}")


def _checked_columns(table: Mapping[str, Any]) -> Dict[str, List[Any]]:
    """The columns of a query table, once they are known to fit together."""
    columns: Dict[str, List[Any]] = {}
    for key, kind in _COLUMN_TYPES.items():
        column = table[key]
        if type(column) is not list or not set(map(type, column)) <= {kind}:
            raise _table_error(key, f"not a list of {kind.__name__}s")
        columns[key] = column
    for first, *others in (
        ("ids", "windows", "durations", "names", "clauses"),
        ("labels", "operators", "thresholds"),
    ):
        for key in others:
            if len(columns[key]) != len(columns[first]):
                raise _table_error(key, (
                    f"{len(columns[key])} entries, column {first!r} has "
                    f"{len(columns[first])}"
                ))
    for key, parts, empty in (
        ("clauses", "sizes", "a query without a clause"),
        ("sizes", "conditions", "an empty clause"),
    ):
        counts = columns[key]
        if min(counts, default=1) < 1:
            raise _table_error(key, empty)
        if sum(counts) != len(columns[parts]):
            raise _table_error(key, (
                f"adds up to {sum(counts)}, column {parts!r} has "
                f"{len(columns[parts])} entries"
            ))
    positions, distinct = columns["conditions"], len(columns["labels"])
    if positions and not 0 <= min(positions) <= max(positions) < distinct:
        raise _table_error(
            "conditions", f"a position outside the {distinct} distinct conditions"
        )
    unknown = set(columns["operators"]) - set(range(len(_COMPARISON_BY_CODE)))
    if unknown:
        raise _table_error("operators", f"unknown operator codes {sorted(unknown)}")
    if min(columns["thresholds"], default=0) < 0:
        raise _table_error("thresholds", "a negative threshold")
    return columns


def unpack_queries(table: Mapping[str, Any]) -> List[CNFQuery]:
    """Rebuild the query list of a :func:`pack_queries` table.

    One :class:`Condition` is built per dictionary entry and shared by the
    slots naming it, through :meth:`Condition.trusted` (a table may hold a
    label written before the label grammar existed); each query is built
    once, with its id, so its constructor checks it.  A table whose columns
    do not fit together raises a :class:`ValueError` naming the column:
    a column of the wrong type, columns of one row kind with different
    lengths, counts that do not add up, an empty clause or query, a
    position outside the dictionary, an unknown operator code or a
    negative threshold.
    """
    columns = _checked_columns(table)
    conditions = [
        Condition.trusted(label, _COMPARISON_BY_CODE[code], threshold)
        for label, code, threshold in zip(
            columns["labels"], columns["operators"], columns["thresholds"]
        )
    ]
    slots = iter([conditions[position] for position in columns["conditions"]])
    clauses = iter([
        Disjunction(tuple(islice(slots, size))) for size in columns["sizes"]
    ])
    return [
        CNFQuery(tuple(islice(clauses, count)), window, duration, query_id, name)
        for query_id, window, duration, name, count in zip(
            columns["ids"], columns["windows"], columns["durations"],
            columns["names"], columns["clauses"],
        )
    ]


def class_counts(labels: Iterable[str]) -> Dict[str, int]:
    """Aggregate an iterable of class labels into per-class counts."""
    counts: Dict[str, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return counts
