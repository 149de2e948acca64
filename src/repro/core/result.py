"""Result state sets produced by the MCOS generation layer.

The *Result State Set* (Section 4.3.7) contains every state that is both
*satisfied* (its frame set meets the duration threshold ``d``) and *valid*
(its object set is an MCOS of its frame set).  It is the unit of exchange
between MCOS generation and query evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class ResultState:
    """An immutable satisfied, valid state: an MCOS and its frame set."""

    object_ids: FrozenSet[int]
    frame_ids: Tuple[int, ...]

    @property
    def duration(self) -> int:
        """Number of frames in which the MCOS appears."""
        return len(self.frame_ids)

    def class_counts(self, labels: Mapping[int, str]) -> Dict[str, int]:
        """Aggregate the MCOS by class label.

        Parameters
        ----------
        labels:
            Mapping from object id to class label (typically provided by the
            engine, which tracks labels seen in the relation).
        """
        counts: Dict[str, int] = {}
        for oid in self.object_ids:
            label = labels[oid]
            counts[label] = counts.get(label, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        objs = ",".join(str(o) for o in sorted(self.object_ids))
        return f"ResultState({{{objs}}}, frames={list(self.frame_ids)})"


class ResultStateSet:
    """The set of satisfied, valid states of one window.

    Provides set-like access keyed by object set, plus canonical forms used by
    the tests to compare the output of different generators.
    """

    def __init__(self, current_frame_id: int,
                 states: Optional[Iterable[ResultState]] = None):
        self.current_frame_id = current_frame_id
        self._by_object_set: Dict[FrozenSet[int], ResultState] = {}
        for state in states or ():
            self.add(state)

    def add(self, state: ResultState) -> None:
        """Insert a result state, keeping the larger frame set on duplicates."""
        existing = self._by_object_set.get(state.object_ids)
        if existing is None or len(state.frame_ids) > len(existing.frame_ids):
            self._by_object_set[state.object_ids] = state

    def add_unique(self, state: ResultState) -> None:
        """Insert a result state whose object set the caller knows is new.

        Hot-path variant of :meth:`add` used by the generators' report loops,
        which iterate tables keyed by object set and therefore never produce
        duplicates.
        """
        self._by_object_set[state.object_ids] = state

    def sort(self) -> None:
        """Put the states in canonical order: ascending sorted object ids.

        Every generator reports in this order, so a result set is the same
        list whichever generator (or window cut of one) produced it.
        """
        by_object_set = self._by_object_set
        if len(by_object_set) > 1:
            self._by_object_set = {
                oids: by_object_set[oids]
                for oids in sorted(by_object_set, key=sorted)
            }

    def __len__(self) -> int:
        return len(self._by_object_set)

    def __iter__(self) -> Iterator[ResultState]:
        return iter(self._by_object_set.values())

    def __contains__(self, object_ids: FrozenSet[int]) -> bool:
        return frozenset(object_ids) in self._by_object_set

    def get(self, object_ids: Iterable[int]) -> Optional[ResultState]:
        """Return the result state for the given object set, if present."""
        return self._by_object_set.get(frozenset(object_ids))

    def object_sets(self) -> List[FrozenSet[int]]:
        """All MCOS object sets in the result."""
        return list(self._by_object_set)

    def as_mapping(self) -> Dict[FrozenSet[int], FrozenSet[int]]:
        """Canonical ``{object set -> frame set}`` mapping.

        Used by tests to compare generators; frame order is irrelevant for
        equality, hence frozensets.
        """
        return {
            oids: frozenset(state.frame_ids)
            for oids, state in self._by_object_set.items()
        }

    def canonical(self) -> FrozenSet[Tuple[FrozenSet[int], FrozenSet[int]]]:
        """A hashable canonical form of the result set."""
        return frozenset(
            (oids, frozenset(state.frame_ids))
            for oids, state in self._by_object_set.items()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultStateSet):
            return NotImplemented
        return self.as_mapping() == other.as_mapping()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ResultStateSet(frame={self.current_frame_id}, "
            f"states={len(self._by_object_set)})"
        )
