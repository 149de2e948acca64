"""Dense bit-position interning of object identifiers.

The MCOS generation layer manipulates object sets constantly: every arriving
frame is intersected with every (reachable) live state, subset relations gate
the SSG edge maintenance, and the state table is keyed by object set.  The
tracker hands out sparse, unbounded object identifiers, so representing those
sets as ``frozenset`` objects makes each of these operations allocate and hash.

An :class:`ObjectInterner` maps each object identifier to a dense bit position
so that an object set becomes a plain Python ``int`` bitmask:

* intersection is ``a & b``,
* subset testing is ``a & b == a``,
* cardinality is ``int.bit_count()``,
* table/graph keys are small ints with cached, perfect hashing.

Masks produced by the *same* interner are mutually compatible; masks from
different interners must never be mixed (the bit-to-object mapping differs).

Id recycling
------------
A long-running stream observes an ever-growing universe of object ids, but the
sliding window only ever holds a bounded subset of them.  Without recycling,
masks would keep growing in bit-length (Python ints are arbitrary precision,
so nothing breaks, but wide masks slow every operation down).  The interner
therefore supports *releasing* bit positions:

* :meth:`release` frees the position of one object id;
* :meth:`compact` frees every allocated position that is not set in a caller
  provided *live mask* (typically the union of all live state masks).

Freed positions are reused lowest-first, keeping masks as narrow as the
current population allows.  Releasing a position while some retained mask
still has its bit set would silently alias two different objects, so callers
must only release objects that no retained mask references — the generators
expose :meth:`~repro.core.base.MCOSGenerator.compact_interner`, which derives
the live mask from the state table and is therefore always safe to call
between frames.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple


class ObjectInterner:
    """Bidirectional mapping between object ids and dense bitmask positions."""

    __slots__ = ("_bit_by_id", "_id_by_bit", "_free")

    def __init__(self) -> None:
        self._bit_by_id: Dict[int, int] = {}
        self._id_by_bit: List[Optional[int]] = []
        #: Min-heap of released bit positions, reused lowest-first.
        self._free: List[int] = []

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def bit_of(self, object_id: int) -> int:
        """Return (allocating if necessary) the bit position of ``object_id``."""
        position = self._bit_by_id.get(object_id)
        if position is None:
            if self._free:
                position = heapq.heappop(self._free)
                self._id_by_bit[position] = object_id
            else:
                position = len(self._id_by_bit)
                self._id_by_bit.append(object_id)
            self._bit_by_id[object_id] = position
        return position

    def mask_of(self, object_id: int) -> int:
        """Return the single-bit mask of ``object_id``."""
        return 1 << self.bit_of(object_id)

    def intern_ids(self, object_ids: Iterable[int]) -> int:
        """Return the bitmask of a whole object-id collection."""
        mask = 0
        bit_by_id = self._bit_by_id
        for object_id in object_ids:
            position = bit_by_id.get(object_id)
            if position is None:
                position = self.bit_of(object_id)
            mask |= 1 << position
        return mask

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(self, mask: int) -> FrozenSet[int]:
        """Decode a bitmask back into the frozenset of object ids."""
        ids = []
        id_by_bit = self._id_by_bit
        while mask:
            low = mask & -mask
            object_id = id_by_bit[low.bit_length() - 1]
            if object_id is None:
                raise KeyError(
                    f"bit {low.bit_length() - 1} is not allocated; the mask was "
                    "produced before a release/compact that freed it"
                )
            ids.append(object_id)
            mask ^= low
        return frozenset(ids)

    def object_at(self, position: int) -> int:
        """Return the object id interned at ``position``."""
        object_id = (
            self._id_by_bit[position]
            if 0 <= position < len(self._id_by_bit) else None
        )
        if object_id is None:
            raise KeyError(f"bit position {position} is not allocated")
        return object_id

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._bit_by_id

    def __len__(self) -> int:
        """Number of currently allocated (live) bit positions."""
        return len(self._bit_by_id)

    @property
    def capacity(self) -> int:
        """Width of the widest mask ever produced (allocated + freed bits)."""
        return len(self._id_by_bit)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def export_table(self) -> List[Optional[int]]:
        """Snapshot the bit-position table for checkpointing.

        The returned list is the full ``position -> object id`` table
        (``None`` marks a freed position); it determines the interner's state
        completely, so :meth:`restore_table` on a fresh interner reproduces
        every mask assignment bit for bit.  Used by the streaming runtime's
        checkpoint/restore path (:mod:`repro.streaming.checkpoint`).
        """
        return list(self._id_by_bit)

    def restore_table(self, table: List[Optional[int]]) -> None:
        """Restore the interner (in place) from an :meth:`export_table` snapshot.

        Any existing content is discarded.  Freed positions are rebuilt as a
        min-heap; heap pops always return the smallest free position, so the
        reconstructed interner allocates future bits exactly as the original
        would have.
        """
        id_by_bit: List[Optional[int]] = []
        bit_by_id: Dict[int, int] = {}
        free: List[int] = []
        for position, object_id in enumerate(table):
            if object_id is None:
                id_by_bit.append(None)
                free.append(position)
            else:
                object_id = int(object_id)
                if object_id in bit_by_id:
                    raise ValueError(
                        f"object id {object_id} appears at two positions in "
                        "the interner snapshot"
                    )
                id_by_bit.append(object_id)
                bit_by_id[object_id] = position
        heapq.heapify(free)
        self._id_by_bit = id_by_bit
        self._bit_by_id = bit_by_id
        self._free = free

    # ------------------------------------------------------------------
    # Recycling
    # ------------------------------------------------------------------
    def release(self, object_id: int) -> None:
        """Free the bit position of ``object_id`` for reuse.

        The caller must guarantee that no retained mask still has the bit set;
        otherwise a later re-allocation of the position aliases two objects.
        """
        position = self._bit_by_id.pop(object_id, None)
        if position is None:
            return
        self._id_by_bit[position] = None
        heapq.heappush(self._free, position)

    def compact(self, live_mask: int) -> int:
        """Free every allocated position whose bit is clear in ``live_mask``.

        ``live_mask`` is typically the union of every retained mask (e.g. all
        live state masks of a generator).  Returns the number of positions
        freed.  Trailing fully-free positions are truncated so the capacity
        shrinks along with the population.
        """
        freed = 0
        for position, object_id in enumerate(self._id_by_bit):
            if object_id is None:
                continue
            if not live_mask >> position & 1:
                del self._bit_by_id[object_id]
                self._id_by_bit[position] = None
                heapq.heappush(self._free, position)
                freed += 1
        # Shrink: drop trailing free positions entirely.
        id_by_bit = self._id_by_bit
        while id_by_bit and id_by_bit[-1] is None:
            id_by_bit.pop()
        if self._free:
            capacity = len(id_by_bit)
            self._free = [p for p in self._free if p < capacity]
            heapq.heapify(self._free)
        return freed


class ObjectLabels:
    """Class labels of interned objects, with one bitmask per label.

    The Proposition-1 state filter judges the per-class counts of a state.
    With each label's objects held as a mask over the interner's bit
    positions, those counts are one ``&`` and ``bit_count()`` per label
    instead of a decode of the state's object set.  An object keeps the
    first label recorded for it.  Positions are only freed by a
    compaction or a restore of the interner: :meth:`prune` follows a
    compaction, and a restored interner gets a new instance.
    """

    __slots__ = ("_interner", "_label_by_id", "_masks")

    def __init__(
        self, interner: ObjectInterner, labels: Optional[Dict[int, str]] = None
    ) -> None:
        self._interner = interner
        self._label_by_id: Dict[int, str] = dict(labels or {})
        self._masks: Dict[str, int] = {}
        self._index()

    def _index(self) -> None:
        """Derive the per-label masks from the labels of interned objects."""
        interner = self._interner
        masks: Dict[str, int] = {}
        for object_id, label in self._label_by_id.items():
            if object_id in interner:
                masks[label] = masks.get(label, 0) | interner.mask_of(object_id)
        self._masks = masks

    def record(
        self, object_ids: Iterable[int], label_of: Callable[[int], str]
    ) -> None:
        """Remember the labels of the interned ``object_ids`` not seen yet."""
        known = self._label_by_id
        masks = self._masks
        for object_id in object_ids:
            if object_id not in known:
                label = known[object_id] = label_of(object_id)
                masks[label] = (
                    masks.get(label, 0) | self._interner.mask_of(object_id)
                )

    def prune(self) -> None:
        """Forget the objects the interner no longer holds."""
        interner = self._interner
        self._label_by_id = {
            object_id: label
            for object_id, label in self._label_by_id.items()
            if object_id in interner
        }
        self._index()

    def counts(self, mask: int) -> Dict[str, int]:
        """Per-class counts of the labelled objects in ``mask``."""
        counts: Dict[str, int] = {}
        for label, label_mask in self._masks.items():
            count = (mask & label_mask).bit_count()
            if count:
                counts[label] = count
        return counts

    def items(self) -> Iterable[Tuple[int, str]]:
        """``(object id, label)`` pairs in the order they were recorded."""
        return self._label_by_id.items()

    def __len__(self) -> int:
        return len(self._label_by_id)
