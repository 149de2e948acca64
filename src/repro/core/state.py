"""State primitives shared by all MCOS generators.

A *state* (Definition 3 in the paper) couples a co-occurrence object set with
the set of window frames in which the objects appear jointly.  The MFS and SSG
approaches additionally *mark* certain frames (the Marked Frame Set,
Section 4.2.3); the presence of at least one marked, non-expired frame
certifies that the state's object set is a Maximum Co-occurrence Object Set of
its frame set (Theorems 1 and 4).

Representation
--------------
States live on the hottest loop of the system, so all three of their sets
are plain ``int`` bitsets:

* the object set is a bitmask produced by a shared
  :class:`~repro.core.interning.ObjectInterner` (intersection is ``&``,
  subset is ``a & b == a``, the state table keys on the int);
* the frame set and the marked frames are ``frames`` and ``marks`` over the
  window base of the state's table: bit ``i`` is frame ``base + i``.
  Appending a frame and merging another state's frames are ``|=``, expiry is
  one mask, a count is ``bit_count()`` and the frames of a window starting
  at ``lo`` are ``frames >> (lo - base)``.

Every state of a table shares its base, so two states' frame sets combine
without alignment; :meth:`StateTable.frame_bit` moves the base forward about
once per window, shifting every live state.  The ``frozenset`` view of the
object set and the tuples of frame ids are decoded only for results
(``object_ids``, ``frame_ids``, :meth:`State.to_result`); a checkpoint
writes the bitsets themselves, shifted to the window start
(:meth:`StateTable.export_states`).
"""

from __future__ import annotations

from itertools import count, repeat
from operator import and_, attrgetter, invert, rshift
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.interning import ObjectInterner
from repro.core.result import ResultState

#: Serial numbers of states, never reused (unlike ``id``): SSG's edge memo
#: (``State.reached``) and its expiry sweep order key on them.
_serials = count()


def decode_frames(bits: int, base: int) -> List[int]:
    """The frame ids of a frames or marks bitset over ``base``, oldest first.

    Decodes run by run: ``bits + low`` (``low`` the lowest set bit) carries
    through the lowest run, so ``bits ^ carry`` spans that run plus one bit
    and ``bits & carry`` clears it.
    """
    ids: List[int] = []
    while bits:
        low = bits & -bits
        carry = bits + low
        ids += range(base + low.bit_length() - 1,
                     base + (bits ^ carry).bit_length() - 1)
        bits &= carry
    return ids


class State:
    """A co-occurrence object set (bitmask) with its frame and mark bitsets.

    Only ``bits``, ``frames``, ``marks`` and ``terminated`` are exported per
    state (see :meth:`StateTable.export_states`); SSG adjacency and edge
    memo are exported by that generator, and everything else is rebuilt on
    the fly.
    """

    __slots__ = (
        "bits",
        "frames",
        "marks",
        "serial",
        "terminated",
        "flag",
        "children",
        "parents",
        "reached",
        "_table",
        "_object_ids",
        "_result",
        "_result_frames",
    )

    def __init__(self, bits: int, table: "StateTable"):
        if not bits:
            raise ValueError("a state must have a non-empty object set")
        #: Bitmask of the object set (interned; table/graph key).
        self.bits: int = bits
        #: The frame set: bit ``i`` is frame ``table.base + i``.
        self.frames: int = 0
        #: The marked frames, a subset of ``frames`` over the same base.
        self.marks: int = 0
        #: Unique per state incarnation; grows with table position.
        self.serial: int = next(_serials)
        #: Set by the Proposition-1 pruning strategy (Section 5.3) when the
        #: state's MCOS fails every registered >=-only query.
        self.terminated: bool = False
        #: Visitation stamp used by the SSG traversal: set to the current
        #: frame id when the state is scheduled, so each state is visited at
        #: most once per frame without a hash-set membership test.
        self.flag: int = -1
        #: SSG adjacency, held on the state so the traversal loop follows
        #: edges with attribute reads instead of map lookups.  ``None`` until
        #: the SSG generator registers the state as a graph node; unused by
        #: the other generators.
        self.children: Optional[Dict[int, "State"]] = None
        self.parents: Optional[Dict[int, "State"]] = None
        #: SSG's edge memo: the serials of the states an edge request from
        #: this one already found reachable.  ``None`` off the graph.
        self.reached: Optional[Set[int]] = None
        self._table = table
        self._object_ids: Optional[FrozenSet[int]] = None
        #: The last decoded result and the ``frames`` it was decoded from
        #: (dropped when the base moves).
        self._result: Optional[ResultState] = None
        self._result_frames = 0

    # ------------------------------------------------------------------
    # Object-set views
    # ------------------------------------------------------------------
    @property
    def object_ids(self) -> FrozenSet[int]:
        """The object set as a frozenset (decoded lazily, cached)."""
        ids = self._object_ids
        if ids is None:
            ids = self._object_ids = self._table.interner.decode(self.bits)
        return ids

    @property
    def size(self) -> int:
        """Number of objects in the state's object set (popcount, O(1))."""
        return self.bits.bit_count()

    # ------------------------------------------------------------------
    # Frame-set maintenance
    # ------------------------------------------------------------------
    def add_frame(self, frame_id: int, marked: bool = False) -> None:
        """Add ``frame_id`` to the frame set (and mark it if ``marked``).

        Adding an already-present frame only upgrades its marked flag; it
        never clears an existing mark.
        """
        bit = 1 << (frame_id - self._table.base)
        self.frames |= bit
        if marked:
            self.marks |= bit

    def merge_from(self, other: "State", copy_marks: bool) -> None:
        """Merge another state's frames (and optionally marks) into this one
        (the ``merge`` operations of Algorithm 1)."""
        self.frames |= other.frames
        if copy_marks:
            self.marks |= other.marks

    def expire_before(self, oldest_valid: int) -> None:
        """Drop every frame and mark with id smaller than ``oldest_valid``."""
        keep = -1 << max(oldest_valid - self._table.base, 0)
        self.frames &= keep
        self.marks &= keep

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def frame_ids(self) -> Tuple[int, ...]:
        """The frame ids of the state, oldest first (decoded)."""
        return tuple(decode_frames(self.frames, self._table.base))

    @property
    def marked_frame_ids(self) -> Tuple[int, ...]:
        """The marked (key) frame ids of the state, oldest first."""
        return tuple(decode_frames(self.marks, self._table.base))

    @property
    def frame_count(self) -> int:
        """Number of frames currently in the frame set."""
        return self.frames.bit_count()

    @property
    def marked_count(self) -> int:
        """Number of marked frames currently in the frame set."""
        return self.marks.bit_count()

    @property
    def is_empty(self) -> bool:
        """True when every frame of the state has expired."""
        return not self.frames

    @property
    def is_valid(self) -> bool:
        """True when the state carries at least one marked frame.

        For MFS and SSG a state is valid (its object set is an MCOS of its
        frame set) if and only if at least one marked frame remains in the
        window -- Theorems 1 and 4 of the paper.
        """
        return self.marks != 0

    def is_satisfied(self, duration: int) -> bool:
        """True when the frame set meets the duration threshold ``d``."""
        return self.frames.bit_count() >= duration

    def to_result(self) -> ResultState:
        """Decode the state into an immutable :class:`ResultState`.

        The decoded record is cached against the frames it was decoded
        from, so states that did not change between reports are not
        re-decoded.
        """
        frames = self.frames
        result = self._result
        if result is None or self._result_frames != frames:
            result = self._result = ResultState(
                self.object_ids, tuple(decode_frames(frames, self._table.base))
            )
            self._result_frames = frames
        return result

    def cut_result(self, lo: int) -> ResultState:
        """:meth:`to_result` with only the frames ``>= lo`` (the state as a
        window starting at ``lo`` sees it)."""
        shift = lo - self._table.base
        frames = self.frames
        if not frames & ((1 << shift) - 1):
            return self.to_result()
        return ResultState(self.object_ids, tuple(decode_frames(frames >> shift, lo)))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        marked = set(self.marked_frame_ids)
        frames = ", ".join(
            f"*{fid}" if fid in marked else str(fid) for fid in self.frame_ids
        )
        objs = ",".join(str(o) for o in sorted(self.object_ids))
        return f"State({{{objs}}}, {{{frames}}})"


class StateTable:
    """A hash table mapping interned object-set bitmasks to their states.

    All generators maintain their live states here; the SSG generator layers a
    graph structure on top of the same table.  Keys are plain ints, so lookups
    avoid frozenset hashing entirely.  The table also holds the window
    ``base`` its states' frame and mark bitsets count from.
    """

    __slots__ = ("_interner", "_by_bits", "base")

    def __init__(self, interner: Optional[ObjectInterner] = None) -> None:
        self._interner = interner if interner is not None else ObjectInterner()  # repro-lint: disable=CKPT-DRIFT -- shared interner is injected by the owning generator, whose checkpoint round-trips it
        self._by_bits: Dict[int, State] = {}
        #: Frame id of bit 0 of every state's ``frames`` and ``marks``.
        self.base = 0

    @property
    def interner(self) -> ObjectInterner:
        """The interner whose masks key this table."""
        return self._interner

    def __len__(self) -> int:
        return len(self._by_bits)

    def __contains__(self, bits: int) -> bool:
        return bits in self._by_bits

    def __iter__(self) -> Iterator[State]:
        return iter(self._by_bits.values())

    def get(self, bits: int) -> Optional[State]:
        """Return the state for the bitmask ``bits`` if it exists."""
        return self._by_bits.get(bits)

    def get_or_create(self, bits: int) -> Tuple[State, bool]:
        """Return the state for ``bits``, creating it if necessary.

        Returns the state and a flag indicating whether it was newly created.
        """
        state = self._by_bits.get(bits)
        if state is not None:
            return state, False
        state = State(bits, self)
        self._by_bits[bits] = state
        return state, True

    def add(self, state: State) -> None:
        """Insert an externally-constructed state."""
        self._by_bits[state.bits] = state

    def remove(self, state: State) -> None:
        """Remove a state from the table (no-op if absent)."""
        self._by_bits.pop(state.bits, None)

    def states(self) -> List[State]:
        """Return a list snapshot of the live states."""
        return list(self._by_bits.values())

    def live_mask(self) -> int:
        """Union of every live state's bitmask (for interner compaction)."""
        mask = 0
        for bits in self._by_bits:
            mask |= bits
        return mask

    def clear(self) -> None:
        """Drop every state."""
        self._by_bits.clear()

    # ------------------------------------------------------------------
    # The window base
    # ------------------------------------------------------------------
    def frame_bit(self, frame_id: int, oldest_valid: int) -> int:
        """The bit of ``frame_id``, the newest frame of the window that
        starts at ``oldest_valid``.

        First moves the base to ``oldest_valid`` when it is a whole window
        behind it (or ahead of it, before the first frame), so no bitset
        grows past two windows: :meth:`rebase` then runs about once per
        window, O(live states / window) per frame.
        """
        if not 0 <= oldest_valid - self.base <= frame_id - oldest_valid:
            self.rebase(oldest_valid)
        return 1 << (frame_id - self.base)

    def rebase(self, base: int) -> None:
        """Move the base to ``base``, shifting every state; frames and marks
        older than ``base`` are dropped."""
        shift = base - self.base
        self.base = base
        for state in self._by_bits.values():
            state.frames >>= shift
            state.marks >>= shift
            state._result = None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def export_states(
        self, last_frame_id: Optional[int], window_size: int
    ) -> Dict[str, List[int]]:
        """Snapshot every live state as flat int columns, in table order,
        after frame ``last_frame_id`` of a ``window_size`` window.

        One row per state in each of the four columns: ``bits``,
        ``terminated`` (``0``/``1``), and the ``frames`` and ``marks``
        bitsets shifted to the window start ``lo = last_frame_id -
        window_size + 1`` (bit ``i`` is frame ``lo + i``).  The shift to
        ``lo`` rather than to the table's ``base`` keeps the bytes
        canonical: the base moves lazily, so a restored table and its
        uninterrupted twin may hold different bases, but never different
        windows.  Everything else a state holds — serial, visitation stamp,
        decoded-result cache — is rebuilt lazily and never exported; SSG
        adjacency and its edge memo are graph-owned and exported by that
        generator, addressed by the row positions defined here.

        Table order matters: the generators' report loops iterate the table,
        so restoring states in a different order would permute result sets
        and break byte-identical resume.
        """
        states = self._by_bits.values()
        # Every frame moves the base to at most its window start first, so
        # the shift is never negative (and 0 before the first frame).
        shift = 0 if last_frame_id is None \
            else last_frame_id - window_size + 1 - self.base
        frames, marks = (
            list(map(rshift, map(attrgetter(name), states), repeat(shift)))
            for name in ("frames", "marks")
        )
        return {
            "bits": list(self._by_bits),
            "terminated": list(map(int, map(attrgetter("terminated"), states))),
            "frames": frames,
            "marks": marks,
        }

    def import_states(
        self, columns: Dict[str, List[int]], last_frame_id: Optional[int],
        window_size: int,
    ) -> None:
        """Rebuild the table (in place) from an :meth:`export_states` payload
        taken after frame ``last_frame_id`` of a ``window_size`` window.

        Every frame must lie in that window (no bit at or above
        ``window_size``), every mark among its state's frames, and no state
        may exist before the first frame; the base becomes the window's
        oldest frame, so the bitsets load as they are.
        """
        bits, terminated, frames, marks = (
            int_column(columns[name])
            for name in ("bits", "terminated", "frames", "marks")
        )
        if not len(bits) == len(terminated) == len(frames) == len(marks):
            raise ValueError(
                "malformed table snapshot: per-state columns differ in length"
            )
        if last_frame_id is None:
            if bits:
                raise ValueError(
                    "malformed table snapshot: states before the first frame"
                )
            base = 0
        else:
            base = last_frame_id - window_size + 1
        if min(bits + frames + marks, default=0) < 0:
            raise ValueError("malformed table snapshot: a negative value")
        if any(map(rshift, frames, repeat(window_size))):
            raise ValueError(
                "malformed table snapshot: a frame outside the window "
                f"{base}..{last_frame_id}"
            )
        if any(map(and_, marks, map(invert, frames))):
            raise ValueError(
                "malformed table snapshot: a mark outside the frame set"
            )
        if len(set(bits)) != len(bits):
            raise ValueError("duplicate state bitmask in table snapshot")
        by_bits = self._by_bits
        by_bits.clear()
        self.base = base
        for state_bits, dead, state_frames, state_marks in zip(
            bits, terminated, frames, marks
        ):
            state = by_bits[state_bits] = State(state_bits, self)
            state.frames = state_frames
            state.marks = state_marks
            state.terminated = bool(dead)


def int_column(column: Sequence) -> List[int]:
    """``column`` as a list of ints: itself when it already is one (the
    type test is one C-level pass), converted item by item otherwise."""
    if type(column) is list and set(map(type, column)) <= {int}:
        return column
    return list(map(int, column))


def table_positions(column: Sequence[int], size: int) -> List[int]:
    """``column`` as ints, each checked to address a row of a ``size``-row table."""
    positions = int_column(column)
    if positions and not 0 <= min(positions) <= max(positions) < size:
        raise ValueError(
            "checkpoint references a state outside its state table "
            f"(positions {min(positions)}..{max(positions)}, {size} states)"
        )
    return positions
