"""State primitives shared by all MCOS generators.

A *state* (Definition 3 in the paper) couples a co-occurrence object set with
the set of window frames in which the objects appear jointly.  The MFS and SSG
approaches additionally *mark* certain frames (the Marked Frame Set,
Section 4.2.3); the presence of at least one marked, non-expired frame
certifies that the state's object set is a Maximum Co-occurrence Object Set of
its frame set (Theorems 1 and 4).

Fast-path representation
------------------------
States live on the hottest loop of the system, so both halves use the compact
kernel representations:

* the object set is an ``int`` bitmask produced by a shared
  :class:`~repro.core.interning.ObjectInterner` (intersection is ``&``,
  subset is ``a & b == a``, the state table keys on the int);
* the frame set is a run-length :class:`~repro.core.framespan.FrameSpan`
  (O(1) append/expiry, O(runs) merge).

The ``frozenset`` view of the object set and the tuple view of the frame set
are decoded lazily and only at the reporting boundary (``object_ids``,
``frame_ids``, :meth:`State.to_result`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.framespan import FrameSpan
from repro.core.interning import ObjectInterner
from repro.core.result import ResultState


class State:
    """A co-occurrence object set (bitmask) with its (marked) frame span.

    Ten slots: the two halves (``bits``, ``span``), the pruning flag, the SSG
    traversal's visitation stamp and adjacency, and the lazily decoded views.
    Only the halves and ``terminated`` are exported per state (see
    :meth:`StateTable.export_states`); SSG adjacency is exported by that
    generator, and everything else is rebuilt on the fly.
    """

    __slots__ = (
        "bits",
        "span",
        "terminated",
        "flag",
        "children",
        "parents",
        "_interner",
        "_object_ids",
        "_result",
        "_result_revision",
    )

    def __init__(
        self,
        bits: int,
        interner: Optional[ObjectInterner] = None,
        object_ids: Optional[FrozenSet[int]] = None,
    ):
        if not bits:
            raise ValueError("a state must have a non-empty object set")
        #: Bitmask of the object set (interned; table/graph key).
        self.bits: int = bits
        #: Run-length frame set with marked frames.
        self.span: FrameSpan = FrameSpan()
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
        self._interner = interner
        self._object_ids = object_ids
        self._result: Optional[ResultState] = None
        self._result_revision = -1

    # ------------------------------------------------------------------
    # Object-set views
    # ------------------------------------------------------------------
    @property
    def object_ids(self) -> FrozenSet[int]:
        """The object set as a frozenset (decoded lazily, cached)."""
        ids = self._object_ids
        if ids is None:
            if self._interner is None:
                raise ValueError("state has neither an interner nor object ids")
            ids = self._interner.decode(self.bits)
            self._object_ids = ids
        return ids

    @property
    def size(self) -> int:
        """Number of objects in the state's object set (popcount, O(1))."""
        return self.bits.bit_count()

    # ------------------------------------------------------------------
    # Frame-set maintenance
    # ------------------------------------------------------------------
    def add_frame(self, frame_id: int, marked: bool = False) -> None:
        """Append ``frame_id`` to the frame set (or upgrade its mark).

        Appending an already-present frame only upgrades its marked flag; it
        never clears an existing mark.
        """
        self.span.append(frame_id, marked)

    def mark_frame(self, frame_id: int) -> None:
        """Mark an already-present frame as a key frame."""
        self.span.append(frame_id, marked=True)

    def merge_from(self, other: "State", copy_marks: bool) -> None:
        """Merge another state's frame set (and optionally marks) into this one.

        Used when the same object set is derivable from several sources in one
        window step (the ``merge`` operations of Algorithm 1).  A single
        interval-union pass — late-arriving frames are spliced in one O(runs)
        merge instead of a per-frame re-sort.
        """
        if other is self:
            return
        self.span.merge(other.span, copy_marks=copy_marks)

    def expire_before(self, oldest_valid: int) -> None:
        """Drop every frame with id smaller than ``oldest_valid``."""
        self.span.expire_before(oldest_valid)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def frame_ids(self) -> Tuple[int, ...]:
        """The frame ids of the state, oldest first (decoded)."""
        return self.span.frame_ids()

    @property
    def marked_frame_ids(self) -> Tuple[int, ...]:
        """The marked (key) frame ids of the state, oldest first."""
        return self.span.marked_ids()

    @property
    def frame_count(self) -> int:
        """Number of frames currently in the frame set (O(1))."""
        return self.span.frame_count

    @property
    def marked_count(self) -> int:
        """Number of marked frames currently in the frame set (O(1))."""
        return self.span.marked_count

    @property
    def is_empty(self) -> bool:
        """True when every frame of the state has expired."""
        return self.span.is_empty

    @property
    def is_valid(self) -> bool:
        """True when the state carries at least one marked frame.

        For MFS and SSG a state is valid (its object set is an MCOS of its
        frame set) if and only if at least one marked frame remains in the
        window -- Theorems 1 and 4 of the paper.
        """
        return self.span.marked_count > 0

    def is_satisfied(self, duration: int) -> bool:
        """True when the frame set meets the duration threshold ``d``."""
        return self.span.frame_count >= duration

    def contains_frame(self, frame_id: int) -> bool:
        """True when ``frame_id`` is currently part of the frame set."""
        return self.span.contains(frame_id)

    def snapshot(self) -> Tuple[FrozenSet[int], Tuple[int, ...]]:
        """Return an immutable ``(object_ids, frame_ids)`` snapshot."""
        return (self.object_ids, self.span.frame_ids())

    def to_result(self) -> ResultState:
        """Decode the state into an immutable :class:`ResultState`.

        The decoded record is cached against the span's revision counter, so
        states that did not change between reports are not re-decoded.
        """
        revision = self.span.revision
        result = self._result
        if result is None or self._result_revision != revision:
            result = ResultState(self.object_ids, self.span.frame_ids())
            self._result = result
            self._result_revision = revision
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        marked = set(self.span.marked_ids())
        frames = ", ".join(
            f"*{fid}" if fid in marked else str(fid)
            for fid in self.span.frame_ids()
        )
        try:
            objs = ",".join(str(o) for o in sorted(self.object_ids))
        except ValueError:
            objs = bin(self.bits)
        return f"State({{{objs}}}, {{{frames}}})"


class StateTable:
    """A hash table mapping interned object-set bitmasks to their states.

    All generators maintain their live states here; the SSG generator layers a
    graph structure on top of the same table.  Keys are plain ints, so lookups
    avoid frozenset hashing entirely.
    """

    __slots__ = ("_interner", "_by_bits")

    def __init__(self, interner: Optional[ObjectInterner] = None) -> None:
        self._interner = interner if interner is not None else ObjectInterner()  # repro-lint: disable=CKPT-DRIFT -- shared interner is injected by the owning generator, whose checkpoint round-trips it
        self._by_bits: Dict[int, State] = {}

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
        state = State(bits, self._interner)
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
    # Checkpointing
    # ------------------------------------------------------------------
    def export_states(self) -> Dict[str, List[int]]:
        """Snapshot every live state as flat int columns, in table order.

        One row per state in ``bits`` / ``terminated`` / ``run_counts`` /
        ``mark_counts``; the ``starts`` / ``ends`` run bounds and the
        ``marks`` of all states are concatenated, each state owning the next
        ``run_counts[i]`` (``mark_counts[i]``) entries.  Everything else a
        state holds — visitation stamp, decoded-result cache, revision
        counters, merge memos — is rebuilt lazily and never exported; SSG
        adjacency is graph-owned and exported by that generator, addressed
        by the row positions defined here.

        Table order matters: the generators' report loops iterate the table,
        so restoring states in a different order would permute result sets
        and break byte-identical resume.
        """
        run_counts: List[int] = []
        starts: List[int] = []
        ends: List[int] = []
        mark_counts: List[int] = []
        marks: List[int] = []
        terminated: List[int] = []
        for state in self._by_bits.values():
            run_starts, run_ends, marked = state.span.export_snapshot()
            run_counts.append(len(run_starts))
            starts += run_starts
            ends += run_ends
            mark_counts.append(len(marked))
            marks += marked
            terminated.append(1 if state.terminated else 0)
        return {
            "bits": list(self._by_bits),
            "terminated": terminated,
            "run_counts": run_counts,
            "starts": starts,
            "ends": ends,
            "mark_counts": mark_counts,
            "marks": marks,
        }

    def import_states(self, columns: Dict[str, List[int]]) -> None:
        """Rebuild the table (in place) from an :meth:`export_states` payload."""
        bits, terminated, run_counts, starts, ends, mark_counts, marks = (
            int_column(columns[name]) for name in (
                "bits", "terminated", "run_counts", "starts", "ends",
                "mark_counts", "marks",
            )
        )
        if not len(bits) == len(terminated) == len(run_counts) == len(mark_counts):
            raise ValueError(
                "malformed table snapshot: per-state columns differ in length"
            )
        if min(run_counts, default=0) < 0 or min(mark_counts, default=0) < 0:
            raise ValueError("malformed table snapshot: negative run or mark count")
        if not sum(run_counts) == len(starts) == len(ends) \
                or sum(mark_counts) != len(marks):
            raise ValueError(
                "malformed table snapshot: run or mark columns do not add up "
                "to the per-state counts"
            )
        by_bits = self._by_bits
        by_bits.clear()
        interner = self._interner
        from_runs = FrameSpan.from_runs
        run_at = mark_at = 0
        for state_bits, dead, run_count, mark_count in zip(
            bits, terminated, run_counts, mark_counts
        ):
            state = State(state_bits, interner)
            run_end, mark_end = run_at + run_count, mark_at + mark_count
            state.span = from_runs(
                starts[run_at:run_end], ends[run_at:run_end],
                marks[mark_at:mark_end],
            )
            run_at, mark_at = run_end, mark_end
            state.terminated = bool(dead)
            if state.bits in by_bits:
                raise ValueError(
                    f"duplicate state bitmask {state.bits} in table snapshot"
                )
            by_bits[state.bits] = state


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


def columnar_layout(payload: Dict) -> Dict:
    """A generator's ``state`` payload in the columnar layout it is read in.

    Checkpoint versions 1 and 2 wrote one ``{"bits", "span", "terminated"}``
    dict per state and addressed the SSG graph by object-set bitmask; this
    translates that row-wise layout to the columns of
    :meth:`StateTable.export_states` (and of the SSG generator's graph
    block), and is the only code that knows it.  Any other payload — already
    in columns, or of a generator that keeps no state table — is returned
    as is.
    """
    rows = payload.get("states")
    if not isinstance(rows, list):
        return payload
    spans = [row["span"] for row in rows]
    for run_starts, run_ends, _ in spans:
        if len(run_starts) != len(run_ends):
            raise ValueError("malformed span snapshot: run bounds differ in length")
    bits = [int(row["bits"]) for row in rows]
    translated: Dict = {"states": {
        "bits": bits,
        "terminated": [1 if row.get("terminated", False) else 0 for row in rows],
        "run_counts": [len(span[0]) for span in spans],
        "starts": [start for span in spans for start in span[0]],
        "ends": [end for span in spans for end in span[1]],
        "mark_counts": [len(span[2]) for span in spans],
        "marks": [mark for span in spans for mark in span[2]],
    }}
    if "graph" not in payload:
        return translated
    position = {state_bits: index for index, state_bits in enumerate(bits)}

    def positions_of(masks: Iterable[int]) -> List[int]:
        try:
            return [position[int(mask)] for mask in masks]
        except KeyError as exc:
            raise ValueError(
                f"SSG checkpoint references unknown state bitmask {exc.args[0]}"
            ) from None

    adjacency = payload["graph"]
    if len(adjacency) != len(rows):
        raise ValueError(
            "SSG checkpoint graph does not align with its state table "
            f"({len(adjacency)} adjacency entries for {len(rows)} states)"
        )
    graph: Dict[str, List[int]] = {
        "child_counts": [], "children": [], "parent_counts": [], "parents": [],
    }
    for sides in adjacency:
        for name, counts, masks in zip(
            ("children", "parents"), ("child_counts", "parent_counts"), sides
        ):
            # ``None``: the state is not a graph node (a terminated marker).
            graph[counts].append(-1 if masks is None else len(masks))
            if masks:
                graph[name] += positions_of(masks)
    principals = payload["principals"]
    edge_memo = payload.get("edge_memo", [])
    replay = positions_of(payload.get("replay", []))
    graph["roots"] = positions_of(payload["roots"])
    graph["principals"] = positions_of(mask for mask, _ in principals)
    graph["principal_counts"] = [len(frames) for _, frames in principals]
    graph["principal_frames"] = [f for _, frames in principals for f in frames]
    graph["previous_results"] = positions_of(payload["previous_results"])
    graph["memo_parents"] = positions_of(parent for parent, _ in edge_memo)
    graph["memo_children"] = positions_of(child for _, child in edge_memo)
    # The SSG replay list, principal first; absent from blobs written before
    # it existed, which restore with an empty one.
    graph["replay_principal"] = replay[:1] or [-1]
    graph["replay"] = replay[1:]
    translated["graph"] = graph
    return translated
