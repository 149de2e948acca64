"""Run-length encoded sliding-window frame sets.

A state's frame set (Definition 3) is a set of frame ids inside the sliding
window.  Co-occurring objects are observed in *contiguous* stretches of video,
so the frame set is almost always a handful of dense runs — storing it frame
by frame (as the seed implementation's per-frame dict did) makes every merge
and expiry linear in the window size.

:class:`FrameSpan` stores the frame set as sorted, non-adjacent inclusive runs
``[start, end]`` held in two parallel arrays with a logical head index:

* appending the next frame extends the last run in O(1);
* expiry pops whole runs off the front, O(1) amortised per expired frame and
  O(1) flat when nothing expires (the common case);
* merging two spans is at worst a single interval-union pass over the run
  lists, O(runs) instead of O(frames) — and usually far less, see below;
* ``frame_count`` and ``marked_count`` are maintained plain attributes, O(1)
  with no property-call overhead on the hot loops.

Merge memoisation
-----------------
The generators merge the *same* source state into the *same* target on every
frame while a co-occurrence persists.  Every span carries a unique ``serial``
plus three change counters:

* ``revision`` — any change to the frame set (also the cache key for decoded
  snapshots such as :meth:`~repro.core.state.State.to_result`);
* ``mid_revision`` — only changes that add frames *at or before* the current
  tail (merge splices and late inserts; in-order appends and expiry leave it
  untouched);
* ``marks_revision`` — any change to the marked-frame list.

A target remembers ``[revision, mid_revision, last_frame, marks_revision,
marks_mid_revision, last_mark]`` per source serial at merge time.  On the
next merge from the same source:

* unchanged ``revision`` — the union is a provable no-op, skip entirely;
* unchanged ``mid_revision`` — the source only appended (and/or expired)
  since, so only its runs beyond the remembered ``last_frame`` are new;
  splice just those (usually a single frame) instead of re-unioning
  everything;
* otherwise — full interval union.

This is sound because the generators always expire a source to the current
window *before* merging from it: an unchanged revision proves the source's
frames are all still inside the window and were already unioned into the
target, and the target can only have gained frames or dropped frames older
than the window since — so the union result cannot have changed.  Marks are
skipped independently via ``marks_revision``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import chain, count
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Compact the backing arrays once this many entries have expired *and* the
#: expired prefix is at least half the array (amortised O(1) per expiry).
_COMPACT_THRESHOLD = 16

#: Global serial numbers for merge memoisation (never reused, unlike ``id``).
_serials = count()


class FrameSpan:
    """A sliding-window frame set as run-length intervals plus marked frames."""

    __slots__ = ("_starts", "_ends", "_head", "_marked", "_mhead",
                 "frame_count", "marked_count",
                 "revision", "mid_revision", "marks_revision",
                 "marks_mid_revision", "serial", "_merge_memo")

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._head = 0
        self._marked: List[int] = []
        self._mhead = 0
        #: Number of frames in the span (maintained, read directly).
        self.frame_count = 0
        #: Number of live marked frames (maintained, read directly).
        self.marked_count = 0
        #: Bumped by every frame-set change.
        self.revision = 0
        #: Bumped only by non-tail frame additions (see module docstring).
        self.mid_revision = 0
        #: Bumped by every marked-frame change.
        self.marks_revision = 0
        #: Bumped only by non-tail mark additions.
        self.marks_mid_revision = 0
        self.serial = next(_serials)
        # Merge memo, one entry per source span this span has merged from:
        #   serial -> [revision, mid_revision, last_frame,
        #              marks_revision|None, marks_mid_revision, last_mark]
        # CANONICAL LAYOUT — the hot loops in naive.py, mfs.py and ssg.py
        # inline the hit test against entry[0]/entry[1]/entry[2]/entry[3]
        # (deliberately: a function call per derivation would dominate the
        # merge itself).  Any change to the layout or to the catch-up
        # soundness conditions must be mirrored at those call sites.
        self._merge_memo: Optional[Dict[int, List]] = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, frame_id: int, marked: bool = False) -> bool:
        """Add ``frame_id`` to the span (idempotent); optionally mark it.

        Returns ``True`` when the frame was newly added.  The fast paths are
        an in-order append (``frame_id`` beyond the last run) and a duplicate
        of the current tail frame (several sources deriving the same target
        within one window step); anything else takes the bisect path.
        """
        ends = self._ends
        added = False
        if self._head >= len(ends):
            self._starts.append(frame_id)
            ends.append(frame_id)
            self.frame_count += 1
            self.revision += 1
            added = True
        else:
            last = ends[-1]
            if frame_id > last:
                if frame_id == last + 1:
                    ends[-1] = frame_id
                else:
                    self._starts.append(frame_id)
                    ends.append(frame_id)
                self.frame_count += 1
                self.revision += 1
                added = True
            elif frame_id != last and not self.contains(frame_id):
                self._insert(frame_id)
                added = True
        if marked:
            self.mark(frame_id)
        return added

    def _insert(self, frame_id: int) -> None:
        """Slow path: splice a late-arriving frame into the run list."""
        starts, ends, head = self._starts, self._ends, self._head
        # Index of the last run starting at or before frame_id (may be head-1).
        i = bisect_right(starts, frame_id, head) - 1
        if i >= head and frame_id == ends[i] + 1:
            ends[i] = frame_id
            if i + 1 < len(starts) and starts[i + 1] == frame_id + 1:
                # Bridged the gap to the next run: coalesce.
                ends[i] = ends[i + 1]
                del starts[i + 1]
                del ends[i + 1]
        elif i + 1 < len(starts) and starts[i + 1] == frame_id + 1:
            starts[i + 1] = frame_id
        else:
            starts.insert(i + 1, frame_id)
            ends.insert(i + 1, frame_id)
        self.frame_count += 1
        self.revision += 1
        self.mid_revision += 1

    def _union_run(self, run_start: int, run_end: int) -> None:
        """Splice the interval ``[run_start, run_end]`` into the run list."""
        starts, ends, head = self._starts, self._ends, self._head
        n = len(starts)
        if head >= n:
            starts.append(run_start)
            ends.append(run_end)
            self.frame_count += run_end - run_start + 1
            self.revision += 1
            return
        if run_start >= starts[-1]:
            # Touches at most the tail run: the overwhelmingly common splice.
            last_end = ends[-1]
            if run_end <= last_end:
                return  # contained
            if run_start <= last_end + 1:
                # Tail overlap/extension (no mid_revision bump).
                ends[-1] = run_end
                self.frame_count += run_end - last_end
                self.revision += 1
            else:
                # Gap beyond the tail: plain append (no mid_revision bump).
                starts.append(run_start)
                ends.append(run_end)
                self.frame_count += run_end - run_start + 1
                self.revision += 1
            return
        # run_start < starts[-1]: a mid splice.  Find the window of runs
        # overlapping or adjacent to [run_start-1, run_end+1].
        lo = bisect_left(ends, run_start - 1, head)
        hi = bisect_right(starts, run_end + 1) - 1
        if lo > hi:
            # No overlap: fresh run between lo-1 and lo.
            starts.insert(lo, run_start)
            ends.insert(lo, run_end)
            self.frame_count += run_end - run_start + 1
            self.revision += 1
            self.mid_revision += 1
            return
        new_start = min(run_start, starts[lo])
        new_end = max(run_end, ends[hi])
        absorbed = 0
        for k in range(lo, hi + 1):
            absorbed += ends[k] - starts[k] + 1
        added = (new_end - new_start + 1) - absorbed
        if added == 0:
            return  # fully contained: no change at all
        # A pure tail extension (only the last run grew, upward) is not a
        # "mid" change: downstream incremental merges stay valid.
        tail_only = (hi == n - 1 and lo == hi and new_start == starts[lo])
        starts[lo] = new_start
        ends[lo] = new_end
        if hi > lo:
            del starts[lo + 1:hi + 1]
            del ends[lo + 1:hi + 1]
        self.frame_count += added
        self.revision += 1
        if not tail_only:
            self.mid_revision += 1

    def _full_union(self, other: "FrameSpan") -> None:
        """One-pass interval union of ``other``'s live runs into this span.

        O(runs_self + runs_other) regardless of how the runs interleave —
        the right tool for the first-ever merge of a state pair, where the
        whole source span is new to the target.  ``mid_revision`` is bumped
        only when the union added frames at or before the previous tail, so
        downstream incremental merges survive pure tail growth.
        """
        o_starts, o_ends, o_head = other._starts, other._ends, other._head
        o_n = len(o_starts)
        starts, ends, head = self._starts, self._ends, self._head
        n = len(starts)
        # Containment pre-scan (two-pointer, no allocation): most repeat
        # derivations merge a source the target already covers entirely.
        i = head
        for j in range(o_head, o_n):
            run_start = o_starts[j]
            while i < n and ends[i] < run_start:
                i += 1
            if i >= n or starts[i] > run_start or ends[i] < o_ends[j]:
                break
        else:
            return  # every source run is covered: provable no-op
        old_count = self.frame_count
        old_last = ends[-1]
        new_starts: List[int] = []
        new_ends: List[int] = []
        i, j = head, o_head
        cur_start = cur_end = None
        frame_count = 0
        while i < n or j < o_n:
            if j >= o_n or (i < n and starts[i] <= o_starts[j]):
                run_start, run_end = starts[i], ends[i]
                i += 1
            else:
                run_start, run_end = o_starts[j], o_ends[j]
                j += 1
            if cur_start is None:
                cur_start, cur_end = run_start, run_end
            elif run_start <= cur_end + 1:
                if run_end > cur_end:
                    cur_end = run_end
            else:
                new_starts.append(cur_start)
                new_ends.append(cur_end)
                frame_count += cur_end - cur_start + 1
                cur_start, cur_end = run_start, run_end
        new_starts.append(cur_start)
        new_ends.append(cur_end)
        frame_count += cur_end - cur_start + 1
        added = frame_count - old_count
        if added == 0:
            return  # other was already covered: no change, keep caches valid
        self._starts, self._ends, self._head = new_starts, new_ends, 0
        self.frame_count = frame_count
        self.revision += 1
        # Frames the source contributed beyond the old tail; if that accounts
        # for every added frame, the change was tail-only.
        beyond = 0
        for k in range(o_n - 1, o_head - 1, -1):
            if o_ends[k] <= old_last:
                break
            run_start = o_starts[k]
            beyond += o_ends[k] - (run_start if run_start > old_last else old_last + 1) + 1
        if added != beyond:
            self.mid_revision += 1

    def mark(self, frame_id: int) -> None:
        """Mark ``frame_id`` (which must be present) as a key frame."""
        marked, mhead = self._marked, self._mhead
        n = len(marked)
        if mhead >= n or frame_id > marked[-1]:
            marked.append(frame_id)
        else:
            if frame_id == marked[-1]:
                return
            i = bisect_right(marked, frame_id, mhead)
            if i > mhead and marked[i - 1] == frame_id:
                return
            insort(marked, frame_id, mhead)
            self.marks_mid_revision += 1
        self.marked_count += 1
        self.marks_revision += 1

    def expire_before(self, oldest_valid: int) -> None:
        """Drop every frame (and mark) with id smaller than ``oldest_valid``."""
        starts, ends = self._starts, self._ends
        head, n = self._head, len(starts)
        if head >= n or starts[head] >= oldest_valid:
            return
        frame_count = self.frame_count
        while head < n and ends[head] < oldest_valid:
            frame_count -= ends[head] - starts[head] + 1
            head += 1
        if head < n and starts[head] < oldest_valid:
            frame_count -= oldest_valid - starts[head]
            starts[head] = oldest_valid
        self._head = head
        self.frame_count = frame_count
        self.revision += 1
        if head >= _COMPACT_THRESHOLD and head * 2 >= n:
            del starts[:head]
            del ends[:head]
            self._head = 0
        marked, mhead = self._marked, self._mhead
        m = len(marked)
        if mhead < m and marked[mhead] < oldest_valid:
            while mhead < m and marked[mhead] < oldest_valid:
                mhead += 1
            self._mhead = mhead
            self.marked_count = m - mhead
            self.marks_revision += 1
            if mhead >= _COMPACT_THRESHOLD and mhead * 2 >= m:
                del marked[:mhead]
                self._mhead = 0

    def merge(self, other: "FrameSpan", copy_marks: bool = False,
              entry: object = False) -> None:
        """Union ``other``'s frames (and optionally marks) into this span.

        Memoised per source span: a no-op when the source has not changed, an
        incremental tail splice when the source only appended since the last
        merge, and a full O(runs) interval union otherwise (see the module
        docstring for the soundness argument).  Callers must expire ``other``
        to the current window before merging, which every generator's
        maintenance loop already does.

        ``entry`` lets hot callers that already looked up this source's memo
        entry (to skip the call entirely on a hit) pass it in; the sentinel
        ``False`` means "not provided".
        """
        memo = self._merge_memo
        if memo is None:
            memo = self._merge_memo = {}
            entry = None
        elif entry is False:
            entry = memo.get(other.serial)
        if entry is None and len(memo) > 4096:
            # Bound the memo on long-lived spans: dead source serials are
            # never reused, so entries for vanished sources are dead weight.
            # Dropping everything is always safe (absent entry = full merge)
            # and live pairs re-memoise on their next derivation.
            memo.clear()

        o_head = other._head
        o_starts, o_ends = other._starts, other._ends
        o_n = len(o_starts)
        if o_head < o_n:
            if entry is not None and entry[0] == other.revision:
                pass  # source frames unchanged: nothing to union
            elif entry is not None and entry[1] == other.mid_revision:
                # Source only appended (and/or expired) since the last merge:
                # splice just the runs beyond the remembered tail.
                last_merged = entry[2]
                i = bisect_right(o_ends, last_merged, o_head)
                while i < o_n:
                    run_start = o_starts[i]
                    if run_start <= last_merged:
                        run_start = last_merged + 1
                    self._union_run(run_start, o_ends[i])
                    i += 1
            elif self.frame_count == 0:
                # Fresh target: wholesale copy.
                self._starts = o_starts[o_head:]
                self._ends = o_ends[o_head:]
                self._head = 0
                self.frame_count = other.frame_count
                self.revision += 1
                self.mid_revision += 1
            elif o_n - o_head == 1:
                # Single source run: targeted splice.
                self._union_run(o_starts[o_head], o_ends[o_head])
            else:
                self._full_union(other)
        if copy_marks:
            marks_done = entry is not None and entry[3] is not None
            if marks_done and entry[3] == other.marks_revision:
                pass  # source marks unchanged
            elif marks_done and entry[4] == other.marks_mid_revision:
                # Only appended (and/or expired) marks since: add the tail.
                o_marked = other._marked
                i = bisect_right(o_marked, entry[5], other._mhead)
                for k in range(i, len(o_marked)):
                    self.mark(o_marked[k])
            elif self.marked_count == 0 and other.marked_count:
                self._marked = other._marked[other._mhead:]
                self._mhead = 0
                self.marked_count = other.marked_count
                self.marks_revision += 1
                self.marks_mid_revision += 1
            else:
                o_marked = other._marked
                o_mh = other._mhead
                o_m = len(o_marked)
                marked, mh = self._marked, self._mhead
                m = len(marked)
                if o_m - o_mh > 4 and m > mh:
                    # Bulk path (typically the first merge of a pair): a
                    # one-pass sorted union beats per-mark insertion.
                    merged: List[int] = []
                    push = merged.append
                    old_tail = marked[m - 1]
                    mid_added = False
                    i, j = mh, o_mh
                    while i < m or j < o_m:
                        if j >= o_m:
                            push(marked[i]); i += 1
                        elif i >= m:
                            value = o_marked[j]; j += 1
                            if value < old_tail:
                                mid_added = True
                            push(value)
                        elif marked[i] < o_marked[j]:
                            push(marked[i]); i += 1
                        elif o_marked[j] < marked[i]:
                            value = o_marked[j]; j += 1
                            if value < old_tail:
                                mid_added = True
                            push(value)
                        else:
                            push(marked[i]); i += 1; j += 1
                    if len(merged) != m - mh:
                        self._marked = merged
                        self._mhead = 0
                        self.marked_count = len(merged)
                        self.marks_revision += 1
                        if mid_added:
                            self.marks_mid_revision += 1
                else:
                    # Mark by mark: duplicates and tail appends stay cheap
                    # and do not bump marks_mid_revision.
                    mark = self.mark
                    for k in range(o_mh, o_m):
                        mark(o_marked[k])
        last_frame = o_ends[-1] if o_head < o_n else -1
        if entry is not None:
            # Update in place: no list allocation on the repeat-merge path.
            entry[0] = other.revision
            entry[1] = other.mid_revision
            entry[2] = last_frame
            if copy_marks:
                entry[3] = other.marks_revision
                entry[4] = other.marks_mid_revision
                entry[5] = other._marked[-1] if other.marked_count else -1
        elif copy_marks:
            memo[other.serial] = [
                other.revision, other.mid_revision, last_frame,
                other.marks_revision, other.marks_mid_revision,
                other._marked[-1] if other.marked_count else -1,
            ]
        else:
            memo[other.serial] = [
                other.revision, other.mid_revision, last_frame,
                None, 0, -1,
            ]

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def export_snapshot(self) -> List[List[int]]:
        """Snapshot the live runs and marks for checkpointing.

        Returns ``[starts, ends, marked]`` with the expired prefix already
        dropped.  Revision counters, serials and merge memos are *not*
        exported: they are pure performance caches whose absence only costs
        one full re-merge per surviving state pair after a restore.
        """
        head = self._head
        return [
            list(self._starts[head:]),
            list(self._ends[head:]),
            list(self._marked[self._mhead:]),
        ]

    @classmethod
    def from_snapshot(cls, snapshot: Sequence[Sequence[int]]) -> "FrameSpan":
        """Rebuild a span from an :meth:`export_snapshot` payload."""
        starts, ends, marked = snapshot
        return cls.from_runs(
            list(map(int, starts)), list(map(int, ends)), list(map(int, marked))
        )

    @classmethod
    def from_runs(
        cls, starts: List[int], ends: List[int], marked: List[int]
    ) -> "FrameSpan":
        """A span over the given run bounds and marks, checked.

        The three int lists become the span's own arrays, so the caller
        must hand over fresh ones.
        """
        if len(starts) != len(ends):
            raise ValueError("malformed span snapshot: run bounds differ in length")
        span = cls()
        frame_count = 0
        previous_end = None
        for start, end in zip(starts, ends):
            if end < start or (previous_end is not None and start <= previous_end + 1):
                raise ValueError(
                    f"malformed span snapshot: runs not sorted/disjoint at {start}..{end}"
                )
            frame_count += end - start + 1
            previous_end = end
        # Marks are sorted, so one walk over the runs places all of them.
        run, runs = 0, len(starts)
        previous_mark = None
        for mark in marked:
            if previous_mark is not None and mark <= previous_mark:
                raise ValueError("malformed span snapshot: marks not sorted")
            while run < runs and ends[run] < mark:
                run += 1
            if run == runs or starts[run] > mark:
                raise ValueError(
                    f"malformed span snapshot: mark {mark} outside the frame set"
                )
            previous_mark = mark
        span._starts = starts
        span._ends = ends
        span.frame_count = frame_count
        span._marked = marked
        span.marked_count = len(marked)
        return span

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return self.frame_count == 0

    @property
    def first_frame(self) -> int:
        """Oldest frame id; raises IndexError when empty."""
        return self._starts[self._head]

    @property
    def last_frame(self) -> int:
        """Newest frame id; raises IndexError when empty."""
        return self._ends[-1]

    def contains(self, frame_id: int) -> bool:
        """True when ``frame_id`` is part of the span (O(log runs))."""
        starts, head = self._starts, self._head
        i = bisect_right(starts, frame_id, head) - 1
        return i >= head and frame_id <= self._ends[i]

    def runs(self) -> Tuple[Tuple[int, int], ...]:
        """The live runs as ``(start, end)`` pairs, oldest first."""
        head = self._head
        return tuple(zip(self._starts[head:], self._ends[head:]))

    def runs_key(self) -> Tuple[int, ...]:
        """A cheap hashable canonical key of the frame set (flat run bounds)."""
        head = self._head
        return tuple(self._starts[head:] + self._ends[head:])

    def frame_ids(self) -> Tuple[int, ...]:
        """Decode the span into the tuple of frame ids, oldest first."""
        head = self._head
        if len(self._starts) - head == 1:  # one run: nearly every span
            return tuple(range(self._starts[head], self._ends[head] + 1))
        return tuple(chain.from_iterable(
            range(s, e + 1)
            for s, e in zip(self._starts[head:], self._ends[head:])
        ))

    def marked_ids(self) -> Tuple[int, ...]:
        """The live marked frame ids, oldest first."""
        return tuple(self._marked[self._mhead:])

    # ------------------------------------------------------------------
    # Cuts: the span as a smaller window ending at the same frame sees it
    # ------------------------------------------------------------------
    def _cut_at(self, lo: int) -> int:
        """Index of the first run holding a frame ``>= lo``."""
        return bisect_left(self._ends, lo, self._head)

    def count_from(self, lo: int) -> int:
        """Number of frames ``>= lo``."""
        starts, ends = self._starts, self._ends
        head = self._head
        if head >= len(starts) or starts[head] >= lo:
            return self.frame_count
        if len(starts) - head == 1:  # one run: nearly every span
            return ends[head] - lo + 1 if ends[head] >= lo else 0
        i = self._cut_at(lo)
        if i == len(ends):
            return 0
        count = sum(ends[i:]) - sum(starts[i:]) + len(ends) - i
        if starts[i] < lo:
            count -= lo - starts[i]
        return count

    def frame_ids_from(self, lo: int) -> Tuple[int, ...]:
        """The frame ids ``>= lo``, oldest first."""
        starts, ends = self._starts, self._ends
        head = self._head
        if len(starts) - head == 1:  # one run: nearly every span
            return tuple(range(max(starts[head], lo), ends[head] + 1))
        i = self._cut_at(lo)
        return tuple(chain.from_iterable(
            range(max(s, lo), e + 1) for s, e in zip(starts[i:], ends[i:])
        ))

    def runs_key_from(self, lo: int) -> Tuple[int, ...]:
        """:meth:`runs_key` of the frames ``>= lo``."""
        i = self._cut_at(lo)
        starts = self._starts[i:]
        if starts and starts[0] < lo:
            starts[0] = lo
        return tuple(starts + self._ends[i:])

    def marked_from(self, lo: int) -> bool:
        """Whether a mark ``>= lo`` remains (marks are sorted, so the
        newest one decides)."""
        return self.marked_count > 0 and self._marked[-1] >= lo

    def __iter__(self) -> Iterator[int]:
        return iter(self.frame_ids())

    def __len__(self) -> int:
        return self.frame_count

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        runs = ", ".join(f"{s}..{e}" for s, e in self.runs())
        return f"FrameSpan([{runs}], marked={list(self.marked_ids())})"
