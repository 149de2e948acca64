"""Exact, per-window recomputation of MCOSs (the correctness oracle).

The Maximum Co-occurrence Object Sets of a window (Definitions 1 and 2) are
exactly the *closed* object sets of the window frames: an object set ``X`` is
an MCOS of the frame set ``cover(X) = {f : X subseteq objects(f)}`` iff ``X``
equals the intersection of the object sets of the frames in ``cover(X)``.

This module recomputes the closed sets of every window from scratch.  It is
deliberately simple (and therefore slow) so that it can serve as the ground
truth against which the incremental NAIVE / MFS / SSG generators are verified
in the unit and property-based tests.  Internally it runs on a throwaway
:class:`~repro.core.interning.ObjectInterner` (set algebra on int masks),
decoding back to frozensets only when returning -- the same kernel the
incremental generators use, exercised through an independent algorithm.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.core.base import MCOSGenerator
from repro.core.interning import ObjectInterner
from repro.core.result import ResultState, ResultStateSet
from repro.datamodel.observation import FrameObservation


def closed_object_sets(
    frames: Sequence[FrameObservation],
) -> Dict[FrozenSet[int], FrozenSet[int]]:
    """Compute every closed object set of the given frames.

    Returns a mapping ``{object set -> frame ids containing it}`` restricted to
    object sets that are MCOSs of their frame set (i.e. closed sets).

    The computation builds the closure incrementally: the set of closed sets of
    ``n + 1`` frames is the set of closed sets of ``n`` frames, plus the new
    frame's object set, plus all intersections of the new frame with previous
    closed sets.
    """
    interner = ObjectInterner()
    masks: List[Tuple[int, int]] = [
        (frame.frame_id, interner.intern_ids(frame.object_ids))
        for frame in frames
    ]

    closed: Dict[int, None] = {}
    for _, frame_mask in masks:
        if not frame_mask:
            continue
        new_sets = {frame_mask}
        for existing in closed:
            inter = existing & frame_mask
            if inter:
                new_sets.add(inter)
        for candidate in new_sets:
            closed[candidate] = None

    # A candidate is closed (an MCOS of its cover) iff it equals the
    # intersection of the frames in its cover.
    result: Dict[FrozenSet[int], FrozenSet[int]] = {}
    for candidate in closed:
        cover: List[int] = []
        intersection = -1
        for frame_id, frame_mask in masks:
            if candidate & frame_mask == candidate:
                cover.append(frame_id)
                intersection &= frame_mask
        if cover and intersection == candidate:
            result[interner.decode(candidate)] = frozenset(cover)
    return result


class ReferenceGenerator(MCOSGenerator):
    """Oracle generator: recompute the exact result of every window.

    This generator ignores all incremental machinery: for each incoming frame
    it recomputes the closed object sets of the current window and reports
    those whose cover meets the duration threshold.  It is quadratic in the
    window size and only intended for tests and for very small examples.
    """

    name = "REFERENCE"

    def __init__(self, window_size: int, duration: int, **kwargs):
        super().__init__(window_size, duration, **kwargs)
        self._window: List[FrameObservation] = []

    def _frame_bits(self, frame: FrameObservation) -> int:
        # The oracle keeps the projected frames themselves, not only masks.
        self._window.append(
            frame.restricted_to_labels(self.config.labels_of_interest)
        )
        return super()._frame_bits(frame)

    def _process(self, frame_id: int, frame_bits: int) -> ResultStateSet:
        oldest_valid = self._oldest_valid_frame(frame_id)
        while self._window and self._window[0].frame_id < oldest_valid:
            self._window.pop(0)

        result = ResultStateSet(frame_id)
        for object_ids, cover in closed_object_sets(self._window).items():
            if len(cover) >= self.config.duration:
                result.add(ResultState(object_ids, tuple(sorted(cover))))
        self._track_live_states(len(self._window))
        return result

    def _cut(self, result: ResultStateSet, lo: int, duration: int) -> None:
        """Recompute over the window frames ``>= lo``."""
        frames = [frame for frame in self._window if frame.frame_id >= lo]
        for object_ids, cover in closed_object_sets(frames).items():
            if len(cover) >= duration:
                result.add(ResultState(object_ids, tuple(sorted(cover))))

    def _reset_impl(self) -> None:
        self._window = []

    def live_state_count(self) -> int:
        return 0

    def _live_mask(self) -> int:
        """Union mask of every object still inside the window.

        The oracle keeps raw frames rather than states, but interner
        compaction (and the label pruning layered on it) must still treat
        the window population as live: every reported MCOS is a subset of
        these objects.
        """
        mask = 0
        for frame in self._window:
            mask |= self.interner.intern_ids(frame.object_ids)
        return mask

    def _export_impl(self) -> Dict:
        return {"window": [frame.to_record() for frame in self._window]}

    def _import_impl(self, payload: Dict) -> None:
        self._window = [
            FrameObservation.from_record(record) for record in payload["window"]
        ]
