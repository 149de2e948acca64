"""The Marked Frame Set (MFS) approach (Section 4.2).

MFS maintains the same collection of states as the NAIVE baseline but marks
*key frames* in each state's frame set.  A state whose marked frames have all
expired is guaranteed to be invalid (its object set is no longer a Maximum
Co-occurrence Object Set) and is removed immediately, which both shrinks the
state table and removes the need for frame-set deduplication when reporting.

Marking semantics
-----------------
The paper's Frame Marking Rules are under-specified for states that can be
derived from several sources; we use the following semantics (which
reproduces the worked example of Table 2 and is verified against the exact
reference oracle by the property-based tests):

* the state whose object set equals the arriving frame's object set (the
  *principal* state) marks the arriving frame id;
* whenever the intersection of an existing state ``s`` with the arriving
  frame equals the object set of a state ``t`` (existing or newly created),
  ``t`` inherits every marked frame of ``s``.

Both rules preserve the invariant that a marked frame ``m`` certifies a set of
window frames, all no older than ``m``, whose object sets intersect exactly to
the state's object set -- hence "at least one marked frame present" is
equivalent to the state being a valid MCOS.

All object sets are ``int`` bitmasks over the generator's shared
:class:`~repro.core.interning.ObjectInterner`, and frames and marks ``int``
bitsets over the state table's window base (:mod:`repro.core.state`), so
per-frame intersection is a single ``&`` and a merge two ``|``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.base import MCOSGenerator
from repro.core.result import ResultStateSet
from repro.core.state import State, StateTable


class MarkedFrameSetGenerator(MCOSGenerator):
    """MCOS generator using Marked Frame Sets for eager invalid-state removal."""

    name = "MFS"

    def __init__(self, window_size: int, duration: int, **kwargs):
        super().__init__(window_size, duration, **kwargs)
        self._states = StateTable(self.interner)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _process(self, frame_id: int, frame_bits: int) -> ResultStateSet:
        oldest_valid = self._oldest_valid_frame(frame_id)
        bit = self._states.frame_bit(frame_id, oldest_valid)
        self._expire(oldest_valid)

        if frame_bits:
            self._integrate_frame(bit, frame_bits)

        self._track_live_states(len(self._states))
        return self._report(frame_id)

    def _expire(self, oldest_valid: int) -> None:
        """Expire frames; remove states that lost all marks (and so, marks
        being a subset of the frames, every state that lost all frames)."""
        states = self._states
        keep = -1 << (oldest_valid - states.base)
        for state in states.states():
            marks = state.marks & keep
            if marks:
                state.frames &= keep
                state.marks = marks
            else:
                states.remove(state)
                self.stats.states_removed += 1

    def _integrate_frame(self, bit: int, frame_bits: int) -> None:
        """Intersect the new frame (``bit`` in the frame bitsets) with every
        existing state, marking key frames."""
        states = self._states
        stats = self.stats
        principal = states.get(frame_bits)
        if principal is None:
            if not self._keep_new_state(frame_bits):
                # Proposition 1: every intersection with the frame is a
                # subset of it, so the filter refuses it too, and no live
                # state lies below it (it would be a kept subset of a
                # refused set).  Only the frame's terminated marker is kept.
                principal, _ = states.get_or_create(frame_bits)
                stats.states_created += 1
                principal.terminated = True
                principal.frames = principal.marks = bit
                return
        elif principal.terminated:
            return
        existing = states.states()
        visits = 0
        appended = 0
        for state in existing:
            if state.terminated:
                continue
            visits += 1
            state_bits = state.bits
            inter = state_bits & frame_bits
            if not inter:
                continue
            if inter == state_bits:
                # The state's objects all appear in the new frame: append only.
                state.frames |= bit
                appended += 1
                continue
            target, created = states.get_or_create(inter)
            if created:
                stats.states_created += 1
                if not self._keep_new_state(inter):
                    # Proposition 1: keep a terminated marker so the state is
                    # not repeatedly re-created, but never process it again.
                    target.terminated = True
                    target.frames = target.marks = bit
                    continue
            if target.terminated:
                continue
            # The target inherits the source's frames and marked frames
            # (Frame Marking Rule 2), plus the arriving frame (unmarked).
            target.frames |= state.frames | bit
            target.marks |= state.marks
            appended += 1
        stats.state_visits += visits
        stats.intersections += visits
        stats.frames_appended += appended

        # The frame's own set was judged (or found kept) above.
        principal, created = states.get_or_create(frame_bits)
        if created:
            stats.states_created += 1
        # Frame Marking Rule 1: the frame that creates a principal state is a
        # key frame of that state.
        principal.frames |= bit
        principal.marks |= bit
        stats.frames_appended += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report(self, frame_id: int) -> ResultStateSet:
        """Report every satisfied, valid state; no deduplication is required."""
        duration = self.config.duration
        result = ResultStateSet(frame_id)
        add = result.add_unique
        for state in self._states:
            if (not state.terminated and state.marks
                    and state.frames.bit_count() >= duration):
                add(state.to_result())
        return result

    def _cut(self, result: ResultStateSet, lo: int, duration: int) -> None:
        """Every live state keeping a mark and ``duration`` frames ``>= lo``."""
        add = result.add_unique
        shift = lo - self._states.base
        for state in self._states:
            if (not state.terminated and state.marks >> shift
                    and (state.frames >> shift).bit_count() >= duration):
                add(state.cut_result(lo))

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _reset_impl(self) -> None:
        self._states = StateTable(self.interner)

    def live_state_count(self) -> int:
        return len(self._states)

    def live_states(self) -> List[State]:
        """Snapshot of the currently maintained states (for tests)."""
        return self._states.states()

    def _live_mask(self) -> int:
        return self._states.live_mask()

    def _export_impl(self) -> Dict:
        return {"states": self._states.export_states(
            self._last_frame_id, self.config.window_size
        )}

    def _import_impl(self, payload: Dict) -> None:
        self._states.import_states(
            payload["states"], self._last_frame_id, self.config.window_size
        )
