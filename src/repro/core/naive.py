"""The NAIVE baseline for MCOS generation (Section 6.2).

The baseline follows the "first attempt" state maintenance of Section 4.2.2:
every arriving frame is intersected with every existing state, new states are
created for previously unseen intersections, and states are only discarded
once every frame of their frame set has expired.  No marking is performed, so
invalid states (object sets that are no longer maximal) linger in the state
table; they are filtered out at report time by grouping states that share the
same frame set and keeping only the largest object set, exactly as described
for the NAIVE method in the experimental section.

All object sets are ``int`` bitmasks over the generator's shared
:class:`~repro.core.interning.ObjectInterner` and all frame sets ``int``
bitsets over the state table's window base (:mod:`repro.core.state`):
intersections and table lookups never touch frozensets, a merge is one
``|``, and the report groups states by their frames int.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.base import MCOSGenerator
from repro.core.result import ResultStateSet
from repro.core.state import State, StateTable


class NaiveGenerator(MCOSGenerator):
    """Baseline generator: keep everything, deduplicate when reporting."""

    name = "NAIVE"

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
        """Remove expired frames; drop states whose frame set became empty."""
        states = self._states
        keep = -1 << (oldest_valid - states.base)
        for state in states.states():
            frames = state.frames & keep
            if frames:
                state.frames = frames
            else:
                states.remove(state)
                self.stats.states_removed += 1

    def _integrate_frame(self, bit: int, frame_bits: int) -> None:
        """Intersect the new frame (``bit`` in the frame bitsets) with every
        existing state (Section 4.2.2)."""
        states = self._states
        stats = self.stats
        existing = states.states()
        visits = 0
        appended = 0
        for state in existing:
            if state.terminated:
                continue
            visits += 1
            inter = state.bits & frame_bits
            if not inter:
                continue
            target, created = states.get_or_create(inter)
            if created:
                stats.states_created += 1
                if not self._keep_new_state(inter):
                    # Proposition 1: the state (and every state derivable from
                    # it) can never satisfy a query; keep it as a terminated
                    # marker so it is not re-created, but stop processing it.
                    target.terminated = True
                    target.frames = bit
                    continue
            if target.terminated:
                continue
            target.frames |= state.frames | bit
            appended += 1
        stats.state_visits += visits
        stats.intersections += visits
        stats.frames_appended += appended

        # The arriving frame itself always yields a (principal) state.
        principal, created = states.get_or_create(frame_bits)
        if created:
            stats.states_created += 1
            if not self._keep_new_state(frame_bits):
                principal.terminated = True
                principal.frames = bit
                return
        if principal.terminated:
            return
        principal.frames |= bit
        stats.frames_appended += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report(self, frame_id: int) -> ResultStateSet:
        """Deduplicate satisfied states that share a frame set (keep the largest)."""
        duration = self.config.duration
        best_by_frames: Dict[int, State] = {}
        for state in self._states:
            frames = state.frames
            if state.terminated or frames.bit_count() < duration:
                continue
            incumbent = best_by_frames.get(frames)
            if incumbent is None or state.size > incumbent.size:
                best_by_frames[frames] = state

        result = ResultStateSet(frame_id)
        for state in best_by_frames.values():
            result.add(state.to_result())
        return result

    def _cut(self, result: ResultStateSet, lo: int, duration: int) -> None:
        """The report rule over the frames ``>= lo``: group the states by
        their cut frame set and keep the largest of each group."""
        floor = max(duration, 1)
        shift = lo - self._states.base
        best_by_frames: Dict[int, State] = {}
        for state in self._states:
            frames = state.frames >> shift
            if state.terminated or frames.bit_count() < floor:
                continue
            incumbent = best_by_frames.get(frames)
            if incumbent is None or state.size > incumbent.size:
                best_by_frames[frames] = state
        for state in best_by_frames.values():
            result.add(state.cut_result(lo))

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
