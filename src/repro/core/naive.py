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
:class:`~repro.core.interning.ObjectInterner`; intersections and table lookups
never touch frozensets.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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
        self._expire(oldest_valid)

        if frame_bits:
            self._integrate_frame(frame_id, frame_bits)

        self._track_live_states(len(self._states))
        return self._report(frame_id)

    def _expire(self, oldest_valid: int) -> None:
        """Remove expired frames; drop states whose frame set became empty."""
        for state in self._states.states():
            span = state.span
            starts = span._starts
            head = span._head
            if head < len(starts) and starts[head] < oldest_valid:
                if span._ends[head] >= oldest_valid:
                    # Inlined fast path: the slide trims the first run only.
                    span.frame_count -= oldest_valid - starts[head]
                    starts[head] = oldest_valid
                    span.revision += 1
                else:
                    span.expire_before(oldest_valid)
                    if span.frame_count == 0:
                        self._states.remove(state)
                        self.stats.states_removed += 1

    def _integrate_frame(self, frame_id: int, frame_bits: int) -> None:
        """Intersect the new frame with every existing state (Section 4.2.2)."""
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
                    target.add_frame(frame_id)
                    continue
            if target.terminated:
                continue
            span = state.span
            tspan = target.span
            # Inlined merge-memo hit check (unchanged source: no-op merge).
            memo = tspan._merge_memo
            entry = memo.get(span.serial) if memo is not None else None
            if entry is not None and entry[0] == span.revision:
                pass  # source unchanged: provable no-op
            elif (entry is not None
                    and entry[1] == span.mid_revision
                    and span._ends[-1] <= tspan._ends[-1]
                    and tspan._starts[-1] <= entry[2] + 1):
                # New source frames all lie inside the target's tail run.
                entry[0] = span.revision
                entry[2] = span._ends[-1]
            else:
                tspan.merge(span, False, entry)
            t_ends = tspan._ends
            last = t_ends[-1]
            if last == frame_id - 1:
                t_ends[-1] = frame_id
                tspan.frame_count += 1
                tspan.revision += 1
            elif last != frame_id:
                tspan.append(frame_id)
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
                principal.add_frame(frame_id)
                return
        if principal.terminated:
            return
        principal.add_frame(frame_id)
        stats.frames_appended += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report(self, frame_id: int) -> ResultStateSet:
        """Deduplicate satisfied states that share a frame set (keep the largest)."""
        duration = self.config.duration
        best_by_frames: Dict[Tuple[int, ...], State] = {}
        for state in self._states:
            if state.terminated or state.span.frame_count < duration:
                continue
            # The run bounds are a canonical form of the frame set: a far
            # cheaper grouping key than a frozenset of all frame ids.
            key = state.span.runs_key()
            incumbent = best_by_frames.get(key)
            if incumbent is None or state.size > incumbent.size:
                best_by_frames[key] = state

        result = ResultStateSet(frame_id)
        for state in best_by_frames.values():
            result.add(state.to_result())
        return result

    def _cut(self, result: ResultStateSet, lo: int, duration: int) -> None:
        """The report rule over the frames ``>= lo``: group the states by
        their cut frame set and keep the largest of each group."""
        floor = max(duration, 1)
        best_by_frames: Dict[Tuple[int, ...], State] = {}
        for state in self._states:
            span = state.span
            if state.terminated or span.count_from(lo) < floor:
                continue
            key = span.runs_key_from(lo)
            incumbent = best_by_frames.get(key)
            if incumbent is None or state.size > incumbent.size:
                best_by_frames[key] = state
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
        return {"states": self._states.export_states()}

    def _import_impl(self, payload: Dict) -> None:
        self._states.import_states(payload["states"])
