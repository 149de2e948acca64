"""The Strict State Graph (SSG) approach (Section 4.3).

SSG organises the maintained states in a directed graph whose edges point from
larger object sets to smaller ones (Property 1).  Principal states -- states
whose object set equals the object set of some frame still inside the window
-- act as traversal roots.  When a new frame arrives, the State Traversal (ST)
algorithm walks the graph starting from the roots, computing intersections
with the arriving frame and *pruning entire subtrees as soon as an
intersection becomes empty* (every descendant of a state is a subset of it, so
its intersection is empty as well).  This is where SSG saves work compared to
MFS, which must intersect every live state with every arriving frame.

Two auxiliary procedures complete the approach:

* edge maintenance keeps the graph *strict* (Property 2: no child of a node is
  a subset of a sibling), re-parenting states when a newly created state
  subsumes an existing child;
* the CNPS procedure (Algorithm 2) connects the new principal state to the
  graph, choosing candidate children in descending object-set size and
  skipping candidates already reachable from previously selected ones.

Frame marking follows the same semantics as
:class:`~repro.core.mfs.MarkedFrameSetGenerator`, so both approaches report
identical result state sets; only the amount of maintenance work differs.

Fast-path representation
------------------------
Graph nodes are the states' interned ``int`` bitmasks: intersections are
``&`` and the Property-2 subset checks are ``a & b == a`` -- no frozenset is
materialised anywhere on the traversal path.  Adjacency lives directly on the
:class:`~repro.core.state.State` objects (``state.children`` /
``state.parents`` map child/parent bits to their states), so the traversal
follows edges with attribute reads, stamps visits into ``state.flag`` instead
of a hash set, and two memo layers (the span merge memo and the edge
reachability memo) turn the per-frame re-derivations that dominate steady
state into O(1) skips.

Δ-pruning and replay
--------------------
ST prunes the subtrees that miss the arriving frame; this generator also
prunes the ones that miss what *changed*.  Let ``Δ = F ^ F'`` be the
objects that entered or left between the previous frame ``F'`` and the
arriving one ``F``.  A state ``s`` with ``s & Δ == 0`` has ``s & F ==
s & F'``: its derivation is the one the previous frame already made.  If
``s`` is not a subset of ``F`` it received nothing since then (a state only
gains frames or marks from a frame that contains it), so its merge into
``s & F`` is a no-op and the edge to it is memoised; if it is a subset, the
whole visit is "append ``F``".  Every descendant of ``s`` is a subset of
``s`` and so misses ``Δ`` too: the unaffected states are closed downward,
and no state that meets ``Δ`` hangs only below ones that miss it.  Each
frame therefore

1. *replays* the states the previous frame extended that miss ``Δ``: it
   appends the frame to their tail, which is all a visit would do;
2. walks the graph from the roots that meet ``Δ`` and stops at every state
   that misses it, exactly as ST stops at empty intersections.

The walk then no longer reaches every state whose last mark expires, so
expiry is a sweep of its own, run before the walk: states are bucketed by
their oldest stored mark, and a frame removes the states of the buckets that
fell out of the window (principal marking and mark-copying merges are the
only operations that add marks, so only they re-bucket).  After the sweep
every live state carries a mark in the window, which is why neither the
walk nor the report ever meets an invalid state.  The replay list is
checkpointed; the buckets are rebuilt from the marks on import.  Without a
previous frame (a new or reset generator, a checkpoint without the replay
columns, or after an empty frame or a Proposition-1 terminated principal)
``Δ`` is every object and the walk is the full ST.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import accumulate, chain, repeat
from operator import floordiv, mod
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.core.base import MCOSGenerator
from repro.core.result import ResultStateSet
from repro.core.state import State, StateTable, int_column, table_positions
from repro.datamodel.observation import FrameObservation

#: Interned object-set bitmask (graph/table key).
ObjectBits = int

#: Expiry bucket of a state without marks: due on the next sweep.
_UNMARKED = float("-inf")


class _Schedule:
    """The work one frame leaves for the frames after it.

    ``replay`` holds the states the last frame extended, its principal
    first; it is empty when the next frame has no previous frame to diff
    against.  ``buckets`` files every state under its oldest stored mark,
    with ``keys`` the heap of bucket keys: a state sits in the bucket of its
    current oldest mark and possibly in stale ones, which :meth:`due`
    filters out.  The checkpoint carries ``replay``; the buckets are a
    function of the marks and are rebuilt on import.
    """

    __slots__ = ("replay", "buckets", "keys")

    def __init__(self) -> None:
        self.replay: List[State] = []
        self.buckets: Dict[float, List[State]] = {}
        self.keys: List[float] = []

    def add(self, state: State) -> None:
        """File ``state`` under its oldest stored mark."""
        span = state.span
        key = span._marked[span._mhead] if span.marked_count else _UNMARKED
        bucket = self.buckets.get(key)
        if bucket is None:
            self.buckets[key] = [state]
            heappush(self.keys, key)
        else:
            bucket.append(state)

    def due(self, oldest_valid: int, by_bits: Dict[ObjectBits, State]) -> List[State]:
        """Live states holding a mark older than ``oldest_valid``, in table
        order (span serials grow with table position, in a live run and
        after a restore alike, so a restored run removes in the same order)."""
        keys, buckets = self.keys, self.buckets
        found: Dict[int, State] = {}
        while keys and keys[0] < oldest_valid:
            for state in buckets.pop(heappop(keys)):
                span = state.span
                if by_bits.get(state.bits) is state and (
                        not span.marked_count
                        or span._marked[span._mhead] < oldest_valid):
                    found[span.serial] = state
        return [found[serial] for serial in sorted(found)]


class StrictStateGraphGenerator(MCOSGenerator):
    """MCOS generator maintaining states in a Strict State Graph."""

    name = "SSG"

    def __init__(self, window_size: int, duration: int, **kwargs):
        super().__init__(window_size, duration, **kwargs)
        self._states = StateTable(self.interner)
        # Parentless graph nodes, maintained incrementally (traversal roots).
        self._root_keys: Dict[ObjectBits, State] = {}
        # Principal states: bitmask -> creating frame ids still in window,
        # kept in arrival order (dict preserves insertion order).
        self._principals: Dict[ObjectBits, List[int]] = {}
        # Result carry-over (Section 4.3.7): satisfied valid states from the
        # previous window that were not revisited may still be part of the
        # result of the current window.
        self._previous_results: Dict[ObjectBits, State] = {}
        # Edge requests already known to be satisfied (the child is reachable
        # from the parent), keyed by the two states' span serials (unique per
        # state incarnation, so re-created object sets never alias).  Entries
        # stay valid for the lifetime of both states: Property-2 repairs and
        # node removals re-route every broken path before returning (removals
        # bypass this memo when re-attaching, see _remove_node).
        self._edge_memo: Set[Tuple[int, int]] = set()
        # Δ-pruning replay list and the expiry buckets (see module docstring).
        self._schedule = _Schedule()

    # ------------------------------------------------------------------
    # Graph helpers
    # ------------------------------------------------------------------
    def _register_node(self, state: State) -> None:
        if state.children is None:
            state.children = {}
            state.parents = {}
            self._root_keys[state.bits] = state

    def _ensure_edge(self, parent_state: State, child_state: State) -> None:
        """Ensure ``child`` is reachable from ``parent``, repairing Property 2.

        Memoised per state pair: the same derivation repeats every frame
        while a co-occurrence persists, and nothing the graph maintenance
        does breaks established reachability (repairs and removals re-route
        every path they cut), so a satisfied request stays satisfied for the
        lifetime of the two states.
        """
        memo = self._edge_memo
        key = (parent_state.span.serial, child_state.span.serial)
        if key in memo:
            return
        self._add_edge(parent_state, child_state)
        memo.add(key)

    def _add_edge(self, parent_state: State, child_state: State) -> None:
        """Uncached edge insertion with Property-2 sibling repair."""
        parent = parent_state.bits
        child = child_state.bits
        if parent == child:
            return
        siblings = parent_state.children
        if siblings is None:
            self._register_node(parent_state)
            siblings = parent_state.children
        elif child in siblings:
            # The edge already exists: by far the most common call (the same
            # derivation repeats every frame while a co-occurrence persists).
            return
        else:
            # Second-most common repeat: the child already hangs below one of
            # ``parent``'s children (a previous Property-2 repair routed it
            # there).  It is then reachable from ``parent``, no edge is needed
            # and no sibling of ``parent`` can violate strictness against it.
            child_parents = child_state.parents
            if child_parents:
                for via in child_parents:
                    if via in siblings:
                        return
        self._register_node(child_state)
        # Property-2 repair: a sibling that is a subset of the new child moves
        # below it; if the new child is a subset of a sibling, attach it below
        # that sibling instead of below ``parent``.  Subset tests are single
        # mask operations, so no size pre-check is needed.
        for sibling in list(siblings):
            if sibling & child == sibling:
                # sibling is a proper subset of child (they are distinct).
                # Reachability parent => sibling survives via the new child.
                sibling_state = siblings.pop(sibling)
                sibling_state.parents.pop(parent, None)
                self.stats.edges_removed += 1
                # Memoised: if the sibling is already known reachable from
                # the child, the detached edge was redundant (edges run
                # superset -> subset, so no path child => sibling could have
                # used the removed parent -> sibling edge).
                self._ensure_edge(child_state, sibling_state)
            elif child & sibling == child:
                self._ensure_edge(siblings[sibling], child_state)
                return
        siblings[child] = child_state
        child_state.parents[parent] = parent_state
        self._root_keys.pop(child, None)
        self.stats.edges_added += 1

    def _remove_node(self, state: State) -> None:
        """Remove a state's node, re-attaching its children to its parents.

        Re-attachment restores every ancestor=>descendant path that went
        through the removed node, which is what keeps the `_ensure_edge`
        memo valid; the re-attachment itself must therefore use the uncached
        `_add_edge`.
        """
        bits = state.bits
        children = state.children
        parents = state.parents
        state.children = None
        state.parents = None
        self._root_keys.pop(bits, None)
        if parents:
            for parent_state in parents.values():
                parent_children = parent_state.children
                if parent_children is not None:
                    parent_children.pop(bits, None)
                self.stats.edges_removed += 1
        if children:
            for child_bits, child_state in children.items():
                child_parents = child_state.parents
                if child_parents is None:
                    continue
                child_parents.pop(bits, None)
                self.stats.edges_removed += 1
                if parents:
                    for parent_state in parents.values():
                        self._add_edge(parent_state, child_state)
                elif not child_parents:
                    self._root_keys[child_bits] = child_state
        self._principals.pop(bits, None)
        self._previous_results.pop(bits, None)

    def _roots(self) -> List[State]:
        """Traversal roots: principal states first (arrival order), then any
        other parentless state (maintained incrementally)."""
        roots: List[State] = []
        seen: Set[ObjectBits] = set()
        states_get = self._states._by_bits.get
        for bits in self._principals:
            state = states_get(bits)
            if state is not None and bits not in seen:
                roots.append(state)
                seen.add(bits)
        for bits, state in self._root_keys.items():
            if bits not in seen:
                roots.append(state)
                seen.add(bits)
        return roots

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _process(self, frame: FrameObservation, frame_bits: int) -> ResultStateSet:
        frame_id = frame.frame_id
        oldest_valid = self._oldest_valid_frame(frame_id)
        self._expire_principals(oldest_valid)
        self._sweep(oldest_valid)

        result_candidates: Dict[ObjectBits, State] = {}
        replay = self._schedule.replay
        # Stays empty (the next frame walks in full) unless this frame
        # extends a principal.
        self._schedule.replay = []
        if frame_bits:
            self._traverse_and_integrate(
                frame_id, frame_bits, oldest_valid, replay, result_candidates
            )

        self._track_live_states(len(self._states))
        if len(self._edge_memo) > 64 * len(self._states) + 1024:
            self._prune_edge_memo()
        return self._report(frame_id, oldest_valid, result_candidates)

    def _prune_edge_memo(self) -> None:
        """Drop edge-memo entries whose states are gone.

        Span serials are never reused, so entries referencing dead states are
        dead weight; on a long-running stream they would otherwise accumulate
        without bound.  Amortised: runs only when the memo outgrows the live
        state count by a wide margin.
        """
        live = {state.span.serial for state in self._states}
        self._edge_memo = {
            key for key in self._edge_memo
            if key[0] in live and key[1] in live
        }

    def _expire_principals(self, oldest_valid: int) -> None:
        """Drop expired creating frames; forget principals with none left."""
        stale = []
        for bits, creating_frames in self._principals.items():
            if creating_frames[0] < oldest_valid:
                creating_frames[:] = [f for f in creating_frames if f >= oldest_valid]
            if not creating_frames:
                stale.append(bits)
        for bits in stale:
            del self._principals[bits]

    def _sweep(self, oldest_valid: int) -> None:
        """Remove every state whose last mark left the window.

        Runs before the walk, which no longer reaches every such state (see
        the module docstring); states that keep a mark are expired and filed
        under their new oldest one.
        """
        schedule = self._schedule
        states = self._states
        removed = 0
        for state in schedule.due(oldest_valid, states._by_bits):
            span = state.span
            span.expire_before(oldest_valid)
            if span.marked_count:
                schedule.add(state)
            else:
                states.remove(state)
                self._remove_node(state)
                removed += 1
        self.stats.states_removed += removed

    def _traverse_and_integrate(
        self, frame_id: int, frame_bits: int, oldest_valid: int,
        replay: List[State], result_candidates: Dict[ObjectBits, State],
    ) -> None:
        """Run the Δ-pruned State Traversal for one arriving frame.

        ``replay`` is the previous frame's replay list.  Satisfied, valid
        states touched by the replay or the walk are collected into
        ``result_candidates`` as they are mutated (additions within a frame
        are monotone, so checking at each mutation point is equivalent to an
        end-of-frame scan over every touched state).
        """
        schedule = self._schedule
        # The new principal state is created up-front so that mark propagation
        # and edge insertion can target it during the traversal.
        principal, created = self._states.get_or_create(frame_bits)
        if created:
            self.stats.states_created += 1
            if not self._keep_new_state(frame_bits):
                # Proposition 1: the whole frame (and hence every state that
                # could be derived from it) cannot satisfy any query.  Keep a
                # terminated marker so the check is not repeated per frame.
                principal.terminated = True
                principal.add_frame(frame_id, marked=True)
                schedule.add(principal)
                return
            self._register_node(principal)
        elif principal.terminated:
            return
        else:
            # The state may not have been visited for a while; drop expired
            # frames before extending it so its frame set stays inside the
            # window.
            principal.span.expire_before(oldest_valid)
        principal.span.append(frame_id, marked=True)
        if created:
            schedule.add(principal)
        self.stats.frames_appended += 1
        self._principals.setdefault(frame_bits, []).append(frame_id)
        extended = schedule.replay = [principal]

        if replay:
            delta = replay[0].bits ^ frame_bits
            self._replay(replay, delta, frame_id, oldest_valid, extended,
                         result_candidates)
        else:
            delta = -1  # no previous frame: every state meets Δ

        # Candidate children of the new principal state (Theorem 2): at most
        # one per traversal root, namely the state whose object set equals the
        # root's intersection with the arriving frame.  Roots that miss Δ
        # still name their candidate; they are only not walked.
        candidates: Dict[ObjectBits, None] = {}

        # Schedule every unvisited root up-front: one shared stack for the
        # whole frame avoids per-root traversal setup.
        stack: List[State] = []
        for root in self._roots():
            root_key = root.bits
            if root_key == frame_bits:
                continue
            root_inter = root_key & frame_bits
            if root_inter and root_inter != frame_bits:
                candidates.setdefault(root_inter, None)
            if root.flag != frame_id and root_key & delta:
                root.flag = frame_id
                stack.append(root)
        if stack:
            self._traverse(stack, frame_bits, delta, frame_id, oldest_valid,
                           extended, result_candidates)

        self._connect_new_principal(principal, candidates)
        span = principal.span
        if span.frame_count >= self.config.duration:
            result_candidates[frame_bits] = principal

    def _replay(
        self,
        replay: List[State],
        delta: int,
        frame_id: int,
        oldest_valid: int,
        extended: List[State],
        result_candidates: Dict[ObjectBits, State],
    ) -> None:
        """Append the frame to every previously extended state that misses Δ.

        Such a state is a subset of both frames, so appending is all its
        visit would do.  States removed by the sweep are skipped, and so are
        the ones meeting Δ, which the walk visits.
        """
        duration = self.config.duration
        replayed = 0
        for state in replay:
            if state.bits & delta or state.children is None:
                continue
            replayed += 1
            span = state.span
            span.expire_before(oldest_valid)
            ends = span._ends
            last = ends[-1]
            if last != frame_id:
                if last == frame_id - 1:
                    ends[-1] = frame_id
                    span.frame_count += 1
                    span.revision += 1
                else:
                    span.append(frame_id)
                extended.append(state)
            if span.frame_count >= duration:
                result_candidates[state.bits] = state
        self.stats.replayed_visits += replayed
        self.stats.frames_appended += replayed

    def _traverse(
        self,
        stack: List[State],
        frame_bits: int,
        delta: int,
        frame_id: int,
        oldest_valid: int,
        extended: List[State],
        result_candidates: Dict[ObjectBits, State],
    ) -> None:
        """Iterative Δ-pruned State Traversal (Algorithm 1) over the roots.

        Each reachable state is visited at most once per frame (its ``flag``
        is stamped with the frame id when scheduled); whole subtrees are
        skipped as soon as a state's intersection with the arriving frame is
        empty, or the state misses ``delta``.  Every state the walk extends
        is appended to ``extended``, the next frame's replay list.
        """
        states = self._states
        by_bits = states._by_bits
        interner = self.interner
        stats = self.stats
        schedule = self._schedule
        edge_memo = self._edge_memo
        add_edge_memo = edge_memo.add
        duration = self.config.duration
        visits = 0
        appended = 0
        pop = stack.pop
        push = stack.append
        extend = extended.append
        while stack:
            state = pop()
            key = state.bits
            visits += 1

            span = state.span
            # Live states always hold at least one frame, so the head index is
            # in range; expire only when the oldest frame actually left.  The
            # sweep already removed every mark outside the window, so this
            # only trims frames; the overwhelmingly common slide trims the
            # first run by one frame and is inlined.
            sp_head = span._head
            sp_starts = span._starts
            first = sp_starts[sp_head]
            if first < oldest_valid:
                if span._ends[sp_head] >= oldest_valid:
                    span.frame_count -= oldest_valid - first
                    sp_starts[sp_head] = oldest_valid
                    span.revision += 1
                else:
                    span.expire_before(oldest_valid)

            inter = key & frame_bits
            if not inter:
                # Every descendant is a subset of this state, hence its
                # intersection with the arriving frame is empty too: prune the
                # whole subtree from the traversal.
                if span.frame_count >= duration:
                    result_candidates[key] = state
                continue

            if inter == key:
                # All of the state's objects appear in the arriving frame:
                # append only (Algorithm 1, lines 18-21).  Connecting subset
                # states to the new principal is the job of the CNPS
                # procedure, which selects at most one candidate per root.
                # Inlined FrameSpan.append fast paths: extend-tail-by-one and
                # duplicate-of-tail cover almost every call.
                sp_ends = span._ends
                last = sp_ends[-1]
                if last == frame_id - 1:
                    sp_ends[-1] = frame_id
                    span.frame_count += 1
                    span.revision += 1
                    extend(state)
                elif last != frame_id:
                    span.append(frame_id)
                    extend(state)
                appended += 1
            else:
                target = by_bits.get(inter)
                if target is None:
                    target = State(inter, interner)
                    by_bits[inter] = target
                    stats.states_created += 1
                    if not self._keep_new_state(inter):
                        # Proposition 1: keep a terminated marker outside the
                        # graph; it is never traversed, merged or reported.
                        target.terminated = True
                        target.add_frame(frame_id, marked=True)
                        schedule.add(target)
                        target = None  # type: ignore[assignment]
                elif target.terminated:
                    target = None  # type: ignore[assignment]
                if target is not None:
                    if target.children is None:
                        self._register_node(target)
                    tspan = target.span
                    # Inlined merge-memo hit check (the common case: the same
                    # derivation repeated with an unchanged source).
                    memo = tspan._merge_memo
                    entry = memo.get(span.serial) if memo is not None else None
                    if entry is not None and entry[0] == span.revision \
                            and entry[3] == span.marks_revision:
                        pass  # source unchanged: provable no-op
                    elif (entry is not None
                            and entry[1] == span.mid_revision
                            and entry[3] == span.marks_revision
                            and span._ends[-1] <= tspan._ends[-1]
                            and tspan._starts[-1] <= entry[2] + 1):
                        # Source only appended frames since the last merge and
                        # they all lie inside the target's tail run: record
                        # the catch-up without touching either span.
                        entry[0] = span.revision
                        entry[2] = span._ends[-1]
                    else:
                        oldest = (tspan._marked[tspan._mhead]
                                  if tspan.marked_count else None)
                        tspan.merge(span, True, entry)
                        if tspan._marked[tspan._mhead] != oldest:
                            # Gained an older mark (or its first ones).
                            schedule.add(target)
                    t_ends = tspan._ends
                    last = t_ends[-1]
                    if last == frame_id - 1:
                        t_ends[-1] = frame_id
                        tspan.frame_count += 1
                        tspan.revision += 1
                        extend(target)
                    elif last != frame_id:
                        tspan.append(frame_id)
                        extend(target)
                    appended += 1
                    # Inlined _ensure_edge (the memo hit is the common case).
                    ekey = (span.serial, tspan.serial)
                    if ekey not in edge_memo:
                        self._add_edge(state, target)
                        add_edge_memo(ekey)
                    if tspan.frame_count >= duration and tspan.marked_count:
                        result_candidates[inter] = target

            if span.frame_count >= duration:
                result_candidates[key] = state

            # Push the children that meet Δ (re-read after the edge
            # maintenance above, which may have re-parented some of them).
            # The child set is not mutated while iterating: graph edits only
            # happen when a state is popped from the stack.
            children = state.children
            if children:
                for child_bits, child in children.items():
                    if child_bits & delta and child.flag != frame_id:
                        child.flag = frame_id
                        push(child)
        stats.state_visits += visits
        stats.intersections += visits  # one ``&`` per visit
        stats.frames_appended += appended

    def _connect_new_principal(
        self, principal: State, candidates: Dict[ObjectBits, None]
    ) -> None:
        """Connect the new principal state to selected candidates (Algorithm 2).

        Candidates are processed in descending object-set size; a candidate is
        skipped when it is a subset of an already-selected one, which both
        keeps Property 2 (no child of the principal contains another) and
        avoids redundant edges.  Reachability of skipped candidates is
        preserved because they are already connected to the graph through the
        source states they were derived from.
        """
        frame_bits = principal.bits
        states_get = self._states._by_bits.get
        ordered = sorted(candidates, key=int.bit_count, reverse=True)
        selected: List[ObjectBits] = []
        for candidate in ordered:
            if candidate == frame_bits:
                continue
            candidate_state = states_get(candidate)
            if candidate_state is None or candidate_state.terminated:
                # Proposition-1 terminated markers live outside the graph;
                # connecting one would let the traversal revive and report it.
                continue
            if any(candidate & chosen == candidate for chosen in selected):
                continue
            self._ensure_edge(principal, candidate_state)
            selected.append(candidate)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report(
        self, frame_id: int, oldest_valid: int,
        result_candidates: Dict[ObjectBits, State],
    ) -> ResultStateSet:
        """Combine the carried-over result set with the traversal candidates.

        ``SR_{i'} = SR'_i  u  SR_{G'}`` in the paper's notation: states that
        were part of the previous result and are still satisfied, plus the
        satisfied states touched by this frame's replay and walk (collected
        as they are touched).  Every state here is alive and valid: the
        sweep removes a state, and drops it from ``_previous_results``, in
        the frame its last mark expires.
        """
        duration = self.config.duration
        new_results: Dict[ObjectBits, State] = {}

        for bits, state in self._previous_results.items():
            span = state.span
            if span._starts[span._head] < oldest_valid:
                span.expire_before(oldest_valid)
            if span.frame_count >= duration:
                new_results[bits] = state

        for bits, state in result_candidates.items():
            if state.span.frame_count >= duration:
                new_results[bits] = state

        self._previous_results = new_results
        result = ResultStateSet(frame_id)
        add = result.add_unique
        for state in new_results.values():
            add(state.to_result())
        return result

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _reset_impl(self) -> None:
        self._states = StateTable(self.interner)
        self._root_keys = {}
        self._principals = {}
        self._previous_results = {}
        self._edge_memo = set()
        self._schedule = _Schedule()

    def live_state_count(self) -> int:
        return len(self._states)

    def live_states(self) -> List[State]:
        """Snapshot of the currently maintained states (for tests)."""
        return self._states.states()

    def _live_mask(self) -> int:
        return self._states.live_mask()

    def _export_impl(self) -> Dict:
        """Checkpoint the table plus the graph layered on top of it.

        The graph block is flat int columns that address states by their
        **position in the table** (row ``i`` of ``states``), never by
        bitmask: ``child_counts[i]`` entries of ``children`` (likewise
        ``parents``) belong to state ``i``, with ``-1`` for a state that is
        not a graph node (a terminated marker); ``principal_counts[k]``
        entries of ``principal_frames`` belong to ``principals[k]``.  Both
        sides of the adjacency are exported in their dict insertion order
        because that order steers Property-2 repairs and traversal order —
        rebuilding one side from the other could permute it and
        de-synchronise a restored shard from its uninterrupted twin.

        The edge-reachability memo must be exported too, translated from
        process-local span serials to table positions (``memo_parents[j]``
        reaches ``memo_children[j]``): a memoised "reachability satisfied"
        verdict suppresses future ``_add_edge`` calls, so a restored run
        without it could insert edges the original never would, evolving a
        differently-shaped (equally correct, but not byte-identical) graph.
        Entries whose states are gone are dropped, exactly as
        ``_prune_edge_memo`` would.

        The replay list goes in two columns: ``replay_principal`` holds the
        last frame's principal (``-1`` when the next frame walks in full)
        and ``replay`` the other states that frame extended, in order.  A
        checkpoint without them restores with an empty list.  The expiry
        buckets are not written: import rebuilds them from the marks.
        """
        by_bits = self._states._by_bits
        position_of = {bits: index for index, bits in enumerate(by_bits)}.__getitem__
        by_serial: Dict[int, int] = {}
        graph: Dict[str, List[int]] = {
            "child_counts": [], "children": [], "parent_counts": [], "parents": [],
        }
        for index, state in enumerate(by_bits.values()):
            by_serial[state.span.serial] = index
            for name, counts, linked in (
                ("children", "child_counts", state.children),
                ("parents", "parent_counts", state.parents),
            ):
                graph[counts].append(-1 if linked is None else len(linked))
                if linked:
                    graph[name] += map(position_of, linked)
        size = len(by_bits)
        edge_memo = sorted([
            by_serial[a] * size + by_serial[b]
            for a, b in self._edge_memo
            if a in by_serial and b in by_serial
        ])
        principals = self._principals
        graph["roots"] = list(map(position_of, self._root_keys))
        graph["principals"] = list(map(position_of, principals))
        graph["principal_counts"] = list(map(len, principals.values()))
        graph["principal_frames"] = list(chain.from_iterable(principals.values()))
        graph["previous_results"] = list(map(position_of, self._previous_results))
        graph["memo_parents"] = list(map(floordiv, edge_memo, repeat(size)))
        graph["memo_children"] = list(map(mod, edge_memo, repeat(size)))
        replay = [position_of(state.bits) for state in self._schedule.replay]
        graph["replay_principal"] = replay[:1] or [-1]
        graph["replay"] = replay[1:]
        return {"states": self._states.export_states(), "graph": graph}

    def _import_impl(self, payload: Dict) -> None:
        self._states.import_states(payload["states"])
        states = self._states.states()
        size = len(states)
        graph = payload["graph"]

        def linked(positions: Sequence[int]) -> Dict[ObjectBits, State]:
            """``bits -> state`` of the states at ``positions``, in that order."""
            return {states[at].bits: states[at] for at in positions}

        for name, counts in (("children", "child_counts"), ("parents", "parent_counts")):
            per_state = int_column(graph[counts])
            flat = table_positions(graph[name], size)
            if len(per_state) != size:
                raise ValueError(
                    "SSG checkpoint graph does not align with its state table "
                    f"({len(per_state)} adjacency entries for {size} states)"
                )
            if min(per_state, default=0) < -1 \
                    or sum(map(max, per_state, repeat(0))) != len(flat):
                raise ValueError(
                    f"SSG checkpoint {name} column does not add up to {counts}"
                )
            at = 0
            for state, count in zip(states, per_state):
                if count >= 0:
                    setattr(state, name, linked(flat[at:at + count]))
                    at += count
        self._root_keys = linked(table_positions(graph["roots"], size))
        principals = table_positions(graph["principals"], size)
        counts = int_column(graph["principal_counts"])
        frames = int_column(graph["principal_frames"])
        if len(counts) != len(principals) or min(counts, default=0) < 0 \
                or sum(counts) != len(frames):
            raise ValueError(
                "SSG checkpoint principal columns do not add up to their counts"
            )
        ends = list(accumulate(counts))
        self._principals = {
            states[at].bits: frames[end - count:end]
            for at, count, end in zip(principals, counts, ends)
        }
        self._previous_results = linked(
            table_positions(graph["previous_results"], size)
        )
        memo_parents = table_positions(graph["memo_parents"], size)
        memo_children = table_positions(graph["memo_children"], size)
        if len(memo_parents) != len(memo_children):
            raise ValueError("SSG checkpoint edge-memo columns differ in length")
        serial_at = [state.span.serial for state in states].__getitem__
        self._edge_memo = set(zip(
            map(serial_at, memo_parents), map(serial_at, memo_children)
        ))
        principal = int_column(graph.get("replay_principal", [-1]))
        replay = table_positions(graph.get("replay", []), size)
        if len(principal) != 1 or not -1 <= principal[0] < size \
                or (principal[0] < 0 and replay):
            raise ValueError("SSG checkpoint replay columns are malformed")
        schedule = self._schedule
        if principal[0] >= 0:
            schedule.replay = [states[at] for at in principal + replay]
        for state in states:
            schedule.add(state)

    def edges(self) -> List[Tuple[FrozenSet[int], FrozenSet[int]]]:
        """All ``(parent, child)`` edges of the graph, decoded (tests only)."""
        decode = self.interner.decode
        return [
            (decode(state.bits), decode(child_bits))
            for state in self._states
            for child_bits in (state.children or ())
        ]

    def principal_object_sets(self) -> List[FrozenSet[int]]:
        """Object sets of the current principal states, decoded, arrival order."""
        decode = self.interner.decode
        return [decode(bits) for bits in self._principals]
