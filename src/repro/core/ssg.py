"""The Strict State Graph (SSG) approach (Section 4.3).

SSG organises the maintained states in a directed graph whose edges point from
larger object sets to smaller ones (Property 1).  Principal states -- states
whose object set equals the object set of some frame still inside the window
-- act as traversal roots.  When a new frame arrives, the State Traversal (ST)
algorithm walks the graph starting from the roots, computing intersections
with the arriving frame and *pruning entire subtrees as soon as an
intersection becomes empty* (every descendant of a state is a subset of it, so
its intersection is empty as well).  This is where SSG saves work compared to
MFS, which must intersect every live state with every arriving frame.  Under a
Proposition-1 state filter the walk also prunes the subtree below a state whose
intersection the filter refuses: every descendant's intersection is a subset
of the refused one.

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
of a hash set, and the edge-reachability memo turns the per-frame edge
requests that dominate steady state into O(1) skips.  The memo lives on the
states too: ``state.reached`` holds the serials of the states an edge
request from ``state`` already found reachable, so a hit is one set
membership test with no key to build, a removed state takes its entries
with it, and a checkpoint writes the memo as one count and one run of
sorted positions per state.  A running count of the entries triggers the
sweep of entries naming dead states.  A state's frames and marks are
``int`` bitsets (:mod:`repro.core.state`): a merge is two ``|`` and needs
no memo.

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
walk nor the report ever meets an invalid state.  Its frames lie in the
window too: a state's oldest frame is always one of its marks (the principal
of that frame marks it, and every state derived from that principal
inherits the mark), so the sweep that expires a state's marks expires its
frames, and nothing else expires anything.  The replay list is
checkpointed; the buckets are rebuilt from the marks on import.  Without a
previous frame (a new or reset generator, or after an empty frame or a
Proposition-1 terminated principal) ``Δ`` is every object and the walk is
the full ST.

Settled frames
--------------
Most frames of a feed repeat their predecessor's object set (``Δ = 0``).
Such a frame walks no root, so its root step is the candidate loop and the
CNPS connection, and both are functions of the graph alone: the roots (the
principals, then the parentless states, each in insertion order) name the
candidates ``root & F``, and CNPS asks for the edges from the principal to
the candidates it selects.  If the last root step left the graph unchanged
and nothing changed it since -- no state created or removed, no edge added
or removed, no principal dropped -- the roots and the table are the ones
that step saw, ``F`` is the same set, so the candidates and the selection
are the same, and every edge request is a memo hit (the memo only loses
entries of removed states).  The step is a no-op and the frame skips it.
The witness of "unchanged" is a graph version, the sum of the monotone
counters of those changes, taken when a root step changes nothing and
dropped when one does; empty frames, terminated principals, resets and
imports drop it too.  It is not checkpointed, so a restored run takes the
full root step once and finds that it changes nothing.  ``settled_frames``
counts the ``Δ = 0`` frames whose root step is a no-op, skipped or not;
that makes it the same in a restored and an uninterrupted run.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import accumulate, chain, islice, repeat
from operator import attrgetter
from typing import Deque, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.base import MCOSGenerator
from repro.core.result import ResultStateSet
from repro.core.state import State, StateTable, int_column, table_positions

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
    filters out.  ``arrivals`` lists every principal's creating frames as
    ``(frame id, bits)`` in arrival order, so principal expiry pops only
    what left the window.  ``witness`` is the graph version of the last
    root step that changed nothing (``None`` when there is none), and
    ``dropped`` counts the principals expiry forgot, the one graph change
    no work counter records (see "Settled frames" in the module docstring).
    The checkpoint carries ``replay``; the buckets and arrivals are a
    function of the marks and the principals and are rebuilt on import; the
    witness is not carried, so a restored run takes the full root step once.
    """

    __slots__ = ("replay", "buckets", "keys", "arrivals", "witness", "dropped")

    def __init__(self) -> None:
        self.replay: List[State] = []
        self.buckets: Dict[float, List[State]] = {}
        self.keys: List[float] = []
        self.arrivals: Deque[Tuple[int, ObjectBits]] = deque()
        self.witness: Optional[int] = None
        self.dropped = 0

    def add(self, state: State, base: int) -> None:
        """File ``state`` under its oldest stored mark (``base`` is the
        table's window base)."""
        marks = state.marks
        key = base + (marks & -marks).bit_length() - 1 if marks else _UNMARKED
        bucket = self.buckets.get(key)
        if bucket is None:
            self.buckets[key] = [state]
            heappush(self.keys, key)
        else:
            bucket.append(state)

    def due(self, oldest_valid: int, states: StateTable) -> List[State]:
        """Live states holding a mark older than ``oldest_valid`` (or none),
        in table order (serials grow with table position, in a live run and
        after a restore alike, so a restored run removes in the same order)."""
        keys, buckets = self.keys, self.buckets
        by_bits = states._by_bits
        cut = oldest_valid - states.base
        found: Dict[int, State] = {}
        while keys and keys[0] < oldest_valid:
            for state in buckets.pop(heappop(keys)):
                marks = state.marks
                # The oldest mark is the lowest set bit; none also counts.
                if by_bits.get(state.bits) is state \
                        and (marks & -marks).bit_length() <= cut:
                    found[state.serial] = state
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
        # from the parent) live on the parent, as the child's serial in
        # ``parent.reached`` (serials are unique per state incarnation, so
        # re-created object sets never alias).  Entries stay valid for the
        # lifetime of both states: Property-2 repairs and node removals
        # re-route every broken path before returning (removals bypass the
        # memo when re-attaching, see _remove_node).  This counts the entries
        # of live states, dead children included, for _prune_edge_memo.
        self._memo_size = 0
        # Δ-pruning replay list and the expiry buckets (see module docstring).
        self._schedule = _Schedule()

    # ------------------------------------------------------------------
    # Graph helpers
    # ------------------------------------------------------------------
    def _register_node(self, state: State) -> None:
        if state.children is None:
            state.children = {}
            state.parents = {}
            state.reached = set()
            self._root_keys[state.bits] = state

    def _ensure_edge(self, parent_state: State, child_state: State) -> None:
        """Ensure ``child`` is reachable from ``parent``, repairing Property 2.

        Memoised per state pair, in ``parent_state.reached``: the same
        derivation repeats every frame while a co-occurrence persists, and
        nothing the graph maintenance does breaks established reachability
        (repairs and removals re-route every path they cut), so a satisfied
        request stays satisfied for the lifetime of the two states.  The
        parent is always a graph node, so it holds a memo set.
        """
        serial = child_state.serial
        if serial in parent_state.reached:
            return
        self._add_edge(parent_state, child_state)
        parent_state.reached.add(serial)
        self._memo_size += 1

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
        if state.reached is not None:
            self._memo_size -= len(state.reached)
        state.children = None
        state.parents = None
        state.reached = None
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
    def _process(self, frame_id: int, frame_bits: int) -> ResultStateSet:
        oldest_valid = self._oldest_valid_frame(frame_id)
        self._expire_principals(oldest_valid)
        self._sweep(oldest_valid)
        bit = self._states.frame_bit(frame_id, oldest_valid)

        result_candidates: Dict[ObjectBits, State] = {}
        schedule = self._schedule
        replay = schedule.replay
        # Stays empty (the next frame walks in full) unless this frame
        # extends a principal; likewise the witness.
        schedule.replay = []
        if frame_bits:
            self._traverse_and_integrate(
                frame_id, frame_bits, bit, replay, result_candidates
            )
        else:
            schedule.witness = None

        self._track_live_states(len(self._states))
        if self._memo_size > 64 * len(self._states) + 1024:
            self._prune_edge_memo()
        return self._report(frame_id, result_candidates)

    def _prune_edge_memo(self) -> None:
        """Drop edge-memo entries whose child is gone.

        State serials are never reused, so entries naming dead states are
        dead weight; on a long-running stream they would otherwise
        accumulate without bound.  (A dead parent's entries go with it, in
        :meth:`_remove_node`.)  Amortised: runs only when the memo outgrows
        the live state count by a wide margin, and before an export, which
        writes the live entries only.
        """
        states = self._states
        live = set(map(attrgetter("serial"), states))
        memos = list(filter(None, map(attrgetter("reached"), states)))
        for reached in memos:
            reached &= live
        self._memo_size = sum(map(len, memos))

    def _expire_principals(self, oldest_valid: int) -> None:
        """Drop expired creating frames; forget principals with none left.

        Pops the arrivals that left the window, oldest first.  An arrival
        whose principal the sweep removed since (or removed and re-created)
        is no longer the head of that principal's creating frames and is
        skipped.
        """
        schedule = self._schedule
        arrivals = schedule.arrivals
        principals = self._principals
        while arrivals and arrivals[0][0] < oldest_valid:
            frame_id, bits = arrivals.popleft()
            creating_frames = principals.get(bits)
            if creating_frames and creating_frames[0] == frame_id:
                del creating_frames[0]
                if not creating_frames:
                    del principals[bits]
                    schedule.dropped += 1

    def _graph_version(self) -> int:
        """A number that grows whenever a state is created or removed, an
        edge is added or removed, or a principal is dropped."""
        stats = self.stats
        return (stats.states_created + stats.states_removed + stats.edges_added
                + stats.edges_removed + self._schedule.dropped)

    def _sweep(self, oldest_valid: int) -> None:
        """Remove every state whose last mark left the window.

        Runs before the walk, which no longer reaches every such state (see
        the module docstring); states that keep a mark are expired and filed
        under their new oldest one.  The expiry shifts instead of masking:
        after a gap in the frame ids, ``cut`` may be far wider than any
        bitset.
        """
        schedule = self._schedule
        states = self._states
        base = states.base
        cut = oldest_valid - base
        removed = 0
        for state in schedule.due(oldest_valid, states):
            marks = state.marks >> cut << cut
            if marks:
                state.frames = state.frames >> cut << cut
                state.marks = marks
                schedule.add(state, base)
            else:
                states.remove(state)
                self._remove_node(state)
                removed += 1
        self.stats.states_removed += removed

    def _traverse_and_integrate(
        self, frame_id: int, frame_bits: int, bit: int,
        replay: List[State], result_candidates: Dict[ObjectBits, State],
    ) -> None:
        """Run the Δ-pruned State Traversal for one arriving frame.

        ``bit`` is the frame's bit in the frame bitsets and ``replay`` the
        previous frame's replay list.  Satisfied, valid states touched by
        the replay or the walk are collected into ``result_candidates`` as
        they are mutated (additions within a frame are monotone, so checking
        at each mutation point is equivalent to an end-of-frame scan over
        every touched state).
        """
        schedule = self._schedule
        base = self._states.base
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
                principal.frames = principal.marks = bit
                schedule.add(principal, base)
                schedule.witness = None
                return
            self._register_node(principal)
        elif principal.terminated:
            schedule.witness = None
            return
        principal.frames |= bit
        principal.marks |= bit
        if created:
            schedule.add(principal, base)
        self.stats.frames_appended += 1
        self._principals.setdefault(frame_bits, []).append(frame_id)
        schedule.arrivals.append((frame_id, frame_bits))
        extended = schedule.replay = [principal]

        if replay:
            delta = replay[0].bits ^ frame_bits
            self._replay(replay, delta, bit, extended, result_candidates)
        else:
            delta = -1  # no previous frame: every state meets Δ

        # Settled frames (module docstring): the witness says the root step
        # would repeat a no-op on the same graph, so it is skipped.
        version = self._graph_version()
        if delta or schedule.witness != version:
            self._root_step(principal, frame_id, frame_bits, bit, delta,
                            extended, result_candidates)
            schedule.witness = (
                version if self._graph_version() == version else None
            )
        if delta == 0 and schedule.witness is not None:
            self.stats.settled_frames += 1
        if principal.frames.bit_count() >= self.collect_duration:
            result_candidates[frame_bits] = principal

    def _root_step(
        self, principal: State, frame_id: int, frame_bits: int, bit: int,
        delta: int, extended: List[State],
        result_candidates: Dict[ObjectBits, State],
    ) -> None:
        """Walk the roots that meet Δ and connect the new principal (CNPS)."""
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
            self._traverse(stack, frame_bits, delta, frame_id, bit,
                           extended, result_candidates)

        self._connect_new_principal(principal, candidates)

    def _replay(
        self,
        replay: List[State],
        delta: int,
        bit: int,
        extended: List[State],
        result_candidates: Dict[ObjectBits, State],
    ) -> None:
        """Append the frame to every previously extended state that misses Δ.

        Such a state is a subset of both frames, so appending is all its
        visit would do.  States removed by the sweep are skipped, and so are
        the ones meeting Δ, which the walk visits.
        """
        duration = self.collect_duration
        replayed = 0
        for state in replay:
            if state.bits & delta or state.children is None:
                continue
            replayed += 1
            frames = state.frames
            if not frames & bit:
                state.frames = frames = frames | bit
                extended.append(state)
            if frames.bit_count() >= duration:
                result_candidates[state.bits] = state
        self.stats.replayed_visits += replayed
        self.stats.frames_appended += replayed

    def _traverse(
        self,
        stack: List[State],
        frame_bits: int,
        delta: int,
        frame_id: int,
        bit: int,
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
        base = states.base
        stats = self.stats
        schedule = self._schedule
        duration = self.collect_duration
        visits = 0
        appended = 0
        pop = stack.pop
        push = stack.append
        extend = extended.append
        while stack:
            state = pop()
            key = state.bits
            visits += 1
            frames = state.frames

            inter = key & frame_bits
            if not inter:
                # Every descendant is a subset of this state, hence its
                # intersection with the arriving frame is empty too: prune the
                # whole subtree from the traversal.
                if frames.bit_count() >= duration:
                    result_candidates[key] = state
                continue

            if inter == key:
                # All of the state's objects appear in the arriving frame:
                # append only (Algorithm 1, lines 18-21).  Connecting subset
                # states to the new principal is the job of the CNPS
                # procedure, which selects at most one candidate per root.
                if not frames & bit:
                    state.frames = frames = frames | bit
                    extend(state)
                appended += 1
            else:
                target = by_bits.get(inter)
                if target is None:
                    target = State(inter, states)
                    by_bits[inter] = target
                    stats.states_created += 1
                    if not self._keep_new_state(inter):
                        # Proposition 1: keep a terminated marker outside the
                        # graph; it is never traversed, merged or reported.
                        target.terminated = True
                        target.frames = target.marks = bit
                        schedule.add(target, base)
                if target.terminated:
                    # Proposition 1 again: a descendant's intersection with
                    # the frame is a subset of this refused one, so the
                    # filter refuses it too, and none of them is live (it
                    # would be a kept subset of a refused set).  The walk
                    # skips the subtree.
                    if frames.bit_count() >= duration:
                        result_candidates[key] = state
                    continue
                if target.children is None:
                    self._register_node(target)
                # The target inherits the source's frames and marks
                # (Frame Marking Rule 2) plus the arriving frame.  The
                # source misses that frame (it is no subset of it).
                target_frames = target.frames
                if not target_frames & bit:
                    extend(target)
                target_frames |= frames | bit
                target.frames = target_frames
                old_marks = target.marks
                marks = old_marks | state.marks
                if marks != old_marks:
                    target.marks = marks
                    if marks & -marks != old_marks & -old_marks:
                        # Gained an older mark (or its first ones).
                        schedule.add(target, base)
                appended += 1
                # Inlined _ensure_edge (the memo hit is the common case).
                if target.serial not in state.reached:
                    self._add_edge(state, target)
                    state.reached.add(target.serial)
                    self._memo_size += 1
                if target_frames.bit_count() >= duration and marks:
                    result_candidates[inter] = target

            if frames.bit_count() >= duration:
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
        self, frame_id: int, result_candidates: Dict[ObjectBits, State],
    ) -> ResultStateSet:
        """Combine the carried-over result set with the traversal candidates.

        ``SR_{i'} = SR'_i  u  SR_{G'}`` in the paper's notation: states that
        were part of the previous result and are still satisfied, plus the
        satisfied states touched by this frame's replay and walk (collected
        as they are touched).  Every state here is alive and valid: the
        sweep removes a state, and drops it from ``_previous_results``, in
        the frame its last mark expires.

        Satisfied means ``collect_duration`` frames: the carry-over holds
        every state a :meth:`cut_result` may report, and the result set is
        the ones that also reach ``duration``.
        """
        duration = self.collect_duration
        new_results: Dict[ObjectBits, State] = {}
        for results in (self._previous_results, result_candidates):
            for bits, state in results.items():
                if state.frames.bit_count() >= duration:
                    new_results[bits] = state

        self._previous_results = new_results
        result = ResultStateSet(frame_id)
        add = result.add_unique
        report_at = self.config.duration
        for state in new_results.values():
            if report_at == duration or state.frames.bit_count() >= report_at:
                add(state.to_result())
        return result

    def _cut(self, result: ResultStateSet, lo: int, duration: int) -> None:
        """The carried-over states keeping a mark and ``duration`` frames
        ``>= lo`` (every such state is in the carry-over, which holds the
        states with ``collect_duration <= duration`` frames in the full
        window)."""
        add = result.add_unique
        shift = lo - self._states.base
        for state in self._previous_results.values():
            if state.marks >> shift \
                    and (state.frames >> shift).bit_count() >= duration:
                add(state.cut_result(lo))

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _reset_impl(self) -> None:
        self._states = StateTable(self.interner)
        self._root_keys = {}
        self._principals = {}
        self._previous_results = {}
        self._memo_size = 0
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
        process-local state serials to table positions: ``memo_counts[i]``
        entries of ``memo_children`` belong to state ``i``, the sorted
        positions of the states its ``reached`` set names.  A memoised
        "reachability satisfied" verdict suppresses future ``_add_edge``
        calls, so a restored run without it could insert edges the original
        never would, evolving a differently-shaped (equally correct, but not
        byte-identical) graph.  The export first runs ``_prune_edge_memo``,
        so only entries naming live states are written and the exporting
        run keeps the memo its restored twin rebuilds.

        The replay list goes in two columns: ``replay_principal`` holds the
        last frame's principal (``-1`` when the next frame walks in full)
        and ``replay`` the other states that frame extended, in order.  The
        expiry buckets are not written: import rebuilds them from the marks.
        """
        self._prune_edge_memo()
        by_bits = self._states._by_bits
        states = list(by_bits.values())
        position_of = dict(zip(by_bits, range(len(states)))).__getitem__
        graph: Dict[str, List[int]] = {}
        for name, counts in (("children", "child_counts"), ("parents", "parent_counts")):
            linked = list(map(attrgetter(name), states))
            graph[counts] = [-1 if links is None else len(links) for links in linked]
            graph[name] = list(map(
                position_of, chain.from_iterable(filter(None, linked))
            ))
        principals = self._principals
        graph["roots"] = list(map(position_of, self._root_keys))
        graph["principals"] = list(map(position_of, principals))
        graph["principal_counts"] = list(map(len, principals.values()))
        graph["principal_frames"] = list(chain.from_iterable(principals.values()))
        graph["previous_results"] = list(map(position_of, self._previous_results))
        # Serials grow with table position, so sorted serials map to sorted
        # positions.
        position_at = dict(zip(
            map(attrgetter("serial"), states), range(len(states))
        )).__getitem__
        memos = [reached or () for reached in map(attrgetter("reached"), states)]
        graph["memo_counts"] = list(map(len, memos))
        graph["memo_children"] = list(map(
            position_at, chain.from_iterable(map(sorted, memos))
        ))
        replay = [position_of(state.bits) for state in self._schedule.replay]
        graph["replay_principal"] = replay[:1] or [-1]
        graph["replay"] = replay[1:]
        return {
            "states": self._states.export_states(
                self._last_frame_id, self.config.window_size
            ),
            "graph": graph,
        }

    def _import_impl(self, payload: Dict) -> None:
        self._states.import_states(
            payload["states"], self._last_frame_id, self.config.window_size
        )
        states = self._states.states()
        size = len(states)
        graph = payload["graph"]

        bits_at = list(map(attrgetter("bits"), states)).__getitem__
        state_at = states.__getitem__

        def linked(positions: Sequence[int]) -> Dict[ObjectBits, State]:
            """``bits -> state`` of the states at ``positions``, in that order."""
            return dict(zip(map(bits_at, positions), map(state_at, positions)))

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
            # Each state's dict takes its count of pairs off one iterator.
            pairs = zip(map(bits_at, flat), map(state_at, flat))
            dicts = map(
                dict, map(islice, repeat(pairs), map(max, per_state, repeat(0)))
            )
            for state, count, links in zip(states, per_state, dicts):
                if count >= 0:
                    setattr(state, name, links)
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
        memo_counts = int_column(graph["memo_counts"])
        memo_children = table_positions(graph["memo_children"], size)
        if len(memo_counts) != size or min(memo_counts, default=0) < 0 \
                or sum(memo_counts) != len(memo_children):
            raise ValueError(
                "SSG checkpoint memo_children column does not add up to "
                "memo_counts"
            )
        serial_at = list(map(attrgetter("serial"), states)).__getitem__
        serials = map(serial_at, memo_children)
        for state, count in zip(states, memo_counts):
            if state.children is not None:
                state.reached = set(islice(serials, count))
            elif count:
                raise ValueError(
                    "SSG checkpoint memoises edges from a state off the graph"
                )
        self._memo_size = len(memo_children)
        principal = int_column(graph["replay_principal"])
        replay = table_positions(graph["replay"], size)
        if len(principal) != 1 or not -1 <= principal[0] < size \
                or (principal[0] < 0 and replay):
            raise ValueError("SSG checkpoint replay columns are malformed")
        schedule = self._schedule
        if principal[0] >= 0:
            schedule.replay = [states[at] for at in principal + replay]
        for state in states:
            schedule.add(state, self._states.base)
        schedule.arrivals.extend(sorted(
            (frame_id, bits)
            for bits, creating_frames in self._principals.items()
            for frame_id in creating_frames
        ))

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
