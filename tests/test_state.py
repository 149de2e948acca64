"""Unit tests for the state primitives shared by the MCOS generators.

A state's frames and marks are ``int`` bitsets over its table's window
base.  Besides hand-written cases, a randomized model check drives states
and a plain set-based model through the same appends, marks, merges,
expiries and base shifts and asserts equal observable state.
"""

import random

import pytest

from repro.core.state import State, StateTable


def make_state(table, *object_ids):
    """Create (or fetch) a state for the given object ids."""
    bits = table.interner.intern_ids(object_ids)
    state, _ = table.get_or_create(bits)
    return state


class TestState:
    def setup_method(self):
        self.table = StateTable()

    def test_requires_non_empty_object_set(self):
        with pytest.raises(ValueError):
            State(0, StateTable())

    def test_object_ids_decode(self):
        state = make_state(self.table, 7, 42)
        assert state.object_ids == frozenset({7, 42})
        assert state.size == 2

    def test_add_and_mark_frames(self):
        state = make_state(self.table, 1, 2)
        state.add_frame(0, marked=True)
        state.add_frame(1)
        state.add_frame(2)
        assert state.frame_ids == (0, 1, 2)
        assert state.marked_frame_ids == (0,)
        assert state.marked_count == 1
        assert state.is_valid
        assert state.is_satisfied(3)
        assert not state.is_satisfied(4)

    def test_mark_upgrade_never_downgrades(self):
        state = make_state(self.table, 1)
        state.add_frame(0)
        state.add_frame(0, marked=True)
        state.add_frame(0, marked=False)
        assert state.marked_frame_ids == (0,)
        assert state.marked_count == 1

    def test_expiry_removes_prefix_and_marks(self):
        state = make_state(self.table, 1)
        for fid, marked in [(0, True), (1, False), (2, True), (3, False)]:
            state.add_frame(fid, marked=marked)
        state.expire_before(2)
        assert state.frame_ids == (2, 3)
        assert state.marked_count == 1
        state.expire_before(4)
        assert state.is_empty
        assert not state.is_valid

    def test_out_of_order_insertion(self):
        state = make_state(self.table, 1)
        state.add_frame(5)
        state.add_frame(2)  # arrives late via a merge
        state.add_frame(7)
        assert state.frame_ids == (2, 5, 7)
        state.expire_before(5)
        assert state.frame_ids == (5, 7)

    def test_merge_from_copies_marks_optionally(self):
        source = make_state(self.table, 1, 2, 3)
        source.add_frame(0, marked=True)
        source.add_frame(1)
        with_marks = make_state(self.table, 1, 2)
        with_marks.merge_from(source, copy_marks=True)
        assert with_marks.frame_ids == (0, 1)
        assert with_marks.marked_frame_ids == (0,)
        without_marks = make_state(self.table, 2, 3)
        without_marks.merge_from(source, copy_marks=False)
        assert without_marks.frame_ids == (0, 1)
        assert without_marks.marked_frame_ids == ()

    def test_merge_from_self_is_noop(self):
        state = make_state(self.table, 1)
        state.add_frame(0, marked=True)
        state.merge_from(state, copy_marks=True)
        assert state.frame_ids == (0,)
        assert state.marked_count == 1

    def test_merge_late_arriving_frames_single_pass(self):
        """Regression: merging older frames into a newer state must not lose
        ordering, duplicate frames, or corrupt the count (the seed re-sorted
        the whole frame dict on every out-of-order insert)."""
        fresh = make_state(self.table, 1, 2)
        fresh.add_frame(10)
        fresh.add_frame(11)
        older = make_state(self.table, 1, 2, 3)
        for fid, marked in [(3, True), (4, False), (6, True), (7, False)]:
            older.add_frame(fid, marked=marked)
        fresh.merge_from(older, copy_marks=True)
        assert fresh.frame_ids == (3, 4, 6, 7, 10, 11)
        assert fresh.frame_count == 6
        assert fresh.marked_frame_ids == (3, 6)
        # Merging again is idempotent.
        fresh.merge_from(older, copy_marks=True)
        assert fresh.frame_ids == (3, 4, 6, 7, 10, 11)
        assert fresh.frame_count == 6
        # Expiry still treats the merged set as a sorted sequence.
        fresh.expire_before(5)
        assert fresh.frame_ids == (6, 7, 10, 11)
        assert fresh.marked_frame_ids == (6,)

    def test_to_result_caches_until_frames_change(self):
        state = make_state(self.table, 1, 2)
        state.add_frame(0, marked=True)
        first = state.to_result()
        assert first.object_ids == frozenset({1, 2})
        assert first.frame_ids == (0,)
        assert state.to_result() is first  # unchanged span -> cached
        state.add_frame(1)
        second = state.to_result()
        assert second is not first
        assert second.frame_ids == (0, 1)


class TestStateTable:
    def test_get_or_create(self):
        table = StateTable()
        bits = table.interner.intern_ids({1, 2})
        state, created = table.get_or_create(bits)
        assert created
        again, created_again = table.get_or_create(bits)
        assert not created_again
        assert again is state
        assert len(table) == 1
        assert bits in table
        assert state.object_ids == frozenset({1, 2})

    def test_remove_is_idempotent(self):
        table = StateTable()
        bits = table.interner.intern_ids({1})
        state, _ = table.get_or_create(bits)
        table.remove(state)
        table.remove(state)
        assert len(table) == 0
        assert table.get(bits) is None

    def test_states_snapshot_is_independent(self):
        table = StateTable()
        table.get_or_create(table.interner.intern_ids({1}))
        snapshot = table.states()
        table.get_or_create(table.interner.intern_ids({2}))
        assert len(snapshot) == 1
        assert len(table.states()) == 2

    def test_live_mask_is_union_of_states(self):
        table = StateTable()
        a = table.interner.intern_ids({1, 2})
        b = table.interner.intern_ids({2, 3})
        table.get_or_create(a)
        table.get_or_create(b)
        assert table.live_mask() == a | b


def state_of(*frame_ids, marked=(), table=None):
    """A fresh state of ``table`` holding ``frame_ids``, ``marked`` marked."""
    table = table if table is not None else StateTable()
    state, _ = table.get_or_create(table.interner.intern_ids({len(table) + 1}))
    for fid in frame_ids:
        state.add_frame(fid, marked=fid in marked)
    return state


class TestFrameBitsets:
    def test_contiguous_and_gapped_frames_decode_in_order(self):
        state = state_of(3, 4, 5, 6)
        assert state.frame_ids == (3, 4, 5, 6)
        assert state.frame_count == 4
        assert state_of(1, 2, 5, 6, 9).frame_ids == (1, 2, 5, 6, 9)

    def test_duplicate_add_is_noop(self):
        state = state_of(1, 2)
        frames = state.frames
        state.add_frame(2)
        state.add_frame(1)
        assert state.frames == frames
        assert state.frame_count == 2

    def test_out_of_order_adds_bridge_and_extend(self):
        state = state_of(5, 9)
        state.add_frame(4)
        state.add_frame(10)
        state.add_frame(7)
        assert state.frame_ids == (4, 5, 7, 9, 10)
        state.add_frame(6)
        state.add_frame(8)
        assert state.frame_ids == tuple(range(4, 11))

    def test_mark_upgrade_and_dedup(self):
        state = state_of(1)
        state.add_frame(2, marked=True)
        state.add_frame(2, marked=True)
        state.add_frame(1, marked=True)  # late mark upgrade
        assert state.marked_frame_ids == (1, 2)
        assert state.marked_count == 2

    def test_single_frame_window(self):
        state = state_of(5, marked=(5,))
        assert state.frame_count == state.marked_count == 1
        state.expire_before(6)
        assert state.is_empty
        assert state.marked_count == 0

    def test_expiry_trims_partial_run(self):
        state = state_of(0, 1, 2, 3, marked=(0, 2))
        state.expire_before(2)
        assert state.frame_ids == (2, 3)
        assert state.marked_frame_ids == (2,)

    def test_full_expiry_leaves_a_usable_state(self):
        state = state_of(0, 1, 4, 5, marked=(1, 5))
        state.expire_before(10)
        assert state.is_empty
        assert state.marked_count == 0
        state.add_frame(12, marked=True)
        assert state.frame_ids == (12,)
        assert state.marked_count == 1

    def test_expiry_before_the_first_frame_changes_nothing(self):
        state = state_of(5, 6)
        frames = state.frames
        state.expire_before(5)
        state.expire_before(-3)
        assert state.frames == frames

    def test_merge_unions_frames(self):
        table = StateTable()
        a = state_of(1, 2, 6, 7, table=table)
        a.merge_from(state_of(3, 8, 9, 20, table=table), copy_marks=False)
        assert a.frame_ids == (1, 2, 3, 6, 7, 8, 9, 20)
        assert a.frame_count == 8

    def test_merge_after_source_appends(self):
        table = StateTable()
        source = state_of(1, 2, marked=(1,), table=table)
        target = state_of(1, 2, 10, table=table)
        target.merge_from(source, copy_marks=True)
        source.add_frame(3)
        source.add_frame(11, marked=True)
        target.merge_from(source, copy_marks=True)
        assert target.frame_ids == (1, 2, 3, 10, 11)
        assert target.marked_frame_ids == (1, 11)

    def test_merge_after_source_expiry_adds_nothing_stale(self):
        table = StateTable()
        source = state_of(1, 2, 3, table=table)
        target = state_of(table=table)
        target.merge_from(source, copy_marks=False)
        source.expire_before(3)
        source.add_frame(5)
        target.expire_before(3)
        target.merge_from(source, copy_marks=False)
        assert target.frame_ids == (3, 5)

    def test_frame_bit_moves_the_base_once_a_window_behind(self):
        table = StateTable()
        state = state_of(table=table)
        window = 4
        for frame_id in range(3, 40):
            oldest = frame_id - window + 1
            state.expire_before(oldest)
            bit = table.frame_bit(frame_id, oldest)  # may shift the state
            state.frames |= bit
            assert 0 <= oldest - table.base < window
            assert state.frames.bit_length() <= 2 * window
            assert state.frame_ids == tuple(range(max(oldest, 3), frame_id + 1))

    def test_cut_result_keeps_the_frames_from_lo(self):
        table = StateTable()
        state = state_of(2, 3, 5, 8, table=table)
        table.rebase(2)
        assert state.cut_result(4).frame_ids == (5, 8)
        assert state.cut_result(2) is state.to_result()
        assert state.to_result().frame_ids == (2, 3, 5, 8)


class TestRandomizedModel:
    """Model check: states of one table against plain (set, set) models."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_operation_sequences(self, seed):
        rng = random.Random(seed)
        table = StateTable()
        states = [state_of(table=table) for _ in range(4)]
        models = [(set(), set()) for _ in range(4)]  # (frames, marks)
        clock = 0
        for _ in range(300):
            op = rng.random()
            idx = rng.randrange(4)
            state, (frames, marks) = states[idx], models[idx]
            if op < 0.45:
                clock += rng.randint(1, 3)
                marked = rng.random() < 0.3
                state.add_frame(clock, marked=marked)
                frames.add(clock)
                if marked:
                    marks.add(clock)
            elif op < 0.65:
                other = rng.randrange(4)
                copy_marks = rng.random() < 0.7
                state.merge_from(states[other], copy_marks=copy_marks)
                frames |= models[other][0]
                if copy_marks:
                    marks |= models[other][1]
            elif op < 0.8:
                oldest = clock - rng.randint(0, 8)
                # The generators expire every state to the same horizon.
                for k in range(4):
                    states[k].expire_before(oldest)
                    models[k] = (
                        {f for f in models[k][0] if f >= oldest},
                        {m for m in models[k][1] if m >= oldest},
                    )
            elif op < 0.9:
                # A base shift drops what lies below the new base.
                base = rng.randint(table.base, clock)
                table.rebase(base)
                models = [
                    ({f for f in mf if f >= base}, {m for m in mm if m >= base})
                    for mf, mm in models
                ]
            else:
                clock += rng.randint(1, 4)
                state.add_frame(clock, marked=True)
                frames.add(clock)
                marks.add(clock)
            for k in range(4):
                s, (mf, mm) = states[k], models[k]
                assert s.frame_ids == tuple(sorted(mf)), f"state {k} frames"
                assert s.marked_frame_ids == tuple(sorted(mm)), f"state {k} marks"
                assert s.frame_count == len(mf)
                assert s.marked_count == len(mm)
                assert s.to_result().frame_ids == tuple(sorted(mf))
