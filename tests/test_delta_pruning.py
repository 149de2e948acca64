"""Δ-pruned State Traversal: SSG against the oracle on adversarial streams.

SSG replays the states the previous frame extended that miss ``Δ`` (the
objects that entered or left) and walks only the states that meet it, with a
separate sweep removing states whose last mark expires (see
:mod:`repro.core.ssg`).  The streams here are built to hit the cases that
argument leans on: identical frames (``Δ`` empty), single-object flicker,
empty frames, marks expiring on a frame identical to its predecessor,
terminated principals, the interner's compaction boundary, a label
projection changed mid-stream and frame-id gaps up to two windows wide,
which shift the base of the frame bitsets.  After every frame each live
state's frames and marks must lie in its window.  Every frame is checked
against :class:`ReferenceGenerator` and MFS, and a checkpoint taken at a
drawn cut must resume exactly like the uninterrupted run.

A frame that repeats its predecessor on an unchanged graph skips SSG's root
step, and every generator reuses the previous frame's mask (see "Settled
frames" in :mod:`repro.core.ssg`).  A twin restored before every frame holds
neither shortcut, so it always takes the full path; it must agree with the
generator byte for byte on every frame.
"""

from typing import Dict, FrozenSet, List, Optional
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    MarkedFrameSetGenerator,
    NaiveGenerator,
    ReferenceGenerator,
    StrictStateGraphGenerator,
)
from repro.datamodel import FrameObservation

from tests.conftest import canonical_results, registry_scene


def label_of(object_id: int) -> str:
    return "a" if object_id % 2 else "b"


#: Upward-closed Proposition-1 filters (a superset of a kept set is kept),
#: so the filtered answer is the oracle's answer restricted to kept sets.
FILTERS = {
    "none": None,
    "pairs": lambda counts: sum(counts.values()) >= 2,
    "has_a": lambda counts: counts.get("a", 0) >= 1,
}


def kept(filter_name: str, object_ids: FrozenSet[int]) -> bool:
    keep = FILTERS[filter_name]
    if keep is None:
        return True
    counts: Dict[str, int] = {}
    for object_id in object_ids:
        counts[label_of(object_id)] = counts.get(label_of(object_id), 0) + 1
    return keep(counts)


object_sets = st.frozensets(st.integers(min_value=0, max_value=6), max_size=6)


@st.composite
def adversarial_streams(draw):
    """Frames built from runs, flicker, empty stretches and fresh sets."""
    window = draw(st.integers(min_value=1, max_value=5))
    duration = draw(st.integers(min_value=0, max_value=window))
    # Up to past 4·w frames: the interner compacts every 4·w frames.
    length = draw(st.integers(min_value=1, max_value=5 * window + 2))
    sets: List[FrozenSet[int]] = []
    while len(sets) < length:
        kind = draw(st.sampled_from(["run", "flicker", "empty", "fresh"]))
        if kind == "run":
            sets += [draw(object_sets)] * draw(st.integers(1, 2 * window + 2))
        elif kind == "flicker":
            base, toggled = draw(object_sets), draw(st.integers(0, 6))
            sets += [
                base if i % 2 == 0 else base ^ {toggled}
                for i in range(draw(st.integers(2, 2 * window + 2)))
            ]
        elif kind == "empty":
            sets += [frozenset()] * draw(st.integers(1, window + 1))
        else:
            sets.append(draw(object_sets))
    frames = []
    frame_id = 0
    for object_ids in sets:
        frames.append(FrameObservation(
            frame_id, {oid: label_of(oid) for oid in object_ids}
        ))
        # Steps past one and two windows shift the frame bitsets' base
        # across whole-window gaps.
        frame_id += draw(st.sampled_from([1, 1, 1, 2, window + 1, 2 * window + 3]))
    return {
        "frames": frames,
        "window": window,
        "duration": duration,
        "cut": draw(st.integers(0, len(frames))),
        "relabel_at": draw(st.none() | st.integers(0, len(frames) - 1)),
        "labels": draw(st.sampled_from([None, ("a",), ("a", "b")])),
        "filter": draw(st.sampled_from(sorted(FILTERS))),
    }


def assert_in_window(generator, frame_id: int, index: int) -> None:
    """Every live state's frames and marks lie in the window ending at
    ``frame_id`` (what checkpoint import insists on), and it holds a frame."""
    oldest = frame_id - generator.window_size + 1
    for state in generator.live_states():
        frames, marks = state.frame_ids, state.marked_frame_ids
        assert frames and oldest <= frames[0] and frames[-1] <= frame_id, \
            (index, state)
        assert not marks or (oldest <= marks[0] and marks[-1] <= frame_id), \
            (index, state)


class TestAdversarialDifferential:
    @settings(max_examples=250, deadline=None)
    @given(case=adversarial_streams())
    def test_ssg_matches_reference_and_mfs_across_a_restore(self, case):
        window, duration = case["window"], case["duration"]
        keep = FILTERS[case["filter"]]

        def make(cls, labels=None):
            return cls(window_size=window, duration=duration,
                       labels_of_interest=labels, state_filter=keep)

        ssg, mfs, oracle = (
            make(cls)
            for cls in (StrictStateGraphGenerator, MarkedFrameSetGenerator,
                        ReferenceGenerator)
        )
        labels: Optional[tuple] = None
        twin: Optional[StrictStateGraphGenerator] = None
        twin_results, ssg_results = [], []
        for index, frame in enumerate(case["frames"]):
            if index == case["relabel_at"]:
                labels = case["labels"]
                for generator in (ssg, mfs, oracle, twin):
                    if generator is not None:
                        generator.set_labels_of_interest(labels)
            if index == case["cut"]:
                twin = make(StrictStateGraphGenerator, labels)
                twin.import_state(ssg.export_state())
            result = ssg.process_frame(frame)
            expected = {
                objects: frames
                for objects, frames in oracle.process_frame(frame).as_mapping().items()
                if kept(case["filter"], objects)
            }
            assert result.as_mapping() == expected, index
            assert mfs.process_frame(frame).as_mapping() == expected, index
            for state in ssg.live_states():
                assert state.marked_frame_ids, (index, state)
            assert_in_window(ssg, frame.frame_id, index)
            assert_in_window(mfs, frame.frame_id, index)
            if twin is not None:
                ssg_results.append(result)
                twin_results.append(twin.process_frame(frame))
        if twin is not None:
            assert canonical_results(twin_results) == canonical_results(ssg_results)
            assert twin.export_state() == ssg.export_state()


def ordered(result) -> List:
    """A result in report order: what the engine turns into matches."""
    return [(state.object_ids, state.frame_ids) for state in result]


@pytest.mark.parametrize(
    "generator_cls",
    [NaiveGenerator, MarkedFrameSetGenerator, StrictStateGraphGenerator],
)
@settings(max_examples=150, deadline=None)
@given(case=adversarial_streams())
def test_a_twin_restored_before_every_frame_agrees(generator_cls, case):
    """The twin takes the full path on every frame (no witness, no cached
    mask); the generator settles and reuses masks wherever it can.  Runs
    straddle expiry, sweeps, compaction, relabelling, terminated
    principals and empty frames (see :func:`adversarial_streams`)."""
    window, duration = case["window"], case["duration"]

    def make(labels):
        return generator_cls(window_size=window, duration=duration,
                             labels_of_interest=labels,
                             state_filter=FILTERS[case["filter"]])

    labels: Optional[tuple] = None
    generator = make(labels)
    for index, frame in enumerate(case["frames"]):
        if index == case["relabel_at"]:
            labels = case["labels"]
            generator.set_labels_of_interest(labels)
        twin = make(labels)
        twin.import_state(generator.export_state())
        assert twin._frame_cache is None
        expected = generator.process_frame(frame)
        assert ordered(twin.process_frame(frame)) == ordered(expected), index
        assert twin.export_state() == generator.export_state(), index
        assert_in_window(generator, frame.frame_id, index)


def root_steps(generator: StrictStateGraphGenerator):
    """Spy on the root step: ``.call_count`` is how many frames took it."""
    return mock.patch.object(
        generator, "_root_step", wraps=generator._root_step
    )


class TestSettledFrames:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_k_identical_frames_after_a_quiet_frame_settle_k_minus_one(self, k):
        ssg = StrictStateGraphGenerator(window_size=20, duration=1)
        run_sets(ssg, [{1, 2, 3}, {1, 2}, {1, 2, 3}])  # the last is quiet
        settled = ssg.stats.settled_frames
        with root_steps(ssg) as spy:
            run_sets(ssg, [{1, 2}] * k, first_frame_id=3)
        assert ssg.stats.settled_frames - settled == k - 1
        assert spy.call_count == 1

    def test_sweep_removal_forces_the_full_step(self):
        """{1,2,3}'s only mark (frame 0) leaves the window at frame 4."""
        ssg = StrictStateGraphGenerator(window_size=4, duration=1)
        run_sets(ssg, [{1, 2, 3}, {1, 2}, {1, 2}])
        removed = ssg.stats.states_removed
        with root_steps(ssg) as spy:
            run_sets(ssg, [{1, 2}], first_frame_id=3)
            assert spy.call_count == 0  # settled
            run_sets(ssg, [{1, 2}], first_frame_id=4)
            assert spy.call_count == 1
        assert ssg.stats.states_removed == removed + 1

    def test_principal_expiry_forces_the_full_step(self):
        """{1} stops being a principal at frame 5 but keeps the marks it
        copied from {1,2}: the graph loses a root and nothing else."""
        ssg = StrictStateGraphGenerator(window_size=5, duration=1)
        run_sets(ssg, [{1}, {1, 2}, {1, 3}, {1, 3}, {1, 3}])
        assert frozenset({1}) in ssg.principal_object_sets()
        counters = ssg.stats.as_dict()
        with root_steps(ssg) as spy:
            run_sets(ssg, [{1, 3}], first_frame_id=5)
            assert spy.call_count == 1
        assert frozenset({1}) not in ssg.principal_object_sets()
        assert frozenset({1}) in {s.object_ids for s in ssg.live_states()}
        for name in ("states_created", "states_removed", "edges_added",
                     "edges_removed"):
            assert ssg.stats.as_dict()[name] == counters[name], name

    def test_a_new_state_forces_the_full_step(self):
        """The walk of frame 3 creates {2}: frame 4 repeats frame 3 on a
        graph frame 3's root step changed."""
        ssg = StrictStateGraphGenerator(window_size=20, duration=1)
        run_sets(ssg, [{1, 2}, {1, 2}, {1, 2}])
        created = ssg.stats.states_created
        with root_steps(ssg) as spy:
            run_sets(ssg, [{2, 3}], first_frame_id=3)
            assert ssg.stats.states_created == created + 2  # {2,3} and {2}
            run_sets(ssg, [{2, 3}], first_frame_id=4)
            assert spy.call_count == 2
            run_sets(ssg, [{2, 3}], first_frame_id=5)
            assert spy.call_count == 2

    @pytest.mark.parametrize("interruption", ["reset", "import", "empty frame"])
    def test_the_witness_does_not_outlive_an_interruption(self, interruption):
        ssg = StrictStateGraphGenerator(window_size=20, duration=1)
        run_sets(ssg, [{1, 2}, {1, 2}, {1, 2}])
        assert ssg._schedule.witness is not None
        if interruption == "reset":
            ssg.reset()
        elif interruption == "import":
            ssg.import_state(ssg.export_state())
        else:
            run_sets(ssg, [set()], first_frame_id=3)
        assert ssg._schedule.witness is None


def replay_principal(generator: StrictStateGraphGenerator) -> List[int]:
    return generator.export_checkpoint()["state"]["graph"]["replay_principal"]


def run_sets(generator, sets, first_frame_id=0):
    for offset, object_ids in enumerate(sets):
        generator.process_frame(FrameObservation(
            first_frame_id + offset, {oid: label_of(oid) for oid in object_ids}
        ))


class TestRefusedSets:
    """Under a Proposition-1 filter every subset of a refused set is
    refused, so no work below one can keep a state."""

    def last_frame_visits(self, generator, sets):
        """Visits of the last frame of ``sets``; the generator's results
        must still be NAIVE's under the same filter."""
        naive = NaiveGenerator(window_size=5, duration=1,
                               state_filter=FILTERS["pairs"])
        run_sets(naive, sets)
        run_sets(generator, sets[:-1])
        visits = generator.stats.state_visits
        run_sets(generator, sets[-1:], first_frame_id=len(sets) - 1)
        assert (generator.cut_result(5, 1).as_mapping()
                == naive.cut_result(5, 1).as_mapping())
        return generator.stats.state_visits - visits

    def test_ssg_skips_the_subtree_below_a_refused_intersection(self):
        # {1, 2} hangs below both earlier principals; each meets the last
        # frame in {1} alone, which the filter refuses.
        ssg = StrictStateGraphGenerator(window_size=5, duration=1,
                                        state_filter=FILTERS["pairs"])
        sets = [{1, 2, 3}, {1, 2, 4}, {1, 5, 6}]
        assert self.last_frame_visits(ssg, sets) == 2

    def test_mfs_skips_a_frame_whose_own_set_is_refused(self):
        mfs = MarkedFrameSetGenerator(window_size=5, duration=1,
                                      state_filter=FILTERS["pairs"])
        assert self.last_frame_visits(mfs, [{1, 2, 3}, {1, 2, 4}, {1}]) == 0


class TestReplay:
    def test_identical_frames_replay_instead_of_walking(self):
        ssg = StrictStateGraphGenerator(window_size=6, duration=2)
        run_sets(ssg, [{1, 2, 3}, {1, 2}, {2, 3}, {1, 2, 3}])
        visits = ssg.stats.state_visits
        run_sets(ssg, [{1, 2, 3}] * 3, first_frame_id=4)
        assert ssg.stats.state_visits == visits
        assert ssg.stats.replayed_visits > 0

    @pytest.mark.parametrize("interruption", ["empty frame", "terminated principal", "reset"])
    def test_replay_state_resets(self, interruption):
        ssg = StrictStateGraphGenerator(
            window_size=5, duration=1,
            state_filter=FILTERS["pairs"],
        )
        run_sets(ssg, [{1, 2}, {1, 2, 3}])
        assert replay_principal(ssg) != [-1]
        if interruption == "reset":
            ssg.reset()
        else:
            run_sets(ssg, [set() if interruption == "empty frame" else {4}],
                     first_frame_id=2)
        assert replay_principal(ssg) == [-1]
        replayed = ssg.stats.replayed_visits
        run_sets(ssg, [{1, 2, 3}], first_frame_id=3)
        assert ssg.stats.replayed_visits == replayed, "the frame after must walk in full"

    def test_mark_expiring_on_an_identical_frame_is_swept(self):
        """{1,2}'s only mark (frame 0) leaves the window at frame 3, a frame
        identical to its predecessor that the walk does not enter."""
        ssg = StrictStateGraphGenerator(window_size=3, duration=1)
        run_sets(ssg, [{1, 2}, {1}, {1}])
        assert frozenset({1, 2}) in {s.object_ids for s in ssg.live_states()}
        run_sets(ssg, [{1}], first_frame_id=3)
        assert frozenset({1, 2}) not in {s.object_ids for s in ssg.live_states()}


#: SSG's counters before Δ-pruning and the sweep, on ``dense_scene``'s feeds
#: (w=150, d=120).
UNPRUNED_MAX_LIVE_STATES = {("D2", 0.5): 2535, ("M2", 0.25): 3603}
UNPRUNED_D2_STATE_VISITS = 441_974


@pytest.mark.parametrize("dataset,scale", sorted(UNPRUNED_MAX_LIVE_STATES))
def test_dense_scene_feeds_stay_small(dataset, scale):
    """The sweep keeps the table no larger than the unswept walk did, and
    Δ-pruning leaves at most 40 % of the full visits on D2."""
    relation, _, _ = registry_scene(dataset, scale=scale)
    ssg = StrictStateGraphGenerator(window_size=150, duration=120)
    for frame in relation.frames():
        ssg.process_frame(frame)
    assert ssg.stats.max_live_states <= UNPRUNED_MAX_LIVE_STATES[dataset, scale]
    if dataset == "D2":
        assert ssg.stats.state_visits <= 0.4 * UNPRUNED_D2_STATE_VISITS
