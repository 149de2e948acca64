"""Δ-pruned State Traversal: SSG against the oracle on adversarial streams.

SSG replays the states the previous frame extended that miss ``Δ`` (the
objects that entered or left) and walks only the states that meet it, with a
separate sweep removing states whose last mark expires (see
:mod:`repro.core.ssg`).  The streams here are built to hit the cases that
argument leans on: identical frames (``Δ`` empty), single-object flicker,
empty frames, marks expiring on a frame identical to its predecessor,
terminated principals, the interner's compaction boundary, a label
projection changed mid-stream and frame-id gaps.  Every frame is checked
against :class:`ReferenceGenerator` and MFS, and a checkpoint taken at a
drawn cut must resume exactly like the uninterrupted run.
"""

from typing import Dict, FrozenSet, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    MarkedFrameSetGenerator,
    ReferenceGenerator,
    StrictStateGraphGenerator,
)
from repro.datamodel import FrameObservation, VideoRelation

from tests.conftest import canonical_results, registry_scene


def label_of(object_id: int) -> str:
    return "a" if object_id % 2 else "b"


#: Upward-closed Proposition-1 filters (a superset of a kept set is kept),
#: so the filtered answer is the oracle's answer restricted to kept sets.
FILTERS = {
    "none": None,
    "pairs": lambda object_ids, counts: len(object_ids) >= 2,
    "has_a": lambda object_ids, counts: counts.get("a", 0) >= 1,
}


def kept(filter_name: str, object_ids: FrozenSet[int]) -> bool:
    keep = FILTERS[filter_name]
    if keep is None:
        return True
    counts: Dict[str, int] = {}
    for object_id in object_ids:
        counts[label_of(object_id)] = counts.get(label_of(object_id), 0) + 1
    return keep(object_ids, counts)


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
        frame_id += draw(st.sampled_from([1, 1, 1, 2]))
    return {
        "frames": frames,
        "window": window,
        "duration": duration,
        "cut": draw(st.integers(0, len(frames))),
        "relabel_at": draw(st.none() | st.integers(0, len(frames) - 1)),
        "labels": draw(st.sampled_from([None, ("a",), ("a", "b")])),
        "filter": draw(st.sampled_from(sorted(FILTERS))),
    }


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
            oldest = frame.frame_id - window + 1
            for state in ssg.live_states():
                marks = state.marked_frame_ids
                assert marks and marks[0] >= oldest, (index, state)
            if twin is not None:
                ssg_results.append(result)
                twin_results.append(twin.process_frame(frame))
        if twin is not None:
            assert canonical_results(twin_results) == canonical_results(ssg_results)
            assert twin.export_state() == ssg.export_state()


def replay_principal(generator: StrictStateGraphGenerator) -> List[int]:
    return generator.export_checkpoint()["state"]["graph"]["replay_principal"]


def run_sets(generator, sets, first_frame_id=0):
    for offset, object_ids in enumerate(sets):
        generator.process_frame(FrameObservation(
            first_frame_id + offset, {oid: label_of(oid) for oid in object_ids}
        ))


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

    @pytest.mark.parametrize("cut", [3, 10, 17])
    def test_checkpoint_without_replay_columns_restores(self, cut):
        """A blob written before the replay columns existed restores with an
        empty replay list: the first frame walks in full, results stay
        equal to the oracle's."""
        relation = VideoRelation.from_object_sets(
            [{1, 2, 3}, {1, 2}, {1, 2}, {2, 3}, {2, 3, 4}, {2, 3, 4}, {4}, set(),
             {1, 4}, {1, 4}, {1, 2, 4}] * 2
        )
        frames = list(relation.frames())
        original = StrictStateGraphGenerator(window_size=5, duration=2)
        for frame in frames[:cut]:
            original.process_frame(frame)
        payload = original.export_checkpoint()
        del payload["state"]["graph"]["replay_principal"]
        del payload["state"]["graph"]["replay"]
        restored = StrictStateGraphGenerator(window_size=5, duration=2)
        restored.import_checkpoint(payload)
        assert replay_principal(restored) == [-1]
        oracle = ReferenceGenerator(window_size=5, duration=2)
        for frame in frames[:cut]:
            oracle.process_frame(frame)
        replayed = restored.stats.replayed_visits
        for index, frame in enumerate(frames[cut:]):
            expected = oracle.process_frame(frame).as_mapping()
            assert restored.process_frame(frame).as_mapping() == expected
            assert original.process_frame(frame).as_mapping() == expected
            if index == 0:
                assert restored.stats.replayed_visits == replayed


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
