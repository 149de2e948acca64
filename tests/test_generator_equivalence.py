"""Property-based and randomized equivalence tests of the MCOS generators.

The central correctness property of the reproduction: NAIVE, MFS and SSG all
report exactly the same satisfied, valid MCOSs (object sets *and* frame sets)
per window as the exact reference recomputation, on arbitrary inputs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    MarkedFrameSetGenerator,
    ReferenceGenerator,
    StrictStateGraphGenerator,
)
from repro.datamodel import VideoRelation

from tests.conftest import (
    INCREMENTAL_GENERATORS,
    REGISTRY_DATASETS,
    random_relation,
    registry_scene,
    result_mappings,
)

# Strategy: a short video of frames over a small universe of object ids, plus
# window and duration parameters.
frame_strategy = st.sets(st.integers(min_value=0, max_value=6), max_size=7)
video_strategy = st.lists(frame_strategy, min_size=1, max_size=18)


@st.composite
def video_and_params(draw):
    frames = draw(video_strategy)
    window = draw(st.integers(min_value=1, max_value=8))
    duration = draw(st.integers(min_value=0, max_value=window))
    return frames, window, duration


@pytest.mark.parametrize("generator_cls", INCREMENTAL_GENERATORS)
class TestEquivalenceWithReference:
    @settings(max_examples=120, deadline=None)
    @given(data=video_and_params())
    def test_results_match_reference(self, generator_cls, data):
        frames, window, duration = data
        relation = VideoRelation.from_object_sets(frames)
        expected = result_mappings(ReferenceGenerator, relation, window, duration)
        actual = result_mappings(generator_cls, relation, window, duration)
        assert actual == expected

    def test_randomized_long_streams(self, generator_cls):
        """Longer random streams than hypothesis typically generates."""
        for seed in range(25):
            relation = random_relation(seed, max_objects=9, max_frames=60)
            for window, duration in [(5, 3), (10, 7), (12, 0)]:
                expected = result_mappings(ReferenceGenerator, relation, window, duration)
                actual = result_mappings(generator_cls, relation, window, duration)
                assert actual == expected, (
                    f"seed={seed} window={window} duration={duration}"
                )

    @pytest.mark.parametrize("dataset", REGISTRY_DATASETS)
    def test_registry_scenes_match_reference(self, generator_cls, dataset):
        """The detector/tracker scenes the figures time, with their
        occlusions and id churn, at the figures' window and duration."""
        relation, window, duration = registry_scene(dataset)
        expected = result_mappings(ReferenceGenerator, relation, window, duration)
        assert any(expected), "the scene reports no MCOS at all"
        assert result_mappings(generator_cls, relation, window, duration) == expected


class TestCrossGeneratorAgreement:
    @settings(max_examples=60, deadline=None)
    @given(data=video_and_params())
    def test_mfs_and_ssg_agree(self, data):
        """MFS and SSG share marking semantics and must agree exactly."""
        frames, window, duration = data
        relation = VideoRelation.from_object_sets(frames)
        mfs = result_mappings(MarkedFrameSetGenerator, relation, window, duration)
        ssg = result_mappings(StrictStateGraphGenerator, relation, window, duration)
        assert mfs == ssg


class TestReportedStatesAreMCOS:
    @settings(max_examples=80, deadline=None)
    @given(data=video_and_params())
    def test_reported_object_sets_are_closed(self, data):
        """Every reported state is a genuine MCOS: it equals the intersection
        of the frames it is reported for, and its frame set is the full cover
        within the window."""
        frames, window, duration = data
        relation = VideoRelation.from_object_sets(frames)
        generator = MarkedFrameSetGenerator(window_size=window, duration=duration)
        for result in generator.process_relation(relation):
            current = result.current_frame_id
            low = max(0, current - window + 1)
            for state in result:
                assert len(state.frame_ids) >= duration
                cover = [
                    fid for fid in range(low, current + 1)
                    if state.object_ids <= relation.frame(fid).object_ids
                ]
                assert list(state.frame_ids) == cover
                intersection = None
                for fid in state.frame_ids:
                    objs = relation.frame(fid).object_ids
                    intersection = objs if intersection is None else intersection & objs
                assert intersection == state.object_ids


@pytest.mark.parametrize("generator_cls", INCREMENTAL_GENERATORS)
class TestGeneratorBasics:
    def test_frames_must_increase(self, generator_cls):
        relation = VideoRelation.from_object_sets([{1}, {1, 2}])
        generator = generator_cls(window_size=3, duration=1)
        for frame in relation.frames():
            generator.process_frame(frame)
        with pytest.raises(ValueError):
            generator.process_frame(relation.frame(0))

    def test_reset_clears_state(self, generator_cls):
        relation = VideoRelation.from_object_sets([{1, 2}, {1, 2}, {2, 3}])
        generator = generator_cls(window_size=3, duration=1)
        list(generator.process_relation(relation))
        assert generator.live_state_count() > 0 or generator_cls is ReferenceGenerator
        generator.reset()
        assert generator.live_state_count() == 0
        assert generator.stats.frames_processed == 0
        # The generator is usable again after a reset.
        results = list(generator.process_relation(relation))
        assert len(results) == 3

    def test_label_projection_drops_unwanted_classes(self, generator_cls):
        relation = VideoRelation.from_tuples(
            [(0, 1, "car"), (0, 2, "person"), (1, 1, "car"), (1, 2, "person")]
        )
        generator = generator_cls(
            window_size=2, duration=1, labels_of_interest={"car"}
        )
        results = list(generator.process_relation(relation))
        for result in results:
            for state in result:
                assert state.object_ids == frozenset({1})

    def test_invalid_parameters_rejected(self, generator_cls):
        with pytest.raises(ValueError):
            generator_cls(window_size=0, duration=0)
        with pytest.raises(ValueError):
            generator_cls(window_size=5, duration=6)
