"""Unit tests for the data model: observations, relations, sliding windows."""

import pytest

from repro.datamodel import FrameObservation, ObjectObservation, VideoRelation


class TestObjectObservation:
    def test_tuple_projection(self):
        obs = ObjectObservation(frame_id=3, object_id=7, label="car", confidence=0.9)
        assert obs.as_tuple() == (3, 7, "car")


class TestFrameObservation:
    def test_object_ids_and_labels(self):
        frame = FrameObservation(0, {1: "car", 2: "person"})
        assert frame.object_ids == frozenset({1, 2})
        assert frame.label_of(1) == "car"
        assert frame.label_of(2) == "person"
        assert len(frame) == 2
        assert 1 in frame and 3 not in frame

    def test_from_observations_rejects_wrong_frame(self):
        with pytest.raises(ValueError):
            FrameObservation.from_observations(
                0, [ObjectObservation(1, 5, "car")]
            )

    def test_label_restriction(self):
        frame = FrameObservation(0, {1: "car", 2: "person", 3: "bus"})
        restricted = frame.restricted_to_labels({"car", "bus"})
        assert restricted.object_ids == frozenset({1, 3})
        # None means "keep everything" and returns the same object.
        assert frame.restricted_to_labels(None) is frame


class TestVideoRelation:
    def test_from_object_sets_and_access(self):
        rel = VideoRelation.from_object_sets([{1, 2}, {2}, set(), {3}])
        assert rel.num_frames == 4
        assert rel.frame(0).object_ids == frozenset({1, 2})
        assert rel.frame(2).object_ids == frozenset()
        assert rel.object_ids() == {1, 2, 3}

    def test_from_tuples_round_trip(self):
        tuples = [(0, 1, "car"), (0, 2, "person"), (2, 1, "car")]
        rel = VideoRelation.from_tuples(tuples)
        assert rel.num_frames == 3
        assert list(rel.tuples()) == [(0, 1, "car"), (0, 2, "person"), (2, 1, "car")]
        assert rel.label_of(2) == "person"

    def test_append_requires_contiguous_frames(self):
        rel = VideoRelation()
        rel.append_objects({1: "car"})
        with pytest.raises(ValueError):
            rel.append(FrameObservation(5, {2: "car"}))

    def test_prefix(self):
        rel = VideoRelation.from_object_sets([{1}, {2}, {3}])
        prefix = rel.prefix(2)
        assert prefix.num_frames == 2
        assert prefix.frame(1).object_ids == frozenset({2})

    def test_restricted_to_labels(self):
        rel = VideoRelation.from_tuples(
            [(0, 1, "car"), (0, 2, "person"), (1, 2, "person")]
        )
        only_people = rel.restricted_to_labels({"person"})
        assert only_people.frame(0).object_ids == frozenset({2})
        assert only_people.frame(1).object_ids == frozenset({2})

    def test_track_statistics_counts_occlusions(self):
        # Object 1 appears in frames 0-1, disappears, reappears in frame 3:
        # one occlusion.  Object 2 is present throughout: zero occlusions.
        rel = VideoRelation.from_object_sets([{1, 2}, {1, 2}, {2}, {1, 2}])
        stats = rel.track_statistics()
        assert stats[1].occlusions == 1
        assert stats[1].appearances == 3
        assert stats[1].visible_gaps == ((2, 2),)
        assert stats[2].occlusions == 0
        assert stats[2].lifespan == 4
