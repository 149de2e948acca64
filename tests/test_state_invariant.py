"""Every state's frame set is its ground truth, on every generator.

A live state's ``frame_ids`` must be exactly the frames of the window that
contain its objects, and its marks a subset of them (Theorems 1 and 4): the
result sets, ``cut_result`` and the checkpoints are all read off these two
bitsets.  The property checks that after every frame, for NAIVE, MFS and
SSG, across one checkpoint cut.

SSG once lost a frame here.  On the stream :data:`LOST_FRAME_STREAM` a
Property-2 repair at frame 5 moved ``{0}`` below a state the walk had
already visited, so ``{0}`` never got frame 5: SSG reported ``{0}`` with
frames (0, 1, 2, 3) instead of (0, 1, 2, 3, 5), and with window 11 and
duration 5 dropped it.  The trigger is a frame holding none of a state's
objects (empty, or only unrelated ones) between two frames that share
them; random streams hit it about once in 3 000, so the strategy is biased
toward that shape and the stream itself is an explicit example.

``pytest --hypothesis-profile=fuzz tests/test_state_invariant.py`` runs
the property on many more streams (the ``slow`` CI job does).
"""

from __future__ import annotations

from collections import deque
from typing import List, Set

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import Session
from repro.core import ReferenceGenerator
from repro.datamodel import FrameObservation, VideoRelation
from repro.query.model import CNFQuery

from tests.conftest import ALL_GENERATORS, INCREMENTAL_GENERATORS

#: Window 6, every object a car: SSG lost frame 5 of the state ``{0}``.
LOST_FRAME_STREAM: List[Set[int]] = [
    {0, 2, 6, 7, 8}, {0, 4, 6, 7, 8}, {0, 4, 5}, {0, 2, 4, 7, 8}, set(), {0, 4, 8},
]

#: ``(window, duration)`` pairs on which SSG differed from the reference.
LOST_FRAME_PARAMS = [(6, 1), (11, 5), (6, 2), (7, 1)]

#: Objects of the streams below; ``UNRELATED`` appears only in frames of
#: its own.
UNIVERSE = 10
UNRELATED = 20


def _results(generator_cls, frames, window, duration):
    generator = generator_cls(window_size=window, duration=duration)
    relation = VideoRelation.from_object_sets(frames, name="lost-frame")
    return [result.as_mapping() for result in generator.process_relation(relation)]


@pytest.mark.parametrize("window,duration", LOST_FRAME_PARAMS)
@pytest.mark.parametrize("generator_cls", ALL_GENERATORS, ids=lambda g: g.name)
def test_lost_frame_stream_equals_the_reference(generator_cls, window, duration):
    expected = _results(ReferenceGenerator, LOST_FRAME_STREAM, window, duration)
    assert _results(generator_cls, LOST_FRAME_STREAM, window, duration) == expected
    if duration <= 4:
        assert expected[5][frozenset({0})] == frozenset({0, 1, 2, 3, 5})


@pytest.mark.parametrize("window,duration", [(6, 1), (11, 5)])
@pytest.mark.parametrize("backend", ["inline", "router"])
def test_lost_frame_stream_through_a_session(backend, window, duration):
    """An SSG session delivers what a NAIVE one does, the match on ``{0}``
    over frames (0, 1, 2, 3, 5) included."""
    query = CNFQuery.from_condition_lists(
        [[("car", ">=", 1)]], window=window, duration=duration
    )
    delivered = {}
    for method in ("NAIVE", "SSG"):
        with Session(backend, method=method) as session:
            handle = session.register(query)
            for frame_id, objects in enumerate(LOST_FRAME_STREAM):
                session.ingest(
                    "cam-0", FrameObservation(frame_id, dict.fromkeys(objects, "car"))
                )
            session.flush()
            session.drain()
            delivered[method] = [
                (m.frame_id, sorted(m.object_ids), m.frame_ids)
                for m in handle.take_matches()
            ]
    assert delivered["SSG"] == delivered["NAIVE"]
    assert (5, [0], (0, 1, 2, 3, 5)) in delivered["SSG"]


def frames_strategy():
    """Streams of 15 to 50 frames over ``UNIVERSE`` objects.

    A frame is empty (15 %), holds unrelated objects only (5 %), repeats
    the last other frame with one to three objects toggled (40 %), or is a
    dense random set (40 %): a state's objects often leave for a frame and
    come back, over a graph deep enough for Property-2 repairs.
    """
    step = st.tuples(
        st.integers(0, 19),
        st.frozensets(st.integers(0, UNIVERSE - 1), min_size=1, max_size=3),
        st.lists(st.booleans(), min_size=UNIVERSE, max_size=UNIVERSE),
    )

    def expand(steps):
        frames: List[Set[int]] = []
        last: Set[int] = set()
        for roll, toggled, dense in steps:
            if roll < 3:
                frames.append(set())
                continue
            if roll < 4:
                frames.append({UNRELATED})
                continue
            if roll < 12:
                last = last ^ toggled
            else:
                last = {i for i, present in enumerate(dense) if present}
            frames.append(last)
        return frames

    return st.lists(step, min_size=15, max_size=50).map(expand)


def check_states(generator, window_frames, frame_id: int) -> None:
    for state in generator.live_states():
        if state.terminated:
            continue
        objects = state.object_ids
        expected = tuple(fid for fid, frame in window_frames if objects <= frame)
        assert state.frame_ids == expected, (
            f"{generator.name}: state {sorted(objects)} at frame {frame_id}"
        )
        assert state.marks & ~state.frames == 0, (
            f"{generator.name}: marks of {sorted(objects)} outside its frames"
        )


@settings(deadline=None)
@given(
    frames=frames_strategy(),
    window=st.integers(2, 20),
    duration=st.integers(0, 20),
    cut=st.integers(0, 50),
)
@example(frames=LOST_FRAME_STREAM, window=6, duration=1, cut=3)
@example(frames=LOST_FRAME_STREAM, window=11, duration=5, cut=0)
def test_every_state_holds_exactly_its_window_frames(frames, window, duration, cut):
    duration = min(duration, window)
    relation = VideoRelation.from_object_sets(frames, name="invariant")
    for generator_cls in INCREMENTAL_GENERATORS:
        generator = generator_cls(window_size=window, duration=duration)
        window_frames = deque(maxlen=window)
        for index, frame in enumerate(relation.frames()):
            if index == cut:
                restored = generator_cls(window_size=window, duration=duration)
                restored.import_checkpoint(generator.export_checkpoint())
                generator = restored
            generator.process_frame(frame)
            window_frames.append((frame.frame_id, frame.object_ids))
            check_states(generator, window_frames, frame.frame_id)

