"""Shared fixtures and builders for the test suite.

Everything randomized here is deterministic given a seed, and the seed is
part of every builder's relation name, so equivalence-test failures can name
the exact stream that diverged.
"""

from __future__ import annotations

import faulthandler
import random
import sys
from typing import List, Sequence, Set

import pytest
from hypothesis import settings

from repro.core import (
    MarkedFrameSetGenerator,
    NaiveGenerator,
    ReferenceGenerator,
    StrictStateGraphGenerator,
)
from repro.datamodel import VideoRelation
from repro.query.model import CNFQuery
from repro.query.parser import parse_query
from repro.workloads.streams import simulated_feed

#: ``pytest --hypothesis-profile=ci``: the same examples on every run, and a
#: failure prints the blob that replays it (``@reproduce_failure``).
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
#: ``pytest --hypothesis-profile=fuzz``: the ``ci`` profile with twenty
#: times the examples, for the budgeted fuzz step of the slow CI job.
settings.register_profile(
    "fuzz", derandomize=True, deadline=None, print_blob=True, max_examples=2000
)

#: Seconds the process may live on after pytest's summary before every
#: thread's stack is printed (a hang at interpreter exit names itself).
EXIT_HANG_DUMP_AFTER = 60


def pytest_unconfigure(config):
    """Arm a stack dump for a process that does not exit after the run.

    The timer thread prints every thread's traceback to the real stderr
    if the interpreter is still alive ``EXIT_HANG_DUMP_AFTER`` seconds
    after the run; it changes neither the exit status nor any result.
    """
    faulthandler.dump_traceback_later(
        EXIT_HANG_DUMP_AFTER, exit=False, file=sys.__stderr__
    )

#: The incremental MCOS maintenance strategies (exercised against each other
#: and against the exact reference oracle throughout the suite).
INCREMENTAL_GENERATORS = [
    NaiveGenerator,
    MarkedFrameSetGenerator,
    StrictStateGraphGenerator,
]

#: Every generator, oracle included.
ALL_GENERATORS = INCREMENTAL_GENERATORS + [ReferenceGenerator]

#: The five-frame example video used throughout Section 2 and 4 of the paper:
#: ({B}, {ABC}, {ABDF}, {ABCF}, {ABD}).  Letters are mapped to integers.
A, B, C, D, F = 1, 2, 3, 4, 6
PAPER_FRAMES: List[Set[int]] = [
    {B},
    {A, B, C},
    {A, B, D, F},
    {A, B, C, F},
    {A, B, D},
]


@pytest.fixture
def paper_relation() -> VideoRelation:
    """The worked example relation from the paper."""
    return VideoRelation.from_object_sets(PAPER_FRAMES, name="paper-example")


# ----------------------------------------------------------------------
# Relation builders (deterministic given a seed)
# ----------------------------------------------------------------------
def random_relation(
    seed: int,
    max_objects: int = 8,
    max_frames: int = 30,
) -> VideoRelation:
    """A small random relation used by deterministic randomized tests."""
    rng = random.Random(seed)
    num_objects = rng.randint(1, max_objects)
    num_frames = rng.randint(1, max_frames)
    frames: List[Set[int]] = []
    for _ in range(num_frames):
        count = rng.randint(0, num_objects)
        frames.append(set(rng.sample(range(num_objects), count)))
    return VideoRelation.from_object_sets(frames, name=f"random-{seed}")


def bursty_stream(seed: int, num_frames: int = 120, universe: int = 10) -> VideoRelation:
    """Stable co-occurrence bursts separated by churn frames."""
    rng = random.Random(seed)
    frames = []
    current = set(rng.sample(range(universe), rng.randint(2, universe // 2)))
    while len(frames) < num_frames:
        burst = rng.randint(2, 12)
        for _ in range(min(burst, num_frames - len(frames))):
            frames.append(set(current))
        # churn: drop/add a few objects, sometimes emit noisy frames
        for _ in range(rng.randint(0, 3)):
            if len(frames) >= num_frames:
                break
            frames.append(set(rng.sample(range(universe),
                                         rng.randint(0, universe))))
        for oid in list(current):
            if rng.random() < 0.3:
                current.discard(oid)
        while len(current) < 2:
            current.add(rng.randrange(universe))
    return VideoRelation.from_object_sets(frames, name=f"bursty-{seed}")


def duplicate_heavy_stream(seed: int, num_frames: int = 100, universe: int = 8) -> VideoRelation:
    """A small pool of recurring object sets (heavy state-table reuse)."""
    rng = random.Random(seed)
    pool = [
        set(rng.sample(range(universe), rng.randint(1, universe)))
        for _ in range(4)
    ]
    frames = [set(rng.choice(pool)) for _ in range(num_frames)]
    return VideoRelation.from_object_sets(frames, name=f"dups-{seed}")


def gap_stream(seed: int, num_frames: int = 100, universe: int = 9,
               window: int = 7) -> VideoRelation:
    """Interleaves activity with empty stretches longer than the window."""
    rng = random.Random(seed)
    frames = []
    while len(frames) < num_frames:
        for _ in range(rng.randint(1, 10)):
            if len(frames) >= num_frames:
                break
            frames.append(set(rng.sample(range(universe),
                                         rng.randint(1, universe))))
        # a gap that expires every state
        for _ in range(rng.randint(window + 1, window + 4)):
            if len(frames) >= num_frames:
                break
            frames.append(set())
    return VideoRelation.from_object_sets(frames, name=f"gaps-{seed}")


def labelled_stream(
    seed: int,
    num_frames: int = 80,
    universe: int = 9,
    classes: Sequence[str] = ("person", "car", "truck", "bus"),
) -> VideoRelation:
    """A bursty stream whose objects carry class labels (for engine tests).

    Delegates to the shipped multi-stream feed generator
    (:func:`repro.workloads.streams.simulated_feed`) with test-sized
    parameters, so the engine tests and the multi-stream suites share one
    cohort/churn model, not two.
    """
    return simulated_feed(
        f"labelled-{seed}",
        seed=seed,
        num_frames=num_frames,
        universe=universe,
        classes=classes,
    )


#: The registry datasets (``repro.datasets.DATASET_NAMES``), spelled out
#: because importing the registry needs numpy and parametrisation happens
#: at collection time.
REGISTRY_DATASETS = ("V1", "V2", "D1", "D2", "M1", "M2")

#: Scene scale of :func:`registry_scene`: every dataset in well under 0.2 s.
REGISTRY_SCALE = 0.1


def registry_scene(name: str, scale: float = REGISTRY_SCALE):
    """A registry dataset's relation plus the figures' window and duration.

    The relation comes out of the simulated detection/tracking pipeline, so
    it has the occlusion and churn profile the figures time, which the
    random builders above do not.  Skips the calling test without numpy.
    """
    pytest.importorskip(
        "numpy", reason="the simulated vision/dataset pipeline requires numpy"
    )
    from repro.datasets import DATASET_NAMES, load_relation
    from repro.experiments.figures import _window_duration

    assert REGISTRY_DATASETS == DATASET_NAMES
    window, duration = _window_duration(scale)
    return load_relation(name, scale=scale), window, duration


# ----------------------------------------------------------------------
# Query builders
# ----------------------------------------------------------------------
def build_queries(
    texts: Sequence[str], window: int = 10, duration: int = 5
) -> List[CNFQuery]:
    """Parse CNF query strings into queries sharing one window group."""
    return [
        parse_query(text, window=window, duration=duration, name=f"q{i}")
        for i, text in enumerate(texts)
    ]


@pytest.fixture
def small_workload() -> List[CNFQuery]:
    """A compact mixed workload over the default classes (one window group)."""
    return build_queries(
        [
            "person >= 1",
            "car >= 1 AND person >= 1",
            "(car >= 2 OR truck >= 1) AND person <= 3",
            "bus = 1",
        ],
        window=10,
        duration=5,
    )


# ----------------------------------------------------------------------
# Run helpers
# ----------------------------------------------------------------------
def result_mappings(generator_cls, relation: VideoRelation, window: int, duration: int):
    """Run a generator over a relation and return per-frame result mappings."""
    generator = generator_cls(window_size=window, duration=duration)
    return [result.as_mapping() for result in generator.process_relation(relation)]


def canonical_results(results) -> List:
    """A byte-comparable canonical form of per-frame result state sets.

    Unlike :func:`result_mappings` (which compares as unordered mappings),
    this preserves report order — the form the checkpoint round-trip tests
    use to assert *byte-identical* resumption, not just equal result sets.
    """
    return [
        [
            [sorted(state.object_ids), list(state.frame_ids)]
            for state in result
        ]
        for result in results
    ]
