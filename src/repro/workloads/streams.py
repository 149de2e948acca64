"""Multi-stream scenario generation for the streaming runtime.

Builds fleets of simulated camera feeds (independent
:class:`~repro.datamodel.relation.VideoRelation`\\ s with bursty, labelled
co-occurrence patterns), interleaves them into one ``(stream_id, frame)``
event sequence — optionally with bounded out-of-order jitter, the arrival
pattern a multi-camera ingest tier actually sees — and generates query
workloads spanning several window groups, which is what exercises the
:class:`~repro.streaming.router.StreamRouter`'s auto-grouping.

Everything is deterministic given a seed.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.datamodel.observation import FrameObservation
from repro.datamodel.relation import VideoRelation
from repro.query.model import CNFQuery
from repro.workloads.generator import DEFAULT_CLASSES, random_cnf_workload

#: One element of an interleaved multi-stream sequence.
StreamEvent = Tuple[str, FrameObservation]


def simulated_feed(
    stream_id: str,
    seed: int,
    num_frames: int = 300,
    universe: int = 12,
    classes: Sequence[str] = DEFAULT_CLASSES,
    min_cohort: int = 2,
    churn: float = 0.3,
) -> VideoRelation:
    """One simulated camera feed with bursty, labelled co-occurrences.

    A *cohort* of objects stays in view for a stretch of frames, then churns:
    some members leave, new ones arrive, and occasional noisy frames show
    unrelated subsets — the regime that creates long frame-span runs followed
    by fragmentation, which is what stresses the MCOS layer.  Object ids are
    feed-local; each id keeps one class label for its lifetime.
    """
    # String seeds hash deterministically across processes (unlike tuples,
    # whose hash is salted by PYTHONHASHSEED).
    rng = random.Random(f"{seed}/{stream_id}")
    weights = [1.0] * len(classes)
    label_of: Dict[int, str] = {}

    def label(oid: int) -> str:
        existing = label_of.get(oid)
        if existing is None:
            existing = rng.choices(list(classes), weights=weights)[0]
            label_of[oid] = existing
        return existing

    frames: List[Dict[int, str]] = []
    cohort = set(rng.sample(range(universe), rng.randint(min_cohort, max(min_cohort, universe // 2))))
    while len(frames) < num_frames:
        burst = rng.randint(3, 14)
        for _ in range(min(burst, num_frames - len(frames))):
            frames.append({oid: label(oid) for oid in cohort})
        for _ in range(rng.randint(0, 2)):
            if len(frames) >= num_frames:
                break
            noise = rng.sample(range(universe), rng.randint(0, universe))
            frames.append({oid: label(oid) for oid in noise})
        for oid in list(cohort):
            if rng.random() < churn:
                cohort.discard(oid)
        while len(cohort) < min_cohort:
            cohort.add(rng.randrange(universe))
    return VideoRelation(
        [FrameObservation(fid, labels) for fid, labels in enumerate(frames)],
        name=stream_id,
    )


def simulated_feeds(
    num_feeds: int,
    seed: int = 0,
    num_frames: int = 300,
    universe: int = 12,
    classes: Sequence[str] = DEFAULT_CLASSES,
) -> Dict[str, VideoRelation]:
    """A fleet of independent camera feeds, keyed by stream id."""
    return {
        f"cam-{index:02d}": simulated_feed(
            f"cam-{index:02d}",
            seed=seed * 1000 + index,
            num_frames=num_frames,
            universe=universe,
            classes=classes,
        )
        for index in range(num_feeds)
    }


def interleave_feeds(
    feeds: Dict[str, VideoRelation],
    jitter: int = 0,
    seed: int = 0,
) -> Iterator[StreamEvent]:
    """Merge feeds into one event sequence, round-robin across streams.

    ``jitter > 0`` shuffles events within non-overlapping windows of
    ``jitter`` consecutive *rounds* (a round emits one frame of every stream
    still live).  A window therefore holds at most ``jitter`` consecutive
    frames of any one stream, so the shuffle displaces a stream's frames by
    strictly less than ``jitter`` frame ids — genuine per-stream
    out-of-order arrival, and exactly what a shard with
    ``watermark >= jitter`` must absorb without dropping anything.  Grouping
    by round (not by a fixed event count) keeps that bound when feeds have
    unequal lengths: once short feeds exhaust, rounds shrink but still
    contribute one frame per surviving stream.
    """
    iterators = {stream_id: relation.frames() for stream_id, relation in feeds.items()}
    merged: List[StreamEvent] = []
    round_starts: List[int] = []
    while iterators:
        round_starts.append(len(merged))
        exhausted = []
        for stream_id, frames in iterators.items():
            frame = next(frames, None)
            if frame is None:
                exhausted.append(stream_id)
            else:
                merged.append((stream_id, frame))
        for stream_id in exhausted:
            del iterators[stream_id]
    if jitter > 0:
        rng = random.Random(seed)
        for chunk in range(0, len(round_starts), jitter):
            start = round_starts[chunk]
            end = (
                round_starts[chunk + jitter]
                if chunk + jitter < len(round_starts) else len(merged)
            )
            block = merged[start:end]
            rng.shuffle(block)
            merged[start:end] = block
    return iter(merged)


def bench_scenario(
    num_feeds: int,
    frames_per_feed: int,
    groups: Sequence[Tuple[int, int]],
    queries_per_group: int,
    seed: int,
) -> Tuple[Dict[str, VideoRelation], List[CNFQuery]]:
    """One deterministic multi-stream scenario: feeds plus id-assigned queries.

    Shared by the pool, checkpoint and cross-backend test suites, so they
    all exercise literally the same workload.  Query ids
    are assigned globally up front; matches from any serving architecture
    (dedicated engines, router, worker pool) then carry the same
    ``query_id`` and can be compared verbatim.
    """
    feeds = simulated_feeds(num_feeds, seed=seed, num_frames=frames_per_feed)
    queries = [
        query.with_id(index)
        for index, query in enumerate(
            multi_window_workload(
                list(groups), queries_per_group=queries_per_group, seed=seed
            )
        )
    ]
    return feeds, queries


def multi_window_workload(
    groups: Sequence[Tuple[int, int]],
    queries_per_group: int = 4,
    classes: Sequence[str] = DEFAULT_CLASSES,
    max_threshold: int = 4,
    seed: int = 0,
    name: str = "multi-window",
) -> List[CNFQuery]:
    """Random CNF queries spread over several ``(window, duration)`` groups.

    The returned list interleaves groups (query ``i`` belongs to group
    ``i % len(groups)``), mimicking registration order in a real deployment
    where queries arrive without regard for their temporal parameters.
    """
    if not groups:
        raise ValueError("at least one (window, duration) group is required")
    per_group = {
        (window, duration): iter(
            random_cnf_workload(
                queries_per_group,
                window=window,
                duration=duration,
                classes=classes,
                max_threshold=max_threshold,
                seed=seed * 100 + index,
                name=f"{name}-w{window}d{duration}",
            ).queries
        )
        for index, (window, duration) in enumerate(groups)
    }
    queries: List[CNFQuery] = []
    for i in range(queries_per_group * len(groups)):
        window, duration = groups[i % len(groups)]
        queries.append(next(per_group[(window, duration)]))
    return queries
