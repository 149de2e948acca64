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


def skewed_scenario(
    num_feeds: int,
    frames_per_feed: int,
    groups: Sequence[Tuple[int, int]],
    queries_per_group: int,
    seed: int,
    hot_factor: int = 4,
) -> Tuple[Dict[str, VideoRelation], List[CNFQuery], str]:
    """A hot-stream scenario: feed 0 runs ``hot_factor``× its siblings' rate.

    Returns ``(feeds, queries, hot_stream_id)``.  The hot feed carries
    ``hot_factor * frames_per_feed`` frames; every sibling carries
    ``frames_per_feed``.  Interleaved with :func:`interleave_skewed`, the
    hot feed emits ``hot_factor`` frames per round against the siblings'
    one — the one-camera-covers-the-freeway regime that round-robin
    stream→worker placement handles worst.
    """
    if num_feeds < 2:
        raise ValueError("a skewed scenario needs at least two feeds")
    if hot_factor < 2:
        raise ValueError(f"hot_factor must be >= 2, got {hot_factor}")
    feeds = {
        f"cam-{index:02d}": simulated_feed(
            f"cam-{index:02d}",
            seed=seed * 1000 + index,
            num_frames=(
                frames_per_feed * hot_factor if index == 0 else frames_per_feed
            ),
        )
        for index in range(num_feeds)
    }
    queries = [
        query.with_id(index)
        for index, query in enumerate(
            multi_window_workload(
                list(groups), queries_per_group=queries_per_group, seed=seed
            )
        )
    ]
    return feeds, queries, "cam-00"


def interleave_skewed(
    feeds: Dict[str, VideoRelation],
    hot_stream: str,
    hot_factor: int,
    stagger: int = 1,
) -> List[StreamEvent]:
    """Rate-skewed interleave: the hot stream emits ``hot_factor`` frames
    per round, siblings one; sibling ``k`` joins at round ``k * stagger``.

    The staggered starts make first-seen order meaningful for placement:
    by the time a sibling first appears, the hot stream has already built
    up observable load, so a load-aware policy can steer the newcomer away
    from the hot worker while round-robin blindly stacks every second
    sibling next to it.  Deterministic (no randomness).
    """
    iterators = {
        stream_id: relation.frames()
        for stream_id, relation in feeds.items()
    }
    start_round = {
        stream_id: (index + 1) * stagger
        for index, stream_id in enumerate(
            sid for sid in feeds if sid != hot_stream
        )
    }
    start_round[hot_stream] = 0
    merged: List[StreamEvent] = []
    round_index = 0
    while iterators:
        exhausted = []
        for stream_id in list(iterators):
            if round_index < start_round[stream_id]:
                continue
            take = hot_factor if stream_id == hot_stream else 1
            for _ in range(take):
                frame = next(iterators[stream_id], None)
                if frame is None:
                    exhausted.append(stream_id)
                    break
                merged.append((stream_id, frame))
        for stream_id in exhausted:
            del iterators[stream_id]
        round_index += 1
    return merged


def drifting_hotspot_scenario(
    num_feeds: int,
    frames_per_feed: int,
    groups: Sequence[Tuple[int, int]],
    queries_per_group: int,
    seed: int,
    hot_factor: int = 4,
    phases: int = 2,
) -> Tuple[Dict[str, VideoRelation], List[CNFQuery], List[str]]:
    """A *drifting* hot-stream scenario: the hotspot moves between feeds.

    Returns ``(feeds, queries, hot_streams)`` where ``hot_streams[p]`` is
    the feed that runs ``hot_factor``× its siblings' rate during phase
    ``p`` (phases are consecutive feed indices: ``cam-00`` is hot first,
    then ``cam-01``, ...).  Every feed carries enough frames to serve both
    its hot and cold phases.  Interleaved with
    :func:`interleave_drifting`, the load imbalance a placement decision
    was correct for in phase 0 becomes wrong in phase 1 — the regime that
    static (even load-aware-at-arrival) placement cannot fix and an
    autonomous rebalance trigger exists for.
    """
    if num_feeds < 2:
        raise ValueError("a drifting-hotspot scenario needs at least two feeds")
    if hot_factor < 2:
        raise ValueError(f"hot_factor must be >= 2, got {hot_factor}")
    if not 1 <= phases <= num_feeds:
        raise ValueError(
            f"phases must be between 1 and num_feeds ({num_feeds}), "
            f"got {phases}"
        )
    hot_streams = [f"cam-{index:02d}" for index in range(phases)]
    # A feed that is hot for one of the `phases` phases emits
    # hot_factor * frames_per_feed frames in that phase plus
    # frames_per_feed in each of the others.
    frames_of = {
        f"cam-{index:02d}": (
            frames_per_feed * (hot_factor + phases - 1)
            if index < phases else frames_per_feed * phases
        )
        for index in range(num_feeds)
    }
    feeds = {
        stream_id: simulated_feed(
            stream_id,
            seed=seed * 1000 + index,
            num_frames=frames_of[stream_id],
        )
        for index, stream_id in enumerate(
            f"cam-{index:02d}" for index in range(num_feeds)
        )
    }
    queries = [
        query.with_id(index)
        for index, query in enumerate(
            multi_window_workload(
                list(groups), queries_per_group=queries_per_group, seed=seed
            )
        )
    ]
    return feeds, queries, hot_streams


def interleave_drifting(
    feeds: Dict[str, VideoRelation],
    hot_streams: Sequence[str],
    hot_factor: int,
) -> List[StreamEvent]:
    """Phase-sliced interleave: each phase re-runs the skewed cadence with
    that phase's hot stream emitting ``hot_factor`` frames per round.

    Each phase runs for ``min_feed_frames // len(hot_streams)`` rounds —
    for feeds sized by :func:`drifting_hotspot_scenario` that consumes
    every feed exactly within the phased section (cold feeds emit one
    frame per round over all phases; a hot feed emits its surplus in its
    own phase).  Deterministic (no randomness); every frame of every feed
    is emitted exactly once, any tail flushed round-robin after the last
    phase.
    """
    if not hot_streams:
        raise ValueError("at least one hot stream is required")
    for hot_stream in hot_streams:
        if hot_stream not in feeds:
            raise ValueError(f"unknown hot stream {hot_stream!r}")
    iterators = {
        stream_id: relation.frames()
        for stream_id, relation in feeds.items()
    }
    # Rounds per phase: the shortest (always-cold) feed emits one frame
    # per round across all phases, so it lasts exactly min_frames rounds.
    min_frames = min(len(relation) for relation in feeds.values())
    rounds_per_phase = max(1, min_frames // len(hot_streams))
    merged: List[StreamEvent] = []
    exhausted: List[str] = []

    def emit(stream_id: str, take: int) -> None:
        for _ in range(take):
            frame = next(iterators[stream_id], None)
            if frame is None:
                exhausted.append(stream_id)
                break
            merged.append((stream_id, frame))

    for hot_stream in hot_streams:
        for _ in range(rounds_per_phase):
            for stream_id in list(iterators):
                emit(
                    stream_id,
                    hot_factor if stream_id == hot_stream else 1,
                )
            for stream_id in exhausted:
                iterators.pop(stream_id, None)
            exhausted.clear()
    # Flush every remaining tail round-robin so the event sequence covers
    # the feeds exactly.
    while iterators:
        for stream_id in list(iterators):
            emit(stream_id, 1)
        for stream_id in exhausted:
            iterators.pop(stream_id, None)
        exhausted.clear()
    return merged


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
