"""Seeded inputs of the four workloads.

Inputs come only from the ``repro.datasets`` / ``repro.workloads``
generators.  Two seeds are involved and they do different jobs:

* :data:`SCENARIO_SEED` fixes the *structure* of a workload — which objects
  co-occur when, which predicates the queries carry.  MCOS cost is wildly
  sensitive to it (the same D2 scene spec costs 0.9 s or 3.8 s per pass
  depending on its scene seed), so it is a constant of the benchmark.
* ``--seed`` decides everything that must not matter: object identities
  (a permutation of each feed's ids), query registration order and the
  arrival jitter.  Runs with different seeds therefore do the same work on
  different bytes, which is what lets a metric be compared across seeds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.datamodel.observation import FrameObservation
from repro.datamodel.relation import VideoRelation
from repro.datasets import load_dataset
from repro.query.model import CNFQuery
from repro.workloads import (
    interleave_feeds,
    multi_window_workload,
    random_cnf_workload,
    simulated_feeds,
)

SCENARIO_SEED = 12

StreamEvent = Tuple[str, FrameObservation]
GroupKey = Tuple[int, int]

#: Frames between consecutive polls of the match handles (and the length of
#: one throughput segment).
SEGMENT = 32


@dataclass
class Workload:
    """Everything one workload feeds the system, plus how to build it."""

    name: str
    #: ``Session(**session_kwargs)`` is the system under test.
    session_kwargs: Dict
    #: ``Session(**oracle_kwargs)`` computes the expected matches — always a
    #: different backend from the one under test.
    oracle_kwargs: Dict
    queries: List[CNFQuery]
    #: New distinct queries registered then cancelled by the churn phase.
    churn_queries: List[CNFQuery]
    #: Steady-phase events in arrival order (out of order when jittered).
    steady: List[StreamEvent]
    #: The same frames in per-stream order, for consumers that cannot
    #: reorder (the inline oracle, bare generators and engines).
    ordered: List[StreamEvent]
    #: In-order events after the steady phase: one per churn op, then one
    #: for the restored session.
    tail: List[StreamEvent]
    generate_s: float = 0.0
    #: Gateway workload only: open-loop rate (source frames per second) and
    #: frames per NDJSON batch.
    rate: float = 0.0
    batch: int = 8
    rate_lo: float = 0.0

    @property
    def restrict_labels(self) -> bool:
        return bool(self.session_kwargs.get("restrict_labels", True))

    @property
    def watermark(self) -> int:
        return int(self.session_kwargs.get("watermark", 0))

    @property
    def groups(self) -> Dict[GroupKey, List[CNFQuery]]:
        grouped: Dict[GroupKey, List[CNFQuery]] = {}
        for query in self.queries:
            grouped.setdefault((query.window, query.duration), []).append(query)
        return grouped

    def objects_per_frame(self) -> float:
        return sum(len(frame) for _, frame in self.steady) / len(self.steady)


def _relabel(relation: VideoRelation, rng: random.Random) -> List[FrameObservation]:
    """The relation's frames under a seeded permutation of its object ids."""
    ids = sorted(relation.object_ids())
    shuffled = list(ids)
    rng.shuffle(shuffled)
    renamed = dict(zip(ids, shuffled))
    return [
        FrameObservation(
            frame.frame_id,
            {renamed[oid]: frame.label_of(oid) for oid in sorted(frame.object_ids)},
        )
        for frame in relation.frames()
    ]


def _distinct(queries: Sequence[CNFQuery], taken: Sequence[CNFQuery] = ()) -> List[CNFQuery]:
    """Canonical forms, first occurrence only, none equal to one in ``taken``."""
    seen = {query.canonical() for query in taken}
    out: List[CNFQuery] = []
    for query in queries:
        canonical = query.canonical()
        if canonical not in seen:
            seen.add(canonical)
            out.append(canonical)
    return out


def _churn_queries(
    groups: Sequence[GroupKey], steady: Sequence[CNFQuery], count: int
) -> List[CNFQuery]:
    """``count`` queries no steady query equals, spread over ``groups``."""
    per_group = [
        iter(_distinct(
            random_cnf_workload(
                4 * count, window=window, duration=duration,
                max_threshold=4, seed=SCENARIO_SEED * 100 + 50 + index,
                name=f"churn-w{window}d{duration}",
            ).queries,
            steady,
        ))
        for index, (window, duration) in enumerate(groups)
    ]
    return [next(per_group[i % len(per_group)]) for i in range(count)]


def _selective_queries(groups: Sequence[GroupKey], per_group: int) -> List[CNFQuery]:
    """Long CNF queries (up to 10 disjunctions of up to 3 conditions) over
    ``groups``: a result state satisfies many of their conditions and few
    whole queries, so the evaluator's index probes outweigh the matches that
    every layer above it has to carry (27 a frame, not 104 as with
    ``multi_window_workload``'s 3 x 3 queries, under which delivering the
    matches in ``session`` cost more than evaluating them in ``query``)."""
    per = [
        random_cnf_workload(
            per_group, window=window, duration=duration,
            max_disjunctions=10, max_conditions=3, max_threshold=5,
            seed=SCENARIO_SEED * 100 + index, name=f"fanout-w{window}d{duration}",
        ).queries
        for index, (window, duration) in enumerate(groups)
    ]
    # Interleaved like multi_window_workload: registration order ignores groups.
    return [query for together in zip(*per) for query in together]


def _split(
    feeds: Dict[str, List[FrameObservation]], tail_events: int
) -> Tuple[Dict[str, VideoRelation], List[StreamEvent]]:
    """Cut the last frames of every feed off as the in-order tail."""
    per_feed = -(-tail_events // len(feeds))
    heads = {
        stream_id: VideoRelation(frames[:-per_feed], name=stream_id)
        for stream_id, frames in feeds.items()
    }
    tails = {
        stream_id: VideoRelation(frames[-per_feed:], name=stream_id)
        for stream_id, frames in feeds.items()
    }
    return heads, list(interleave_feeds(tails))[:tail_events]


def _sequential(heads: Dict[str, VideoRelation]) -> List[StreamEvent]:
    return [
        (stream_id, frame)
        for stream_id, relation in heads.items()
        for frame in relation.frames()
    ]


def _feeds_workload(
    name: str,
    rng: random.Random,
    seed: int,
    *,
    num_feeds: int,
    frames: int,
    universe: int,
    groups: Sequence[GroupKey],
    queries: Sequence[CNFQuery],
    churn_ops: int,
    jitter: int,
    session_kwargs: Dict,
    oracle_kwargs: Dict,
) -> Workload:
    started = time.perf_counter()
    relations = simulated_feeds(
        num_feeds, seed=SCENARIO_SEED, num_frames=frames, universe=universe
    )
    feeds = {sid: _relabel(relation, rng) for sid, relation in relations.items()}
    heads, tail = _split(feeds, 2 * churn_ops + 1)
    ordered = list(interleave_feeds(heads))
    if jitter:
        # The first window stays in order so streams are first seen in the
        # same order under every seed (pool placement is first-seen
        # round-robin); everything after it is genuinely shuffled.
        lead = jitter * num_feeds
        shuffled = list(interleave_feeds(heads, jitter=jitter, seed=seed))
        steady = ordered[:lead] + shuffled[lead:]
    else:
        steady = ordered
    generate_s = time.perf_counter() - started
    queries = _distinct(queries)
    churn = _churn_queries(groups, queries, churn_ops)
    rng.shuffle(queries)
    return Workload(
        name=name,
        session_kwargs=session_kwargs,
        oracle_kwargs=oracle_kwargs,
        queries=queries,
        churn_queries=churn,
        steady=steady,
        ordered=ordered,
        tail=tail,
        generate_s=generate_s,
    )


def _dense_scene(rng: random.Random, size: float, churn_ops: int) -> Workload:
    started = time.perf_counter()
    feeds = {
        # load_dataset, not load_relation: the latter caches per process and
        # set-up is repeated to time it.
        name: _relabel(load_dataset(name, scale=scale * size).relation, rng)
        for name, scale in (("D2", 0.5), ("M2", 0.25))
    }
    heads, tail = _split(feeds, 2 * churn_ops + 1)
    steady = _sequential(heads)
    generate_s = time.perf_counter() - started
    window = max(5, int(150 * size))
    duration = window * 4 // 5
    queries = _distinct(
        CNFQuery.from_condition_lists(conditions, window=window, duration=duration)
        for conditions in (
            [[("car", ">=", 1)]],
            [[("person", ">=", 1)]],
            [[("car", ">=", 2), ("person", ">=", 2)]],
            [[("truck", ">=", 1), ("bus", ">=", 1)], [("car", "<=", 4)]],
        )
    )
    churn = _churn_queries([(window, duration)], queries, churn_ops)
    rng.shuffle(queries)
    return Workload(
        name="dense_scene",
        session_kwargs={"backend": "inline", "method": "SSG"},
        oracle_kwargs={"backend": "router", "method": "SSG"},
        queries=queries,
        churn_queries=churn,
        steady=steady,
        ordered=steady,
        tail=tail,
        generate_s=generate_s,
    )


def build(name: str, seed: int, size: float = 1.0) -> Workload:
    """Generate one workload's inputs; the same seed gives the same bytes.

    ``size`` < 1 shrinks feeds and query counts for the fast tests; the
    benchmark itself always runs at 1.
    """
    # A string seed: tuples hash through PYTHONHASHSEED, strings do not.
    rng = random.Random(f"stackbench/{name}/{seed}")
    churn_ops = 32 if size >= 1.0 else 3

    def scaled(value: int, floor: int) -> int:
        return max(floor, int(value * size))

    if name == "dense_scene":
        return _dense_scene(rng, size, churn_ops)
    if name == "query_fanout":
        groups = ((30, 20), (60, 40), (90, 60))
        return _feeds_workload(
            name, rng, seed,
            num_feeds=2, frames=scaled(400, 40), universe=12,
            groups=groups,
            queries=_selective_queries(groups, scaled(100, 3)),
            churn_ops=churn_ops, jitter=0,
            session_kwargs={"backend": "inline", "method": "SSG"},
            oracle_kwargs={"backend": "router", "method": "SSG"},
        )
    groups = ((30, 20), (60, 40))
    if name == "multicam_pool":
        return _feeds_workload(
            name, rng, seed,
            num_feeds=8, frames=scaled(400, 30), universe=16,
            groups=groups,
            # 16 queries, not the 8 first specified: what the pool adds to a
            # frame is mostly the matches it ships back from the workers, and
            # with 8 queries `core` still outweighed it.
            queries=multi_window_workload(groups, 8, seed=SCENARIO_SEED),
            churn_ops=churn_ops, jitter=4,
            session_kwargs={
                "backend": "pool", "method": "SSG", "watermark": 4,
                "num_workers": 2, "dispatch_batch": 32, "checkpoint_every": 8,
            },
            oracle_kwargs={"backend": "inline", "method": "SSG"},
        )
    if name == "gateway_open_loop":
        workload = _feeds_workload(
            name, rng, seed,
            num_feeds=4, frames=scaled(300, 40), universe=12,
            groups=groups,
            queries=multi_window_workload(groups, 4, seed=SCENARIO_SEED),
            churn_ops=churn_ops, jitter=0,
            # The gateway turns label projection off (tenants share window
            # groups); the oracle must evaluate the same way.
            session_kwargs={
                "backend": "router", "method": "SSG", "restrict_labels": False,
            },
            oracle_kwargs={
                "backend": "inline", "method": "SSG", "restrict_labels": False,
            },
        )
        workload.rate, workload.rate_lo = 1000.0, 250.0
        return workload
    raise ValueError(f"unknown workload {name!r}")
