"""One pass of a workload against a ``Session``, closed loop.

A pass builds a fresh session and runs three phases on it: **steady**
(ingest every event, poll the handles every :data:`SEGMENT` events),
**churn** (register then cancel new queries on the warm session, one frame
between consecutive ops) and **snapshot** (checkpoint, restore, one frame on
the restored session).  The oracle is the same function on another backend
with the clock ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Sequence, Tuple

from repro.session import Session

from stackbench.inputs import SEGMENT, StreamEvent, Workload
from stackbench.speed import SpeedTrack

MatchKey = Tuple[int, str]


@dataclass
class WallClock:
    """One pass's timings as the wall clock read them, uncorrected: what is
    printed beside each metric, never what the estimator works on."""

    steady_s: float = 0.0
    latency: List[float] = field(default_factory=list)
    churn: List[float] = field(default_factory=list)
    checkpoint_s: float = 0.0
    restore_s: float = 0.0


@dataclass
class PassResult:
    """What one pass measured and what it delivered.

    Every duration is in reference-speed seconds (see :mod:`stackbench.speed`)
    except those under ``wall``.
    """

    wall: WallClock = field(default_factory=WallClock)
    #: CPU slow-down the probes saw over the pass (1 = reference speed).
    slowdown: float = 1.0
    #: Seconds of each steady segment (ingests + the poll that ends it).
    segments: List[float] = field(default_factory=list)
    #: Latency by ``(query id, stream id, frame id)``: hand-over of the frame
    #: that completed the match → the poll that returned it.
    latency: Dict[Hashable, float] = field(default_factory=dict)
    #: Seconds of each churn op and the frame that follows it.
    churn: List[float] = field(default_factory=list)
    checkpoint_s: float = 0.0
    restore_s: float = 0.0
    checkpoint_bytes: int = 0
    #: Delivered matches per ``(query id, stream id)``, delivery order.
    delivered: Dict[MatchKey, list] = field(default_factory=dict)
    #: How many of each key's matches the steady phase delivered.
    steady_counts: Dict[MatchKey, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    backend_stats: Dict = field(default_factory=dict)


def backend_failures(backend_stats: Dict) -> int:
    """Late drops and worker restarts reported by a router or pool backend."""
    totals = backend_stats.get("totals", {})
    pool = backend_stats.get("pool", {})
    return int(totals.get("dropped_late", 0)) + int(pool.get("restarts", 0))


def run_pass(
    workload: Workload,
    session_kwargs: Dict,
    events: Sequence[StreamEvent],
    *,
    snapshot: bool = True,
) -> PassResult:
    """Drive one full pass; ``snapshot=False`` is the oracle's variant (the
    snapshot frame goes to the same session, nothing is checkpointed)."""
    # Probes run between timed regions only, and the pass's clock stops
    # while they do.
    track = SpeedTrack()
    clock = track.clock
    result = PassResult()
    delivered = result.delivered
    wall = result.wall
    session = Session(**session_kwargs)
    try:
        handles = [session.register(query) for query in workload.queries]
        #: ``(polled at, segment index, matches)``
        polls: List[Tuple[float, int, list]] = []
        bounds: List[Tuple[float, float]] = []

        def poll(targets) -> None:
            for handle in targets:
                matches = handle.take_matches()
                if matches:
                    polls.append((clock(), len(bounds), matches))

        # -- steady ----------------------------------------------------
        handed: Dict[Tuple[str, int], float] = {}
        track.sample(4)
        mark = clock()
        for count, (stream_id, frame) in enumerate(events, 1):
            handed[(stream_id, frame.frame_id)] = clock()
            session.ingest(stream_id, frame)
            if count % SEGMENT == 0:
                poll(handles)
                bounds.append((mark, clock()))
                track.sample()
                mark = clock()
        session.flush()
        poll(handles)
        bounds.append((mark, clock()))
        track.sample(4)
        factors = [track.factor(start, end) for start, end in bounds]
        result.segments = [
            (end - start) / factor for (start, end), factor in zip(bounds, factors)
        ]
        wall.steady_s = sum(end - start for start, end in bounds)
        for polled_at, segment, matches in polls:
            for match in matches:
                delivered.setdefault(
                    (match.query_id, match.stream_id), []
                ).append(match)
                key = (match.query_id, match.stream_id, match.frame_id)
                if key not in result.latency:
                    waited = polled_at - handed[(match.stream_id, match.frame_id)]
                    wall.latency.append(waited)
                    result.latency[key] = waited / factors[segment]
        result.steady_counts = {key: len(ms) for key, ms in delivered.items()}
        polls.clear()

        # -- churn -----------------------------------------------------
        tail = iter(workload.tail)
        churn_handles = []
        ops: List[Tuple[float, float]] = []
        for query in workload.churn_queries:
            started = clock()
            churn_handles.append(session.register(query))
            session.ingest(*next(tail))
            ops.append((started, clock()))
            track.sample()
        for handle in churn_handles:
            started = clock()
            session.cancel(handle)
            session.ingest(*next(tail))
            ops.append((started, clock()))
            track.sample()
        wall.churn = [end - start for start, end in ops]
        result.churn = [track.corrected(start, end) for start, end in ops]
        session.flush()
        poll(handles + churn_handles)

        # -- snapshot --------------------------------------------------
        last = next(tail)
        if snapshot:
            track.sample(4)
            started = clock()
            blob = session.checkpoint()
            checkpointed = clock()
            track.sample(4)
            wall.checkpoint_s = checkpointed - started
            result.checkpoint_s = track.corrected(started, checkpointed)
            result.checkpoint_bytes = len(blob)
            started = clock()
            restored = Session.restore(blob)
            try:
                restored.ingest(*last)
                ingested = clock()
                track.sample(4)
                wall.restore_s = ingested - started
                result.restore_s = track.corrected(started, ingested)
                restored.flush()
                poll(h for h in restored.handles if h.active)
            finally:
                restored.close()
        else:
            session.ingest(*last)
            session.flush()
            poll(handles)
        for _, _, matches in polls:
            for match in matches:
                delivered.setdefault(
                    (match.query_id, match.stream_id), []
                ).append(match)
        result.backend_stats = session.stats()["backend_stats"]
        result.slowdown = track.median_factor()
    finally:
        session.close()
    result.attempted = (
        len(events) + len(workload.tail) + 2 * len(workload.churn_queries)
        + (2 if snapshot else 0)
    )
    result.failed = backend_failures(result.backend_stats)
    return result


def mismatches(expected: Dict[MatchKey, list], delivered: Dict[MatchKey, list]) -> int:
    """``(query, stream)`` keys whose delivered sequence is not the oracle's.

    Sequences are compared element-wise on every content field of a match
    (its canonical record is a pure function of them), in delivery order.
    """
    return sum(
        1 for key in expected.keys() | delivered.keys()
        if expected.get(key) != delivered.get(key)
    )
