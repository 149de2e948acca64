"""The gateway workload's load generator: one sender, one subscriber.

The system under test is a :class:`~repro.serve.Gateway` over one
``backend="router"`` session, run in-process by ``GatewayRunner``.  The load
generator is two threads: the caller's thread posts 8-frame NDJSON batches
over one keep-alive connection, and a :class:`Subscriber` thread reads every
steady query's chunked NDJSON match stream (the endpoint is per query, so it
multiplexes one socket per query with ``selectors``).

A leg is either **open loop** — batch *i* is due at a time fixed before the
leg starts, whatever happened to batch *i-1*, latency is timed from the due
time, and the generator's own lateness is reported — or **closed loop**
(``rate=None``: post as fast as acknowledgements return), which alone
measures capacity.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

from repro.datamodel.observation import FrameObservation
from repro.serve import Gateway, GatewayClient, GatewayError, GatewayRunner, TenantConfig, match_event
from repro.session import Session, SessionDispatcher

from stackbench.closed_loop import WallClock
from stackbench.estimator import quantile
from stackbench.inputs import SCENARIO_SEED, SEGMENT, StreamEvent, Workload
from stackbench.speed import SpeedTrack

API_KEY = "stackbench-key"
MatchKey = Tuple[int, str]
Batch = Tuple[str, List[FrameObservation]]


def batches_of(events: Sequence[StreamEvent], batch: int, num_feeds: int) -> List[Batch]:
    """Per-stream batches in arrival order (one POST carries one stream)."""
    out: List[Batch] = []
    step = batch * num_feeds
    for start in range(0, len(events), step):
        by_stream: Dict[str, List[FrameObservation]] = {}
        for stream_id, frame in events[start:start + step]:
            by_stream.setdefault(stream_id, []).append(frame)
        out.extend(by_stream.items())
    return out


@contextlib.contextmanager
def one_core():
    """Run the calling thread, and every thread started meanwhile, on one CPU.

    The service tier is one GIL-bound process: a second core buys it
    nothing, but when the scheduler spreads its threads (event loop,
    dispatcher, sender, subscriber) over both vCPUs every hand-over becomes
    a cross-CPU wake-up and the same work costs twice the CPU time
    (measured: 0.49 s vs 1.1 s per closed-loop leg, flipping between the
    two for tens of seconds at a time).  Pinned, the flip cannot happen.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class Subscriber(threading.Thread):
    """Reads the match streams of ``qids`` until each has sent ``end``."""

    def __init__(self, host: str, port: int, qids: Sequence[int], timeout: float = 30.0):
        super().__init__(name="stackbench-subscriber", daemon=True)
        self._selector = selectors.DefaultSelector()
        self._timeout = timeout
        #: ``(arrival time, event)`` of every match, arrival order.
        self.received: List[Tuple[float, Dict]] = []
        self.lagged = 0
        self.error: Optional[BaseException] = None
        self._open = 0
        socks = []
        for qid in qids:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.sendall(
                f"GET /v1/queries/{qid}/stream HTTP/1.1\r\nHost: {host}\r\n"
                f"X-API-Key: {API_KEY}\r\n\r\n".encode("latin-1")
            )
            socks.append(sock)
        for sock in socks:
            # The response head is written after the server has subscribed
            # the connection to the feed: once it is here, no match published
            # from now on can be missed.
            buffer = bytearray()
            while b"\r\n\r\n" not in buffer:
                data = sock.recv(1 << 16)
                if not data:
                    raise ConnectionError("match stream closed before it started")
                buffer.extend(data)
            self._consume(buffer, time.perf_counter())
            self._selector.register(sock, selectors.EVENT_READ, buffer)
            self._open += 1

    def run(self) -> None:
        try:
            deadline = time.monotonic() + self._timeout
            while self._open:
                ready = self._selector.select(timeout=0.5)
                if not ready and time.monotonic() > deadline:
                    raise TimeoutError("match streams did not end")
                for key, _ in ready:
                    data = key.fileobj.recv(1 << 16)
                    now = time.perf_counter()
                    if not data:
                        raise ConnectionError("match stream closed before its end event")
                    key.data.extend(data)
                    deadline = time.monotonic() + self._timeout
                    if self._consume(key.data, now):
                        self._selector.unregister(key.fileobj)
                        key.fileobj.close()
                        self._open -= 1
        except BaseException as exc:  # surfaced by the caller after join()
            self.error = exc
        finally:
            for key in list(self._selector.get_map().values()):
                key.fileobj.close()
            self._selector.close()

    def _consume(self, buffer: bytearray, now: float) -> bool:
        """Parse complete chunks out of ``buffer``; True once ``end`` came."""
        if buffer.startswith(b"HTTP/"):
            head_end = buffer.find(b"\r\n\r\n")
            if head_end < 0:
                return False
            status = int(bytes(buffer[:head_end]).split(None, 2)[1])
            if status != 200:
                raise GatewayError(status, bytes(buffer[head_end + 4:]).decode("utf-8", "replace"))
            del buffer[:head_end + 4]
        while True:
            line_end = buffer.find(b"\r\n")
            if line_end < 0:
                return False
            size = int(bytes(buffer[:line_end]), 16)
            chunk_end = line_end + 2 + size
            if len(buffer) < chunk_end + 2:
                return False
            event = json.loads(bytes(buffer[line_end + 2:chunk_end])) if size else {"event": "end"}
            del buffer[:chunk_end + 2]
            kind = event.pop("event")
            if kind == "match":
                self.received.append((now, event))
            elif kind == "lagged":
                self.lagged += int(event["dropped"])
            elif kind == "end":
                return True


@dataclass
class LegResult:
    """What one leg against a fresh gateway measured and delivered.

    ``steady_s`` and ``churn`` are in reference-speed seconds (see
    :mod:`stackbench.speed`); latency and lateness are as the clock read them.
    """

    wall: WallClock = field(default_factory=WallClock)
    #: CPU slow-down the probes saw around the leg (1 = reference speed).
    slowdown: float = 1.0
    frames: int = 0
    #: First post (or first due time) → last steady match at the subscriber.
    steady_s: float = 0.0
    #: Per ``(query, stream, frame)``: due time → match at the subscriber.
    latency: Dict[Hashable, float] = field(default_factory=dict)
    #: POST acknowledged → match at the subscriber, per latency key.
    delivery_wait: Dict[Hashable, float] = field(default_factory=dict)
    request_s: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    offered_rate: float = 0.0
    churn: List[float] = field(default_factory=list)
    delivered: Dict[MatchKey, list] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Why the open-loop hygiene check voided the leg ("" when it did not).
    #: The requests of a voided leg were answered, so they are not failed
    #: operations; its latency is not a sample of the schedule and is left
    #: out, and the caller runs another leg in its place.
    aborted: str = ""
    #: What went wrong with each failed operation (for the failure report).
    errors: List[str] = field(default_factory=list)
    counters: Dict = field(default_factory=dict)


def _hygiene(lateness: Sequence[float], backlog: Sequence[int], interval: float) -> str:
    """Why an open-loop leg must be voided, or ``""`` when it is sound."""
    if quantile(lateness, 0.95) > interval:
        return "generator lateness p95 exceeds one batch interval"
    tail = list(backlog[len(backlog) // 2:])
    if tail[-1] > tail[0] + 1 and all(b >= a for a, b in zip(tail, tail[1:])):
        return "backlog grew monotonically over the last half of the leg"
    return ""


@one_core()
def run_leg(
    workload: Workload,
    *,
    rate: Optional[float],
    churn: bool,
    events: Optional[Sequence[StreamEvent]] = None,
) -> LegResult:
    """Start a gateway, drive one leg through it, stop it."""
    # The previous leg's gateway is cyclic garbage: uncollected, it is freed
    # by a 30-40 ms generation-2 collection somewhere inside this leg.
    gc.collect()
    # Probes run between timed operations only: before the first post and
    # after the last match of a closed-loop leg, and between churn ops.
    track = SpeedTrack()
    clock = time.perf_counter
    result = LegResult()
    steady = workload.steady if events is None else events
    num_feeds = len({stream_id for stream_id, _ in steady})
    batches = batches_of(steady, workload.batch, num_feeds)
    gateway = Gateway(
        [TenantConfig("bench", API_KEY, max_queries=1024, max_streams=64)],
        backend=workload.session_kwargs["backend"],
        session_kwargs={
            k: v for k, v in workload.session_kwargs.items() if k != "backend"
        },
        # Bounded delivery drops the oldest event on overflow; size the
        # bounds so a healthy run never lags (lag counts as failure).
        poll_buffer=1 << 17,
        subscriber_queue=1 << 17,
    )
    with GatewayRunner(gateway) as runner, GatewayClient(
        runner.host, runner.port, API_KEY
    ) as client:
        def attempt(call, *args, **kwargs):
            result.attempted += 1
            try:
                return call(*args, **kwargs)
            except (GatewayError, OSError) as exc:
                result.failed += 1
                result.errors.append(f"{getattr(call, '__name__', call)}: {exc!r}")
                return None

        qids = [
            client.register_query(str(q), window=q.window, duration=q.duration)
            for q in workload.queries
        ]
        index_of = {qid: index for index, qid in enumerate(qids)}
        subscriber = Subscriber(runner.host, runner.port, qids)
        subscriber.start()

        # -- steady ----------------------------------------------------
        track.sample(4)
        # ``rate`` is in frames per *reference-speed* second: the schedule
        # stretches with the slow-down just measured, so the offered load
        # stays the same share of what the machine can do right now.  At a
        # rate fixed in real time, a neighbour that slows the CPU 1.3x made a
        # third of the legs trip the hygiene check and 2.5x overloaded the
        # gateway outright (p50 latency 13 ms -> 486 ms).
        interval = workload.batch / rate * track.median_factor() if rate else 0.0
        # Batch i is due at (i + u_i) intervals, u_i in [0, 0.5) drawn from a
        # fixed seed.  On a strict 8 ms grid every due time falls on one of
        # five phases of the gateway's 20 ms delivery sweep, all five set by
        # the one random offset between the two clocks, so a whole leg's
        # latency moved with it (p95 spread 17.6 % between runs); the jitter
        # covers all phases in every leg.
        schedule = random.Random(SCENARIO_SEED)
        offsets = [schedule.random() * 0.5 for _ in batches]
        handed: Dict[Tuple[str, int], float] = {}
        acked: Dict[Tuple[str, int], float] = {}
        backlog: List[int] = []
        start = clock() + 0.02
        for position, (stream_id, frames) in enumerate(batches):
            if rate:
                # Due times come from the fixed start, never from the
                # previous send: a stall delays nothing but itself.
                due = start + (position + offsets[position]) * interval
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                sent = clock()
                result.lateness.append(sent - due)
            else:
                due = sent = clock()
                if position == 0:
                    start = sent
            attempt(client.post_frames, stream_id, frames)
            done = clock()
            result.request_s.append(done - sent)
            for frame in frames:
                handed[(stream_id, frame.frame_id)] = due
                acked[(stream_id, frame.frame_id)] = done
            if rate:
                backlog.append(max(0, int((done - start) / interval) - position))
        posted_s = clock() - start
        attempt(client.flush)
        flushed = clock()
        result.frames = len(steady)
        result.offered_rate = result.frames / posted_s
        if rate:
            result.aborted = _hygiene(result.lateness, backlog, interval)

        # -- churn, then the frame the restored session would see --------
        churn_qids: List[int] = []
        if churn:
            tail = iter(workload.tail)

            def one_frame() -> None:
                stream_id, frame = next(tail)
                attempt(client.post_frames, stream_id, [frame])

            ops: List[Tuple[float, float]] = []
            for query in workload.churn_queries:
                started = clock()
                churn_qids.append(attempt(
                    client.register_query, str(query),
                    window=query.window, duration=query.duration,
                ))
                one_frame()
                ops.append((started, clock()))
                track.sample()
            for qid in churn_qids:
                started = clock()
                attempt(client.cancel_query, qid)
                one_frame()
                ops.append((started, clock()))
                track.sample()
            result.wall.churn = [end - begin for begin, end in ops]
            result.churn = [track.corrected(begin, end) for begin, end in ops]
            one_frame()
            attempt(client.flush)

        # Cancelling a query ends its stream after the last queued match,
        # which is how the subscriber learns it has seen everything.
        for qid in qids:
            attempt(client.cancel_query, qid)
        subscriber.join()
        if subscriber.error is not None:
            raise subscriber.error
        track.sample(4)
        for offset, qid in enumerate(churn_qids, len(qids)):
            polled = attempt(client.poll_matches, qid) or {"matches": [], "lagged": 0}
            if polled["lagged"]:
                result.failed += int(polled["lagged"])
                result.errors.append(f"poll buffer of query {qid} lagged {polled['lagged']}")
            for event in polled["matches"]:
                result.delivered.setdefault(
                    (offset, event["stream"]), []
                ).append(event)
        stats = attempt(client.stats)
        result.counters = dict(stats.payload["gateway"]) if stats else {}

    # The steady phase ends when the flush barrier has answered and the last
    # match it produced has reached the subscriber.
    last_steady = flushed
    for arrived, event in subscriber.received:
        index = index_of[event["query_id"]]
        stream_id, frame_id = event["stream"], event["frame_id"]
        result.delivered.setdefault((index, stream_id), []).append(event)
        due = handed.get((stream_id, frame_id))
        if due is None:
            continue  # completed by a churn-phase frame
        last_steady = max(last_steady, arrived)
        key = (index, stream_id, frame_id)
        if key not in result.latency:
            result.latency[key] = arrived - due
            result.delivery_wait[key] = arrived - acked[(stream_id, frame_id)]
    result.wall.latency = list(result.latency.values())
    result.wall.steady_s = last_steady - start
    result.slowdown = track.median_factor()
    # An open-loop leg is as long as its schedule, whatever the CPU's speed.
    result.steady_s = (last_steady - start) / (1.0 if rate else result.slowdown)
    throttled = int(result.counters.get("throttled", 0))
    if subscriber.lagged or throttled:
        result.failed += subscriber.lagged + throttled
        result.errors.append(f"subscriber lagged {subscriber.lagged}, throttled {throttled}")
    result.counters["lagged"] = subscriber.lagged
    return result


def expected_events(
    workload: Workload, oracle_delivered: Dict[MatchKey, list], counts: Optional[Dict[MatchKey, int]] = None
) -> Dict[MatchKey, list]:
    """The oracle's matches as the wire events the gateway must deliver.

    Gateway query ids are tenant-local and count registrations from zero,
    exactly like the oracle session's, so the registration index is the id.
    ``counts`` cuts every sequence to its steady-phase prefix.
    """
    return {
        (qid, stream_id): [
            match_event(qid, stream_id, match)
            for match in (matches if counts is None else matches[:counts[(qid, stream_id)]])
        ]
        for (qid, stream_id), matches in oracle_delivered.items()
        if counts is None or counts.get((qid, stream_id))
    }


class Snapshot(NamedTuple):
    """The gateway workload's snapshot phase; seconds at reference speed
    first, then as the wall clock read them."""

    checkpoint_s: float
    restore_s: float
    wall_checkpoint_s: float
    wall_restore_s: float
    checkpoint_bytes: int
    attempted: int


@one_core()
def snapshot_through_dispatcher(workload: Workload) -> Snapshot:
    """The snapshot phase of the gateway workload.

    The gateway has no checkpoint endpoint, so the phase runs where the
    gateway would run it: on a ``SessionDispatcher`` owning the same kind of
    session, warmed with the steady events in the same batches.
    """
    gc.collect()  # as in run_leg
    clock = time.perf_counter
    num_feeds = len({stream_id for stream_id, _ in workload.steady})
    last = workload.tail[-1]

    def ingest(batch: Batch):
        stream_id, frames = batch
        return lambda session: [session.ingest(stream_id, f) for f in frames]

    with SessionDispatcher(lambda: Session(**workload.session_kwargs)) as dispatcher:
        handles = dispatcher.call(lambda s: [s.register(q) for q in workload.queries])

        def take(_session):
            # The gateway's delivery sweep: without it every match ever
            # produced stays retained and is written into the checkpoint.
            return [handle.take_matches() for handle in handles]

        batches = batches_of(workload.steady, workload.batch, num_feeds)
        for count, batch in enumerate(batches, 1):
            dispatcher.call(ingest(batch))
            if count % (SEGMENT // workload.batch) == 0:
                dispatcher.call(take)
        dispatcher.call(lambda s: s.flush())
        dispatcher.call(take)
        track = SpeedTrack()
        track.sample(4)
        started = clock()
        blob = dispatcher.call(lambda s: s.checkpoint())
        checkpointed = clock()
        track.sample(4)
        restoring = clock()
        with SessionDispatcher(lambda: Session.restore(blob)) as restored:
            restored.call(lambda s: s.ingest(*last))
            ingested = clock()
            track.sample(4)
    return Snapshot(
        track.corrected(started, checkpointed),
        track.corrected(restoring, ingested),
        checkpointed - started,
        ingested - restoring,
        len(blob),
        len(batches) + 2,
    )
