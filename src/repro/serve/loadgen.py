"""A load-driving client for the gateway, plus its correctness oracle.

The generator stands up N concurrent tenants (one thread and one
:class:`~repro.serve.client.GatewayClient` each), drives every tenant
through a *seeded* workload — queries from
:func:`~repro.workloads.streams.multi_window_workload`, feeds from
:func:`~repro.workloads.streams.simulated_feeds` — and measures:

* sustained request throughput (completed HTTP requests / second);
* ingest throughput (frames accepted / second across all tenants);
* end-to-end match latency (frame POSTed -> match event polled), p50/p95.

Because the workload is seeded, correctness is checkable exactly: a
*direct-session oracle* replays each tenant's workload on a private
:class:`~repro.session.session.Session` (no HTTP, no tenancy) and the
matches the gateway delivered must be **byte-identical** to the oracle's,
per ``(query, stream)``.  Match order across streams depends on pump
timing, but within one ``(query, stream)`` pair both sides are
deterministic — that is the comparison key (the same argument the pool
differential tests make for cross-backend identity).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.client import GatewayClient
from repro.serve.gateway import match_event
from repro.serve.tenants import TenantConfig
from repro.session.session import Session
from repro.workloads.streams import (
    interleave_feeds,
    multi_window_workload,
    simulated_feeds,
)

#: (window, duration) groups the seeded tenant queries are spread over.
DEFAULT_GROUPS: Tuple[Tuple[int, int], ...] = ((30, 20), (60, 40))


class TenantWorkload:
    """One tenant's fully seeded workload: identity, queries, frames."""

    def __init__(
        self,
        name: str,
        api_key: str,
        seed: int,
        *,
        feeds_per_tenant: int = 2,
        frames_per_feed: int = 120,
        queries_per_tenant: int = 4,
        groups: Sequence[Tuple[int, int]] = DEFAULT_GROUPS,
        universe: int = 10,
    ):
        self.name = name
        self.api_key = api_key
        self.seed = seed
        queries = multi_window_workload(
            groups,
            queries_per_group=max(
                1, (queries_per_tenant + len(groups) - 1) // len(groups)
            ),
            seed=seed,
            name=f"{name}-q",
        )
        self.queries = queries[:queries_per_tenant]
        self.feeds = simulated_feeds(
            feeds_per_tenant,
            seed=seed,
            num_frames=frames_per_feed,
            universe=universe,
        )
        #: The ingest order: (stream id, frame) events, round-robin across
        #: feeds, in-order per stream (no jitter — HTTP ingest is ordered).
        self.events = list(interleave_feeds(self.feeds))

    def config(
        self, frames_per_sec: Optional[float] = None
    ) -> TenantConfig:
        return TenantConfig(
            self.name,
            self.api_key,
            max_queries=len(self.queries) + 2,
            max_streams=len(self.feeds) + 2,
            frames_per_sec=frames_per_sec,
        )


def seeded_tenants(
    num_tenants: int,
    seed: int = 0,
    **workload_kwargs,
) -> List[TenantWorkload]:
    """The deterministic tenant fleet of a benchmark run."""
    return [
        TenantWorkload(
            f"tenant-{index:02d}",
            f"key-{index:02d}-{seed}",
            seed=seed * 1000 + index * 17 + 1,
            **workload_kwargs,
        )
        for index in range(num_tenants)
    ]


# ----------------------------------------------------------------------
# The oracle: the same workload, straight through a private session
# ----------------------------------------------------------------------
def direct_oracle(
    workload: TenantWorkload,
    backend: str = "inline",
    **session_kwargs,
) -> Dict[Tuple[int, str], List[Dict]]:
    """What the gateway *must* deliver for this tenant, exactly.

    Replays the tenant's seeded workload on a private session and returns
    the expected wire events keyed by ``(local query id, stream id)`` —
    serialized through the same :func:`~repro.serve.gateway.match_event`
    encoder the gateway uses, so equality is byte-for-byte on the JSON.

    ``restrict_labels`` stays off, mirroring the gateway default (label
    projection would couple the result to co-tenant queries).
    """
    session_kwargs.setdefault("restrict_labels", False)
    session = Session(backend, **session_kwargs)  # repro-lint: disable=CONC-SESSION-DISPATCH -- single-threaded oracle owns this Session exclusively; no dispatcher to race
    try:
        handles = [session.register(query) for query in workload.queries]
        for stream_id, frame in workload.events:
            session.ingest(stream_id, frame)  # repro-lint: disable=CONC-SESSION-DISPATCH -- single-threaded oracle owns this Session exclusively; no dispatcher to race
        session.flush()
        expected: Dict[Tuple[int, str], List[Dict]] = {}
        for local_qid, handle in enumerate(handles):
            for match in handle.take_matches():
                key = (local_qid, match.stream_id)
                expected.setdefault(key, []).append(
                    match_event(local_qid, match.stream_id, match)
                )
        return expected
    finally:
        session.close()  # repro-lint: disable=CONC-SESSION-DISPATCH -- single-threaded oracle owns this Session exclusively; no dispatcher to race


def canonical(events: Dict[Tuple[int, str], List[Dict]]) -> str:
    """A deterministic JSON rendering of per-(query, stream) sequences,
    the unit of the byte-identity comparison."""
    return json.dumps(
        {
            f"{qid}\x00{stream}": sequence
            for (qid, stream), sequence in sorted(events.items())
        },
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# The driver: one thread per tenant
# ----------------------------------------------------------------------
class TenantResult:
    """What one tenant thread measured and collected."""

    def __init__(self, name: str):
        self.name = name
        self.requests = 0
        self.frames_posted = 0
        self.batches_throttled = 0
        #: Seconds from frame POST to its match arriving in a poll.
        self.latencies: List[float] = []
        #: Delivered events keyed like the oracle: (local qid, stream).
        self.delivered: Dict[Tuple[int, str], List[Dict]] = {}
        self.lagged = 0
        self.error: Optional[BaseException] = None

    def record_matches(
        self, local_qid: int, events: List[Dict],
        posted_at: Dict[Tuple[str, int], float], now: float,
    ) -> None:
        for event in events:
            key = (local_qid, event["stream"])
            self.delivered.setdefault(key, []).append(event)
            stamp = posted_at.get((event["stream"], event["frame_id"]))
            if stamp is not None:
                self.latencies.append(now - stamp)


def drive_tenant(
    workload: TenantWorkload,
    host: str,
    port: int,
    result: TenantResult,
    *,
    batch_frames: int = 8,
    poll_every: int = 4,
    retry_throttle: bool = True,
) -> None:
    """Run one tenant's whole workload against a live gateway.

    Registers the queries, streams the frame events in per-stream batches
    of ``batch_frames`` (polling all queries every ``poll_every``
    batches), then flushes and drains every feed.  Populates ``result``;
    exceptions land in ``result.error`` instead of propagating, so one
    failing tenant never deadlocks the run's join.
    """
    posted_at: Dict[Tuple[str, int], float] = {}
    try:
        with GatewayClient(host, port, workload.api_key) as client:
            qids: List[int] = []
            for query in workload.queries:
                qids.append(client.register_query(
                    str(query), window=query.window, duration=query.duration,
                ))
                result.requests += 1

            def poll_all() -> None:
                now = time.monotonic()
                for local_qid in qids:
                    payload = client.poll_matches(local_qid)
                    result.requests += 1
                    result.lagged = max(result.lagged, payload["lagged"])
                    result.record_matches(
                        local_qid, payload["matches"], posted_at, now
                    )

            # Ingest: walk the interleaved event list in slices, group each
            # slice by stream (per-stream order is preserved) and POST one
            # NDJSON batch per stream.
            events = workload.events
            batches_done = 0
            cursor = 0
            slice_size = batch_frames * max(1, len(workload.feeds))
            while cursor < len(events):
                chunk = events[cursor:cursor + slice_size]
                cursor += slice_size
                by_stream: Dict[str, List] = {}
                for stream_id, frame in chunk:
                    by_stream.setdefault(stream_id, []).append(frame)
                for stream_id, frames in by_stream.items():
                    while True:
                        try:
                            stamp = time.monotonic()
                            client.post_frames(stream_id, frames)
                            result.requests += 1
                            result.frames_posted += len(frames)
                            for frame in frames:
                                posted_at[(stream_id, frame.frame_id)] = stamp
                            break
                        except Exception as exc:
                            status = getattr(exc, "status", None)
                            if status == 429 and retry_throttle:
                                result.batches_throttled += 1
                                time.sleep(0.25)
                                continue
                            raise
                batches_done += 1
                if batches_done % poll_every == 0:
                    poll_all()

            # Barrier + final drain: after a flush the feeds hold every
            # remaining match, so one more poll per query empties them.
            client.flush()
            result.requests += 1
            poll_all()
    except BaseException as exc:  # noqa: BLE001 - reported, not swallowed
        result.error = exc


def run_tenants(
    workloads: Sequence[TenantWorkload],
    host: str,
    port: int,
    **drive_kwargs,
) -> Tuple[List[TenantResult], float]:
    """All tenants concurrently; returns (results, wall seconds)."""
    results = [TenantResult(w.name) for w in workloads]
    threads = [
        threading.Thread(
            target=drive_tenant,
            args=(workload, host, port, result),
            kwargs=drive_kwargs,
            name=f"loadgen-{workload.name}",
        )
        for workload, result in zip(workloads, results)
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started
    return results, elapsed


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0 on an empty sample)."""
    if not values:
        return 0.0
    ranked = sorted(values)
    index = min(len(ranked) - 1, max(0, round(fraction * (len(ranked) - 1))))
    return ranked[index]


def summarize(
    results: Sequence[TenantResult], elapsed: float
) -> Dict:
    """Fleet-level metrics of one generator run."""
    latencies = [l for r in results for l in r.latencies]
    requests = sum(r.requests for r in results)
    frames = sum(r.frames_posted for r in results)
    return {
        "tenants": len(results),
        "wall_seconds": elapsed,
        "requests": requests,
        "sustained_qps": requests / elapsed if elapsed > 0 else 0.0,
        "frames_ingested": frames,
        "ingest_frames_per_sec": frames / elapsed if elapsed > 0 else 0.0,
        "batches_throttled": sum(r.batches_throttled for r in results),
        "match_latency": {
            "samples": len(latencies),
            "p50_ms": percentile(latencies, 0.50) * 1000.0,
            "p95_ms": percentile(latencies, 0.95) * 1000.0,
        },
        "lagged": sum(r.lagged for r in results),
        "errors": [
            f"{r.name}: {r.error!r}" for r in results if r.error is not None
        ],
    }
