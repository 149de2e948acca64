"""Streaming runtime benchmark: StreamRouter vs sequential single-engine runs.

Simulates ``N`` camera feeds answering one mixed query workload whose queries
span several ``(window, duration)`` groups and compares two ways of serving
it, writing a ``BENCH_streaming.json`` report:

* **baseline** — the workflow without the router: every query runs in its own
  engine over every feed, sequentially.  This is what
  :class:`~repro.engine.config.EngineConfig`'s "queries with differing
  windows should be run in separate engine instances" caveat leaves a user
  with, since grouping by hand is exactly what the router automates;
* **router** — one :class:`~repro.streaming.router.StreamRouter` ingesting
  the interleaved feeds.  Queries sharing a window group also share one MCOS
  generation pass per stream, so the state-maintenance work drops from one
  pass per (feed, query) to one per (feed, group).

Both sides answer the same workload over the same frames and are verified to
produce identical matches before any number is reported.  Label projection
(``restrict_labels``) is disabled on every configuration: a single-query
engine would otherwise project frames onto *its* query's classes while a
grouped engine projects onto the group union, making per-query answers
legitimately differ — with projection off, per-query matches are invariant
to grouping and the verification is exact.  (The simulated feeds only emit
the four classes the workload queries anyway, so projection would be a
no-op here.)  The headline
``aggregate_frames_per_sec`` is *source* frames served per second — feeds
times frames per feed, divided by wall seconds — i.e. how fast each
architecture drains the same fleet of camera feeds.

A ``grouped_baseline`` (one engine per (feed, group), sequential, no router
machinery) is reported as well: it isolates how much of the win is the
auto-grouping (all of it) versus router overhead (batching and the reorder
buffer cost a few percent, which the comparison makes visible).
"""

from __future__ import annotations

import json
import os
import time
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.config import EngineConfig, MCOSMethod
from repro.engine.engine import TemporalVideoQueryEngine
from repro.streaming.faultinject import Fault, FaultPlan
from repro.streaming.pool import ShardWorkerPool, deterministic_stats, match_report
from repro.streaming.supervision import SupervisionConfig
from repro.streaming.router import StreamRouter, group_queries_by_window
from repro.workloads.streams import (
    bench_scenario,
    drifting_hotspot_scenario,
    interleave_drifting,
    interleave_feeds,
    interleave_skewed,
    skewed_scenario,
)

#: Window groups of the default workload (scaled paper-style parameters).
DEFAULT_GROUPS: Sequence[Tuple[int, int]] = ((24, 16), (36, 24), (48, 32))

#: Queries per window group in the default workload.
DEFAULT_QUERIES_PER_GROUP = 4

#: Simulated camera feeds (the acceptance configuration).
DEFAULT_FEEDS = 8

#: Frames per simulated feed.
DEFAULT_FRAMES = 400


def _timed_per_query_baseline(feeds, queries, method):
    """One engine per (feed, query), sequential: matches by slot + seconds."""
    matches: Dict[Tuple[str, int], List] = {}
    start = time.perf_counter()
    for stream_id, relation in feeds.items():
        for query in queries:
            engine = TemporalVideoQueryEngine(
                [query],
                EngineConfig(
                    method=method,
                    window_size=query.window,
                    duration=query.duration,
                    restrict_labels=False,
                ),
            )
            matches[(stream_id, query.query_id)] = engine.run(relation).matches
    return matches, time.perf_counter() - start


def _timed_grouped_baseline(feeds, grouped, method):
    """One engine per (feed, window group), sequential: per-stream matches."""
    matches: Dict[str, List] = {stream_id: [] for stream_id in feeds}
    start = time.perf_counter()
    for stream_id, relation in feeds.items():
        for (window, duration), group_queries in grouped.items():
            engine = TemporalVideoQueryEngine(
                group_queries,
                EngineConfig(
                    method=method,
                    window_size=window,
                    duration=duration,
                    restrict_labels=False,
                ),
            )
            matches[stream_id].extend(engine.run(relation).matches)
    return matches, time.perf_counter() - start


def run_streaming_benchmark(
    num_feeds: int = DEFAULT_FEEDS,
    frames_per_feed: int = DEFAULT_FRAMES,
    groups: Sequence[Tuple[int, int]] = DEFAULT_GROUPS,
    queries_per_group: int = DEFAULT_QUERIES_PER_GROUP,
    method: MCOSMethod = MCOSMethod.SSG,
    batch_size: int = 16,
    seed: int = 7,
    output_path: Optional[str] = "BENCH_streaming.json",
) -> Dict:
    """Run the comparison and return (and optionally write) the report."""
    if num_feeds <= 0 or frames_per_feed <= 0:
        raise ValueError(
            f"num_feeds and frames_per_feed must be positive, got "
            f"{num_feeds} and {frames_per_feed}"
        )
    feeds, queries = bench_scenario(
        num_feeds, frames_per_feed, groups, queries_per_group, seed
    )
    total_frames = sum(relation.num_frames for relation in feeds.values())

    # --- baseline: one engine per (feed, query), sequential ---------------
    baseline_matches, baseline_seconds = _timed_per_query_baseline(
        feeds, queries, method
    )

    # --- grouped baseline: one engine per (feed, window group) ------------
    grouped = group_queries_by_window(queries)
    grouped_matches, grouped_seconds = _timed_grouped_baseline(
        feeds, grouped, method
    )

    # --- router: auto-grouped shards over the interleaved feeds -----------
    router = StreamRouter(
        queries, method=method, batch_size=batch_size, restrict_labels=False
    )
    events = list(interleave_feeds(feeds))
    start = time.perf_counter()
    router.route_many(events)
    router.flush()
    router_seconds = time.perf_counter() - start

    _verify_equivalence(router, feeds, baseline_matches, grouped_matches)

    def throughput(seconds: float) -> float:
        return round(total_frames / seconds, 2) if seconds else 0.0

    router_stats = router.stats()
    report: Dict = {
        "benchmark": "streaming",
        "method": method.value,
        "feeds": num_feeds,
        "frames_per_feed": frames_per_feed,
        "total_source_frames": total_frames,
        "queries": len(queries),
        "window_groups": len(grouped),
        "batch_size": batch_size,
        "seed": seed,
        "baseline": {
            "description": "one engine per (feed, query), sequential",
            "engine_runs": num_feeds * len(queries),
            "seconds": round(baseline_seconds, 5),
            "aggregate_frames_per_sec": throughput(baseline_seconds),
        },
        "grouped_baseline": {
            "description": "one engine per (feed, window group), sequential",
            "engine_runs": num_feeds * len(grouped),
            "seconds": round(grouped_seconds, 5),
            "aggregate_frames_per_sec": throughput(grouped_seconds),
        },
        "router": {
            "description": "StreamRouter, auto-grouped per-(stream, group) shards",
            "shards": router_stats["shards"],
            "seconds": round(router_seconds, 5),
            "aggregate_frames_per_sec": throughput(router_seconds),
            "ingest_totals": router_stats["totals"],
        },
        "speedup_vs_baseline": round(baseline_seconds / router_seconds, 2)
        if router_seconds else 0.0,
        "speedup_vs_grouped_baseline": round(grouped_seconds / router_seconds, 2)
        if router_seconds else 0.0,
        "results_verified_identical": True,
    }

    if output_path:
        with open(output_path, "w") as handle:
            json.dump(report, handle, indent=2)
        report["__written_to__"] = os.path.abspath(output_path)
    return report


def _verify_equivalence(
    router: StreamRouter,
    feeds: Dict,
    baseline_matches: Dict,
    grouped_matches: Dict,
) -> None:
    """Assert all three configurations answered the workload identically.

    Matches are compared per (stream, query) against the dedicated
    single-query engines: both the router's and the grouped baseline's
    matches are split by query id and must equal the per-query engine's
    list.  A silent divergence here would make the speedups meaningless, so
    this raises instead of reporting.
    """
    def split_by_query(matches) -> Dict[int, List]:
        per_query: Dict[int, List] = {
            query.query_id: [] for query in router.queries
        }
        for match in matches:
            per_query[match.query_id].append(match)
        return per_query

    for stream_id in feeds:
        contenders = {
            "router": split_by_query(router.matches_for(stream_id)),
            "grouped baseline": split_by_query(grouped_matches[stream_id]),
        }
        for query in router.queries:
            expected = baseline_matches[(stream_id, query.query_id)]
            for label, per_query in contenders.items():
                actual = per_query[query.query_id]
                if actual != expected:
                    raise AssertionError(
                        f"{label} diverged from the dedicated engine on "
                        f"stream {stream_id!r}, query {query.query_id} "
                        f"({len(actual)} vs {len(expected)} matches)"
                    )


#: Worker processes of the default pool benchmark configuration.
DEFAULT_WORKERS = 4

#: Worker processes of the skew and chaos scenarios.  Their workloads are
#: deliberately small (few feeds, seeded fault plans), so more workers only
#: add process startup overhead; the CLI help documents both defaults.
DEFAULT_SCENARIO_WORKERS = 2


def _available_parallelism() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_pool_benchmark(
    num_feeds: int = DEFAULT_FEEDS,
    frames_per_feed: int = DEFAULT_FRAMES,
    groups: Sequence[Tuple[int, int]] = DEFAULT_GROUPS,
    queries_per_group: int = DEFAULT_QUERIES_PER_GROUP,
    method: MCOSMethod = MCOSMethod.SSG,
    batch_size: int = 16,
    workers: int = DEFAULT_WORKERS,
    dispatch_batch: int = 64,
    checkpoint_every: int = 16,
    seed: int = 7,
    smoke: bool = False,
    output_path: Optional[str] = "BENCH_pool.json",
) -> Dict:
    """Benchmark the multiprocess shard pool against single-process serving.

    Three architectures answer the same 8-feed workload (``--smoke`` shrinks
    it for CI):

    * **sequential** — one engine per (feed, window group), run one after
      another: the no-runtime baseline;
    * **router** — one in-process :class:`StreamRouter` over the interleaved
      feeds (PR 2's architecture);
    * **pool** — a :class:`ShardWorkerPool` with ``workers`` processes over
      the identical event sequence.

    All three are verified to produce identical per-stream, per-query
    matches before any number is reported; the pool's deterministic ingest
    stats must additionally equal the router's byte for byte.  The timed
    window for router and pool is route + flush (every frame fully
    processed, matches retained); worker spawn/hand-off cost is reported
    separately as ``setup_seconds``.  ``cpus`` records the measured
    parallelism available — the pool's speedup over the router is capped by
    it, so a single-CPU machine reports the (honest) overhead-bound number
    while a multi-core one shows the scale-out win.
    """
    if smoke:
        num_feeds = min(num_feeds, 3)
        frames_per_feed = min(frames_per_feed, 120)
        workers = min(workers, 2)
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    feeds, queries = bench_scenario(
        num_feeds, frames_per_feed, groups, queries_per_group, seed
    )
    total_frames = sum(relation.num_frames for relation in feeds.values())
    grouped = group_queries_by_window(queries)
    events = list(interleave_feeds(feeds))

    # --- per-query sequential: one engine per (feed, query) --------------
    # The naive no-runtime deployment (every query its own engine): what a
    # user is left with before the router's auto-grouping, and the fleet-
    # drain cost the pool is ultimately deployed against.
    per_query_baseline, per_query_seconds = _timed_per_query_baseline(
        feeds, queries, method
    )

    # --- sequential: one engine per (feed, window group) ------------------
    sequential_matches, sequential_seconds = _timed_grouped_baseline(
        feeds, grouped, method
    )

    # --- single-process router --------------------------------------------
    router = StreamRouter(
        queries, method=method, batch_size=batch_size, restrict_labels=False
    )
    start = time.perf_counter()
    router.route_many(events)
    router.flush()
    router_seconds = time.perf_counter() - start

    # --- multiprocess pool -------------------------------------------------
    pool_router = StreamRouter(
        queries, method=method, batch_size=batch_size, restrict_labels=False
    )
    pool = ShardWorkerPool(
        pool_router,
        num_workers=workers,
        dispatch_batch=dispatch_batch,
        checkpoint_every=checkpoint_every,
    )
    start = time.perf_counter()
    pool.start()
    setup_seconds = time.perf_counter() - start
    start = time.perf_counter()
    pool.route_many(events)
    pool.flush()
    pool_seconds = time.perf_counter() - start

    # --- verification: all three architectures answered identically -------
    router_reports = {
        stream_id: router.matches_for(stream_id) for stream_id in feeds
    }
    pool_reports = {
        stream_id: pool.matches_for(stream_id) for stream_id in feeds
    }
    if match_report(router_reports) != match_report(pool_reports):
        pool.terminate()
        raise AssertionError(
            "pool matches diverged from the single-process router"
        )
    pool_stats = deterministic_stats(pool.stats())
    router_stats = deterministic_stats(router.stats())
    pool.stop()
    if pool_stats != router_stats:
        raise AssertionError(
            "pool deterministic stats diverged from the single-process router"
        )
    _verify_equivalence(router, feeds, per_query_baseline, sequential_matches)

    def throughput(seconds: float) -> float:
        return round(total_frames / seconds, 2) if seconds else 0.0

    cpus = _available_parallelism()
    report: Dict = {
        "benchmark": "pool",
        "method": method.value,
        "feeds": num_feeds,
        "frames_per_feed": frames_per_feed,
        "total_source_frames": total_frames,
        "queries": len(queries),
        "window_groups": len(grouped),
        "batch_size": batch_size,
        "seed": seed,
        "smoke": smoke,
        "cpus": cpus,
        "sequential_per_query": {
            "description": "one engine per (feed, query), sequential",
            "engine_runs": num_feeds * len(queries),
            "seconds": round(per_query_seconds, 5),
            "aggregate_frames_per_sec": throughput(per_query_seconds),
        },
        "sequential": {
            "description": "one engine per (feed, window group), sequential",
            "engine_runs": num_feeds * len(grouped),
            "seconds": round(sequential_seconds, 5),
            "aggregate_frames_per_sec": throughput(sequential_seconds),
        },
        "router": {
            "description": "single-process StreamRouter",
            "shards": num_feeds * len(grouped),
            "seconds": round(router_seconds, 5),
            "aggregate_frames_per_sec": throughput(router_seconds),
        },
        "pool": {
            "description": f"ShardWorkerPool, {workers} worker processes",
            "workers": workers,
            "dispatch_batch": dispatch_batch,
            "checkpoint_every": checkpoint_every,
            "setup_seconds": round(setup_seconds, 5),
            "seconds": round(pool_seconds, 5),
            "aggregate_frames_per_sec": throughput(pool_seconds),
        },
        "speedup_vs_router": round(router_seconds / pool_seconds, 2)
        if pool_seconds else 0.0,
        "speedup_vs_sequential": round(sequential_seconds / pool_seconds, 2)
        if pool_seconds else 0.0,
        "speedup_vs_sequential_per_query": round(
            per_query_seconds / pool_seconds, 2
        ) if pool_seconds else 0.0,
        "results_verified_identical": True,
    }
    if cpus < 2:
        report["note"] = (
            f"measured on {cpus} available CPU(s): worker processes "
            "time-share one core, so the speedup over the in-process router "
            "is bounded by ~1.0x here; the scale-out target (>=1.8x with "
            f"{workers} workers) requires at least 2 free cores"
        )

    if output_path:
        report["__written_to__"] = _write_pool_bench_json(output_path, report)
    return report


#: Named-scenario blocks that live inside ``BENCH_pool.json`` alongside the
#: throughput report.  Every scenario writer and the carry-over logic in
#: :func:`_write_pool_bench_json` share this one list, so adding a scenario
#: cannot silently lose another's recording.
POOL_SCENARIO_KEYS: Sequence[str] = ("skew", "chaos", "drift")


def _write_pool_bench_json(
    output_path: str, report: Dict, scenario_key: Optional[str] = None
) -> str:
    """Write one scenario's report into the shared ``BENCH_pool.json``.

    The throughput and named scenarios share the file: the throughput run
    owns the top-level keys (``scenario_key=None``) and carries over every
    recorded block named in :data:`POOL_SCENARIO_KEYS`; a named scenario
    replaces only its own block and leaves the rest of the document
    untouched.  One merge implementation for every writer, so a rerun of
    either scenario never discards the other's recording.
    """
    if scenario_key is not None and scenario_key not in POOL_SCENARIO_KEYS:
        raise ValueError(
            f"unregistered pool bench scenario {scenario_key!r}; add it to "
            "POOL_SCENARIO_KEYS so throughput reruns preserve its block"
        )
    existing: Optional[Dict] = None
    if os.path.exists(output_path):
        try:
            with open(output_path) as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict):
                existing = loaded
        except (OSError, ValueError) as exc:
            # Carrying nothing over from an unreadable file is the only
            # option, but it must not be silent — the other scenario's
            # recording is about to be lost.
            warnings.warn(
                f"existing {output_path} could not be read ({exc!r}); "
                "rewriting it without carried-over scenario blocks",
                RuntimeWarning,
                stacklevel=2,
            )
    if scenario_key is None:
        # Shallow copy: carried-over blocks belong to the file, not to the
        # caller's freshly produced report object.
        document = dict(report)
        if existing is not None:
            for key in POOL_SCENARIO_KEYS:
                if key in existing:
                    document.setdefault(key, existing[key])
    else:
        document = existing if existing is not None else {"benchmark": "pool"}
        document[scenario_key] = report
    with open(output_path, "w") as handle:
        json.dump(document, handle, indent=2)
    return os.path.abspath(output_path)


#: Window groups of the skew scenario (two groups keep it light — the
#: interesting axis is placement, not workload width).
SKEW_GROUPS: Sequence[Tuple[int, int]] = ((24, 16), (36, 24))


def _load_imbalance(
    frames_per_worker: Sequence[int], ndigits: Optional[int] = 4
) -> float:
    """Max/mean ratio of per-worker offered load (1.0 = perfectly even).

    ``ndigits=None`` returns the exact ratio — the improvement assertions
    compare unrounded values so a genuine sub-rounding-step improvement is
    never misread as a tie; reports carry the rounded form.
    """
    if not frames_per_worker:
        return 0.0
    mean = sum(frames_per_worker) / len(frames_per_worker)
    if not mean:
        return 0.0
    ratio = max(frames_per_worker) / mean
    return ratio if ndigits is None else round(ratio, ndigits)


def run_skew_benchmark(
    num_feeds: int = 6,
    frames_per_feed: int = 150,
    hot_factor: int = 4,
    groups: Sequence[Tuple[int, int]] = SKEW_GROUPS,
    queries_per_group: int = 2,
    method: MCOSMethod = MCOSMethod.SSG,
    batch_size: int = 16,
    workers: int = DEFAULT_SCENARIO_WORKERS,
    dispatch_batch: int = 32,
    checkpoint_every: int = 16,
    seed: int = 7,
    smoke: bool = False,
    output_path: Optional[str] = "BENCH_pool.json",
) -> Dict:
    """The skewed-load placement scenario (``--bench pool --scenario skew``).

    One hot camera feed runs ``hot_factor``× the frame rate of its
    siblings, and siblings come online staggered — the regime round-robin
    stream→worker placement handles worst, because every second newcomer
    lands next to the hot stream.  Three pool configurations serve the
    identical event sequence:

    * **round-robin** — the deterministic default placement;
    * **least-loaded** — newcomers land on the least-loaded worker;
    * **round-robin + rebalance** — round-robin placement for the first
      half of the stream, then a live :meth:`ShardWorkerPool.rebalance`
      (migrating streams between workers mid-flight), then the second half.

    The reported ``imbalance`` is max/mean of per-worker *offered load*
    (frames routed to each worker — the time-integral of the queue pressure
    a worker is put under; instantaneous queue depths are scheduling noise
    on a shared machine, offered load is a pure function of placement).
    For the rebalance run it is reported separately for the halves before
    and after the migration point.  Every configuration's matches are
    verified byte-identical to the single-process router oracle, and the
    oracle itself is verified against dedicated sequential per-query
    engines — placement never buys a single changed byte.
    """
    if smoke:
        num_feeds = min(num_feeds, 4)
        frames_per_feed = min(frames_per_feed, 60)
        workers = min(workers, 2)
    if workers < 2:
        raise ValueError(
            f"the skew scenario needs at least 2 workers, got {workers}"
        )
    if workers >= num_feeds:
        # With a worker per stream there is no placement contention: every
        # policy produces the same (trivial) layout and the improvement
        # assertions below could not hold.  Fail with a clear message
        # instead of a mid-run AssertionError.
        raise ValueError(
            f"the skew scenario needs more feeds than workers to create "
            f"placement contention, got {num_feeds} feeds for {workers} "
            "workers"
        )
    feeds, queries, hot_stream = skewed_scenario(
        num_feeds, frames_per_feed, groups, queries_per_group, seed,
        hot_factor=hot_factor,
    )
    events = interleave_skewed(feeds, hot_stream, hot_factor)
    total_frames = sum(relation.num_frames for relation in feeds.values())

    # --- oracle: single-process router + sequential-engine verification ---
    router = StreamRouter(
        queries, method=method, batch_size=batch_size, restrict_labels=False
    )
    router.route_many(events)
    router.flush()
    per_query_baseline, _ = _timed_per_query_baseline(feeds, queries, method)
    grouped = group_queries_by_window(queries)
    grouped_matches, _ = _timed_grouped_baseline(feeds, grouped, method)
    _verify_equivalence(router, feeds, per_query_baseline, grouped_matches)
    oracle_report = match_report(
        {sid: router.matches_for(sid) for sid in router.stream_ids()}
    )

    def run_pool(placement: str, rebalance_at: Optional[int] = None) -> Dict:
        pool = ShardWorkerPool(
            StreamRouter(
                queries, method=method, batch_size=batch_size,
                restrict_labels=False,
            ),
            num_workers=workers,
            dispatch_batch=dispatch_batch,
            checkpoint_every=checkpoint_every,
            placement=placement,
        )
        pool.start()
        try:
            start = time.perf_counter()
            if rebalance_at is None:
                pool.route_many(events)
                pool.flush()
                seconds = time.perf_counter() - start
                entry: Dict = {
                    "placement": placement,
                    "frames_per_worker": [
                        load["frames"] for load in pool.worker_loads()
                    ],
                }
                entry["imbalance"] = _load_imbalance(entry["frames_per_worker"])
            else:
                pool.route_many(events[:rebalance_at])
                before = [load["frames"] for load in pool.worker_loads()]
                plan = pool.rebalance(policy="least-loaded")
                # Migration moves a stream's load history to its new owner;
                # re-baseline after the re-pack so the "after" phase
                # measures only frames offered under the new placement.
                rebased = [load["frames"] for load in pool.worker_loads()]
                pool.route_many(events[rebalance_at:])
                pool.flush()
                seconds = time.perf_counter() - start
                total = [load["frames"] for load in pool.worker_loads()]
                after = [t - b for t, b in zip(total, rebased)]
                entry = {
                    "placement": f"{placement} + live rebalance",
                    "migrations": len(plan),
                    "frames_per_worker_before": before,
                    "frames_per_worker_after": after,
                    "imbalance_before": _load_imbalance(before),
                    "imbalance_after": _load_imbalance(after),
                }
            entry["seconds"] = round(seconds, 5)
            actual = match_report(
                {sid: pool.matches_for(sid) for sid in pool.stream_ids()}
            )
            if actual != oracle_report:
                raise AssertionError(
                    f"pool matches under {entry['placement']} placement "
                    "diverged from the single-process router"
                )
        except BaseException:
            pool.terminate()
            raise
        pool.stop()
        return entry

    round_robin = run_pool("round-robin")
    least_loaded = run_pool("least-loaded")
    rebalanced = run_pool("round-robin", rebalance_at=len(events) // 2)

    # Assert on the exact (unrounded) ratios, recomputed from the recorded
    # per-worker loads — rounding must never turn a real improvement into
    # an apparent tie.
    if _load_imbalance(least_loaded["frames_per_worker"], ndigits=None) >= \
            _load_imbalance(round_robin["frames_per_worker"], ndigits=None):
        raise AssertionError(
            "least-loaded placement did not reduce the load imbalance "
            f"({least_loaded['imbalance']} vs round-robin "
            f"{round_robin['imbalance']})"
        )
    if _load_imbalance(
        rebalanced["frames_per_worker_after"], ndigits=None
    ) >= _load_imbalance(
        rebalanced["frames_per_worker_before"], ndigits=None
    ):
        raise AssertionError(
            "live rebalancing did not reduce the load imbalance "
            f"({rebalanced['imbalance_before']} -> "
            f"{rebalanced['imbalance_after']})"
        )

    skew_report: Dict = {
        "scenario": "skew",
        "method": method.value,
        "feeds": num_feeds,
        "frames_per_feed": frames_per_feed,
        "hot_stream": hot_stream,
        "hot_factor": hot_factor,
        "total_source_frames": total_frames,
        "queries": len(queries),
        "workers": workers,
        "seed": seed,
        "smoke": smoke,
        "cpus": _available_parallelism(),
        "round_robin": round_robin,
        "least_loaded": least_loaded,
        "rebalanced": rebalanced,
        "results_verified_identical": True,
    }

    if output_path:
        skew_report["__written_to__"] = _write_pool_bench_json(
            output_path, skew_report, scenario_key="skew"
        )
    return skew_report


def render_skew_report(report: Dict) -> str:
    """Plain-text table of the skewed-load placement report."""
    lines = [
        f"pool skew benchmark  method={report['method']}  "
        f"feeds={report['feeds']} (hot x{report['hot_factor']})  "
        f"workers={report['workers']}  cpus={report['cpus']}",
        f"{'placement':34s} {'imbalance (max/mean load)':>26s}",
        f"{'round-robin':34s} {report['round_robin']['imbalance']:26.4f}",
        f"{'least-loaded':34s} {report['least_loaded']['imbalance']:26.4f}",
        f"{'round-robin + live rebalance':34s} "
        f"{report['rebalanced']['imbalance_before']:13.4f} -> "
        f"{report['rebalanced']['imbalance_after']:.4f} "
        f"({report['rebalanced']['migrations']} migrations)",
        "matches byte-identical to the sequential baseline on every run",
    ]
    return "\n".join(lines)


#: Window groups of the chaos scenario (two groups keep the workload light —
#: the interesting axis is failure handling, not workload width).
CHAOS_GROUPS: Sequence[Tuple[int, int]] = ((24, 16), (36, 24))


def run_chaos_benchmark(
    num_feeds: int = 6,
    frames_per_feed: int = 150,
    groups: Sequence[Tuple[int, int]] = CHAOS_GROUPS,
    queries_per_group: int = 2,
    method: MCOSMethod = MCOSMethod.SSG,
    batch_size: int = 16,
    workers: int = DEFAULT_SCENARIO_WORKERS,
    dispatch_batch: int = 16,
    checkpoint_every: int = 8,
    seed: int = 7,
    smoke: bool = False,
    output_path: Optional[str] = "BENCH_pool.json",
) -> Dict:
    """The fault-recovery scenario (``--bench pool --scenario chaos``).

    Exercises the pool's supervision layer end to end and records what
    failures *cost*, against the same oracle discipline every other pool
    scenario uses (nothing is reported before the results are verified
    byte-identical).  Three runs over the identical event sequence:

    * **fault_free** — the pool with no plan installed: the throughput
      baseline the fault runs are compared against;
    * **recovery** — a seeded :class:`~repro.streaming.faultinject.FaultPlan`
      mixing every recoverable kind (SIGKILL mid-operation, a hang the
      watchdog must escalate, slow consumption, a swallowed ack, a
      checkpoint-write failure).  The pool must recover on its own and the
      final matches must be byte-identical to the fault-free oracle;
      recovery latency comes from the supervision ledger
      (``stats()["pool"]["supervision"]["recovery"]``);
    * **degraded** — a deterministic poison *frame* kills its worker on
      every replay (``fires=0``) with quarantine disabled, so the worker
      exhausts its restart budget and — under ``on_irrecoverable="park"``
      — its streams are parked.  Throughput *while degraded* is recorded,
      the surviving streams are verified byte-identical to the oracle, and
      a final :meth:`~repro.streaming.pool.ShardWorkerPool.repair` with
      the plan uninstalled must bring the parked streams back to the full
      byte-identical report.
    """
    if smoke:
        num_feeds = min(num_feeds, 4)
        frames_per_feed = min(frames_per_feed, 60)
        workers = min(workers, 2)
    if workers < 2:
        raise ValueError(
            f"the chaos scenario needs at least 2 workers, got {workers}"
        )
    feeds, queries = bench_scenario(
        num_feeds, frames_per_feed, groups, queries_per_group, seed
    )
    events = list(interleave_feeds(feeds))
    total_frames = sum(relation.num_frames for relation in feeds.values())

    # --- oracle: the fault-free single-process router ---------------------
    router = StreamRouter(
        queries, method=method, batch_size=batch_size, restrict_labels=False
    )
    router.route_many(events)
    router.flush()
    oracle_reports = {
        sid: match_report({sid: router.matches_for(sid)})
        for sid in router.stream_ids()
    }
    oracle_report = match_report(
        {sid: router.matches_for(sid) for sid in router.stream_ids()}
    )

    # Tight supervision so the hang fault resolves in benchmark time; the
    # knobs themselves are part of the recorded scenario.
    supervision = SupervisionConfig(
        heartbeat_interval=0.05,
        slow_after=0.25,
        hang_after=1.0,
        escalation_timeout=5.0,
        backoff_base=0.01,
        backoff_cap=0.05,
        seed=seed,
    )

    def make_pool(on_irrecoverable: str = "raise", max_restarts: int = 3,
                  poison_threshold: Optional[int] = 2) -> ShardWorkerPool:
        knobs = supervision.to_dict()
        knobs["poison_threshold"] = poison_threshold
        return ShardWorkerPool(
            StreamRouter(
                queries, method=method, batch_size=batch_size,
                restrict_labels=False,
            ),
            num_workers=workers,
            dispatch_batch=dispatch_batch,
            checkpoint_every=checkpoint_every,
            max_restarts=max_restarts,
            supervision=knobs,
            on_irrecoverable=on_irrecoverable,
        )

    def timed_run(pool: ShardWorkerPool) -> float:
        start = time.perf_counter()
        pool.route_many(events)
        pool.flush()
        return time.perf_counter() - start

    def pool_report(pool: ShardWorkerPool) -> Dict:
        return match_report(
            {sid: pool.matches_for(sid) for sid in pool.stream_ids()}
        )

    def throughput(seconds: float) -> float:
        return round(total_frames / seconds, 2) if seconds else 0.0

    # --- fault-free pool: the throughput baseline -------------------------
    pool = make_pool()
    pool.start()
    try:
        baseline_seconds = timed_run(pool)
        if pool_report(pool) != oracle_report:
            raise AssertionError(
                "fault-free pool diverged from the router oracle"
            )
    except BaseException:
        pool.terminate()
        raise
    pool.stop()
    fault_free = {
        "seconds": round(baseline_seconds, 5),
        "aggregate_frames_per_sec": throughput(baseline_seconds),
    }

    # --- recovery: every recoverable fault kind, one seeded plan ----------
    plan = FaultPlan([
        Fault("sigkill", 0, after_ops=3),
        Fault("slow", 1, after_ops=2, delay=0.05, fires=2),
        Fault("stall", 0, after_ops=6),
        Fault("ckpt-fail", 1),
        Fault("hang", 1, after_ops=8),
    ], seed=seed)
    pool = make_pool()
    try:
        with plan.install():
            pool.start()
            recovery_seconds = timed_run(pool)
        if pool_report(pool) != oracle_report:
            raise AssertionError(
                "pool results diverged from the oracle after fault recovery"
            )
        stats = pool.stats()["pool"]
    except BaseException:
        pool.terminate()
        raise
    pool.stop()
    ledger = stats["supervision"]
    recovery = {
        "plan": [fault.to_dict() for fault in plan.faults],
        "faults_fired": sum(plan.fire_counts().values()),
        "seconds": round(recovery_seconds, 5),
        "aggregate_frames_per_sec": throughput(recovery_seconds),
        "slowdown_vs_fault_free": round(
            recovery_seconds / baseline_seconds, 2
        ) if baseline_seconds else 0.0,
        "restarts": stats["restarts"],
        "hang_escalations": sum(
            view["escalations"] for view in ledger["workers"]
        ),
        "checkpoint_failures": ledger["checkpoint_failures"],
        "backoff_seconds_total": ledger["backoff_seconds_total"],
        "recovery_latency": ledger["recovery"],
        "results_verified_identical": True,
    }
    if recovery["restarts"] < 1:
        raise AssertionError("the recovery plan caused no worker restart")

    # --- degraded mode: a poison frame parks its worker -------------------
    # The poison input: a frame of the first stream (worker 0 under
    # round-robin placement) that SIGKILLs the worker on every replay —
    # quarantine disabled, so the restart budget runs out and the worker's
    # streams are parked while the rest keep serving.
    poison_stream = next(iter(feeds))
    poison = FaultPlan([
        Fault(
            "sigkill", 0,
            frame=(poison_stream, frames_per_feed // 2),
            fires=0,
        ),
    ], seed=seed)
    pool = make_pool(
        on_irrecoverable="park", max_restarts=1, poison_threshold=None
    )
    try:
        with poison.install():
            pool.start()
            degraded_seconds = timed_run(pool)
        if not pool.degraded:
            raise AssertionError(
                "the poison plan did not drive the pool into degraded mode"
            )
        parked = pool.parked_streams()
        healthy = [
            sid for sid in pool.stream_ids() if sid not in parked
        ]
        if not healthy:
            raise AssertionError("degraded mode parked every stream")
        for sid in healthy:
            if match_report({sid: pool.matches_for(sid)}) != \
                    oracle_reports[sid]:
                raise AssertionError(
                    f"healthy stream {sid!r} diverged from the oracle "
                    "while the pool was degraded"
                )
        # The plan is uninstalled now (the operator cleared the cause):
        # repair respawns the parked worker, replays its journal fault-free
        # and must restore the full byte-identical report.
        repaired = pool.repair()
        pool.flush()
        if pool_report(pool) != oracle_report:
            raise AssertionError(
                "pool results diverged from the oracle after repair"
            )
    except BaseException:
        pool.terminate()
        raise
    pool.stop()
    degraded = {
        "poison_stream": poison_stream,
        "plan": [fault.to_dict() for fault in poison.faults],
        "seconds": round(degraded_seconds, 5),
        "aggregate_frames_per_sec": throughput(degraded_seconds),
        "parked_streams": sorted(parked),
        "parked_records": {sid: dict(parked[sid]) for sid in sorted(parked)},
        "healthy_streams": healthy,
        "healthy_streams_verified_identical": True,
        "repaired_streams": repaired,
        "post_repair_verified_identical": True,
    }

    chaos_report: Dict = {
        "scenario": "chaos",
        "method": method.value,
        "feeds": num_feeds,
        "frames_per_feed": frames_per_feed,
        "total_source_frames": total_frames,
        "queries": len(queries),
        "workers": workers,
        "seed": seed,
        "smoke": smoke,
        "cpus": _available_parallelism(),
        "supervision": supervision.to_dict(),
        "fault_free": fault_free,
        "recovery": recovery,
        "degraded": degraded,
        "results_verified_identical": True,
    }

    if output_path:
        chaos_report["__written_to__"] = _write_pool_bench_json(
            output_path, chaos_report, scenario_key="chaos"
        )
    return chaos_report


#: Window groups of the drift scenario (two groups keep the workload light —
#: the interesting axis is the self-managing trigger, not workload width).
DRIFT_GROUPS: Sequence[Tuple[int, int]] = ((24, 16), (36, 24))


def run_drift_benchmark(
    num_feeds: int = 6,
    frames_per_feed: int = 150,
    hot_factor: int = 4,
    phases: int = 2,
    groups: Sequence[Tuple[int, int]] = DRIFT_GROUPS,
    queries_per_group: int = 2,
    method: MCOSMethod = MCOSMethod.SSG,
    batch_size: int = 16,
    workers: int = DEFAULT_SCENARIO_WORKERS,
    dispatch_batch: int = 32,
    checkpoint_every: int = 16,
    seed: int = 7,
    smoke: bool = False,
    output_path: Optional[str] = "BENCH_pool.json",
) -> Dict:
    """The self-managing-pool scenario (``--bench pool --scenario drift``).

    A *drifting* hotspot — the hot camera feed changes identity mid-run
    (:func:`~repro.workloads.streams.drifting_hotspot_scenario`) — defeats
    any placement decision made at stream arrival: the layout that was
    right for phase 0 is wrong for phase 1.  Three runs over the identical
    event sequence exercise everything the pool can do about it on its
    own:

    * **auto_rebalance** — the pool with autonomous rebalance triggers
      armed (aggressive knobs so drift resolves in benchmark time).  The
      supervisor must fire at least once *by itself* — no caller ever
      invokes ``rebalance()`` — and the report records every trigger:
      what drifted (offered-load vs wall-clock-rate signal), the planned
      migrations, the convergence time (``rebalance_seconds``: flush
      barrier + checkpoint/ship/adopt round trips) and the post-trigger
      imbalance;
    * **shared_memory** — the identical workload dispatched through
      ``multiprocessing.shared_memory`` ring segments, diffed
      byte-identical against the default pickled-queue path;
    * **elastic** — grow from ``workers`` to ``workers + 2`` mid-run (new
      workers adopt via the restore-from-checkpoint path), rebalance onto
      the larger fleet, then shrink back (retiring workers' streams
      migrate to survivors) — all while serving.

    Every run's matches are verified byte-identical to the single-process
    router oracle; self-management never buys a single changed byte.
    """
    if smoke:
        num_feeds = min(num_feeds, 4)
        frames_per_feed = min(frames_per_feed, 60)
        workers = min(workers, 2)
    if workers < 2:
        raise ValueError(
            f"the drift scenario needs at least 2 workers, got {workers}"
        )
    if workers >= num_feeds:
        raise ValueError(
            f"the drift scenario needs more feeds than workers to create "
            f"placement contention, got {num_feeds} feeds for {workers} "
            "workers"
        )
    feeds, queries, hot_streams = drifting_hotspot_scenario(
        num_feeds, frames_per_feed, groups, queries_per_group, seed,
        hot_factor=hot_factor, phases=phases,
    )
    events = interleave_drifting(feeds, hot_streams, hot_factor)
    total_frames = sum(relation.num_frames for relation in feeds.values())

    # --- oracle: the single-process router --------------------------------
    router = StreamRouter(
        queries, method=method, batch_size=batch_size, restrict_labels=False
    )
    router.route_many(events)
    router.flush()
    oracle_report = match_report(
        {sid: router.matches_for(sid) for sid in router.stream_ids()}
    )

    def make_pool(**kwargs) -> ShardWorkerPool:
        return ShardWorkerPool(
            StreamRouter(
                queries, method=method, batch_size=batch_size,
                restrict_labels=False,
            ),
            num_workers=workers,
            dispatch_batch=dispatch_batch,
            checkpoint_every=checkpoint_every,
            **kwargs,
        )

    def verify(pool: ShardWorkerPool, label: str) -> None:
        actual = match_report(
            {sid: pool.matches_for(sid) for sid in pool.stream_ids()}
        )
        if actual != oracle_report:
            raise AssertionError(
                f"{label} pool matches diverged from the single-process "
                "router"
            )

    def throughput(seconds: float) -> float:
        return round(total_frames / seconds, 2) if seconds else 0.0

    # Aggressive trigger knobs: the benchmark run lasts fractions of a
    # second, so the production-scale defaults (multi-second windows)
    # would never evaluate.  The knobs are part of the recorded scenario.
    auto_knobs = {
        "watermark": 1.2,
        "interval": 0.005,
        "cooldown": 0.1,
        "min_frames": 32,
        "hysteresis": 1,
        "policy": "least-loaded",
    }

    # --- auto_rebalance: the supervisor fires on its own ------------------
    pool = make_pool(auto_rebalance=auto_knobs)
    pool.start()
    try:
        start = time.perf_counter()
        pool.route_many(events)
        pool.flush()
        auto_seconds = time.perf_counter() - start
        verify(pool, "auto-rebalance")
        stats = pool.stats()["pool"]
        final_loads = [load["frames"] for load in pool.worker_loads()]
    except BaseException:
        pool.terminate()
        raise
    pool.stop()
    ledger = stats["supervision"]["auto_rebalance"]
    if ledger["fired"] < 1:
        raise AssertionError(
            "the drifting hotspot never fired the autonomous rebalance "
            f"trigger ({ledger['evaluations']} drift evaluations, last "
            f"{ledger['last_drift']})"
        )
    auto = {
        "knobs": dict(auto_knobs),
        "seconds": round(auto_seconds, 5),
        "aggregate_frames_per_sec": throughput(auto_seconds),
        "drift_evaluations": ledger["evaluations"],
        "triggers_fired": ledger["fired"],
        "migrations_total": sum(
            event.get("migrations", 0) for event in ledger["events"]
        ),
        "convergence_seconds": [
            event["rebalance_seconds"]
            for event in ledger["events"]
            if "rebalance_seconds" in event
        ],
        "post_trigger_imbalance": [
            event["offered_ratio_after"]
            for event in ledger["events"]
            if "offered_ratio_after" in event
        ],
        "final_imbalance": _load_imbalance(final_loads),
        "events": [dict(event) for event in ledger["events"]],
        "results_verified_identical": True,
    }

    # --- shared_memory: ring-segment dispatch vs the pickled queues -------
    pool = make_pool(shared_memory=True)
    pool.start()
    try:
        start = time.perf_counter()
        pool.route_many(events)
        pool.flush()
        shm_seconds = time.perf_counter() - start
        verify(pool, "shared-memory")
        shm_stats = pool.stats()["pool"]["shared_memory"]
    except BaseException:
        pool.terminate()
        raise
    pool.stop()
    shared = {
        "seconds": round(shm_seconds, 5),
        "aggregate_frames_per_sec": throughput(shm_seconds),
        "enabled": shm_stats["enabled"],
        "dispatches": shm_stats["dispatches"],
        "fallbacks": shm_stats["fallbacks"],
        "results_verified_identical": True,
    }

    # --- elastic: grow mid-run, rebalance onto the larger fleet, shrink ---
    pool = make_pool()
    pool.start()
    try:
        third = len(events) // 3
        start = time.perf_counter()
        pool.route_many(events[:third])
        added = pool.grow(2)
        grow_plan = pool.rebalance(policy="least-loaded")
        pool.route_many(events[third:2 * third])
        retired = pool.shrink(2)
        pool.route_many(events[2 * third:])
        pool.flush()
        elastic_seconds = time.perf_counter() - start
        verify(pool, "elastic")
        elastic_stats = pool.stats()["pool"]["elastic"]
    except BaseException:
        pool.terminate()
        raise
    pool.stop()
    elastic = {
        "seconds": round(elastic_seconds, 5),
        "aggregate_frames_per_sec": throughput(elastic_seconds),
        "grown_workers": added,
        "migrations_onto_grown": len(grow_plan),
        "retired_workers": retired,
        "grown": elastic_stats["grown"],
        "shrunk": elastic_stats["shrunk"],
        "results_verified_identical": True,
    }

    drift_report: Dict = {
        "scenario": "drift",
        "method": method.value,
        "feeds": num_feeds,
        "frames_per_feed": frames_per_feed,
        "hot_streams": list(hot_streams),
        "hot_factor": hot_factor,
        "phases": phases,
        "total_source_frames": total_frames,
        "queries": len(queries),
        "workers": workers,
        "seed": seed,
        "smoke": smoke,
        "cpus": _available_parallelism(),
        "auto_rebalance": auto,
        "shared_memory": shared,
        "elastic": elastic,
        "results_verified_identical": True,
    }

    if output_path:
        drift_report["__written_to__"] = _write_pool_bench_json(
            output_path, drift_report, scenario_key="drift"
        )
    return drift_report


def render_drift_report(report: Dict) -> str:
    """Plain-text table of the drift (self-managing pool) report."""
    auto = report["auto_rebalance"]
    shared = report["shared_memory"]
    elastic = report["elastic"]
    convergence = auto["convergence_seconds"]
    post = auto["post_trigger_imbalance"]
    lines = [
        f"pool drift benchmark  method={report['method']}  "
        f"feeds={report['feeds']} (hot x{report['hot_factor']}, "
        f"{report['phases']} phases: {'->'.join(report['hot_streams'])})  "
        f"workers={report['workers']}  cpus={report['cpus']}",
        f"{'run':24s} {'seconds':>9s} {'frames/s':>10s}",
        f"{'auto-rebalance':24s} {auto['seconds']:9.3f} "
        f"{auto['aggregate_frames_per_sec']:10.1f}",
        f"{'shared-memory dispatch':24s} {shared['seconds']:9.3f} "
        f"{shared['aggregate_frames_per_sec']:10.1f}",
        f"{'elastic grow/shrink':24s} {elastic['seconds']:9.3f} "
        f"{elastic['aggregate_frames_per_sec']:10.1f}",
        f"auto: {auto['triggers_fired']} autonomous trigger(s) over "
        f"{auto['drift_evaluations']} evaluations, "
        f"{auto['migrations_total']} migration(s), convergence "
        f"{convergence}s, post-trigger imbalance {post} "
        f"(final {auto['final_imbalance']})",
        f"shm: {shared['dispatches']} ring dispatch(es), "
        f"{shared['fallbacks']} queue fallback(s)",
        f"elastic: grew {elastic['grown_workers']} "
        f"({elastic['migrations_onto_grown']} migrations onto them), "
        f"retired {elastic['retired_workers']}",
        "matches byte-identical to the single-process oracle on every run",
    ]
    return "\n".join(lines)


def render_chaos_report(report: Dict) -> str:
    """Plain-text table of the chaos (fault-recovery) report."""
    recovery = report["recovery"]
    degraded = report["degraded"]
    latency = recovery["recovery_latency"]
    lines = [
        f"pool chaos benchmark  method={report['method']}  "
        f"feeds={report['feeds']}x{report['frames_per_feed']}f  "
        f"workers={report['workers']}  cpus={report['cpus']}",
        f"{'run':24s} {'seconds':>9s} {'frames/s':>10s}",
        f"{'fault-free':24s} {report['fault_free']['seconds']:9.3f} "
        f"{report['fault_free']['aggregate_frames_per_sec']:10.1f}",
        f"{'recovery (faults live)':24s} {recovery['seconds']:9.3f} "
        f"{recovery['aggregate_frames_per_sec']:10.1f}",
        f"{'degraded (1 worker down)':24s} {degraded['seconds']:9.3f} "
        f"{degraded['aggregate_frames_per_sec']:10.1f}",
        f"recovery: {recovery['restarts']} restart(s), "
        f"{recovery['hang_escalations']} hang escalation(s), "
        f"{recovery['checkpoint_failures']} checkpoint failure(s), "
        f"latency mean {latency['mean_seconds']}s / max "
        f"{latency['max_seconds']}s over {latency['count']} recoveries",
        f"degraded: parked {degraded['parked_streams']} "
        f"(poison {degraded['poison_stream']!r}), healthy streams "
        "byte-identical, repair restored the full report",
    ]
    return "\n".join(lines)


def render_pool_report(report: Dict) -> str:
    """Plain-text table of the pool benchmark report."""
    lines = [
        f"pool benchmark  method={report['method']}  "
        f"feeds={report['feeds']}x{report['frames_per_feed']}f  "
        f"queries={report['queries']} in {report['window_groups']} window groups  "
        f"cpus={report['cpus']}",
        f"{'configuration':34s} {'units':>8s} {'seconds':>9s} {'frames/s':>10s}",
    ]
    for key in ("sequential_per_query", "sequential", "router", "pool"):
        entry = report[key]
        units = entry.get("engine_runs", entry.get("shards", entry.get("workers", 0)))
        lines.append(
            f"{key:34s} {units:8d} {entry['seconds']:9.3f} "
            f"{entry['aggregate_frames_per_sec']:10.1f}"
        )
    lines.append(
        f"pool speedup vs router: {report['speedup_vs_router']}x   "
        f"vs sequential: {report['speedup_vs_sequential']}x   "
        f"vs per-query sequential: {report['speedup_vs_sequential_per_query']}x"
    )
    if "note" in report:
        lines.append(f"note: {report['note']}")
    return "\n".join(lines)


def render_report(report: Dict) -> str:
    """Plain-text table of the benchmark report."""
    lines = [
        f"streaming benchmark  method={report['method']}  "
        f"feeds={report['feeds']}x{report['frames_per_feed']}f  "
        f"queries={report['queries']} in {report['window_groups']} window groups",
        f"{'configuration':34s} {'engines':>8s} {'seconds':>9s} {'frames/s':>10s}",
    ]
    for key in ("baseline", "grouped_baseline", "router"):
        entry = report[key]
        engines = entry.get("engine_runs", entry.get("shards", 0))
        lines.append(
            f"{key:34s} {engines:8d} {entry['seconds']:9.3f} "
            f"{entry['aggregate_frames_per_sec']:10.1f}"
        )
    lines.append(
        f"speedup vs per-query baseline: {report['speedup_vs_baseline']}x   "
        f"vs grouped baseline: {report['speedup_vs_grouped_baseline']}x"
    )
    return "\n".join(lines)
