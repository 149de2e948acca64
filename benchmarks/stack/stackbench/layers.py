"""The traced run: the same events through successively taller stacks.

Each *height* replays a workload's steady events through one layer's public
entry points — generator, generator + evaluator, engine, router, worker
pool, session (per backend), dispatcher, gateway — timing every call from
outside and recording it as a span.  A layer's **self time is the difference
between adjacent heights**, so the rows of a workload's waterfall sum to the
time of the tallest height it uses, by construction.

Heights on a workload's own stack replay all of its events; the others (the
contract wants every per-layer metric from every workload) replay the first
quarter, which is enough for a per-frame cost but is never subtracted from
anything.  Rounds of all heights repeat until the time budget is spent and
every per-segment time is the lower quartile over rounds, as in the
end-to-end run.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine import EngineConfig, MCOSMethod, TemporalVideoQueryEngine
from repro.query import QueryEvaluator
from repro.serve import Gateway, GatewayClient, GatewayRunner, TenantConfig
from repro.session import Session, SessionDispatcher
from repro.streaming import ShardWorkerPool, StreamRouter
from repro.streaming.checkpoint import from_bytes, to_bytes

from stackbench import closed_loop, gateway_loop
from stackbench.estimator import KeyedSamples, lower_quartile, quantile
from stackbench.inputs import SEGMENT, StreamEvent, Workload
from stackbench.measure import Setup, rounds
from stackbench.speed import SpeedTrack

METHODS = ("NAIVE", "MFS", "SSG")

#: Per-layer metric name -> unit.  BENCHMARK.json lists exactly these.
PER_LAYER: Dict[str, str] = {
    "datasets.generate_s": "s",
    "datasets.frames": "count",
    "datasets.objects_per_frame_mean": "count",
    **{
        f"core.{m}.{name}": unit
        for m in METHODS
        for name, unit in (
            ("frame_us", "us"),
            ("state_visits_per_frame", "count"),
            ("intersections_per_frame", "count"),
            ("max_live_states", "count"),
            ("py_calls_per_frame", "count"),
        )
    },
    "core.SSG.edge_ops_per_frame": "count",
    "core.ssg_vs_naive_time_ratio": "ratio",
    "core.ssg_vs_mfs_time_ratio": "ratio",
    "query.eval_us_per_frame": "us",
    "query.eval_us_per_result_state": "us",
    "query.matches_per_frame": "count",
    "query.py_calls_per_frame": "count",
    "query.add_query_us": "us",
    "query.remove_query_us": "us",
    "engine.frame_us": "us",
    "engine.self_us_per_frame": "us",
    "engine.export_state_ms": "ms",
    "engine.import_state_ms": "ms",
    "engine.state_kib": "KiB",
    "streaming.router.frame_us": "us",
    "streaming.router.self_us_per_frame": "us",
    "streaming.router.reordered_share": "ratio",
    "streaming.router.dropped_late": "count",
    "streaming.router.py_calls_per_frame": "count",
    "streaming.pool.frame_us": "us",
    "streaming.pool.added_us_per_frame": "us",
    "streaming.pool.flush_wait_ms": "ms",
    "streaming.pool.dispatch_batches": "count",
    "streaming.pool.worker_checkpoints": "count",
    "streaming.pool.restarts": "count",
    "streaming.checkpoint.encode_mib_s": "MiB/s",
    "streaming.checkpoint.decode_mib_s": "MiB/s",
    "streaming.checkpoint.bytes_per_live_state": "B",
    "session.inline.frame_us": "us",
    "session.router.frame_us": "us",
    "session.pool.frame_us": "us",
    "session.self_us_per_frame": "us",
    "session.register_ms": "ms",
    "session.cancel_ms": "ms",
    "session.checkpoint_ms": "ms",
    "session.restore_ms": "ms",
    "session.dispatch.frame_us": "us",
    "session.dispatch.submit_us": "us",
    "serve.request_us": "us",
    "serve.frame_us": "us",
    "serve.ingest_request_ms": "ms",
    "serve.added_us_per_frame": "us",
    "serve.delivery_wait_ms": "ms",
    "serve.match_latency_p50_ms.rate_lo": "ms",
    "serve.throttled": "count",
    "serve.lagged": "count",
    "loadgen.lateness_p95_ms": "ms",
    "loadgen.offered_frames_per_s": "1/s",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
    **{
        f"waterfall.{row}_share": "ratio"
        for row in ("core", "query", "engine", "streaming.router",
                    "streaming.pool", "session", "session.dispatch", "serve")
    },
}

#: Which backend's heights form each workload's own stack.
STACK_OF = {"inline": ("inline",), "router": ("router",), "pool": ("router", "pool")}


class Spans:
    """In-memory span log: ``(name, start, end, parent, trace id)``."""

    def __init__(self) -> None:
        self.rows: List[Tuple[str, float, float, int, str]] = []

    def root(self, name: str) -> int:
        """Open a span for a whole replay; its index parents the calls."""
        self.rows.append((name, time.perf_counter(), 0.0, -1, ""))
        return len(self.rows) - 1

    def close(self, index: int) -> None:
        name, start, _, parent, trace = self.rows[index]
        self.rows[index] = (name, start, time.perf_counter(), parent, trace)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for index, (name, start, end, parent, trace) in enumerate(self.rows):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "trace": trace,
                }) + "\n")


@dataclass
class Height:
    """One replay: seconds per input segment plus the layer's own counts."""

    segments: List[float]
    counters: Dict[str, float] = field(default_factory=dict)
    #: Seconds of a sub-layer measured inside the same replay.
    inner: List[float] = field(default_factory=list)


def _labelled_groups(workload: Workload):
    """``(group key, queries with ids, labels of interest)`` per window group."""
    out, next_id = [], 0
    for group, queries in workload.groups.items():
        numbered = [q.with_id(next_id + i) for i, q in enumerate(queries)]
        next_id += len(queries)
        labels = set().union(*(q.labels() for q in queries))
        out.append((group, numbered, labels if workload.restrict_labels else None))
    return out


def _numbered(workload: Workload):
    return [q for _, queries, _ in _labelled_groups(workload) for q in queries]


class Segments:
    """Per-call seconds, summed per segment and corrected for CPU speed.

    Several channels can be timed in one replay (generator and evaluator);
    a speed probe runs at every segment boundary, outside the timed calls.
    """

    def __init__(self, channels: int = 1, per_segment: int = SEGMENT):
        self._per_segment = per_segment
        self._track = SpeedTrack()
        self._track.sample(2)
        self._sums: List[List[float]] = []
        self._bounds: List[Tuple[float, float]] = []
        self._acc = [0.0] * channels
        self._calls = 0
        self._started = self._track.clock()

    def add(self, *seconds: float) -> None:
        """One call's seconds per channel; cuts a segment when it is full."""
        for channel, value in enumerate(seconds):
            self._acc[channel] += value
        self._calls += 1
        if self._calls % self._per_segment == 0:
            self._cut()

    def add_to_open(self, seconds: float) -> None:
        """Seconds that belong to the segment being filled (a final flush)."""
        self._acc[0] += seconds

    def _cut(self) -> None:
        self._bounds.append((self._started, self._track.clock()))
        self._sums.append(self._acc)
        self._acc = [0.0] * len(self._acc)
        self._track.sample()
        self._started = self._track.clock()

    def done(self) -> List[List[float]]:
        """Per channel, the corrected seconds of every segment."""
        self._cut()
        factors = [self._track.factor(a, b) for a, b in self._bounds]
        return [
            [sums[channel] / factor for sums, factor in zip(self._sums, factors)]
            for channel in range(len(self._acc))
        ]


# ----------------------------------------------------------------------
# Heights
# ----------------------------------------------------------------------
def core_height(workload: Workload, events: Sequence[StreamEvent], method: str,
                spans: Spans, evaluate: bool = False,
                profile: Optional[Callable] = None) -> Height:
    """Bare generators (one per stream and window group); with ``evaluate``
    each result set also goes through the group's ``QueryEvaluator``."""
    clock = time.perf_counter
    groups = _labelled_groups(workload)
    generator_class = MCOSMethod(method).generator_class
    generators: Dict = {}
    evaluators = {group: QueryEvaluator(queries) for group, queries, _ in groups}
    labels_seen: Dict = {}
    root = spans.root(f"replay core.{method}")
    name = f"core.{method}.process_frame"
    timer = Segments(channels=2)
    result_states = matches = 0
    for stream_id, frame in events:
        core_s = eval_s = 0.0
        trace = f"{stream_id}/{frame.frame_id}"
        for group, _, labels in groups:
            slot = (stream_id, group)
            generator = generators.get(slot)
            if generator is None:
                generator = generators[slot] = generator_class(
                    window_size=group[0], duration=group[1],
                    labels_of_interest=labels,
                )
                labels_seen[slot] = {}
            if profile and not evaluate:
                sys.setprofile(profile)
            started = clock()
            results = generator.process_frame(frame)
            ended = clock()
            if profile and not evaluate:
                sys.setprofile(None)
            spans.rows.append((name, started, ended, root, trace))
            core_s += ended - started
            if evaluate:
                known = labels_seen[slot]
                for oid in frame.object_ids:
                    known.setdefault(oid, frame.label_of(oid))
                if profile:
                    sys.setprofile(profile)
                started = clock()
                found = evaluators[group].evaluate_result_set(results, known)
                ended = clock()
                if profile:
                    sys.setprofile(None)
                spans.rows.append(("query.evaluate_result_set", started, ended, root, trace))
                eval_s += ended - started
                result_states += len(results)
                matches += len(found)
        timer.add(core_s, eval_s)
    spans.close(root)
    core_segments, eval_segments = timer.done()
    stats = [generator.stats for generator in generators.values()]
    return Height(
        segments=core_segments,
        inner=eval_segments,
        counters={
            "state_visits": sum(s.state_visits for s in stats),
            "intersections": sum(s.intersections for s in stats),
            "max_live_states": max(s.max_live_states for s in stats),
            "edge_ops": sum(s.edges_added + s.edges_removed for s in stats),
            "result_states": result_states,
            "matches": matches,
        },
    )


def engine_height(workload: Workload, events: Sequence[StreamEvent], spans: Spans) -> Height:
    clock = time.perf_counter
    groups = _labelled_groups(workload)
    engines: Dict = {}
    root = spans.root("replay engine")
    timer = Segments()
    for stream_id, frame in events:
        frame_s = 0.0
        for group, queries, _ in groups:
            engine = engines.get((stream_id, group))
            if engine is None:
                engine = engines[(stream_id, group)] = TemporalVideoQueryEngine(
                    queries,
                    EngineConfig(
                        method=workload.session_kwargs["method"],
                        window_size=group[0], duration=group[1],
                        restrict_labels=workload.restrict_labels,
                    ),
                )
            started = clock()
            engine.process_frame(frame)
            ended = clock()
            spans.rows.append(("engine.process_frame", started, ended, root,
                               f"{stream_id}/{frame.frame_id}"))
            frame_s += ended - started
        timer.add(frame_s)
    segments, = timer.done()
    started = clock()
    blobs = [engine.export_state() for engine in engines.values()]
    exported = clock()
    for blob in blobs:
        TemporalVideoQueryEngine.from_state(blob)
    imported = clock()
    spans.close(root)
    return Height(
        segments=segments,
        counters={
            "export_s": exported - started,
            "import_s": imported - exported,
            "state_bytes": sum(len(blob) for blob in blobs),
        },
    )


def _router(workload: Workload) -> StreamRouter:
    return StreamRouter(
        _numbered(workload),
        method=MCOSMethod(workload.session_kwargs["method"]),
        batch_size=8, watermark=workload.watermark,
        restrict_labels=workload.restrict_labels,
    )


def router_height(workload: Workload, events: Sequence[StreamEvent], spans: Spans,
                  profile: Optional[Callable] = None) -> Height:
    clock = time.perf_counter
    router = _router(workload)
    root = spans.root("replay streaming.router")
    timer = Segments()
    if profile:
        sys.setprofile(profile)
    for count, (stream_id, frame) in enumerate(events, 1):
        started = clock()
        router.route(stream_id, frame)
        if count % SEGMENT == 0:
            router.drain_matches()
        ended = clock()
        spans.rows.append(("streaming.router.route", started, ended, root,
                           f"{stream_id}/{frame.frame_id}"))
        timer.add(ended - started)
    started = clock()
    router.flush()
    router.drain_matches()
    timer.add_to_open(clock() - started)
    if profile:
        sys.setprofile(None)
    segments, = timer.done()
    totals = router.stats()["totals"]
    payload = router.checkpoint()
    started = clock()
    blob = to_bytes("router", payload)
    encoded = clock()
    from_bytes(blob, expect_kind="router")
    decoded = clock()
    spans.close(root)
    live = sum(
        shard.engine.generator.live_state_count()
        for shard in router.shards().values()
    )
    return Height(
        segments=segments,
        counters={
            "reordered": totals["reordered"],
            "ingested": totals["frames_ingested"],
            "dropped_late": totals["dropped_late"],
            "encode_s": encoded - started,
            "decode_s": decoded - encoded,
            "blob_bytes": len(blob),
            "live_states": live,
        },
    )


def pool_height(workload: Workload, events: Sequence[StreamEvent], spans: Spans) -> Height:
    clock = time.perf_counter
    pool = ShardWorkerPool(
        _router(workload), num_workers=2, dispatch_batch=32, checkpoint_every=8
    ).start()
    try:
        # A round trip to every worker: they are up before the clock starts,
        # as they are behind a Session once it has registered its queries.
        pool.flush()
        root = spans.root("replay streaming.pool")
        timer = Segments()
        wait_s = 0.0
        for count, (stream_id, frame) in enumerate(events, 1):
            started = clock()
            pool.route(stream_id, frame)
            routed = clock()
            if count % SEGMENT == 0:
                pool.drain_matches()
            ended = clock()
            spans.rows.append(("streaming.pool.route", started, ended, root,
                               f"{stream_id}/{frame.frame_id}"))
            timer.add(ended - started)
            wait_s += ended - routed
        started = clock()
        pool.flush()
        pool.drain_matches()
        ended = clock()
        timer.add_to_open(ended - started)
        wait_s += ended - started
        segments, = timer.done()
        stats = pool.stats()
        spans.close(root)
    except BaseException:
        pool.terminate()
        raise
    pool.stop()
    return Height(
        segments=segments,
        counters={
            "wait_s": wait_s,
            "dispatch_batches": stats["pool"]["ops_dispatched"],
            "worker_checkpoints": stats["pool"]["checkpoints_taken"],
            "restarts": stats["pool"]["restarts"],
            "dropped_late": stats["totals"]["dropped_late"],
        },
    )


def session_kwargs_for(workload: Workload, backend: str) -> Dict:
    """The workload's session configuration moved onto ``backend``."""
    kwargs = {
        "backend": backend,
        "method": workload.session_kwargs["method"],
        "restrict_labels": workload.restrict_labels,
    }
    if backend != "inline":
        kwargs["watermark"] = workload.watermark
    if backend == "pool":
        kwargs.update(num_workers=2, dispatch_batch=32, checkpoint_every=8)
    return kwargs


def session_height(workload: Workload, events: Sequence[StreamEvent], backend: str,
                   spans: Spans) -> Height:
    clock = time.perf_counter
    with Session(**session_kwargs_for(workload, backend)) as session:
        handles = [session.register(query) for query in workload.queries]
        root = spans.root(f"replay session.{backend}")
        timer = Segments()
        for count, (stream_id, frame) in enumerate(events, 1):
            started = clock()
            session.ingest(stream_id, frame)
            if count % SEGMENT == 0:
                for handle in handles:
                    handle.take_matches()
            ended = clock()
            spans.rows.append((f"session.{backend}.ingest", started, ended, root,
                               f"{stream_id}/{frame.frame_id}"))
            timer.add(ended - started)
        started = clock()
        session.flush()
        for handle in handles:
            handle.take_matches()
        timer.add_to_open(clock() - started)
        segments, = timer.done()
        failed = closed_loop.backend_failures(session.stats()["backend_stats"])
        spans.close(root)
    return Height(segments=segments, counters={"failed": failed})


def dispatch_height(workload: Workload, events: Sequence[StreamEvent], spans: Spans) -> Height:
    """A router session behind a ``SessionDispatcher``, fed the gateway's way:
    one submitted closure per 8-frame batch, a poll every four batches."""
    clock = time.perf_counter
    num_feeds = len({stream_id for stream_id, _ in events})
    batches = gateway_loop.batches_of(events, workload.batch, num_feeds)
    with gateway_loop.one_core(), SessionDispatcher(
        lambda: Session(**session_kwargs_for(workload, "router"))
    ) as dispatcher:
        handles = dispatcher.call(
            lambda s: [s.register(query) for query in workload.queries]
        )

        def take(_session):
            return [handle.take_matches() for handle in handles]

        root = spans.root("replay session.dispatch")
        per_segment = SEGMENT // workload.batch
        timer = Segments(per_segment=per_segment)
        for count, (stream_id, frames) in enumerate(batches, 1):
            started = clock()
            dispatcher.call(
                lambda s, sid=stream_id, fs=frames: [s.ingest(sid, f) for f in fs]
            )
            if count % per_segment == 0:
                dispatcher.call(take)
            ended = clock()
            spans.rows.append(("session.dispatch.call", started, ended, root,
                               f"{stream_id}/{frames[0].frame_id}"))
            timer.add(ended - started)
        started = clock()
        dispatcher.call(lambda s: s.flush())
        dispatcher.call(take)
        timer.add_to_open(clock() - started)
        segments, = timer.done()
        spans.close(root)
    return Height(segments=segments)


def serve_height(workload: Workload, events: Sequence[StreamEvent], spans: Spans,
                 rate: Optional[float] = None) -> Tuple[Height, gateway_loop.LegResult]:
    """The gateway over a router session: one leg, the whole leg one key."""
    served = replace(workload, session_kwargs=session_kwargs_for(workload, "router"))
    root = spans.root("replay serve")
    leg = gateway_loop.run_leg(served, rate=rate, churn=False, events=events)
    spans.close(root)
    return Height(segments=[leg.steady_s]), leg


# ----------------------------------------------------------------------
# One-off probes
# ----------------------------------------------------------------------
def call_counter():
    """A ``sys.setprofile`` hook counting Python-level calls, and its total."""
    total = [0]

    def hook(_frame, event, _arg):
        if event == "call":
            total[0] += 1

    return hook, total


def span_cost(repeats: int = 20_000) -> float:
    """Seconds to take the two clock readings of a span and record it."""
    clock = time.perf_counter
    rows: List[Tuple[str, float, float, int, str]] = []
    started = clock()
    for _ in range(repeats):
        begin = clock()
        end = clock()
        rows.append(("span", begin, end, 0, "stream/0"))
    return (clock() - started) / repeats


def probe_round_trips(repeats: int = 200) -> Tuple[float, float]:
    """``(GET /healthz seconds, no-op dispatcher call seconds)``, lower quartiles."""
    clock = time.perf_counter
    gateway = Gateway([TenantConfig("bench", gateway_loop.API_KEY)], backend="inline")
    requests, submits = [], []
    with GatewayRunner(gateway) as runner, GatewayClient(
        runner.host, runner.port, gateway_loop.API_KEY
    ) as client:
        for _ in range(repeats):
            started = clock()
            client.healthz().expect(200)
            requests.append(clock() - started)
    with SessionDispatcher(object) as dispatcher:
        for _ in range(repeats):
            started = clock()
            dispatcher.call(lambda _resource: None)
            submits.append(clock() - started)
    return lower_quartile(requests), lower_quartile(submits)


def probe_evaluator_churn(workload: Workload) -> Tuple[float, float]:
    """Seconds per ``QueryEvaluator.add_query`` / ``remove_query`` on the
    evaluator of the workload's largest window group."""
    clock = time.perf_counter
    _, queries, _ = max(_labelled_groups(workload), key=lambda g: len(g[1]))
    group = (queries[0].window, queries[0].duration)
    evaluator = QueryEvaluator(queries)
    fresh = [
        q.with_id(10_000 + i) for i, q in enumerate(workload.churn_queries)
        if (q.window, q.duration) == group
    ]
    adds, removes = [], []
    for query in fresh:
        started = clock()
        evaluator.add_query(query)
        adds.append(clock() - started)
    for query in fresh:
        started = clock()
        evaluator.remove_query(query.query_id)
        removes.append(clock() - started)
    return sum(adds) / len(adds), sum(removes) / len(removes)


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
@dataclass
class Traced:
    metrics: Dict[str, float]
    waterfall: Dict[str, float]
    rounds: int
    attempted: int
    failed: int
    span_path: str


def trace_run(setup: Setup, seconds: float, span_path: str = "spans.jsonl") -> Traced:
    workload = setup.workload
    spans = Spans()
    backend = workload.session_kwargs["backend"]
    on_gateway = workload.name == "gateway_open_loop"
    quarter = max(1, len(workload.steady) // 4 // SEGMENT) * SEGMENT
    dense = workload.name == "dense_scene"

    def events_for(height: str) -> Sequence[StreamEvent]:
        # Bare generators, engines and the inline backend cannot reorder.
        in_order = height.startswith(("core.", "engine")) or height == "session.inline"
        source = workload.ordered if in_order else workload.steady
        on_stack = (
            height in ("core.SSG", "engine", f"session.{backend}")
            or height in (f"streaming.{b}" for b in STACK_OF[backend])
            or (height in ("core.NAIVE", "core.MFS") and dense)
            or (on_gateway and height in ("session.dispatch", "serve"))
        )
        return source if on_stack else source[:quarter]

    plan: Dict[str, Callable[[], Height]] = {
        "core.NAIVE": lambda: core_height(workload, events_for("core.NAIVE"), "NAIVE", spans),
        "core.MFS": lambda: core_height(workload, events_for("core.MFS"), "MFS", spans),
        "core.SSG": lambda: core_height(workload, events_for("core.SSG"), "SSG", spans, evaluate=True),
        "engine": lambda: engine_height(workload, events_for("engine"), spans),
        "streaming.router": lambda: router_height(workload, events_for("streaming.router"), spans),
        "streaming.pool": lambda: pool_height(workload, events_for("streaming.pool"), spans),
        "session.inline": lambda: session_height(workload, events_for("session.inline"), "inline", spans),
        "session.router": lambda: session_height(workload, events_for("session.router"), "router", spans),
        "session.pool": lambda: session_height(workload, events_for("session.pool"), "pool", spans),
        "session.dispatch": lambda: dispatch_height(workload, events_for("session.dispatch"), spans),
    }
    frames_of = {name: len(events_for(name)) for name in list(plan) + ["serve"]}

    samples = {name: KeyedSamples() for name in list(plan) + ["query", "serve"]}
    last: Dict[str, Height] = {}
    legs: List[gateway_loop.LegResult] = []
    churn = KeyedSamples()
    snapshot = KeyedSamples()
    attempted = failed = done = 0
    # One untimed pass on the workload's own backend: set-up's oracle ran on
    # another one, and what a backend does for the first time in a process
    # (the first fork of pool workers) would be half of a two-round sample.
    closed_loop.run_pass(workload, session_kwargs_for(workload, backend), workload.steady)
    for done in rounds(seconds):
        for name, replay in plan.items():
            gc.collect()
            height = last[name] = replay()
            samples[name].extend(enumerate(height.segments))
            if name == "core.SSG":
                samples["query"].extend(enumerate(height.inner))
            failed += int(height.counters.get("failed", 0))
            failed += int(height.counters.get("dropped_late", 0))
            failed += int(height.counters.get("restarts", 0))
        gc.collect()
        height, leg = serve_height(workload, events_for("serve"), spans)
        samples["serve"].extend(enumerate(height.segments))
        legs.append(leg)
        attempted += leg.attempted
        failed += leg.failed
        if on_gateway:
            failed += closed_loop.mismatches(setup.expected_steady, leg.delivered)
        # One end-to-end pass: its churn and snapshot phases are the
        # session's control-plane numbers, and its matches are verified.
        gc.collect()
        plain = closed_loop.run_pass(
            workload, session_kwargs_for(workload, backend), workload.steady
        )
        churn.extend(enumerate(plain.churn))
        snapshot.add("checkpoint", plain.checkpoint_s)
        snapshot.add("restore", plain.restore_s)
        wrong = 0 if on_gateway else closed_loop.mismatches(setup.expected, plain.delivered)
        attempted += plain.attempted
        failed += plain.failed + wrong

    # -- one-off probes ---------------------------------------------------
    prefix = workload.ordered[:quarter]
    calls = {}
    # Collector off while counting: finalizers it runs are Python calls too,
    # and when it runs depends on everything allocated before.
    gc.disable()
    try:
        for method in METHODS:
            hook, total = call_counter()
            core_height(workload, prefix, method, Spans(), profile=hook)
            calls[method] = total[0] / len(prefix)
        hook, total = call_counter()
        core_height(workload, prefix, "SSG", Spans(), evaluate=True, profile=hook)
        calls["query"] = total[0] / len(prefix)
        hook, total = call_counter()
        router_height(workload, workload.steady[:quarter], Spans(), profile=hook)
        calls["router"] = total[0] / quarter
    finally:
        gc.enable()
    request_s, submit_s = probe_round_trips()
    add_s, remove_s = probe_evaluator_churn(workload)
    slow_events = workload.steady if on_gateway else workload.steady[:quarter]
    # A leg the hygiene check voids (the generator fell behind its schedule)
    # is run again; only a third lapse in a row is a failure of the run.
    for _ in range(3):
        _, slow = serve_height(workload, slow_events, spans,
                               rate=workload.rate_lo or 250.0)
        if not slow.aborted:
            break
    if on_gateway:
        # Elsewhere this leg is off the workload's stack (the gateway may be
        # overloaded by it); its lateness is reported, its ops are not the
        # workload's.
        attempted += slow.attempted
        failed += slow.attempted if slow.aborted else slow.failed

    # -- per-frame microseconds of every height ---------------------------
    def per_frame(name: str) -> float:
        frames = frames_of["core.SSG" if name == "query" else name]
        return samples[name].total() / frames * 1e6

    us = {name: per_frame(name) for name in samples}

    def below(lower: str, upper: str) -> float:
        """``lower``'s microseconds per frame over the events ``upper`` saw
        (its leading segments, when it replayed all events and ``upper`` only
        the first quarter)."""
        if frames_of[lower] == frames_of[upper]:
            return us[lower]
        estimates = samples[lower].estimates()
        segments = frames_of[upper] // SEGMENT
        return sum(estimates[k] for k in range(segments)) / frames_of[upper] * 1e6

    below_session = {"inline": us["engine"], "router": us["streaming.router"],
                     "pool": us["streaming.pool"]}[backend]
    rows = {
        "core": us["core.SSG"],
        "query": us["query"],
        "engine": us["engine"] - us["core.SSG"] - us["query"],
    }
    if "router" in STACK_OF[backend]:
        rows["streaming.router"] = us["streaming.router"] - us["engine"]
    if backend == "pool":
        rows["streaming.pool"] = us["streaming.pool"] - us["streaming.router"]
    rows["session"] = us[f"session.{backend}"] - below_session
    if on_gateway:
        rows["session.dispatch"] = us["session.dispatch"] - us["session.router"]
        rows["serve"] = us["serve"] - us["session.dispatch"]
    top = sum(rows.values())

    ssg, engine, router, pool = (last[k].counters for k in
                                 ("core.SSG", "engine", "streaming.router", "streaming.pool"))
    mib = 1024.0 * 1024.0
    churn_ms = [value * 1e3 for _, value in sorted(churn.estimates().items())]
    half = len(churn_ms) // 2
    waits = [w for leg in legs for w in leg.delivery_wait.values()]
    requests = [r for leg in legs for r in leg.request_s]
    metrics: Dict[str, float] = {
        "datasets.generate_s": workload.generate_s,
        "datasets.frames": len(workload.steady),
        "datasets.objects_per_frame_mean": workload.objects_per_frame(),
        "core.SSG.edge_ops_per_frame": ssg["edge_ops"] / frames_of["core.SSG"],
        "core.ssg_vs_naive_time_ratio": us["core.SSG"] / us["core.NAIVE"],
        "core.ssg_vs_mfs_time_ratio": us["core.SSG"] / us["core.MFS"],
        "query.eval_us_per_frame": us["query"],
        "query.eval_us_per_result_state":
            samples["query"].total() * 1e6 / max(1, ssg["result_states"]),
        "query.matches_per_frame": ssg["matches"] / frames_of["core.SSG"],
        "query.py_calls_per_frame": calls["query"],
        "query.add_query_us": add_s * 1e6,
        "query.remove_query_us": remove_s * 1e6,
        "engine.frame_us": us["engine"],
        "engine.self_us_per_frame": rows["engine"],
        "engine.export_state_ms": engine["export_s"] * 1e3,
        "engine.import_state_ms": engine["import_s"] * 1e3,
        "engine.state_kib": engine["state_bytes"] / 1024.0,
        "streaming.router.frame_us": us["streaming.router"],
        "streaming.router.self_us_per_frame":
            us["streaming.router"] - below("engine", "streaming.router"),
        "streaming.router.reordered_share": router["reordered"] / router["ingested"],
        "streaming.router.dropped_late": router["dropped_late"],
        "streaming.router.py_calls_per_frame": calls["router"],
        "streaming.pool.frame_us": us["streaming.pool"],
        "streaming.pool.added_us_per_frame":
            us["streaming.pool"] - below("streaming.router", "streaming.pool"),
        "streaming.pool.flush_wait_ms": pool["wait_s"] * 1e3,
        "streaming.pool.dispatch_batches": pool["dispatch_batches"],
        "streaming.pool.worker_checkpoints": pool["worker_checkpoints"],
        "streaming.pool.restarts": pool["restarts"],
        "streaming.checkpoint.encode_mib_s": router["blob_bytes"] / mib / router["encode_s"],
        "streaming.checkpoint.decode_mib_s": router["blob_bytes"] / mib / router["decode_s"],
        "streaming.checkpoint.bytes_per_live_state":
            router["blob_bytes"] / max(1, router["live_states"]),
        "session.inline.frame_us": us["session.inline"],
        "session.router.frame_us": us["session.router"],
        "session.pool.frame_us": us["session.pool"],
        "session.self_us_per_frame": rows["session"],
        "session.register_ms": sum(churn_ms[:half]) / half,
        "session.cancel_ms": sum(churn_ms[half:]) / half,
        "session.checkpoint_ms": snapshot.estimates()["checkpoint"] * 1e3,
        "session.restore_ms": snapshot.estimates()["restore"] * 1e3,
        "session.dispatch.frame_us": us["session.dispatch"],
        "session.dispatch.submit_us": submit_s * 1e6,
        "serve.request_us": request_s * 1e6,
        "serve.frame_us": us["serve"],
        "serve.ingest_request_ms": quantile(requests, 0.5) * 1e3,
        "serve.added_us_per_frame": us["serve"] - us["session.dispatch"],
        "serve.delivery_wait_ms": quantile(waits, 0.5) * 1e3 if waits else 0.0,
        "serve.match_latency_p50_ms.rate_lo":
            quantile(list(slow.latency.values()), 0.5) * 1e3 if slow.latency else 0.0,
        "serve.throttled": sum(int(leg.counters.get("throttled", 0)) for leg in legs),
        "serve.lagged": sum(int(leg.counters.get("lagged", 0)) for leg in legs),
        "loadgen.lateness_p95_ms": quantile(slow.lateness, 0.95) * 1e3,
        "loadgen.offered_frames_per_s": slow.offered_rate,
        # One span per ingest: what recording them costs the traced replay.
        "trace.overhead_share": span_cost() * 1e6 / us[f"session.{backend}"],
        "trace.spans": len(spans.rows),
    }
    for method in METHODS:
        counters = last[f"core.{method}"].counters
        frames = frames_of[f"core.{method}"]
        metrics.update({
            f"core.{method}.frame_us": us[f"core.{method}"],
            f"core.{method}.state_visits_per_frame": counters["state_visits"] / frames,
            f"core.{method}.intersections_per_frame": counters["intersections"] / frames,
            f"core.{method}.max_live_states": counters["max_live_states"],
            f"core.{method}.py_calls_per_frame": calls[method],
        })
    for name in PER_LAYER:
        if name.startswith("waterfall."):
            row = name[len("waterfall."):-len("_share")]
            metrics[name] = rows.get(row, 0.0) / top
    spans.write(span_path)
    return Traced(
        metrics={name: float(metrics[name]) for name in PER_LAYER},
        waterfall={**{row: round(value, 3) for row, value in rows.items()},
                   "top of stack": round(top, 3)},
        rounds=done, attempted=attempted, failed=failed, span_path=span_path,
    )
