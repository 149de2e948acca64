"""Set-up, the timed passes of a run, and the nine end-to-end metrics."""

from __future__ import annotations

import gc
import resource
import time
from typing import Dict, Iterator, List, Tuple

from stackbench import closed_loop, gateway_loop, inputs
from stackbench.estimator import KeyedSamples, quantile, spread, supported_tail

#: name -> (unit, better); the order metrics are printed in.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "frames_per_s": ("1/s", "higher"),
    "match_latency_p50_ms": ("ms", "lower"),
    "match_latency_p95_ms": ("ms", "lower"),
    "churn_op_ms": ("ms", "lower"),
    "checkpoint_ms": ("ms", "lower"),
    "restore_ms": ("ms", "lower"),
    "checkpoint_kib": ("KiB", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

#: Set-up runs this often in a run; ``setup_s`` is built on the median.
SETUP_REPEATS = 3


class Setup:
    """One repetition of set-up: generated inputs and the oracle's answer."""

    def __init__(self, name: str, seed: int, size: float = 1.0):
        started = time.perf_counter()
        self.workload = inputs.build(name, seed, size)
        oracle = closed_loop.run_pass(
            self.workload, self.workload.oracle_kwargs, self.workload.ordered,
            snapshot=False,
        )
        self.oracle_failed = oracle.failed
        if name == "gateway_open_loop":
            self.expected = gateway_loop.expected_events(
                self.workload, oracle.delivered
            )
            self.expected_steady = gateway_loop.expected_events(
                self.workload, oracle.delivered, oracle.steady_counts
            )
        else:
            self.expected = oracle.delivered
            self.expected_steady = {}
        self.wall_seconds = time.perf_counter() - started
        #: Reference-speed seconds, by the slow-down the oracle pass saw.
        self.slowdown = oracle.slowdown
        self.seconds = self.wall_seconds / oracle.slowdown


class Measurement:
    """Samples of every pass of a run, keyed by input position."""

    def __init__(self, frames: int):
        self.frames = frames
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        #: Open-loop legs the hygiene check voided (the generator fell behind
        #: its own schedule): why, their operations, and their latency, which
        #: stands in only when the run has no sound leg at all.
        self.voided: List[str] = []
        self.voided_ops = 0
        self.voided_latency = KeyedSamples()
        self.mismatched = 0
        self.segments = KeyedSamples()
        self.latency = KeyedSamples()
        self.churn = KeyedSamples()
        self.snapshot = KeyedSamples()
        self.checkpoint_bytes: List[int] = []
        #: Per-pass wall-clock value of each time metric, uncorrected, for
        #: the median and quartiles printed beside it.
        self.wall: Dict[str, List[float]] = {}
        self.lateness: List[float] = []
        self.offered: List[float] = []
        #: One line per thing that went wrong, for the failure report.
        self.notes: List[str] = []
        #: CPU slow-down seen by each pass (1 = reference speed).
        self.slowdowns: List[float] = []

    def _common(self, latency: Dict, churn: List[float], checkpoint_s: float,
                restore_s: float, checkpoint_bytes: int, wall: closed_loop.WallClock,
                slowdown: float) -> None:
        self.passes += 1
        self.slowdowns.append(slowdown)
        self.latency.extend(latency.items())
        self.churn.extend(enumerate(churn))
        self.snapshot.add("checkpoint", checkpoint_s)
        self.snapshot.add("restore", restore_s)
        self.checkpoint_bytes.append(checkpoint_bytes)
        for name, value in (
            ("frames_per_s", self.frames / wall.steady_s),
            ("match_latency_p50_ms", quantile(wall.latency, 0.5) * 1e3),
            ("match_latency_p95_ms",
             quantile(wall.latency, supported_tail(len(wall.latency))) * 1e3),
            ("churn_op_ms", sum(wall.churn) / len(wall.churn) * 1e3),
            ("checkpoint_ms", wall.checkpoint_s * 1e3),
            ("restore_ms", wall.restore_s * 1e3),
        ):
            self.wall.setdefault(name, []).append(value)

    def add_session_pass(self, result: closed_loop.PassResult, expected: Dict) -> None:
        self.segments.extend(enumerate(result.segments))
        self._common(result.latency, result.churn, result.checkpoint_s,
                     result.restore_s, result.checkpoint_bytes, result.wall,
                     result.slowdown)
        wrong = closed_loop.mismatches(expected, result.delivered)
        if wrong:
            self.notes.append(f"pass {self.passes}: {wrong} (query, stream) keys differ from the oracle")
        if result.failed:
            self.notes.append(f"pass {self.passes}: {result.failed} late drops or worker restarts")
        self.mismatched += wrong
        self.attempted += result.attempted
        self.failed += result.failed + wrong

    def add_gateway_pass(
        self,
        open_leg: gateway_loop.LegResult,
        closed_leg: gateway_loop.LegResult,
        snapshot: gateway_loop.Snapshot,
        setup: Setup,
    ) -> None:
        self.segments.add("closed-loop leg", closed_leg.steady_s)
        if open_leg.aborted:
            self.voided.append(f"pass {self.passes + 1}: {open_leg.aborted}")
            self.voided_ops += open_leg.attempted
            self.voided_latency.extend(open_leg.latency.items())
        self._common(
            {} if open_leg.aborted else open_leg.latency,
            open_leg.churn, snapshot.checkpoint_s,
            snapshot.restore_s, snapshot.checkpoint_bytes,
            closed_loop.WallClock(
                closed_leg.wall.steady_s, open_leg.wall.latency, open_leg.wall.churn,
                snapshot.wall_checkpoint_s, snapshot.wall_restore_s,
            ),
            closed_leg.slowdown,
        )
        self.lateness.extend(open_leg.lateness)
        self.offered.append(open_leg.offered_rate)
        for leg, name, expected in (
            (open_leg, "open-loop", setup.expected),
            (closed_leg, "closed-loop", setup.expected_steady),
        ):
            wrong = closed_loop.mismatches(expected, leg.delivered)
            if wrong:
                self.notes.append(f"pass {self.passes}: {name} leg, {wrong} keys differ from the oracle")
            self.notes.extend(f"pass {self.passes}: {name} leg, {e}" for e in leg.errors)
            self.mismatched += wrong
            self.attempted += leg.attempted
            self.failed += leg.failed + wrong
        self.attempted += snapshot.attempted

    def failed_operations(self) -> int:
        """Operations that failed.  A voided open-loop leg is measured again
        by the next pass and fails nothing; a run in which every open-loop
        leg was voided measured no latency, and those operations count."""
        if self.voided and not len(self.latency):
            return self.failed + self.voided_ops
        return self.failed

    def metrics(self, setup_s: float) -> Dict[str, float]:
        """The nine end-to-end metrics; CPU-bound times at reference speed."""
        latency = self.latency if len(self.latency) else self.voided_latency
        tail = supported_tail(len(latency))
        rss_kib = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # The largest reaped child: pool workers (zero without a pool).
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        snapshot = self.snapshot.estimates()
        return {
            "setup_s": setup_s,
            "frames_per_s": self.frames / self.segments.total(),
            "match_latency_p50_ms": latency.percentile(0.5) * 1e3,
            "match_latency_p95_ms": latency.percentile(tail) * 1e3,
            "churn_op_ms": self.churn.mean() * 1e3,
            "checkpoint_ms": snapshot["checkpoint"] * 1e3,
            "restore_ms": snapshot["restore"] * 1e3,
            "checkpoint_kib": quantile(self.checkpoint_bytes, 0.5) / 1024.0,
            "peak_rss_mib": rss_kib / 1024.0,
        }

    def describe(self, name: str) -> str:
        """The per-pass wall-clock median and quartiles printed beside a metric."""
        values = self.wall.get(name)
        if not values:
            return ""
        median, low, high = spread(values)
        return f"wall clock per pass: median {median:.4g} [q1 {low:.4g}, q3 {high:.4g}]"


def one_pass(setup: Setup, measurement: Measurement) -> None:
    workload = setup.workload
    if workload.name == "gateway_open_loop":
        open_leg = gateway_loop.run_leg(workload, rate=workload.rate, churn=True)
        snapshot = gateway_loop.snapshot_through_dispatcher(workload)
        closed_leg = gateway_loop.run_leg(workload, rate=None, churn=False)
        measurement.add_gateway_pass(open_leg, closed_leg, snapshot, setup)
    else:
        measurement.add_session_pass(
            closed_loop.run_pass(workload, workload.session_kwargs, workload.steady),
            setup.expected,
        )


def rounds(seconds: float) -> Iterator[int]:
    """Round numbers 1, 2, ... until ``seconds`` are spent — the one stop
    rule of the end-to-end and the traced run.  There is always a first
    round; another starts only while, going by the last one's length, more
    than half of it fits into what is left."""
    clock = time.perf_counter
    started = clock()
    done = 0
    while True:
        # Collect between rounds, never inside one: GC stays enabled there.
        gc.collect()
        round_started = clock()
        done += 1
        yield done
        now = clock()
        if now - started + 0.5 * (now - round_started) >= seconds:
            return


def run_passes(setup: Setup, seconds: float) -> Measurement:
    """Passes over identical input until ``seconds`` are measured."""
    measurement = Measurement(len(setup.workload.steady))
    for _ in rounds(seconds):
        one_pass(setup, measurement)
    return measurement


def repeated_setup(
    name: str, seed: int, size: float, import_s: float = 0.0
) -> Tuple[Setup, float, float]:
    """Set up :data:`SETUP_REPEATS` times; returns the last repetition,
    ``setup_s`` — the imports (paid once, corrected by the first repetition's
    slow-down) plus the median repetition — and the same on the wall clock."""
    seconds, wall = [], []
    setup = None
    wall_import_s = import_s
    for _ in range(SETUP_REPEATS):
        setup = None  # drop the previous inputs before building them again
        gc.collect()
        setup = Setup(name, seed, size)
        if not seconds:
            import_s /= setup.slowdown
        seconds.append(setup.seconds)
        wall.append(setup.wall_seconds)
    return (setup, import_s + quantile(seconds, 0.5),
            wall_import_s + quantile(wall, 0.5))
