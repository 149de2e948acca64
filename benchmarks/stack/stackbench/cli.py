"""Command line of the stack benchmark: one workload per invocation."""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import Dict, List, Optional

from stackbench import WORKLOADS, measure
from stackbench.estimator import quantile, spread

#: Directory (under the checkout root) for span files and summaries.
OUT_DIR = ".stackbench"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run that prints per-layer metrics")
    parser.add_argument("--size", type=float, default=1.0,
                        help="input scale; below 1 only for the fast tests")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="self-test: corrupt the oracle, expect exit 1")
    return parser


def _tamper(expected: Dict) -> None:
    """Drop one expected match, so every pass delivers one too many."""
    key = max(expected, key=lambda k: len(expected[k]))
    expected[key] = expected[key][:-1]


def _emit(root: str, workload: str, summary: Dict, metrics: Dict, units: Dict,
          attempted: int, failed: int, correct: bool) -> None:
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    summary["claim"] = None
    text = json.dumps(summary, indent=1)
    with open(os.path.join(out_dir, f"summary-{workload}.json"), "w") as handle:
        handle.write(text + "\n")
    print(text)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))


def main(argv: List[str], started: Optional[float] = None, root: str = ".") -> int:
    """Run one workload; ``started`` is the process's start on the
    ``perf_counter`` clock (imports count as set-up), ``root`` the checkout."""
    try:
        return _main(argv, started, root)
    finally:
        gc.unfreeze()  # only matters to a caller that lives on (the tests)


def _main(argv: List[str], started: Optional[float], root: str) -> int:
    args = _parser().parse_args(argv)
    import_s = time.perf_counter() - started if started is not None else 0.0
    summary: Dict = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
    }

    if args.trace:
        from stackbench import layers
        setup = measure.Setup(args.workload, args.seed, args.size)
        gc.collect()
        gc.freeze()
        traced = layers.trace_run(
            setup, args.seconds,
            span_path=os.path.join(root, OUT_DIR, f"spans-{args.workload}.jsonl"),
        )
        for name, value in traced.metrics.items():
            print(f"{name:48s} {value:14.6g} {layers.PER_LAYER[name]}")
        print("waterfall (us per source frame, rows sum to the top of stack):")
        for row, value in traced.waterfall.items():
            print(f"  {row:24s} {value:12.2f}")
        correct = traced.failed == 0
        summary.update(
            verified=correct, rounds=traced.rounds, waterfall=traced.waterfall,
            span_file=traced.span_path,
        )
        _emit(root, args.workload, summary, traced.metrics, layers.PER_LAYER,
              traced.attempted, traced.failed, correct)
        return 0 if correct else 1

    setup, setup_s, wall_setup_s = measure.repeated_setup(
        args.workload, args.seed, args.size, import_s
    )
    if args.inject_mismatch:
        _tamper(setup.expected)
    # The harness's own data (inputs, expected matches) must not make the
    # collections that run inside a pass slower: park it outside the GC.
    gc.collect()
    gc.freeze()
    measurement = measure.run_passes(setup, args.seconds)
    metrics = measurement.metrics(setup_s)
    failed = measurement.failed_operations()
    # A voided open-loop leg is the generator's lapse, not a wrong answer.
    correct = measurement.failed == 0 and setup.oracle_failed == 0
    units = {name: unit for name, (unit, _) in measure.END_TO_END.items()}
    for name, value in metrics.items():
        beside = (f"wall clock: {wall_setup_s:.4g}" if name == "setup_s"
                  else measurement.describe(name))
        print(f"{name:24s} {value:14.6g} {units[name]:5s} {beside}")
    slow = spread(measurement.slowdowns)
    print("CPU-bound times are at reference CPU speed (open-loop latency is not "
          f"corrected); slow-down seen per pass: median {slow[0]:.2f} "
          f"[q1 {slow[1]:.2f}, q3 {slow[2]:.2f}]")
    print(f"passes {measurement.passes}  latency keys {len(measurement.latency)}  "
          f"ops attempted {measurement.attempted} failed {failed}  "
          f"verified: {str(correct).lower()}")
    summary.update(
        passes=measurement.passes, verified=correct,
        latency_keys=len(measurement.latency),
        import_s=import_s, setup_repeats=measure.SETUP_REPEATS,
        wall_setup_s=wall_setup_s,
        cpu_slowdown={"median": slow[0], "q1": slow[1], "q3": slow[2]},
        mismatched_keys=measurement.mismatched,
        failures=measurement.notes,
        voided_open_loop_legs=measurement.voided,
        wall_clock={name: measurement.describe(name) for name in measurement.wall},
    )
    if measurement.lateness:
        summary["loadgen"] = {
            "lateness_p95_ms": quantile(measurement.lateness, 0.95) * 1e3,
            "offered_frames_per_s": quantile(measurement.offered, 0.5),
        }
    for note in measurement.notes:
        print(f"FAILED {note}", file=sys.stderr)
    _emit(root, args.workload, summary, metrics, units,
          measurement.attempted, failed, correct)
    return 0 if correct else 1
