#!/usr/bin/env python3
"""A/A noise calibration: run the same checkout twice, set bounds from it.

    python3 benchmarks/stack/aa_check.py --runs 10 [--write]

Runs two *interleaved* sets (A, B, A, B, ...) of ``--runs`` end-to-end runs
per workload, every run of a set with another seed, and prints for each
end-to-end metric the two medians, their relative gap (how much worse B's
median is than A's — both are the same code) and each set's quartile
distance as a share of its median.

The issue that specified this benchmark sets a metric's bound to

    max(initial bound, 2 x worst gap, 2 x worst quartile distance)

over the workloads, never above 0.25: a metric whose formula exceeds that, or
a time metric whose gap exceeds 0.10, needs a longer run or a demotion to
per-layer, not a wider bound — the script names it, exits 1, and ``--write``
(which needs every workload) writes nothing.  The driver that gates on the
bounds, for its part, calls a benchmark steady when every spread is below a
*third* of its bound, so the bound written is

    min(0.25, max(initial bound, 2 x worst gap, 3 x worst quartile distance))

and a metric that needs the ``min`` is marked: steady by the issue's rule,
but its spread is more than a third of the widest bound there is.

``setup_s`` is the exception, as it is for the driver: process start-up and
imports happen once in a run, so there is nothing to take a quartile over
and its spread (printed like the others) gates nothing; its bound comes from
its gap and is then raised to the largest bound of all.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: The initial bounds of the issue; calibration only ever widens them.
INITIAL = {
    "setup_s": 0.10,
    "frames_per_s": 0.10,
    "match_latency_p50_ms": 0.10,
    "match_latency_p95_ms": 0.15,
    "churn_op_ms": 0.15,
    "checkpoint_ms": 0.15,
    "restore_ms": 0.15,
    "checkpoint_kib": 0.01,
    "peak_rss_mib": 0.05,
}
CAP = 0.25


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    values["failed operations"] = result["failed"]
    return values


def quartile_distance(values) -> float:
    """Distance between the quartiles as a share of the median."""
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (>= 5)")
    parser.add_argument("--write", action="store_true",
                        help="write the calibrated bounds into BENCHMARK.json")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="a subset to look at (bounds are then not written)")
    args = parser.parse_args()
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    if args.write and args.workloads:
        parser.error("--write calibrates over every workload")
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]

    worst_gap = dict.fromkeys(better, 0.0)
    worst_spread = dict.fromkeys(better, 0.0)
    started = time.time()
    for workload in workloads:
        sets = {"A": [], "B": []}
        for index in range(args.runs):
            for label in ("A", "B"):
                # Both sets walk the same seeds, like a parent/change pair.
                sets[label].append(run_once(workload, 101 + index, spec["run_seconds"]))
        print(f"\n{workload}  ({args.runs} runs per set, {time.time() - started:.0f} s so far)")
        print(f"  {'metric':24s} {'median A':>12s} {'median B':>12s} "
              f"{'gap':>8s} {'qd A':>8s} {'qd B':>8s}")
        for name in better:
            a = [run[name] for run in sets["A"]]
            b = [run[name] for run in sets["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) if better[name] == "lower" else (med_a - med_b)
            gap = abs(worse) / med_a
            qd_a, qd_b = quartile_distance(a), quartile_distance(b)
            print(f"  {name:24s} {med_a:12.5g} {med_b:12.5g} "
                  f"{gap:8.2%} {qd_a:8.2%} {qd_b:8.2%}")
            worst_spread[name] = max(worst_spread[name], qd_a, qd_b)
            worst_gap[name] = max(worst_gap[name], gap)
        failing = [sum(1 for run in runs if run["failed operations"]) for runs in sets.values()]
        print(f"  runs with failed operations (must be none): "
              f"A {failing[0]}, B {failing[1]}")

    print("\nbounds: min(0.25, max(initial, 2 x worst gap, 3 x worst quartile "
          "distance)); setup_s: its gap, then the largest bound")
    gating = {**worst_spread, "setup_s": 0.0}  # its spread gates nothing
    bounds = {
        name: min(CAP, max(INITIAL[name], 2 * worst_gap[name], 3 * gating[name]))
        for name in better
    }
    bounds["setup_s"] = max(bounds.values())
    too_noisy = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        note = ""
        if max(2 * worst_gap[name], 2 * gating[name]) > CAP or (
            metric["unit"] in ("s", "ms", "1/s") and worst_gap[name] > 0.10
        ):
            note = "  <- too noisy: lengthen the run or demote to per-layer"
            too_noisy.append(name)
        elif 3 * gating[name] > CAP:
            note = "  (at the cap: spread above a third of it)"
        print(f"  {name:24s} gap {worst_gap[name]:7.2%}  quartile distance "
              f"{worst_spread[name]:7.2%}  bound {bounds[name]:.3f}{note}")
        metric["bound"] = round(bounds[name], 3)
    if too_noisy:
        print("no bound written: " + ", ".join(too_noisy))
        return 1
    if args.write:
        with open(path, "w") as handle:
            json.dump(spec, handle, indent=1)
            handle.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
