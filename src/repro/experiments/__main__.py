"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments              # fast, scaled-down run
    python -m repro.experiments --scale 1.0  # full-size run (slow)
    python -m repro.experiments --only figure9 figure10

The output is a plain-text report with one table per dataset per experiment,
mirroring the series plotted in the paper's figures.
"""

from __future__ import annotations

import argparse
import sys
import time

#: Figure experiment name -> its function in :mod:`repro.experiments.figures`,
#: in report order.  Resolved inside :func:`main`: the figures need numpy,
#: ``--help`` does not.
EXPERIMENTS = {
    "figure4": "figure4_total_frames",
    "figure5": "figure5_duration",
    "figure6": "figure6_window_size",
    "figure7": "figure7_occlusion",
    "figure8": "figure8_query_count",
    "figure9": "figure9_nmin",
    "figure10": "figure10_end_to_end",
}


def main(argv=None) -> int:
    """Run the requested experiments and print their report tables."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.25,
                        help="dataset / parameter scale (1.0 = paper size)")
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset of experiments (e.g. table6 figure9)")
    parser.add_argument("--datasets", nargs="*", default=None,
                        help="restrict to these datasets (e.g. V1 M2)")
    args = parser.parse_args(argv)

    from repro.datasets.statistics import statistics_table
    from repro.experiments import figures
    from repro.experiments.report import render_experiment

    selected = args.only or ["table6", *EXPERIMENTS]
    for name in selected:
        start = time.perf_counter()
        if name == "table6":
            stats = figures.table6_statistics(scale=args.scale) if not args.datasets \
                else figures.table6_statistics(args.datasets, scale=args.scale)
            print("== table6: dataset statistics ==")
            print(statistics_table(stats))
        elif name in EXPERIMENTS:
            kwargs = {"scale": args.scale}
            if args.datasets and name not in ("figure8", "figure9"):
                kwargs["datasets"] = args.datasets
            result = getattr(figures, EXPERIMENTS[name])(**kwargs)
            print(render_experiment(result))
        else:
            print(f"unknown experiment {name!r}", file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - start
        print(f"[{name} completed in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
