#!/usr/bin/env python3
"""Compare NAIVE, MFS and SSG state maintenance on one dataset.

Reproduces, at a reduced scale, the trade-off analysis of the paper's
Section 6.2: how much state-maintenance work each strategy performs as the
window size grows, on a dense dataset (M2, the moving-camera pedestrian
scene with the most objects per frame).

Each (window, method) cell drives the same feed through a
:class:`~repro.Session` on the chosen method.  A sentinel query keeps the
full object population in play (``restrict_labels=False``, a threshold no
scene reaches), so the numbers isolate MCOS state maintenance exactly as
the paper's figures do.

Run with::

    python examples/method_comparison.py
"""

import time

from repro import Q, Session
from repro.datasets import load_relation


def measure(relation, method: str, window: int, duration: int):
    """Session-driven state-maintenance cost of one (method, window) cell:
    the shard's stats and the seconds its ingest loop took."""
    with Session(
        backend="inline", method=method, restrict_labels=False
    ) as session:
        session.register(
            Q("person") >= 99,  # sentinel: never satisfied, nothing projected
            window=window, duration=duration, name="probe",
        )
        start = time.perf_counter()
        for frame in relation.frames():
            session.ingest("m2-feed", frame)
        seconds = time.perf_counter() - start
        return session.stats()["backend_stats"]["per_shard"]["m2-feed"], seconds


def main() -> None:
    relation = load_relation("M2", scale=0.5)
    duration_ratio = 0.8
    print(f"Dataset M2 (scaled): {relation.num_frames} frames, "
          f"{len(relation.object_ids())} objects\n")

    header = (f"{'window':>8} {'method':>7} {'seconds':>9} {'visits':>10} "
              f"{'max states':>11} {'results':>8}")
    print(header)
    print("-" * len(header))
    for window in (60, 90, 120, 150):
        duration = int(window * duration_ratio)
        for method in ("NAIVE", "MFS", "SSG"):
            stats, seconds = measure(relation, method, window, duration)
            generator = stats["generator"]
            print(f"{window:>8} {method:>7} {seconds:>9.3f} "
                  f"{generator['state_visits']:>10} "
                  f"{generator['max_live_states']:>11} "
                  f"{generator['result_states_emitted']:>8}")
        print()

    print("The marked-frame-set and graph approaches prune invalid states "
          "early; the SSG additionally skips whole subtrees whose\n"
          "intersection with the arriving frame is empty, which shows up as "
          "the lower state-visit counts above.")


if __name__ == "__main__":
    main()
