#!/usr/bin/env python3
"""Quickstart: evaluate a temporal CNF query over a simulated video feed.

The example mirrors the paper's running scenario: find video segments in
which at least two cars appear jointly for a minimum duration inside a
sliding window.  It uses the D1 dataset (a Detrac-style static traffic
camera) and the **Session API** — the package's service-shaped entry point:
queries are registered against a session, frames are ingested as they
arrive, and matches are read off the query's handle.

Run with::

    python examples/quickstart.py
"""

import time

from repro import Q, Session
from repro.datasets import dataset_statistics, load_dataset


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Object detection and tracking: raw "video" -> VR(fid, id, class).
    # ------------------------------------------------------------------
    pipeline_result = load_dataset("D1")
    relation = pipeline_result.relation
    stats = dataset_statistics(relation, "D1")
    print("Dataset:", stats.as_row())
    print(
        f"Detection took {pipeline_result.detection_seconds:.2f}s, "
        f"tracking took {pipeline_result.tracking_seconds:.2f}s, "
        f"{pipeline_result.id_switches} identifier switches."
    )

    # ------------------------------------------------------------------
    # 2. Open a session and register the standing query with the fluent
    #    builder.  Window and duration are in frames (30 fps video).
    # ------------------------------------------------------------------
    window, duration = 90, 45
    with Session(backend="inline", method="SSG") as session:
        handle = session.register(
            Q("car") >= 2, window=window, duration=duration,
            name="two-cars-jointly",
        )
        print(f"\nQuery: {handle.query}  "
              f"(window={window} frames, duration={duration} frames)")

        # --------------------------------------------------------------
        # 3. Stream the feed through the session and read the matches.
        # --------------------------------------------------------------
        start = time.perf_counter()
        for frame in relation.frames():
            session.ingest("d1-camera", frame)
        seconds = time.perf_counter() - start
        matches = handle.matches()

        report = session.stats()
        frames_seen = report["streams"][0][1]["frames"]
        shard = report["backend_stats"]["per_shard"]["d1-camera"]
        print(
            f"\nProcessed {frames_seen} frames in "
            f"{seconds:.2f}s "
            "(MCOS generation and query evaluation)."
        )
        print("Result states examined: "
              f"{shard['generator']['result_states_emitted']}")
        print(f"Query matches: {len(matches)}")

        for match in matches[:5]:
            frames = match.frame_ids
            print(
                f"  window ending at frame {match.frame_id}: objects "
                f"{sorted(match.object_ids)} co-occur in {len(frames)} frames "
                f"({frames[0]}..{frames[-1]}), counts={match.counts()}"
            )
        if len(matches) > 5:
            print(f"  ... and {len(matches) - 5} more matches")


if __name__ == "__main__":
    main()
