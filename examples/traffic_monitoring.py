#!/usr/bin/env python3
"""Traffic monitoring: a live session with queries arriving and retiring.

A traffic operations centre watches an intersection camera and wants
standing alerts such as "at least three cars jointly present for two
seconds" (congestion) or "a bus in view" (bus-lane monitoring).  This
example shows the **live query lifecycle** of the Session API: the feed
keeps flowing while an analyst

* registers alerts up front,
* poses a *new* alert mid-stream (it joins live, with a documented warm-up
  watermark before its results carry from-the-start guarantees), and
* retires an alert that is no longer needed (its id is tombstoned and its
  evaluator state released).

It also demonstrates the Proposition-1 pruning optimisation: because every
condition uses ``>=``, the session can terminate unpromising states early
(the ``SSG_O`` variant of the paper), and the example reports how much
state maintenance that saves.

Run with::

    python examples/traffic_monitoring.py
"""

from repro import Q, Session
from repro.datasets import load_dataset


def run_monitoring(enable_pruning: bool, relation, window: int, duration: int):
    """One monitoring run over the feed.

    Returns ``(session stats, alerts-by-name, warm-up watermark of the
    mid-shift heavy-vehicles alert)``.
    """
    frames = list(relation.frames())
    midpoint = len(frames) // 2
    with Session(
        backend="inline", method="SSG", enable_pruning=enable_pruning
    ) as session:
        congestion = session.register(
            Q("car") >= 3, window=window, duration=duration, name="congestion"
        )
        bus_lane = session.register(
            Q("bus") >= 1, window=window, duration=duration, name="bus-in-view"
        )

        for frame in frames[:midpoint]:
            session.ingest("intersection-cam", frame)

        # Mid-shift, the analyst adds a heavy-vehicle alert and drops the
        # bus-lane one — no teardown, the feed keeps flowing.
        heavy = session.register(
            (Q("truck") >= 1) & (Q("car") >= 1),
            window=window, duration=duration, name="heavy-vehicles",
        )
        bus_lane.cancel()

        for frame in frames[midpoint:]:
            session.ingest("intersection-cam", frame)

        alerts = {
            handle.name: handle.matches()
            for handle in (congestion, bus_lane, heavy)
        }
        watermark = heavy.warmup_watermark("intersection-cam")
        return session.stats(), alerts, watermark


def main() -> None:
    # D2: the densest traffic-camera feed of the evaluation datasets.
    pipeline_result = load_dataset("D2")
    relation = pipeline_result.relation
    window, duration = 90, 60  # 3-second window, 2 seconds of joint presence

    print(f"Streaming {relation.num_frames} frames from the D2 feed "
          f"(w={window}, d={duration})\n")

    for enable_pruning in (False, True):
        stats, alerts, watermark = run_monitoring(
            enable_pruning, relation, window, duration
        )
        label = "SSG_O" if enable_pruning else "SSG"
        print(f"[{label}]")
        for name, matches in alerts.items():
            windows = {m.frame_id for m in matches}
            state = "retired mid-shift" if name == "bus-in-view" else "active"
            print(f"  {name:15s} ({state}): {len(matches)} alerts "
                  f"in {len(windows)} distinct windows")
        print(f"  heavy-vehicles joined live; full-history guarantees from "
              f"frame {watermark} on")
        generators = [
            entry["generator"]
            for entry in stats["backend_stats"]["per_shard"].values()
        ]
        created = sum(g["states_created"] for g in generators)
        terminated = sum(g["states_terminated"] for g in generators)
        visits = sum(g["state_visits"] for g in generators)
        print(f"  states created: {created}, terminated early: {terminated}, "
              f"state visits: {visits}\n")


if __name__ == "__main__":
    main()
