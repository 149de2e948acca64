#!/usr/bin/env python3
"""Surveillance scenario: search footage for a reported incident.

The paper's introduction motivates temporal queries with an investigation
scenario: witnesses report "a white car and two males on the street", and
analysts need every video segment in which a car and at least two people
appear jointly for a sustained period.

This example builds a small surveillance scene with the simulated world
(a parked car, pedestrians passing by, a group lingering near the car),
runs detection and tracking, and then poses several incident queries
through one :class:`~repro.Session` per MCOS generation strategy,
comparing their costs.

Run with::

    python examples/surveillance_incident.py
"""

import time

from repro import Q, Session
from repro.vision import Camera, ScriptedObject, World
from repro.vision.detector import DetectorConfig, SimulatedDetector
from repro.vision.pipeline import DetectionTrackingPipeline
from repro.vision.tracker import DeepSortLikeTracker


def build_incident_scene() -> World:
    """A street scene: one parked car, passers-by, and a loitering group."""
    objects = [
        # The parked car of interest: present for the whole clip.
        ScriptedObject(
            world_id=0, label="car", enter_frame=0, exit_frame=899,
            waypoints=[(0, 900.0, 650.0), (899, 900.0, 650.0)],
            size=(180.0, 110.0), depth=0.2,
        ),
        # Two people who approach the car and stay near it (the incident).
        ScriptedObject(
            world_id=1, label="person", enter_frame=120, exit_frame=720,
            waypoints=[(120, 100.0, 800.0), (300, 850.0, 700.0), (720, 870.0, 690.0)],
            size=(55.0, 150.0), depth=0.8,
        ),
        ScriptedObject(
            world_id=2, label="person", enter_frame=150, exit_frame=700,
            waypoints=[(150, 1800.0, 820.0), (330, 980.0, 710.0), (700, 960.0, 700.0)],
            size=(60.0, 155.0), depth=0.9,
            hidden_intervals=((400, 430),),  # briefly occluded behind the car
        ),
        # Unrelated traffic passing through.
        ScriptedObject(
            world_id=3, label="car", enter_frame=200, exit_frame=320,
            waypoints=[(200, -150.0, 400.0), (320, 2050.0, 400.0)],
            size=(170.0, 105.0), depth=0.4,
        ),
        ScriptedObject(
            world_id=4, label="truck", enter_frame=500, exit_frame=650,
            waypoints=[(500, 2050.0, 350.0), (650, -200.0, 350.0)],
            size=(260.0, 160.0), depth=0.4,
        ),
        ScriptedObject(
            world_id=5, label="person", enter_frame=60, exit_frame=240,
            waypoints=[(60, 300.0, 900.0), (240, 1700.0, 880.0)],
            size=(58.0, 150.0), depth=0.7,
        ),
    ]
    return World(objects, camera=Camera(), num_frames=900, name="incident-scene")


def main() -> None:
    world = build_incident_scene()
    pipeline = DetectionTrackingPipeline(
        SimulatedDetector(DetectorConfig(), seed=11), DeepSortLikeTracker()
    )
    result = pipeline.run(world)
    relation = result.relation
    print(
        f"Scene: {relation.num_frames} frames, "
        f"{len(relation.object_ids())} tracked objects, "
        f"{result.id_switches} id switches."
    )

    # 10-second window (300 frames), joint presence for at least 5 seconds.
    window, duration = 300, 150
    incident_queries = [
        ((Q("car") >= 1) & (Q("person") >= 2), "car-with-two-people"),
        (Q("car") >= 2, "two-cars"),
        ((Q("truck") >= 1) & (Q("person") >= 1), "truck-with-person"),
    ]

    for method in ("NAIVE", "MFS", "SSG"):
        with Session(backend="inline", method=method) as session:
            handles = [
                session.register(expr, window=window, duration=duration, name=name)
                for expr, name in incident_queries
            ]
            start = time.perf_counter()
            for frame in relation.frames():
                session.ingest("forensic-clip", frame)
            seconds = time.perf_counter() - start

            stats = session.stats()
            shard = stats["backend_stats"]["per_shard"]["forensic-clip"]
            print(f"\n[{method}] total {seconds:.2f}s, "
                  f"{shard['generator']['state_visits']} state visits")
            for handle in handles:
                matches = handle.matches()
                windows = {m.frame_id for m in matches}
                print(f"  {handle.name:22s} -> satisfied in {len(windows)} windows")
                if matches:
                    print(f"    first match at frame {min(windows)}, "
                          f"last at frame {max(windows)}")


if __name__ == "__main__":
    main()
