"""The detection + tracking pipeline producing the structured relation.

This is the first layer of the paper's architecture (Figure 2): raw frames go
through the detector and the tracker, and the confirmed tracks of every frame
become tuples of the relation ``VR(fid, id, class)`` handed to the MCOS
generation layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.datamodel.relation import VideoRelation
from repro.vision.detector import DetectorConfig, SimulatedDetector
from repro.vision.tracker import DeepSortLikeTracker, TrackerConfig, TrackObservation
from repro.vision.world import World


@dataclass
class PipelineResult:
    """Output of a pipeline run: the relation plus timing/diagnostic data."""

    relation: VideoRelation
    detection_seconds: float
    tracking_seconds: float
    detections_per_frame: List[int] = field(default_factory=list)
    tracks_per_frame: List[int] = field(default_factory=list)
    id_switches: int = 0

    @property
    def total_seconds(self) -> float:
        """Total detection plus tracking time."""
        return self.detection_seconds + self.tracking_seconds


class DetectionTrackingPipeline:
    """Runs the simulated detector and tracker over a world simulation."""

    def __init__(
        self,
        detector: Optional[SimulatedDetector] = None,
        tracker: Optional[DeepSortLikeTracker] = None,
    ):
        self.detector = detector or SimulatedDetector(DetectorConfig())
        self.tracker = tracker or DeepSortLikeTracker(TrackerConfig())

    def run(self, world: World, name: Optional[str] = None) -> PipelineResult:
        """Process every frame of ``world`` and build the structured relation."""
        self.tracker.reset()
        relation = VideoRelation(name=name or world.name)
        detection_seconds = 0.0
        tracking_seconds = 0.0
        detections_per_frame: List[int] = []
        tracks_per_frame: List[int] = []

        for frame_id, truth in world.frames():
            start = time.perf_counter()
            detections = self.detector.detect(truth)
            detection_seconds += time.perf_counter() - start

            start = time.perf_counter()
            observations = self.tracker.update(detections)
            tracking_seconds += time.perf_counter() - start

            labels: Dict[int, str] = {
                obs.track_id: obs.label for obs in observations
            }
            relation.append_objects(labels)
            detections_per_frame.append(len(detections))
            tracks_per_frame.append(len(observations))

        return PipelineResult(
            relation=relation,
            detection_seconds=detection_seconds,
            tracking_seconds=tracking_seconds,
            detections_per_frame=detections_per_frame,
            tracks_per_frame=tracks_per_frame,
            id_switches=self.tracker.id_switches,
        )
