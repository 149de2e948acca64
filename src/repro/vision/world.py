"""A 2-D world and camera simulation producing ground-truth object tracks.

The simulator stands in for real video: it maintains a set of *scripted
objects* (vehicles, pedestrians, ...) that enter the scene at a given frame,
move along piecewise-linear trajectories and leave, and a camera (static or
panning) that maps world coordinates to image coordinates.  For every frame
the world reports the ground-truth visible objects, including the fraction of
each object occluded by objects closer to the camera and explicit scripted
occlusion intervals (an object passing behind a building, for example).

Each object also carries a fixed *appearance embedding*; the detector adds
noise to it and the Deep SORT-style tracker uses it for re-identification, so
the full detection/tracking code path of the paper's first layer is
exercised.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.vision.geometry import BoundingBox

#: Dimensionality of the synthetic appearance embeddings.
APPEARANCE_DIM = 16


@dataclass
class ScriptedObject:
    """A ground-truth object with a scripted trajectory.

    Attributes
    ----------
    world_id:
        Ground-truth identity (distinct from the tracker-assigned id).
    label:
        Class label (``person``, ``car``, ``truck``, ``bus``).
    enter_frame / exit_frame:
        First and last frame (inclusive) in which the object is in the scene.
    waypoints:
        World-coordinate waypoints ``(frame, x, y)`` the object interpolates
        between; positions before the first / after the last waypoint clamp.
    size:
        ``(width, height)`` of the object's bounding box in world units.
    hidden_intervals:
        Frame intervals ``(start, end)`` during which the object is fully
        hidden (scripted occlusion, e.g. behind a building), inclusive.
    appearance:
        Fixed appearance embedding used by the tracker simulation.
    """

    world_id: int
    label: str
    enter_frame: int
    exit_frame: int
    waypoints: Sequence[Tuple[int, float, float]]
    size: Tuple[float, float]
    hidden_intervals: Sequence[Tuple[int, int]] = field(default_factory=tuple)
    appearance: Optional[np.ndarray] = None
    depth: float = 0.0

    def __post_init__(self) -> None:
        if self.exit_frame < self.enter_frame:
            raise ValueError("exit_frame must not precede enter_frame")
        if not self.waypoints:
            raise ValueError("an object needs at least one waypoint")
        if self.appearance is None:
            rng = np.random.default_rng(self.world_id + 7919)
            vector = rng.normal(size=APPEARANCE_DIM)
            self.appearance = vector / (np.linalg.norm(vector) + 1e-12)

    def is_active(self, frame_id: int) -> bool:
        """True when the object is inside the scene at ``frame_id``."""
        return self.enter_frame <= frame_id <= self.exit_frame

    def is_hidden(self, frame_id: int) -> bool:
        """True during a scripted full-occlusion interval."""
        return any(start <= frame_id <= end for start, end in self.hidden_intervals)

    def position(self, frame_id: int) -> Tuple[float, float]:
        """World position at ``frame_id`` (piecewise-linear interpolation)."""
        waypoints = list(self.waypoints)
        if frame_id <= waypoints[0][0]:
            return waypoints[0][1], waypoints[0][2]
        if frame_id >= waypoints[-1][0]:
            return waypoints[-1][1], waypoints[-1][2]
        for (f0, x0, y0), (f1, x1, y1) in zip(waypoints, waypoints[1:]):
            if f0 <= frame_id <= f1:
                if f1 == f0:
                    return x1, y1
                t = (frame_id - f0) / (f1 - f0)
                return x0 + t * (x1 - x0), y0 + t * (y1 - y0)
        return waypoints[-1][1], waypoints[-1][2]

    def bounding_box(self, frame_id: int) -> BoundingBox:
        """World-coordinate bounding box centred on the object's position."""
        x, y = self.position(frame_id)
        width, height = self.size
        return BoundingBox(x - width / 2.0, y - height / 2.0, width, height)


@dataclass
class GroundTruthObject:
    """A visible object in one frame, as reported by the world."""

    world_id: int
    label: str
    box: BoundingBox
    occlusion: float
    appearance: np.ndarray


@dataclass
class Camera:
    """A pinhole-free 2-D camera: a moving crop of the world plane.

    ``pan_speed`` expresses horizontal camera motion in world units per frame
    (zero for static surveillance cameras, non-zero for the hand-held MOT16
    style sequences).
    """

    width: float = 1920.0
    height: float = 1080.0
    origin_x: float = 0.0
    origin_y: float = 0.0
    pan_speed: float = 0.0
    pan_amplitude: float = 0.0

    def offset_at(self, frame_id: int) -> Tuple[float, float]:
        """Camera origin at the given frame."""
        if self.pan_amplitude > 0:
            # Smooth back-and-forth panning, as a hand-held camera would.
            phase = math.sin(frame_id * self.pan_speed)
            return (self.origin_x + self.pan_amplitude * phase, self.origin_y)
        return (self.origin_x + self.pan_speed * frame_id, self.origin_y)

    def project(self, box: BoundingBox, frame_id: int) -> Optional[BoundingBox]:
        """Project a world box to image coordinates; None when out of view."""
        ox, oy = self.offset_at(frame_id)
        shifted = box.translated(-ox, -oy)
        if shifted.visible_fraction(self.width, self.height) < 0.25:
            return None
        try:
            return shifted.clipped(self.width, self.height)
        except ValueError:
            return None


class World:
    """The scene: scripted objects observed through a camera."""

    def __init__(
        self,
        objects: Iterable[ScriptedObject],
        camera: Optional[Camera] = None,
        num_frames: Optional[int] = None,
        name: str = "world",
    ):
        self._objects: List[ScriptedObject] = list(objects)
        self.camera = camera or Camera()
        self.name = name
        if num_frames is not None:
            self.num_frames = num_frames
        elif self._objects:
            self.num_frames = max(obj.exit_frame for obj in self._objects) + 1
        else:
            self.num_frames = 0

    @property
    def objects(self) -> List[ScriptedObject]:
        """The scripted objects of the scene."""
        return list(self._objects)

    def ground_truth(self, frame_id: int) -> List[GroundTruthObject]:
        """Ground-truth visible objects of one frame.

        Occlusion is the fraction of an object's box covered by boxes of
        objects with larger ``depth`` (closer to the camera); fully hidden
        scripted intervals remove the object from the frame entirely.
        """
        visible: List[Tuple[ScriptedObject, BoundingBox]] = []
        for obj in self._objects:
            if not obj.is_active(frame_id) or obj.is_hidden(frame_id):
                continue
            projected = self.camera.project(obj.bounding_box(frame_id), frame_id)
            if projected is None:
                continue
            visible.append((obj, projected))

        result: List[GroundTruthObject] = []
        for obj, box in visible:
            occlusion = 0.0
            for other, other_box in visible:
                if other is obj or other.depth <= obj.depth:
                    continue
                occlusion = max(occlusion, box.overlap_fraction(other_box))
            result.append(
                GroundTruthObject(
                    world_id=obj.world_id,
                    label=obj.label,
                    box=box,
                    occlusion=min(1.0, occlusion),
                    appearance=obj.appearance,
                )
            )
        return result

    def frames(self) -> Iterable[Tuple[int, List[GroundTruthObject]]]:
        """Iterate over ``(frame_id, ground truth)`` pairs for every frame."""
        for frame_id in range(self.num_frames):
            yield frame_id, self.ground_truth(frame_id)
