"""Axis-aligned bounding boxes and the geometric helpers used by the tracker."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned bounding box in image coordinates.

    ``x`` and ``y`` are the coordinates of the top-left corner; ``width`` and
    ``height`` are strictly positive extents.
    """

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("bounding boxes must have positive extents")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def x2(self) -> float:
        """Right edge."""
        return self.x + self.width

    @property
    def y2(self) -> float:
        """Bottom edge."""
        return self.y + self.height

    @property
    def area(self) -> float:
        """Box area."""
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        """Box centre ``(cx, cy)``."""
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def intersection_area(self, other: "BoundingBox") -> float:
        """Area of the overlap with another box (0 when disjoint)."""
        dx = min(self.x2, other.x2) - max(self.x, other.x)
        dy = min(self.y2, other.y2) - max(self.y, other.y)
        if dx <= 0 or dy <= 0:
            return 0.0
        return dx * dy

    def iou(self, other: "BoundingBox") -> float:
        """Intersection-over-union with another box."""
        inter = self.intersection_area(other)
        if inter <= 0:
            return 0.0
        union = self.area + other.area - inter
        return inter / union

    def overlap_fraction(self, other: "BoundingBox") -> float:
        """Fraction of this box covered by ``other`` (used for occlusion)."""
        if self.area <= 0:
            return 0.0
        return self.intersection_area(other) / self.area

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def translated(self, dx: float, dy: float) -> "BoundingBox":
        """Return a copy shifted by ``(dx, dy)``."""
        return BoundingBox(self.x + dx, self.y + dy, self.width, self.height)

    def jittered(self, dx: float, dy: float, dw: float, dh: float) -> "BoundingBox":
        """Return a copy with perturbed position and extents (clamped positive)."""
        return BoundingBox(
            self.x + dx,
            self.y + dy,
            max(1e-3, self.width + dw),
            max(1e-3, self.height + dh),
        )

    def clipped(self, frame_width: float, frame_height: float) -> "BoundingBox":
        """Clip the box to the visible frame; raises if nothing remains."""
        x1 = max(0.0, self.x)
        y1 = max(0.0, self.y)
        x2 = min(frame_width, self.x2)
        y2 = min(frame_height, self.y2)
        if x2 <= x1 or y2 <= y1:
            raise ValueError("box lies entirely outside the frame")
        return BoundingBox(x1, y1, x2 - x1, y2 - y1)

    def visible_fraction(self, frame_width: float, frame_height: float) -> float:
        """Fraction of the box that lies inside the visible frame."""
        x1 = max(0.0, self.x)
        y1 = max(0.0, self.y)
        x2 = min(frame_width, self.x2)
        y2 = min(frame_height, self.y2)
        if x2 <= x1 or y2 <= y1:
            return 0.0
        return ((x2 - x1) * (y2 - y1)) / self.area

    def as_tuple(self) -> Tuple[float, float, float, float]:
        """Return ``(x, y, width, height)``."""
        return (self.x, self.y, self.width, self.height)
