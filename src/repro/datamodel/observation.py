"""Per-frame object observations.

An :class:`ObjectObservation` is a single tuple of the structured relation
``VR(fid, id, class)``: object ``object_id`` of class ``label`` was observed
in frame ``frame_id``.  A :class:`FrameObservation` groups the observations of
one frame and offers set-style access to the object identifiers, which is the
representation consumed by the MCOS generation layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)


@dataclass(frozen=True)
class ObjectObservation:
    """One tuple of the structured relation ``VR(fid, id, class)``.

    Attributes
    ----------
    frame_id:
        Index of the frame in which the object was observed.
    object_id:
        Persistent object identifier assigned by the tracking layer.  The same
        physical object keeps the same identifier across frames (modulo
        tracking errors, which the vision substrate can simulate).
    label:
        Class label assigned by the detection layer (e.g. ``"car"``).
    confidence:
        Detection confidence in ``[0, 1]``; purely informational for the query
        layers but kept so the relation is a faithful record of the detector
        output.
    """

    frame_id: int
    object_id: int
    label: str
    confidence: float = 1.0

    def as_tuple(self) -> Tuple[int, int, str]:
        """Return the ``(fid, id, class)`` projection used by the paper."""
        return (self.frame_id, self.object_id, self.label)


class FrameObservation:
    """All objects observed in a single frame.

    The MCOS layer treats a frame as a set of object identifiers; the query
    layer additionally needs the class label of each identifier.  Both views
    are exposed here and are immutable once constructed.
    """

    __slots__ = ("_frame_id", "_labels", "_object_ids")

    def __init__(self, frame_id: int, labels: Mapping[int, str]):
        """Create a frame observation.

        Parameters
        ----------
        frame_id:
            Index of the frame.
        labels:
            Mapping from object identifier to class label for every object
            visible in the frame.
        """
        self._frame_id = int(frame_id)
        self._labels: Dict[int, str] = dict(labels)
        self._object_ids: FrozenSet[int] = frozenset(self._labels)

    @classmethod
    def from_observations(
        cls, frame_id: int, observations: Iterable[ObjectObservation]
    ) -> "FrameObservation":
        """Build a frame observation from raw relation tuples."""
        labels: Dict[int, str] = {}
        for obs in observations:
            if obs.frame_id != frame_id:
                raise ValueError(
                    f"observation for frame {obs.frame_id} passed to frame {frame_id}"
                )
            labels[obs.object_id] = obs.label
        return cls(frame_id, labels)

    @property
    def frame_id(self) -> int:
        """Index of the frame."""
        return self._frame_id

    @property
    def object_ids(self) -> FrozenSet[int]:
        """Identifiers of all objects visible in the frame."""
        return self._object_ids

    def label_of(self, object_id: int) -> str:
        """Return the class label of ``object_id`` in this frame."""
        return self._labels[object_id]

    def labels(self) -> Dict[int, str]:
        """Return a copy of the id -> label mapping."""
        return dict(self._labels)

    def same_labels(self, other: Optional["FrameObservation"]) -> bool:
        """True when ``other`` holds the same id -> label mapping.

        Frame ids are not compared.  The mappings are compared in place,
        without the copy :meth:`labels` makes: this is the per-frame test
        of whether a frame repeats its predecessor.
        """
        return other is not None and (
            other is self or self._labels == other._labels
        )

    def to_record(self) -> List[Any]:
        """Serialise the frame as ``[frame_id, [[object_id, label], ...]]``.

        Objects are listed in ascending id order, so the record (and anything
        embedding it, such as a streaming checkpoint) is deterministic for a
        given frame.  Round-trips through :meth:`from_record`.
        """
        return [
            self._frame_id,
            [[oid, self._labels[oid]] for oid in sorted(self._labels)],
        ]

    @classmethod
    def from_record(cls, record: Sequence[Any]) -> "FrameObservation":
        """Rebuild a frame from a :meth:`to_record` payload."""
        try:
            frame_id, pairs = record
            labels = {int(oid): str(label) for oid, label in pairs}
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed frame record: {record!r}") from exc
        return cls(int(frame_id), labels)

    def restricted_to_labels(self, allowed: Optional[Iterable[str]]) -> "FrameObservation":
        """Project the frame onto the given class labels.

        The MCOS generation layer drops objects whose class is not requested
        by any query (Section 3).  ``None`` means "keep everything".
        """
        if allowed is None:
            return self
        allowed_set = set(allowed)
        kept = {oid: lbl for oid, lbl in self._labels.items() if lbl in allowed_set}
        return FrameObservation(self._frame_id, kept)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[int]:
        return iter(self._object_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        ids = sorted(self._object_ids)
        return f"FrameObservation(frame_id={self._frame_id}, objects={ids})"


@dataclass(frozen=True)
class TrackStatistics:
    """Summary of a single object's presence in a relation.

    Used by the dataset statistics module (Table 6) and by tests that check
    the calibration of the trace simulators.
    """

    object_id: int
    label: str
    first_frame: int
    last_frame: int
    appearances: int
    occlusions: int

    @property
    def lifespan(self) -> int:
        """Number of frames between first and last appearance, inclusive."""
        return self.last_frame - self.first_frame + 1

    visible_gaps: Tuple[Tuple[int, int], ...] = field(default=())
