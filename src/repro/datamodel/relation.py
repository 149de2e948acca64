"""The structured relation ``VR(fid, id, class)``.

A :class:`VideoRelation` is the output of the Object Detection & Tracking
layer and the input of the MCOS Generation layer (Figure 2 in the paper).  It
stores, for every frame of a video feed, the set of detected object
identifiers together with their class labels.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.datamodel.observation import (
    FrameObservation,
    ObjectObservation,
    TrackStatistics,
)


class VideoRelation:
    """In-memory structured relation extracted from a video feed.

    Frames are indexed ``0 .. num_frames - 1``.  A frame with no detected
    objects is represented by an empty :class:`FrameObservation` so that frame
    indices always align with the underlying video.
    """

    def __init__(self, frames: Optional[Sequence[FrameObservation]] = None,
                 name: str = "video") -> None:
        self._frames: List[FrameObservation] = []
        self.name = name
        if frames:
            for frame in frames:
                self.append(frame)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_tuples(
        cls,
        tuples: Iterable[Tuple[int, int, str]],
        num_frames: Optional[int] = None,
        name: str = "video",
        first_frame_id: int = 0,
    ) -> "VideoRelation":
        """Build a relation from raw ``(fid, id, class)`` tuples.

        Parameters
        ----------
        tuples:
            Iterable of ``(frame_id, object_id, class_label)`` tuples.  Frame
            ids may appear in any order.
        num_frames:
            Total number of frames.  Defaults to ``max(fid) - first_frame_id
            + 1``; frames with no tuples become empty frames.
        name:
            Human readable dataset name.
        first_frame_id:
            Frame id of the relation's first frame (nonzero for a relation
            cut from the middle of a longer feed); tuples must not refer to
            earlier frames.
        """
        by_frame: Dict[int, Dict[int, str]] = {}
        max_fid = first_frame_id - 1
        for fid, oid, label in tuples:
            if fid < first_frame_id:
                raise ValueError(
                    f"tuple frame id {fid} precedes first_frame_id {first_frame_id}"
                )
            by_frame.setdefault(fid, {})[oid] = label
            if fid > max_fid:
                max_fid = fid
        total = num_frames if num_frames is not None else max_fid - first_frame_id + 1
        if max_fid >= first_frame_id + total:
            # Materialising only `total` frames would silently drop the
            # out-of-range observations, so reject the inconsistency instead.
            raise ValueError(
                f"tuple frame id {max_fid} outside the declared range "
                f"[{first_frame_id}, {first_frame_id + total})"
            )
        frames = [
            FrameObservation(fid, by_frame.get(fid, {}))
            for fid in range(first_frame_id, first_frame_id + total)
        ]
        return cls(frames, name=name)

    @classmethod
    def from_object_sets(
        cls,
        object_sets: Sequence[Iterable[int]],
        labels: Optional[Dict[int, str]] = None,
        default_label: str = "object",
        name: str = "video",
        first_frame_id: int = 0,
    ) -> "VideoRelation":
        """Build a relation from per-frame object-id sets.

        This mirrors the examples in the paper (e.g. the five-frame video
        ``({B}, {ABC}, {ABDF}, {ABCF}, {ABD})``), where class labels are not
        the point.  ``labels`` can still assign classes to specific ids.
        ``first_frame_id`` offsets the generated frame ids, which is how a
        relation cut from the middle of a longer feed looks.
        """
        labels = labels or {}
        frames: List[FrameObservation] = []
        for offset, ids in enumerate(object_sets):
            frame_labels = {oid: labels.get(oid, default_label) for oid in ids}
            frames.append(FrameObservation(first_frame_id + offset, frame_labels))
        return cls(frames, name=name)

    def append(self, frame: FrameObservation) -> None:
        """Append the next frame; its ``frame_id`` must be contiguous.

        The first frame fixes the base id (which need not be 0 — a relation
        may be cut from the middle of a longer feed); every later frame must
        follow its predecessor directly.
        """
        if self._frames:
            expected = self._frames[-1].frame_id + 1
            if frame.frame_id != expected:
                raise ValueError(
                    f"expected frame_id {expected}, got {frame.frame_id}; "
                    "frames must be contiguous"
                )
        self._frames.append(frame)

    def append_objects(self, labels: Dict[int, str]) -> FrameObservation:
        """Append a frame given its id -> label mapping and return it."""
        next_id = self._frames[-1].frame_id + 1 if self._frames else 0
        frame = FrameObservation(next_id, labels)
        self._frames.append(frame)
        return frame

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        """Total number of frames in the feed."""
        return len(self._frames)

    @property
    def first_frame_id(self) -> int:
        """Frame id of the first frame (0 unless the relation is offset)."""
        return self._frames[0].frame_id if self._frames else 0

    def frame(self, frame_id: int) -> FrameObservation:
        """Return the observation of the frame with id ``frame_id``."""
        index = frame_id - self.first_frame_id
        if not 0 <= index < len(self._frames):
            raise KeyError(f"frame {frame_id} not in relation")
        return self._frames[index]

    def frames(self) -> Iterator[FrameObservation]:
        """Iterate over all frames in temporal order."""
        return iter(self._frames)

    def __len__(self) -> int:
        return len(self._frames)

    def __iter__(self) -> Iterator[FrameObservation]:
        return iter(self._frames)

    def __getitem__(self, frame_id: int) -> FrameObservation:
        """Subscript access by *frame id* (same contract as :meth:`frame`).

        For relations starting at frame 0 this equals positional indexing;
        for mid-feed cuts the two differ, and the frame-id contract wins.
        """
        return self.frame(frame_id)

    def tuples(self) -> Iterator[Tuple[int, int, str]]:
        """Yield all ``(fid, id, class)`` tuples of the relation."""
        for frame in self._frames:
            for oid in sorted(frame.object_ids):
                yield (frame.frame_id, oid, frame.label_of(oid))

    def object_ids(self) -> Set[int]:
        """Return the set of all object identifiers in the relation."""
        ids: Set[int] = set()
        for frame in self._frames:
            ids.update(frame.object_ids)
        return ids

    def label_of(self, object_id: int) -> str:
        """Return the class label of an object (first occurrence wins)."""
        for frame in self._frames:
            if object_id in frame:
                return frame.label_of(object_id)
        raise KeyError(f"object {object_id} not present in relation")

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def restricted_to_labels(self, allowed: Optional[Iterable[str]]) -> "VideoRelation":
        """Project every frame onto the given class labels."""
        if allowed is None:
            return self
        allowed_set = set(allowed)
        frames = [f.restricted_to_labels(allowed_set) for f in self._frames]
        return VideoRelation(frames, name=self.name)

    def prefix(self, num_frames: int) -> "VideoRelation":
        """Return a relation containing only the first ``num_frames`` frames."""
        return VideoRelation(self._frames[:num_frames], name=self.name)

    def observations(self) -> Iterator[ObjectObservation]:
        """Yield all observations as :class:`ObjectObservation` records."""
        for frame in self._frames:
            for oid in sorted(frame.object_ids):
                yield ObjectObservation(frame.frame_id, oid, frame.label_of(oid))

    # ------------------------------------------------------------------
    # Per-object statistics (used by Table 6 and the trace calibrators)
    # ------------------------------------------------------------------
    def track_statistics(self) -> Dict[int, TrackStatistics]:
        """Compute per-object presence statistics.

        An *occlusion* is counted every time an object disappears from the
        visible screen for one or more frames between its first and last
        appearance and then reappears, matching the Occ/Obj statistic of
        Table 6.
        """
        first: Dict[int, int] = {}
        last: Dict[int, int] = {}
        appearances: Dict[int, int] = {}
        labels: Dict[int, str] = {}
        presence: Dict[int, List[int]] = {}
        for frame in self._frames:
            for oid in frame.object_ids:
                if oid not in first:
                    first[oid] = frame.frame_id
                    labels[oid] = frame.label_of(oid)
                last[oid] = frame.frame_id
                appearances[oid] = appearances.get(oid, 0) + 1
                presence.setdefault(oid, []).append(frame.frame_id)

        stats: Dict[int, TrackStatistics] = {}
        for oid, frames_present in presence.items():
            gaps: List[Tuple[int, int]] = []
            occlusions = 0
            for prev, cur in zip(frames_present, frames_present[1:]):
                if cur > prev + 1:
                    occlusions += 1
                    gaps.append((prev + 1, cur - 1))
            stats[oid] = TrackStatistics(
                object_id=oid,
                label=labels[oid],
                first_frame=first[oid],
                last_frame=last[oid],
                appearances=appearances[oid],
                occlusions=occlusions,
                visible_gaps=tuple(gaps),
            )
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"VideoRelation(name={self.name!r}, frames={self.num_frames}, "
            f"objects={len(self.object_ids())})"
        )
