"""Structured data model for video feeds.

The Object Detection & Tracking layer produces a structured relation
``VR(fid, id, class)`` (Section 2 of the paper).  This package defines the
in-memory representation of that relation, its frames and its file
formats.
"""

from repro.datamodel.io import (
    load_relation_csv,
    load_relation_jsonl,
    save_relation_csv,
    save_relation_jsonl,
)
from repro.datamodel.observation import FrameObservation, ObjectObservation
from repro.datamodel.relation import VideoRelation

__all__ = [
    "ObjectObservation",
    "FrameObservation",
    "VideoRelation",
    "save_relation_csv",
    "load_relation_csv",
    "save_relation_jsonl",
    "load_relation_jsonl",
]
