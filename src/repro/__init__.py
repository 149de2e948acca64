"""repro: a reproduction of "Evaluating Temporal Queries Over Video Feeds".

The package implements the full three-layer architecture of the paper
(Chen, Yu, Koudas):

* ``repro.vision`` -- a simulated object detection and tracking substrate
  standing in for Faster R-CNN + Deep SORT;
* ``repro.datamodel`` -- the structured relation ``VR(fid, id, class)``;
* ``repro.core`` -- MCOS generation with the NAIVE baseline, the Marked Frame
  Set (MFS) approach and the Strict State Graph (SSG) approach;
* ``repro.query`` -- CNF count queries (fluent builder + text parser, one
  canonical form) and their inverted-index evaluation (CNFEval / CNFEvalE)
  plus the Proposition-1 pruning strategy;
* ``repro.engine`` -- the single-relation query engine;
* ``repro.streaming`` -- the sharded multi-stream runtime and the
  multiprocess shard worker pool;
* ``repro.session`` -- **the recommended entry point**: one
  :class:`~repro.session.session.Session` facade over all three serving
  architectures, with live query registration/cancellation and
  checkpoint/restore;
* ``repro.datasets`` / ``repro.workloads`` / ``repro.experiments`` -- the
  datasets, query workloads and harness reproducing the paper's evaluation.

Quickstart
----------
>>> from repro import Session, Q
>>> from repro.datasets import load_relation
>>> relation = load_relation("D1", scale=0.2)
>>> with Session(backend="inline", method="SSG") as session:
...     handle = session.register((Q("car") >= 2) & (Q("person") >= 1),
...                               window=60, duration=45)
...     for frame in relation.frames():
...         session.ingest("cam-01", frame)
...     matches = handle.matches()
>>> len(matches) >= 0
True
"""

from repro.core import (
    MarkedFrameSetGenerator,
    MCOSGenerator,
    NaiveGenerator,
    ReferenceGenerator,
    ResultState,
    ResultStateSet,
    State,
    StrictStateGraphGenerator,
)
from repro.datamodel import FrameObservation, ObjectObservation, VideoRelation
from repro.query import CNFQuery, Q, QueryEvaluator, QueryExpr, parse_query
from repro.session import QueryHandle, Session

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "VideoRelation",
    "FrameObservation",
    "ObjectObservation",
    "State",
    "ResultState",
    "ResultStateSet",
    "MCOSGenerator",
    "NaiveGenerator",
    "MarkedFrameSetGenerator",
    "StrictStateGraphGenerator",
    "ReferenceGenerator",
    "CNFQuery",
    "Q",
    "QueryExpr",
    "parse_query",
    "QueryEvaluator",
    "Session",
    "QueryHandle",
]
