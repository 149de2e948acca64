"""MCOS generation: the paper's primary contribution.

This package implements the *MCOS Generation* layer of the architecture
(Figure 2): incremental maintenance of Maximum Co-occurrence Object Sets over
a sliding window of frames.

Three maintenance strategies are provided, matching Section 4 and the
experimental baselines of Section 6:

* :class:`~repro.core.naive.NaiveGenerator` -- the NAIVE baseline that keeps
  every state and deduplicates by frame set at report time.
* :class:`~repro.core.mfs.MarkedFrameSetGenerator` -- the MFS approach that
  marks key frames and removes invalid states eagerly.
* :class:`~repro.core.ssg.StrictStateGraphGenerator` -- the SSG approach that
  additionally organises states in a graph to prune traversal work.

:class:`~repro.core.reference.ReferenceGenerator` recomputes the exact answer
per window from scratch and serves as the correctness oracle in tests.

All three keep their states in a :class:`~repro.core.state.StateTable`: a
state's object set, frame set and marked frames are plain ``int`` bitsets
(see :mod:`repro.core.state`).
"""

from repro.core.base import GeneratorStats, MCOSGenerator
from repro.core.interning import ObjectInterner
from repro.core.mfs import MarkedFrameSetGenerator
from repro.core.naive import NaiveGenerator
from repro.core.reference import ReferenceGenerator, closed_object_sets
from repro.core.result import ResultState, ResultStateSet
from repro.core.ssg import StrictStateGraphGenerator
from repro.core.state import State, StateTable

__all__ = [
    "State",
    "StateTable",
    "ObjectInterner",
    "ResultState",
    "ResultStateSet",
    "MCOSGenerator",
    "GeneratorStats",
    "NaiveGenerator",
    "MarkedFrameSetGenerator",
    "StrictStateGraphGenerator",
    "ReferenceGenerator",
    "closed_object_sets",
]
