"""Measurement primitives shared by all experiments.

Every experiment in Section 6 boils down to one of two measurements:

* *MCOS generation time* -- run one state-maintenance strategy (NAIVE, MFS,
  SSG) over a relation with window ``w`` and duration ``d`` and time it
  (Figures 4-7);
* *query evaluation time* -- run the full engine (MCOS generation + CNFEvalE
  evaluation, optionally with Proposition-1 pruning) over a relation with a
  query workload and time it (Figures 8-10).

Besides wall-clock seconds the harness records the deterministic work
counters of the generators (state visits, intersections, peak live states),
which are independent of interpreter speed and are reported alongside the
timings in EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.base import GeneratorStats
from repro.datamodel.relation import VideoRelation
from repro.engine.config import EngineConfig, MCOSMethod
from repro.engine.engine import TemporalVideoQueryEngine
from repro.query.model import CNFQuery

#: The three state-maintenance strategies compared throughout Section 6.
MCOS_METHODS: Sequence[MCOSMethod] = (MCOSMethod.NAIVE, MCOSMethod.MFS, MCOSMethod.SSG)


@dataclass
class MethodTiming:
    """One measurement: a method applied to one parameter configuration."""

    method: str
    dataset: str
    parameter: str
    value: object
    seconds: float
    result_states: int = 0
    matches: int = 0
    stats: Optional[GeneratorStats] = None

    @property
    def work(self) -> int:
        """Deterministic work measure: state visits performed."""
        return self.stats.state_visits if self.stats else 0


@dataclass
class ExperimentResult:
    """All measurements of one experiment (one figure of the paper)."""

    name: str
    description: str
    timings: List[MethodTiming] = field(default_factory=list)

    def add(self, timing: MethodTiming) -> None:
        """Record one measurement."""
        self.timings.append(timing)

    def series(self) -> Dict[str, Dict[object, float]]:
        """Timings grouped as ``{method: {parameter value: seconds}}``."""
        grouped: Dict[str, Dict[object, float]] = {}
        for timing in self.timings:
            grouped.setdefault(timing.method, {})[timing.value] = timing.seconds
        return grouped

    def datasets(self) -> List[str]:
        """Datasets that appear in this experiment."""
        seen: Dict[str, None] = {}
        for timing in self.timings:
            seen.setdefault(timing.dataset, None)
        return list(seen)

    def speedup(self, baseline: str, method: str) -> Dict[object, float]:
        """Per-parameter speedup of ``method`` relative to ``baseline``."""
        series = self.series()
        base = series.get(baseline, {})
        other = series.get(method, {})
        return {
            value: base[value] / other[value]
            for value in base
            if value in other and other[value] > 0
        }


def time_mcos_generation(
    relation: VideoRelation,
    method: MCOSMethod,
    window_size: int,
    duration: int,
    labels_of_interest: Optional[Iterable[str]] = None,
    repeats: int = 1,
) -> MethodTiming:
    """Time one MCOS generation strategy over a relation.

    ``repeats > 1`` keeps the best of several runs on fresh generators (the
    machine only adds noise, never speed) — use it for experiments whose
    assertions compare measurements against each other.
    """
    best: Optional[MethodTiming] = None
    for _ in range(max(1, repeats)):
        generator = method.generator_class(
            window_size=window_size,
            duration=duration,
            labels_of_interest=labels_of_interest,
        )
        start = time.perf_counter()
        result_states = 0
        for result in generator.process_relation(relation):
            result_states += len(result)
        seconds = time.perf_counter() - start
        if best is None or seconds < best.seconds:
            best = MethodTiming(
                method=method.value,
                dataset=relation.name,
                parameter="",
                value=None,
                seconds=seconds,
                result_states=result_states,
                stats=generator.stats,
            )
    return best


def run_mcos_generation(
    relation: VideoRelation,
    window_size: int,
    duration: int,
    methods: Sequence[MCOSMethod] = MCOS_METHODS,
) -> List[MethodTiming]:
    """Time every requested strategy over the same relation."""
    return [
        time_mcos_generation(relation, method, window_size, duration)
        for method in methods
    ]


def run_query_evaluation(
    relation: VideoRelation,
    queries: Sequence[CNFQuery],
    method: MCOSMethod,
    window_size: int,
    duration: int,
    enable_pruning: bool = False,
    repeats: int = 1,
) -> MethodTiming:
    """Time the full engine (MCOS generation + query evaluation).

    With ``repeats > 1`` the measurement is repeated on a fresh engine and
    the best run is kept — the interpreter and machine only add noise, never
    speed.  Experiments whose
    assertions compare method variants against each other should repeat:
    variants are timed sequentially, so a single-shot measurement hands the
    later ones a progressively noisier process.
    """
    config = EngineConfig(
        method=method,
        window_size=window_size,
        duration=duration,
        enable_pruning=enable_pruning,
    )
    best: Optional[MethodTiming] = None
    for _ in range(max(1, repeats)):
        engine = TemporalVideoQueryEngine(queries, config)
        start = time.perf_counter()
        run = engine.run(relation)
        seconds = time.perf_counter() - start
        if best is None or seconds < best.seconds:
            best = MethodTiming(
                method=config.method_label,
                dataset=relation.name,
                parameter="",
                value=None,
                seconds=seconds,
                result_states=run.result_states,
                matches=len(run.matches),
                stats=run.generator_stats,
            )
    return best
