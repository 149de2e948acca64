"""Engine configuration: which MCOS strategy, which optimisations."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Type

from repro.core.base import MCOSGenerator
from repro.core.mfs import MarkedFrameSetGenerator
from repro.core.naive import NaiveGenerator
from repro.core.reference import ReferenceGenerator
from repro.core.ssg import StrictStateGraphGenerator


class MCOSMethod(enum.Enum):
    """The state maintenance strategies evaluated in the paper, plus the
    exact oracle; each names one generator class."""

    NAIVE = "NAIVE"
    MFS = "MFS"
    SSG = "SSG"
    REFERENCE = "REFERENCE"

    @property
    def generator_class(self) -> Type[MCOSGenerator]:
        """The generator class implementing this method."""
        return _GENERATOR_CLASSES[self]


_GENERATOR_CLASSES: Dict[MCOSMethod, Type[MCOSGenerator]] = {
    MCOSMethod.NAIVE: NaiveGenerator,
    MCOSMethod.MFS: MarkedFrameSetGenerator,
    MCOSMethod.SSG: StrictStateGraphGenerator,
    MCOSMethod.REFERENCE: ReferenceGenerator,
}


@dataclass
class EngineConfig:
    """Configuration of a :class:`~repro.engine.engine.TemporalVideoQueryEngine`.

    Attributes
    ----------
    method:
        MCOS state maintenance strategy.
    window_size / duration:
        Temporal parameters ``w`` and ``d`` of the window group an engine
        built from a plain query list serves; only that form reads them.
        An engine serving several window groups takes them as a mapping
        ``(window, duration) -> queries`` instead, and answers all of them
        from one generator per label projection (see
        :mod:`repro.engine.engine`).
    enable_pruning:
        Apply the Proposition-1 result-driven pruning when every query uses
        only ``>=`` conditions (the ``*_O`` method variants of Figure 9).
    restrict_labels:
        Drop objects whose class no query refers to before state maintenance.
    """

    method: MCOSMethod = MCOSMethod.SSG
    window_size: int = 300
    duration: int = 240
    enable_pruning: bool = False
    restrict_labels: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.method, str):
            self.method = MCOSMethod(self.method)
        if self.window_size <= 0:
            raise ValueError("window_size must be positive")
        if not 0 <= self.duration <= self.window_size:
            raise ValueError("duration must satisfy 0 <= d <= window_size")

    @property
    def method_label(self) -> str:
        """Label of the method including the pruning suffix used in Figure 9."""
        suffix = "_O" if self.enable_pruning else ""
        return f"{self.method.value}{suffix}"
