"""The keyed lower-quartile estimator and the percentile helpers.

Every pass of a run replays *identical* input, so a timing sample has a
stable identity — its input position (segment index, match key, op index).
Interference on a shared machine only ever adds time, in bursts shorter
than a pass; the lower quartile of one key's samples across passes
therefore sits near the program's own cost of that position, and a metric
is an aggregate (sum, mean, percentile) over the keys' estimates.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple


def quantile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation quantile (``fraction`` in [0, 1]) of a sample."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ranked = sorted(values)
    position = fraction * (len(ranked) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ranked) - 1)
    return ranked[low] + (ranked[high] - ranked[low]) * (position - low)


def lower_quartile(values: Sequence[float]) -> float:
    """The estimator's per-key statistic."""
    return quantile(values, 0.25)


def spread(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(median, first quartile, third quartile)`` of raw per-pass values."""
    return quantile(values, 0.5), quantile(values, 0.25), quantile(values, 0.75)


def supported_tail(sample_count: int, wanted: float = 0.95) -> float:
    """The highest percentile ≤ ``wanted`` with ten samples beyond it."""
    if sample_count <= 10:
        return 0.5
    return max(0.5, min(wanted, 1.0 - 10.0 / sample_count))


class KeyedSamples:
    """Timing samples keyed by input position, one value per key per pass."""

    def __init__(self) -> None:
        self._samples: Dict[Hashable, List[float]] = {}

    def add(self, key: Hashable, value: float) -> None:
        self._samples.setdefault(key, []).append(value)

    def extend(self, items: Iterable[Tuple[Hashable, float]]) -> None:
        for key, value in items:
            self.add(key, value)

    def __len__(self) -> int:
        return len(self._samples)

    def estimates(self) -> Dict[Hashable, float]:
        """Per key, the lower quartile over the passes that sampled it."""
        return {key: lower_quartile(vals) for key, vals in self._samples.items()}

    def total(self) -> float:
        """Sum of the keys' estimates (segment times → phase time)."""
        return math.fsum(self.estimates().values())

    def mean(self) -> float:
        estimates = self.estimates()
        return math.fsum(estimates.values()) / len(estimates)

    def percentile(self, fraction: float) -> float:
        """Percentile over the keys' estimates (match keys → latency)."""
        return quantile(list(self.estimates().values()), fraction)
