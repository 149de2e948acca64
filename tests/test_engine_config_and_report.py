"""Tests for the engine configuration, generator stats and report helpers."""

import pytest

from repro.core.base import GeneratorStats
from repro.core.mfs import MarkedFrameSetGenerator
from repro.core.naive import NaiveGenerator
from repro.core.reference import ReferenceGenerator
from repro.core.ssg import StrictStateGraphGenerator
from repro.engine.config import EngineConfig, MCOSMethod

try:
    from repro.experiments.harness import ExperimentResult, MethodTiming
except ImportError:  # the experiments harness needs the numpy-backed datasets
    ExperimentResult = MethodTiming = None


class TestMCOSMethod:
    def test_generator_classes(self):
        assert MCOSMethod.NAIVE.generator_class is NaiveGenerator
        assert MCOSMethod.MFS.generator_class is MarkedFrameSetGenerator
        assert MCOSMethod.SSG.generator_class is StrictStateGraphGenerator
        assert MCOSMethod.REFERENCE.generator_class is ReferenceGenerator


class TestEngineConfig:
    def test_string_method_coercion_and_label(self):
        config = EngineConfig(method="MFS", window_size=20, duration=10)
        assert config.method is MCOSMethod.MFS
        assert config.method_label == "MFS"
        pruned = EngineConfig(method=MCOSMethod.SSG, window_size=20, duration=10,
                              enable_pruning=True)
        assert pruned.method_label == "SSG_O"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(window_size=0, duration=0)
        with pytest.raises(ValueError):
            EngineConfig(window_size=10, duration=11)


class TestGeneratorStats:
    def test_merge_sums_counters_and_takes_max_live(self):
        first = GeneratorStats(frames_processed=5, states_created=10, max_live_states=7)
        second = GeneratorStats(frames_processed=3, states_created=4, max_live_states=12)
        merged = first.merge(second)
        assert merged.frames_processed == 8
        assert merged.states_created == 14
        assert merged.max_live_states == 12

    def test_as_dict_contains_all_fields(self):
        stats = GeneratorStats(state_visits=3)
        data = stats.as_dict()
        assert data["state_visits"] == 3
        assert set(data) == set(GeneratorStats.__dataclass_fields__)


@pytest.mark.skipif(
    ExperimentResult is None,
    reason="the experiments harness requires numpy",
)
class TestExperimentResult:
    def _result(self):
        result = ExperimentResult("demo", "demo experiment")
        for method, value, seconds in [
            ("NAIVE", 1, 2.0), ("NAIVE", 2, 4.0),
            ("MFS", 1, 1.0), ("MFS", 2, 2.0),
        ]:
            result.add(
                MethodTiming(method=method, dataset="X", parameter="p",
                             value=value, seconds=seconds)
            )
        return result

    def test_series_and_speedup(self):
        result = self._result()
        series = result.series()
        assert series["NAIVE"][2] == 4.0
        speedup = result.speedup("NAIVE", "MFS")
        assert speedup == {1: 2.0, 2: 2.0}
        assert result.datasets() == ["X"]

    def test_work_counter_defaults_to_zero(self):
        timing = MethodTiming("MFS", "X", "p", 1, 0.5)
        assert timing.work == 0
