"""Tests for the query workload generators and the experiment harness."""

import re

import pytest

pytest.importorskip(
    "numpy", reason="the simulated vision/dataset pipeline requires numpy"
)

from repro.engine.config import MCOSMethod
from repro.experiments import (
    figure4_total_frames,
    figure9_nmin,
    figure10_end_to_end,
    render_series_table,
    run_mcos_generation,
    run_query_evaluation,
    series_to_markdown,
    table6_statistics,
)
from repro.experiments.__main__ import EXPERIMENTS
from repro.experiments.figures import figure5_duration, figure7_occlusion, figure8_query_count
from repro.experiments.report import render_experiment
from repro.workloads import ge_only_workload, incident_workload, random_cnf_workload

#: Tiny scale so each experiment runs in a couple of seconds.
SCALE = 0.06


class TestWorkloads:
    def test_random_workload_reproducible(self):
        first = random_cnf_workload(20, seed=9)
        second = random_cnf_workload(20, seed=9)
        assert [str(q) for q in first] == [str(q) for q in second]
        assert len(first) == 20
        assert first.labels() <= {"person", "car", "truck", "bus"}

    def test_ge_only_workload_properties(self):
        workload = ge_only_workload(50, n_min=4, seed=2)
        assert len(workload) == 50
        assert workload.uses_only_ge()
        thresholds = [c.threshold for q in workload for c in q.conditions()]
        assert min(thresholds) == 4

    def test_incident_workload(self):
        workload = incident_workload(window=100, duration=50)
        assert len(workload) >= 3
        assert all(q.window == 100 and q.duration == 50 for q in workload)


class TestHarness:
    def test_run_mcos_generation_returns_all_methods(self):
        from repro.datasets import load_relation

        relation = load_relation("V1", scale=SCALE)
        timings = run_mcos_generation(relation, window_size=20, duration=10)
        assert [t.method for t in timings] == ["NAIVE", "MFS", "SSG"]
        assert all(t.seconds >= 0 for t in timings)
        # All methods emit the same number of result states.
        assert len({t.result_states for t in timings}) == 1

    def test_run_query_evaluation_with_pruning_label(self):
        from repro.datasets import load_relation

        relation = load_relation("V1", scale=SCALE)
        workload = ge_only_workload(10, n_min=2, window=20, duration=10, seed=1)
        timing = run_query_evaluation(
            relation, workload.queries, MCOSMethod.SSG, 20, 10, enable_pruning=True
        )
        assert timing.method == "SSG_O"
        assert timing.stats is not None


class TestFigures:
    def test_table6(self):
        stats = table6_statistics(datasets=("V1",), scale=SCALE)
        assert len(stats) == 1
        assert stats[0].frames > 0

    @pytest.mark.parametrize(
        "experiment,kwargs",
        [
            (figure4_total_frames, {"datasets": ("V1",), "num_points": 2}),
            (figure5_duration, {"datasets": ("V1",), "durations": (8, 12)}),
            (figure7_occlusion, {"datasets": ("V1",), "po_values": (0, 1)}),
        ],
    )
    def test_mcos_figures_produce_series(self, experiment, kwargs):
        result = experiment(scale=SCALE, **kwargs)
        series = result.series()
        assert set(series) == {"NAIVE", "MFS", "SSG"}
        for per_value in series.values():
            assert len(per_value) >= 2 or experiment is figure4_total_frames
        assert "V1" in result.datasets()

    def test_figure8_queries(self):
        result = figure8_query_count(
            datasets=("V1",), scale=SCALE, query_counts=(5, 10)
        )
        series = result.series()
        assert set(series) == {"NAIVE", "MFS", "SSG"}
        assert set(series["MFS"]) == {5, 10}

    def test_figure9_includes_pruned_variants(self):
        result = figure9_nmin(
            datasets=("D1",), scale=SCALE, nmin_values=(1, 5), num_queries=10
        )
        assert set(result.series()) == {"NAIVE_E", "MFS_E", "SSG_E", "MFS_O", "SSG_O"}

    def test_figure10_per_query_times(self):
        result = figure10_end_to_end(datasets=("V1", "M2"), scale=SCALE, num_queries=5)
        series = result.series()
        assert set(series) == {"NAIVE", "MFS", "SSG"}
        assert set(series["SSG"]) == {"V1", "M2"}

    def test_report_rendering(self):
        result = figure5_duration(datasets=("V1",), scale=SCALE, durations=(8, 12))
        text = render_series_table(result, "V1")
        assert "NAIVE" in text and "MFS" in text and "SSG" in text
        markdown = series_to_markdown(result, "V1")
        assert markdown.startswith("| method |")
        full = render_experiment(result)
        assert "figure5" in full

    def test_speedup_helper(self):
        result = figure5_duration(datasets=("V1",), scale=SCALE, durations=(8,))
        speedups = result.speedup("NAIVE", "MFS")
        assert all(value > 0 for value in speedups.values())


class TestExperimentsCLI:
    def test_figures_run_and_unknown_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(
            ["--only", "table6", "--datasets", "V1", "--scale", "0.05"]
        ) == 0
        assert "== table6: dataset statistics ==" in capsys.readouterr().out
        assert main(["--only", "nope"]) == 2
        assert "unknown experiment 'nope'" in capsys.readouterr().err

    @staticmethod
    def _stub_experiments(monkeypatch):
        """Replace every experiment and renderer with a call recorder."""
        import repro.datasets.statistics as statistics
        import repro.experiments.report as report
        from repro.experiments import figures

        calls = []
        for name, function in {"table6": "table6_statistics", **EXPERIMENTS}.items():
            def run(*args, _name=name, **kwargs):
                calls.append((_name, args, kwargs))
                return _name
            monkeypatch.setattr(figures, function, run)
        monkeypatch.setattr(report, "render_experiment", lambda result: f"<{result}>")
        monkeypatch.setattr(statistics, "statistics_table", lambda stats: f"<{stats}>")
        return calls

    @pytest.mark.parametrize("name", ["table6", *EXPERIMENTS])
    def test_only_runs_the_named_experiment(self, name, monkeypatch, capsys):
        from repro.experiments.__main__ import main

        calls = self._stub_experiments(monkeypatch)
        assert main(["--only", name, "--scale", "0.5", "--datasets", "V1", "M2"]) == 0
        [(called, args, kwargs)] = calls
        assert called == name
        if name == "table6":
            assert (args, kwargs) == ((["V1", "M2"],), {"scale": 0.5})
        elif name in ("figure8", "figure9"):
            # Their series are fixed to one dataset each; --datasets is moot.
            assert (args, kwargs) == ((), {"scale": 0.5})
        else:
            assert (args, kwargs) == ((), {"scale": 0.5, "datasets": ["V1", "M2"]})
        out = capsys.readouterr().out
        assert f"<{name}>" in out and f"[{name} completed in" in out

    def test_default_run_is_table6_then_every_figure(self, monkeypatch):
        from repro.experiments.__main__ import main

        calls = self._stub_experiments(monkeypatch)
        assert main([]) == 0
        assert [name for name, _, _ in calls] == ["table6", *EXPERIMENTS]
        assert all(kwargs == {"scale": 0.25} for _, _, kwargs in calls)
        assert calls[0][1] == ()

    def test_help_offers_only_the_figure_flags(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out))
        assert flags == {"--help", "--scale", "--only", "--datasets"}
