"""Fast tests of the stack benchmark itself (tiny inputs, a few seconds)."""

from __future__ import annotations

import gc
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from stackbench import WORKLOADS, cli, closed_loop, gateway_loop, inputs, layers, measure
from stackbench.estimator import KeyedSamples, lower_quartile, supported_tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Tiny inputs, and no time budget: the one pass (or round) every run has.
TINY = ["--size", "0.15", "--seconds", "0"]


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(capsys, tmp_path, *argv):
    code = cli.main(list(argv), started=None, root=str(tmp_path))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def test_benchmark_json_names_the_benchmark():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/stack"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
        # No wall-clock bound is tighter than this machine can repeat.
        if metric["unit"] in ("s", "ms", "1/s"):
            assert metric["bound"] >= 0.10


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted(workload, capsys, tmp_path):
    code, result = _run(capsys, tmp_path, "--workload", workload, *TINY)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    summary = json.loads((tmp_path / ".stackbench" / f"summary-{workload}.json").read_text())
    assert list(summary)[-1] == "claim" and summary["claim"] is None
    assert summary["verified"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_emitted_and_the_waterfall_sums(
    workload, capsys, tmp_path
):
    code, result = _run(capsys, tmp_path, "--workload", workload, *TINY,
                        "--trace", "1")
    assert code == 0 and result["correct"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == layers.PER_LAYER
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert all(math.isfinite(value) for value in values.values())
    summary = json.loads((tmp_path / ".stackbench" / f"summary-{workload}.json").read_text())
    rows = dict(summary["waterfall"])
    top = rows.pop("top of stack")
    assert sum(rows.values()) == pytest.approx(top, abs=0.01)
    top_metric = {
        "dense_scene": "session.inline.frame_us",
        "query_fanout": "session.inline.frame_us",
        "multicam_pool": "session.pool.frame_us",
        "gateway_open_loop": "serve.frame_us",
    }[workload]
    assert top == pytest.approx(values[top_metric], abs=0.01)
    shares = [v for n, v in values.items() if n.startswith("waterfall.")]
    assert sum(shares) == pytest.approx(1.0)
    spans = (tmp_path / ".stackbench" / f"spans-{workload}.jsonl").read_text().splitlines()
    assert len(spans) == values["trace.spans"]
    assert set(json.loads(spans[1])) == {"id", "name", "start", "end", "parent", "trace"}


def test_lower_quartile_estimator_ignores_additive_bursts():
    samples = KeyedSamples()
    for key, cost in enumerate((1.0, 2.0, 4.0)):
        # Eight passes; interference only ever adds, and hits a minority.
        for burst in (0.0, 0.0, 0.0, 0.01, 0.0, 3.0, 0.0, 7.5):
            samples.add(key, cost + burst)
    assert samples.total() == pytest.approx(7.0, abs=0.01)
    assert samples.mean() == pytest.approx(7.0 / 3, abs=0.01)
    assert samples.percentile(0.5) == pytest.approx(2.0, abs=0.01)
    assert lower_quartile([4.0, 1.0, 3.0, 2.0, 5.0]) == 2.0
    # p95 needs ten samples beyond it; fewer samples lower the percentile.
    assert supported_tail(35) == pytest.approx(1 - 10 / 35)
    assert supported_tail(10_000) == 0.95


def test_an_injected_wrong_match_makes_the_command_fail():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "query_fanout",
         *TINY, "--inject-mismatch"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


def _bytes(workload: inputs.Workload) -> str:
    return json.dumps([
        [[sid, frame.to_record()] for sid, frame in events]
        for events in (workload.steady, workload.ordered, workload.tail)
    ] + [[str(q) for q in workload.queries + workload.churn_queries]])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_seed_decides_the_bytes_and_nothing_else(workload):
    first, again, other = (inputs.build(workload, seed, 0.15) for seed in (7, 7, 8))
    assert _bytes(first) == _bytes(again)
    assert _bytes(first) != _bytes(other)
    # Another seed is the same work on other bytes.
    assert len(first.steady) == len(other.steady)
    assert sorted(map(str, first.queries)) == sorted(map(str, other.queries))


def test_work_counters_repeat_exactly():
    workload = inputs.build("multicam_pool", 7, 0.15)

    def counts():
        hook, total = layers.call_counter()
        gc.disable()  # as the traced run does: finalizers are calls too
        try:
            height = layers.core_height(
                workload, workload.ordered, "SSG", layers.Spans(),
                evaluate=True, profile=hook,
            )
        finally:
            gc.enable()
        return height.counters, total[0]

    assert counts() == counts()


def test_open_loop_hygiene_rules():
    interval = 0.008
    steady = [0.0005] * 100
    assert gateway_loop._hygiene(steady, [0] * 100, interval) == ""
    # A short stall makes a few batches late; the leg still counts.
    assert gateway_loop._hygiene(steady[:97] + [0.05] * 3, [0] * 100, interval) == ""
    assert "lateness" in gateway_loop._hygiene([0.02] * 100, [0] * 100, interval)
    assert "backlog" in gateway_loop._hygiene(
        steady, [0] * 50 + list(range(50)), interval
    )


def test_a_voided_open_loop_leg_fails_nothing_unless_no_leg_was_sound():
    def leg(aborted="", latency=0.02):
        return gateway_loop.LegResult(
            wall=closed_loop.WallClock(0.5, [latency], [0.001, 0.002]),
            steady_s=0.5, latency={(0, "cam-00", 7): latency}, churn=[0.001, 0.002],
            attempted=40, aborted=aborted,
        )

    setup = SimpleNamespace(expected={}, expected_steady={})
    snapshot = gateway_loop.Snapshot(0.004, 0.008, 0.004, 0.008, 2048, 3)
    measurement = measure.Measurement(frames=100)
    measurement.add_gateway_pass(leg(), leg(), snapshot, setup)
    measurement.add_gateway_pass(leg("lateness", latency=9.0), leg(), snapshot, setup)
    assert measurement.attempted == 4 * 40 + 2 * 3
    assert measurement.failed_operations() == 0 and len(measurement.voided) == 1
    # The voided leg's latency is left out of the estimate.
    assert measurement.metrics(setup_s=1.0)["match_latency_p50_ms"] == 20.0

    # Every leg voided: its operations count, every metric stays computable.
    measurement = measure.Measurement(frames=100)
    measurement.add_gateway_pass(leg("lateness"), leg(), snapshot, setup)
    assert measurement.failed_operations() == 40
    metrics = measurement.metrics(setup_s=1.0)
    assert set(metrics) == set(measure.END_TO_END)
    assert all(math.isfinite(value) for value in metrics.values())
