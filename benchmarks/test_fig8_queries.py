"""Figure 8: end-to-end time as the number of registered queries grows.

The paper registers 10..50 CNF queries on V1 (synthetic) and M2 (real) and
shows that the total cost is dominated by MCOS generation: the query
evaluation overhead of the CNFEvalE inverted index is negligible, so the
curves stay flat as queries are added.
"""

import pytest
pytest.importorskip(
    "numpy", reason="the simulated vision/dataset pipeline requires numpy"
)

import gc
from dataclasses import replace

from benchmarks.conftest import run_once
from repro.engine.config import MCOSMethod
from repro.experiments.figures import figure8_query_count
from repro.experiments.report import render_series_table
from repro.query import QueryEvaluator
from repro.workloads import random_cnf_workload, simulated_feeds

#: The paper's curves are flat: 5x the queries may cost at most this much more.
FLAT = 1.5


@pytest.mark.parametrize("method", [MCOSMethod.NAIVE, MCOSMethod.MFS, MCOSMethod.SSG])
def test_figure8_query_count(benchmark, method, bench_scale):
    """Regenerate Figure 8 (V1 and M2) for one method."""
    sweep = dict(
        datasets=("V1", "M2"),
        scale=bench_scale,
        query_counts=(10, 30, 50),
        methods=[method],
    )
    result = run_once(benchmark, figure8_query_count, **sweep)
    print()
    for dataset in result.datasets():
        print(f"-- {dataset} --")
        print(render_series_table(result, dataset))

    # The machine only ever adds time to a run of a few tens of milliseconds,
    # so the cost of a point is the least of its timings: a sweep that misses
    # the bound is measured again (points interleaved, which a burst of noise
    # longer than one run cannot survive) before the bound is judged.
    best = {}
    for attempt in range(10):
        if attempt:
            gc.collect()
            result = figure8_query_count(**sweep)
        for timing in result.timings:
            key = (timing.dataset, timing.value)
            best[key] = min(timing.seconds, best.get(key, timing.seconds))
        # Query evaluation overhead is negligible (paper: the curves are flat).
        flat = all(
            best[dataset, 50] <= best[dataset, 10] * FLAT
            for dataset in result.datasets()
        )
        if flat:
            break
    assert flat, {key: round(seconds, 4) for key, seconds in best.items()}


def test_cold_evaluations_follow_signatures_not_frames():
    """Sweep the number of queries over the ``query_fanout`` feeds of the
    stack benchmark: the evaluator visits the same result states whatever
    is registered, falls through to the index at most once per distinct
    class-count vector, and not once more when the frames are replayed."""
    feeds = simulated_feeds(2, seed=12, num_frames=400, universe=12)
    window, duration = 60, 40
    visited = set()
    for count in (1, 8, 64, 512):
        workload = random_cnf_workload(
            count, window=window, duration=duration,
            max_disjunctions=10, max_conditions=3, max_threshold=5, seed=1200,
        )
        evaluator = QueryEvaluator(workload.queries)
        vectors = set()

        def replay():
            for stream_id, relation in feeds.items():
                # No label projection: every sweep point sees the same states.
                generator = MCOSMethod.SSG.generator_class(
                    window_size=window, duration=duration
                )
                labels = {}
                for frame in relation.frames():
                    for oid in frame.object_ids:
                        labels.setdefault(oid, frame.label_of(oid))
                    results = generator.process_frame(frame)
                    for state in results:
                        vectors.add(tuple(sorted(state.class_counts(labels).items())))
                    evaluator.evaluate_result_set(results, labels, stream_id)

        replay()
        once = replace(evaluator.stats)
        assert 0 < once.signature_misses <= len(vectors)
        assert once.signature_hits + once.signature_misses == once.states_evaluated
        replay()
        twice = evaluator.stats
        assert twice.states_evaluated == 2 * once.states_evaluated
        assert twice.signature_misses == once.signature_misses
        visited.add(once.states_evaluated)
    assert len(visited) == 1
