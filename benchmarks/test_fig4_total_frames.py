"""Figure 4: MCOS generation time as the total number of frames grows.

One benchmark per (dataset, method); each processes increasing prefixes of the
dataset with the default window/duration parameters and prints the series the
paper plots (time vs. number of frames).
"""

import pytest
pytest.importorskip(
    "numpy", reason="the simulated vision/dataset pipeline requires numpy"
)

from benchmarks.conftest import run_once
from repro.engine.config import MCOSMethod
from repro.experiments.figures import figure4_total_frames
from repro.experiments.report import render_series_table


@pytest.mark.parametrize("method", [MCOSMethod.NAIVE, MCOSMethod.MFS, MCOSMethod.SSG])
def test_figure4_total_frames(benchmark, method, bench_scale, bench_datasets):
    """Regenerate Figure 4 for one method across the benchmark datasets."""
    result = run_once(
        benchmark,
        figure4_total_frames,
        datasets=bench_datasets,
        scale=bench_scale,
        num_points=3,
        methods=[method],
    )
    print()
    for dataset in result.datasets():
        print(f"-- {dataset} --")
        print(render_series_table(result, dataset))
    # Time must grow (weakly) with the number of processed frames, per dataset.
    for dataset in result.datasets():
        per_frames = {
            t.value: t.seconds for t in result.timings if t.dataset == dataset
        }
        points = sorted(per_frames)
        assert len(points) >= 2
        assert per_frames[points[-1]] >= per_frames[points[0]] * 0.5
    if method is MCOSMethod.SSG:
        # The paper's method ordering on the deterministic work counter: at
        # every point SSG makes strictly fewer full state visits than MFS.
        mfs = figure4_total_frames(
            datasets=bench_datasets, scale=bench_scale, num_points=3,
            methods=[MCOSMethod.MFS],
        )
        mfs_visits = {(t.dataset, t.value): t.work for t in mfs.timings}
        for timing in result.timings:
            point = (timing.dataset, timing.value)
            assert timing.work < mfs_visits[point], (point, timing.work, mfs_visits[point])
