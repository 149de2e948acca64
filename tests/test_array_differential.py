"""Differential suite: the array SSG kernel against the pure-Python oracle.

The two backends of :mod:`repro.core.arraykernel` must be *byte-identical* —
same per-frame results in the same report order, and the same checkpoint
bytes at every frame — because engines select a backend per construction and
checkpoints migrate freely between backends (and machines without numpy).

Every scenario runs twice: once with the default thresholds (the scalar
derivation-cache path on these narrow streams) and once with vectorised
classification forced (``REPRO_ARRAY_THRESHOLD=1``/``REPRO_ARRAY_MIN_WORDS=1``),
so both kernel modes are pinned against the oracle regardless of the stream's
population size.
"""

import pytest

from repro.core.arraykernel import ArraySSGGenerator, numpy_available
from repro.core.ssg import StrictStateGraphGenerator

from tests.conftest import (
    REGISTRY_DATASETS,
    bursty_stream,
    canonical_results,
    duplicate_heavy_stream,
    gap_stream,
    registry_scene,
)

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="array kernel requires numpy"
)

# (stream builder, seed, (window, duration) configs); windows are small
# enough that the gap streams expire every state and compaction triggers.
SCENARIOS = [
    (bursty_stream, 11, [(5, 3), (12, 9)]),
    (duplicate_heavy_stream, 23, [(4, 2), (10, 8)]),
    (gap_stream, 37, [(7, 4), (7, 7)]),
]

FORCED_ENV = {"REPRO_ARRAY_THRESHOLD": "1", "REPRO_ARRAY_MIN_WORDS": "1"}


def _force_matrix(monkeypatch, forced: bool) -> None:
    if forced:
        for key, value in FORCED_ENV.items():
            monkeypatch.setenv(key, value)


def _run_lockstep(relation, window, duration, checkpoint_every=7):
    """Run both backends frame-by-frame, comparing results and checkpoints."""
    oracle = StrictStateGraphGenerator(window_size=window, duration=duration)
    array = ArraySSGGenerator(window_size=window, duration=duration)
    for index, frame in enumerate(relation.frames()):
        res_oracle = oracle.process_frame(frame)
        res_array = array.process_frame(frame)
        assert canonical_results([res_oracle]) == canonical_results([res_array]), (
            f"{relation.name} w={window} d={duration}: results diverged "
            f"at frame {frame.frame_id}"
        )
        if index % checkpoint_every == checkpoint_every - 1:
            assert oracle.export_state() == array.export_state(), (
                f"{relation.name} w={window} d={duration}: checkpoint bytes "
                f"diverged at frame {frame.frame_id}"
            )
    assert oracle.export_state() == array.export_state()
    return oracle, array


@pytest.mark.parametrize("forced", [False, True],
                         ids=["auto-threshold", "forced-matrix"])
@pytest.mark.parametrize("builder,seed,configs",
                         SCENARIOS, ids=["bursty", "duplicates", "gaps"])
def test_backends_byte_identical(builder, seed, configs, forced, monkeypatch):
    _force_matrix(monkeypatch, forced)
    relation = builder(seed)
    for window, duration in configs:
        _run_lockstep(relation, window, duration)


@pytest.mark.parametrize("forced", [False, True],
                         ids=["auto-threshold", "forced-matrix"])
@pytest.mark.parametrize("dataset", REGISTRY_DATASETS)
def test_registry_scenes_byte_identical(dataset, forced, monkeypatch):
    """The registry scenes the figures time: same results, same checkpoint
    bytes, and the same work counters on both backends."""
    _force_matrix(monkeypatch, forced)
    relation, window, duration = registry_scene(dataset)
    oracle, array = _run_lockstep(relation, window, duration)
    assert oracle.stats.as_dict() == array.stats.as_dict()
    assert oracle.stats.frames_processed == relation.num_frames


@pytest.mark.parametrize("forced", [False, True],
                         ids=["auto-threshold", "forced-matrix"])
def test_checkpoint_roundtrip_within_and_across_backends(forced, monkeypatch):
    """Mid-stream checkpoints restore byte-identically in all four directions.

    oracle->oracle, oracle->array, array->array and array->oracle restores
    must all continue the stream with identical results and identical final
    checkpoint bytes: the array kernel adds no state of its own to the
    checkpoint payload.
    """
    _force_matrix(monkeypatch, forced)
    relation = bursty_stream(53, num_frames=90)
    window, duration = 8, 5
    frames = list(relation.frames())
    split = len(frames) // 2

    source = {
        "oracle": StrictStateGraphGenerator(window_size=window, duration=duration),
        "array": ArraySSGGenerator(window_size=window, duration=duration),
    }
    for gen in source.values():
        for frame in frames[:split]:
            gen.process_frame(frame)
    blob = source["oracle"].export_state()
    assert blob == source["array"].export_state()

    tails = {}
    for name, cls in (("oracle", StrictStateGraphGenerator),
                      ("array", ArraySSGGenerator)):
        restored = cls(window_size=window, duration=duration)
        restored.import_state(blob)
        results = [restored.process_frame(frame) for frame in frames[split:]]
        tails[name] = (canonical_results(results), restored.export_state())
    assert tails["oracle"] == tails["array"]

    # The uninterrupted runs must agree with the restored runs too.
    for name, gen in source.items():
        straight = [gen.process_frame(frame) for frame in frames[split:]]
        assert canonical_results(straight) == tails[name][0]
        assert gen.export_state() == tails[name][1]


def test_expiry_compaction_edges(monkeypatch):
    """Tiny windows over gap-heavy streams hit span compaction and full
    graph teardown; both backends must stay identical through them."""
    relation = gap_stream(71, num_frames=80, window=5)
    for window, duration in [(5, 1), (5, 5), (6, 4)]:
        _run_lockstep(relation, window, duration, checkpoint_every=3)
