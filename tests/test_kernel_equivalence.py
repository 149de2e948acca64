"""Randomized equivalence suite for the bitmask/bitset kernel.

Seeded stream generators exercise the regimes that stress the fast-path
representations hardest:

* *bursty arrivals* — object sets that stay stable for a stretch, then churn
  (long runs of frames followed by gapped frame sets);
* *duplicate object sets* — the same set recurring within and across windows
  (state-table hits, repeated merges, principal re-creation);
* *full-window gaps* — stretches of empty frames long enough to expire every
  state (interner recycling, window-base shifts, complete graph teardown and
  rebuild).

For every stream, NAIVE, MFS and SSG must report identical per-frame results;
smaller configurations are additionally checked against the exact reference
oracle.  On one seeded configuration per builder, each generator's work
counters, its per-frame results and its periodic checkpoint payloads are
pinned exactly against a recorded baseline.
"""

import hashlib
import json

import pytest

from repro.core import (
    GeneratorStats,
    MarkedFrameSetGenerator,
    NaiveGenerator,
    ReferenceGenerator,
    StrictStateGraphGenerator,
)
from repro.datamodel import FrameObservation, VideoRelation

from tests.conftest import (
    INCREMENTAL_GENERATORS as INCREMENTAL,
    bursty_stream,
    canonical_results,
    duplicate_heavy_stream,
    gap_stream,
    result_mappings,
)


STREAMS = [
    (bursty_stream, (5, 3), (9, 6), (12, 12)),
    (duplicate_heavy_stream, (4, 2), (8, 5), (10, 10)),
    (gap_stream, (7, 4), (7, 7), (5, 1)),
]


class TestGeneratorsAgreeOnKernelStreams:
    @pytest.mark.parametrize("maker,params", [
        (maker, params) for maker, *param_sets in STREAMS
        for params in param_sets
    ])
    @pytest.mark.parametrize("seed", range(6))
    def test_incremental_generators_identical(self, maker, params, seed):
        window, duration = params
        relation = maker(seed)
        baseline = result_mappings(NaiveGenerator, relation, window, duration)
        for generator_cls in (MarkedFrameSetGenerator, StrictStateGraphGenerator):
            actual = result_mappings(generator_cls, relation, window, duration)
            assert actual == baseline, (
                f"{generator_cls.name} diverged on {relation.name} "
                f"w={window} d={duration}"
            )

    @pytest.mark.parametrize("maker", [bursty_stream, duplicate_heavy_stream,
                                       gap_stream])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_oracle(self, maker, seed):
        relation = maker(seed, num_frames=45, universe=7)
        for window, duration in [(6, 3), (9, 9), (4, 0)]:
            expected = result_mappings(ReferenceGenerator, relation, window,
                                       duration)
            for generator_cls in INCREMENTAL:
                actual = result_mappings(generator_cls, relation, window,
                                         duration)
                assert actual == expected, (
                    f"{generator_cls.name} vs oracle on {relation.name} "
                    f"w={window} d={duration}"
                )

    @pytest.mark.parametrize("seed", range(12))
    def test_generators_agree_under_state_filter(self, seed):
        """Proposition-1 pruning must not change cross-generator agreement.

        Regression: SSG's CNPS procedure used to connect terminated marker
        states into the graph, reviving and reporting them.
        """
        relation = bursty_stream(40 + seed, num_frames=80, universe=8)

        def keep_two_plus(object_ids, counts):
            return len(object_ids) >= 2

        def run(generator_cls):
            generator = generator_cls(window_size=5, duration=3,
                                      state_filter=keep_two_plus)
            return [r.as_mapping() for r in generator.process_relation(relation)]

        baseline = run(NaiveGenerator)
        assert any(baseline)  # the filter must not wipe out every result
        for generator_cls in (MarkedFrameSetGenerator, StrictStateGraphGenerator):
            assert run(generator_cls) == baseline, generator_cls.name
        # Terminated singleton states must never be reported.
        for mapping in baseline:
            assert all(len(objs) >= 2 for objs in mapping)

    @pytest.mark.parametrize("generator_cls", INCREMENTAL)
    def test_single_frame_window(self, generator_cls):
        """w=1: every frame is its own window (exercises instant expiry)."""
        relation = bursty_stream(11, num_frames=40)
        expected = result_mappings(ReferenceGenerator, relation, 1, 1)
        actual = result_mappings(generator_cls, relation, 1, 1)
        assert actual == expected

    @pytest.mark.parametrize("generator_cls", INCREMENTAL)
    def test_interner_stays_narrow_across_gaps(self, generator_cls):
        """Periodic compaction keeps mask width near the live population."""
        relation = gap_stream(3, num_frames=400, universe=9, window=7)
        generator = generator_cls(window_size=7, duration=3)
        for frame in relation.frames():
            generator.process_frame(frame)
        # Nine distinct ids ever seen; capacity must not exceed that, and
        # after compaction cycles it should be bounded by the recent window
        # population, not the whole history.
        assert generator.interner.capacity <= 9

    def test_compact_interner_is_safe_midstream(self):
        """Explicit compaction between frames never changes results."""
        relation = bursty_stream(2, num_frames=60)
        plain = MarkedFrameSetGenerator(window_size=8, duration=4)
        compacted = MarkedFrameSetGenerator(window_size=8, duration=4)
        for i, frame in enumerate(relation.frames()):
            a = plain.process_frame(frame)
            b = compacted.process_frame(frame)
            assert a.as_mapping() == b.as_mapping()
            if i % 3 == 0:
                compacted.compact_interner()

    @pytest.mark.parametrize("generator_cls", INCREMENTAL)
    def test_state_filter_sees_labels_of_objects_new_at_a_compaction(
        self, generator_cls
    ):
        """The interner compacts every 4·w frames; an object first seen in
        that very frame must keep its label, or the Proposition-1 filter
        counts it as unlabelled and terminates its state."""
        frames = [FrameObservation(i, {}) for i in range(7)]
        frames.append(FrameObservation(7, {1: "car"}))  # frame 8 = 4·w
        generator = generator_cls(
            window_size=2, duration=0,
            state_filter=lambda object_ids, counts: counts.get("car", 0) >= 1,
        )
        results = [generator.process_frame(frame) for frame in frames]
        assert results[-1].as_mapping() == {frozenset({1}): frozenset({7})}

    @pytest.mark.parametrize("generator_cls", INCREMENTAL)
    def test_labels_are_recorded_only_for_a_state_filter(self, generator_cls):
        """Only the Proposition-1 filter reads the id -> label map, so a
        projection alone records none; a document that still holds one
        (as written before) restores and resumes unchanged."""
        frames = list(bursty_stream(4, num_frames=40).frames())
        config = dict(window_size=6, duration=3, labels_of_interest={"object"})
        plain = generator_cls(**config)
        filtered = generator_cls(
            **config, state_filter=lambda object_ids, counts: True
        )
        for frame in frames[:20]:
            plain.process_frame(frame)
            filtered.process_frame(frame)
        document = plain.export_checkpoint()
        assert document["label_lookup"] == []
        recorded = filtered.export_checkpoint()["label_lookup"]
        assert recorded and all(label == "object" for _, label in recorded)

        resumed = generator_cls(**config)
        resumed.import_checkpoint(dict(document, label_lookup=recorded))
        for frame in frames[20:]:
            assert (resumed.process_frame(frame).as_mapping()
                    == plain.process_frame(frame).as_mapping())


#: ``(stream builder, seed, window, duration)`` of the counter baseline.
COUNTER_STREAMS = {
    "bursty": (bursty_stream, 11, 12, 9),
    "duplicates": (duplicate_heavy_stream, 23, 10, 8),
    "gaps": (gap_stream, 37, 7, 4),
}

#: Field order: frames_processed, states_created, states_removed,
#: states_terminated, state_visits, intersections, frames_appended,
#: max_live_states, result_states_emitted, edges_added, edges_removed,
#: replayed_visits, settled_frames (0 unless given: only SSG replays and
#: settles).
GOLDEN_STATS = {
    ("bursty", NaiveGenerator): GeneratorStats(120, 61, 59, 0, 1326, 1326, 893, 26, 158, 0, 0),
    ("bursty", MarkedFrameSetGenerator): GeneratorStats(120, 61, 60, 0, 623, 623, 580, 23, 158, 0, 0),
    ("bursty", StrictStateGraphGenerator): GeneratorStats(120, 61, 60, 0, 164, 164, 411, 23, 158, 118, 118, 164, 85),
    ("duplicates", NaiveGenerator): GeneratorStats(100, 6, 0, 0, 564, 564, 664, 6, 185, 0, 0),
    ("duplicates", MarkedFrameSetGenerator): GeneratorStats(100, 13, 7, 0, 533, 533, 633, 6, 185, 0, 0),
    ("duplicates", StrictStateGraphGenerator): GeneratorStats(100, 13, 7, 0, 233, 233, 573, 6, 185, 22, 15, 240, 24),
    ("gaps", NaiveGenerator): GeneratorStats(100, 82, 71, 0, 236, 236, 226, 31, 114, 0, 0),
    ("gaps", MarkedFrameSetGenerator): GeneratorStats(100, 82, 71, 0, 199, 199, 198, 25, 114, 0, 0),
    ("gaps", StrictStateGraphGenerator): GeneratorStats(100, 82, 71, 0, 174, 174, 225, 25, 114, 152, 136, 34, 1),
}


@pytest.mark.parametrize("stream,generator_cls", list(GOLDEN_STATS))
def test_work_counters_match_the_recorded_baseline(stream, generator_cls):
    """Exact work counters per generator on three seeded streams.

    The counters are deterministic (identical under any ``PYTHONHASHSEED``)
    and are the machine-independent half of every speed claim about
    ``core``.  A change that alters what a visit, an intersection or an
    append counts (as SSG's replay of the states a frame leaves unchanged
    did, see :mod:`repro.core.ssg`) must re-record this table on purpose
    and say so; any other drift is a regression.
    """
    builder, seed, window, duration = COUNTER_STREAMS[stream]
    generator = generator_cls(window_size=window, duration=duration)
    for frame in builder(seed).frames():
        generator.process_frame(frame)
    assert generator.stats.as_dict() == GOLDEN_STATS[stream, generator_cls].as_dict()


#: SHA-256 of ``json.dumps(canonical_results(...))`` over every frame of a
#: counter stream; the three generators report the same results.
GOLDEN_RESULT_DIGESTS = {
    "bursty": "178ce661fa4bf3bc5d7467162fb916515fa68aaeefe6bd6f492320e383eacaa4",
    "duplicates": "b86791896c9aff22e3a2f9ad2e4a27a11e71d79f52ed19a9326c5afcaef5a0b1",
    "gaps": "1cb3ab95f5f2b4ba143bd012418624e4fcbad932f6166bd4add04e7c7dd46edd",
}

#: SHA-256 over ``json.dumps(export_checkpoint())`` taken after every tenth
#: frame of a counter stream.  The JSON payload, not the zlib-compressed
#: checkpoint bytes, whose exact output may differ between zlib versions.
GOLDEN_CHECKPOINT_DIGESTS = {
    ("bursty", NaiveGenerator):
        "ad71bcc23ba90ec113544c22506085174cb21c1106e9481b3e7cb42615a4598a",
    ("bursty", MarkedFrameSetGenerator):
        "fb4360a152f4591ddb584dd593bce6f31a197540bc8459545a3d2e00e262350f",
    ("bursty", StrictStateGraphGenerator):
        "8653607e3e846182c76d1ae789fb09484fe3553f718bafa52660145b6dae8b7c",
    ("duplicates", NaiveGenerator):
        "90045de241df91416d9d501fca0a3c94b2f8d205f69541872eec62f0f5851d68",
    ("duplicates", MarkedFrameSetGenerator):
        "c999747c8d0700b5680a031c6657f60cd6f88688beb5e1fc8c97ea8956404744",
    ("duplicates", StrictStateGraphGenerator):
        "d6a7e982e4df653a7d53e07f1d38ab6ca92594c72082719d31728cdb5cbff303",
    ("gaps", NaiveGenerator):
        "f19239b946ba06f8ca3354e4ea8f44b6d46cb03ac8c06611ad3bbaf3d4df8988",
    ("gaps", MarkedFrameSetGenerator):
        "e26697f90ea45eb8eb594c9e31194a8163770cf0b8a99e547000024bdf84a6d2",
    ("gaps", StrictStateGraphGenerator):
        "61e75f51e79c2435d03f9d090d7a51596d002979d3b0da0e4849637e0080bf97",
}


@pytest.mark.parametrize("stream,generator_cls", list(GOLDEN_CHECKPOINT_DIGESTS))
def test_results_and_checkpoints_match_the_recorded_digests(stream, generator_cls):
    """Per-frame results and periodic checkpoint payloads, pinned exactly.

    Like :data:`GOLDEN_STATS`, the digests are independent of
    ``PYTHONHASHSEED``; a change to how states hold their frames must
    leave every reported frame and every exported column as it was.
    """
    builder, seed, window, duration = COUNTER_STREAMS[stream]
    generator = generator_cls(window_size=window, duration=duration)
    results = []
    checkpoints = hashlib.sha256()
    for count, frame in enumerate(builder(seed).frames(), 1):
        results.append(generator.process_frame(frame))
        if count % 10 == 0:
            checkpoints.update(json.dumps(generator.export_checkpoint()).encode())
    digest = hashlib.sha256(json.dumps(canonical_results(results)).encode())
    assert digest.hexdigest() == GOLDEN_RESULT_DIGESTS[stream]
    assert checkpoints.hexdigest() == GOLDEN_CHECKPOINT_DIGESTS[stream, generator_cls]


class TestGeneratorRunResultAt:
    def test_result_at_with_offset_frame_ids(self):
        """Frame ids starting at a nonzero offset resolve by id, not index."""
        frames = [{1, 2}, {1, 2, 3}, {2, 3}]
        relation = VideoRelation.from_object_sets(frames, first_frame_id=100)
        run = NaiveGenerator(window_size=3, duration=1).run(relation)
        assert len(run.per_frame_results) == 3
        for offset, frame_id in enumerate(range(100, 103)):
            assert run.result_at(frame_id) is run.per_frame_results[offset]
        with pytest.raises(KeyError):
            run.result_at(0)
        with pytest.raises(KeyError):
            run.result_at(103)
