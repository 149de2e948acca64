"""Randomized serialize→restore property tests for the checkpoint layer.

Every component snapshot must round-trip through JSON into a fresh object
that behaves *byte-identically*: a restored generator/engine/shard continuing
over a randomized suffix must report exactly what its uninterrupted twin
reports — same result states, same frame sets, same report order.  All
randomized cases carry their seed in the assertion message.
"""

from __future__ import annotations

import json
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ObjectInterner, StateTable, StrictStateGraphGenerator
from repro.datamodel import FrameObservation
from repro.engine import EngineConfig, MCOSMethod, TemporalVideoQueryEngine
from repro.streaming import (
    CHECKPOINT_VERSION,
    CheckpointError,
    StreamRouter,
)
from repro.streaming import checkpoint as ckpt

from tests.conftest import (
    ALL_GENERATORS,
    REGISTRY_DATASETS,
    build_queries,
    bursty_stream,
    canonical_results,
    gap_stream,
    labelled_stream,
    registry_scene,
)


def json_roundtrip(payload):
    """Force the payload through its on-disk representation."""
    return json.loads(json.dumps(payload))


# ----------------------------------------------------------------------
# Component round-trips
# ----------------------------------------------------------------------
class TestInternerRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_release_patterns(self, seed):
        import random
        rng = random.Random(seed)
        interner = ObjectInterner()
        live = set()
        for _ in range(200):
            oid = rng.randrange(40)
            if oid in live and rng.random() < 0.4:
                interner.release(oid)
                live.discard(oid)
            else:
                interner.bit_of(oid)
                live.add(oid)
        restored = ObjectInterner()
        restored.restore_table(json_roundtrip(interner.export_table()))
        assert restored.export_table() == interner.export_table(), f"seed={seed}"
        # Identical decode of every live mask and identical future allocation.
        for oid in live:
            assert restored.bit_of(oid) == interner.bit_of(oid), f"seed={seed}"
        for fresh in range(100, 120):
            assert restored.bit_of(fresh) == interner.bit_of(fresh), (
                f"seed={seed}: allocation of fresh id {fresh} diverged"
            )

    def test_duplicate_ids_rejected(self):
        interner = ObjectInterner()
        with pytest.raises(ValueError):
            interner.restore_table([3, None, 3])


class TestStateRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_append_expire_mark(self, seed):
        import random
        rng = random.Random(seed)
        table = StateTable(ObjectInterner())
        state, _ = table.get_or_create(table.interner.intern_ids({1}))
        frame_id = 0
        for _ in range(150):
            frame_id += rng.randint(1, 3)
            state.add_frame(frame_id, marked=rng.random() < 0.3)
            if rng.random() < 0.2:
                state.expire_before(frame_id - rng.randint(3, 12))
        # The smallest window holding every frame: a base other than 0.
        window = frame_id - state.frame_ids[0] + 1
        restored = StateTable(table.interner)
        restored.import_states(
            json_roundtrip(table.export_states(frame_id, window)), frame_id, window
        )
        (copy,) = restored
        assert copy.frame_ids == state.frame_ids, f"seed={seed}"
        assert copy.marked_frame_ids == state.marked_frame_ids, f"seed={seed}"
        assert copy.frame_count == state.frame_count, f"seed={seed}"
        assert copy.marked_count == state.marked_count, f"seed={seed}"
        # The restored state keeps behaving identically.
        for extra in range(frame_id + 1, frame_id + 6):
            state.add_frame(extra)
            copy.add_frame(extra)
        state.expire_before(frame_id - 1)
        copy.expire_before(frame_id - 1)
        assert copy.frame_ids == state.frame_ids, f"seed={seed}"


class TestStateTableRoundTrip:
    @pytest.mark.parametrize("seed", range(6))
    def test_table_preserves_order_and_contents(self, seed):
        import random
        rng = random.Random(seed)
        interner = ObjectInterner()
        table = StateTable(interner)
        for i in range(30):
            bits = interner.intern_ids(rng.sample(range(12), rng.randint(1, 6)))
            state, _ = table.get_or_create(bits)
            for fid in sorted(rng.sample(range(50), rng.randint(1, 10))):
                state.add_frame(fid, marked=rng.random() < 0.5)
            state.terminated = rng.random() < 0.1
        snapshot = json_roundtrip(table.export_states(49, 50))
        restored = StateTable(interner)
        restored.import_states(snapshot, 49, 50)
        assert len(restored) == len(table), f"seed={seed}"
        for original, copy in zip(table, restored):
            assert copy.bits == original.bits, f"seed={seed}"
            assert copy.terminated == original.terminated, f"seed={seed}"
            assert copy.frame_ids == original.frame_ids, f"seed={seed}"
            assert copy.marked_frame_ids == original.marked_frame_ids, f"seed={seed}"

    def test_bitsets_are_written_over_the_window_start(self):
        """A table whose base lags its window writes the same columns as
        one whose base is the window start: the bytes do not depend on
        when the base last moved."""
        interner = ObjectInterner()
        lagging, current = StateTable(interner), StateTable(interner)
        current.base = 6
        for table in (lagging, current):
            state, _ = table.get_or_create(3)
            for frame_id in (6, 8, 9):
                state.add_frame(frame_id, marked=frame_id == 8)
        assert lagging.base == 0
        snapshot = lagging.export_states(9, 4)
        assert snapshot == current.export_states(9, 4) == {
            "bits": [3], "terminated": [0], "frames": [0b1101], "marks": [0b100],
        }

    def test_duplicate_bits_rejected(self):
        table = StateTable(ObjectInterner())
        snapshot = {
            "bits": [3, 3], "terminated": [0, 0], "frames": [3, 4], "marks": [0, 0],
        }
        with pytest.raises(ValueError, match="duplicate state bitmask"):
            table.import_states(snapshot, 2, 3)

    @pytest.mark.parametrize("damage", [
        {"terminated": [0]},                   # per-state columns misaligned
        {"frames": [3]},
        {"marks": [0, 0, 0]},
        {"bits": [3]},
    ])
    def test_misaligned_columns_rejected(self, damage):
        snapshot = {
            "bits": [3, 5], "terminated": [0, 0], "frames": [3, 4], "marks": [0, 0],
        }
        StateTable(ObjectInterner()).import_states(snapshot, 2, 3)  # sound as is
        with pytest.raises(ValueError, match="columns differ in length"):
            StateTable(ObjectInterner()).import_states({**snapshot, **damage}, 2, 3)

    @pytest.mark.parametrize("bitsets,error", [
        # (frames, marks) of one state in the window 0..12
        ((-1, 0), "negative"),
        ((0b1111, -2), "negative"),
        ((1 << 13 | 1, 1), "outside the window"),
        ((0b1111, 0b10000), "mark outside the frame set"),
    ])
    def test_malformed_bitsets_rejected(self, bitsets, error):
        frames, marks = bitsets
        snapshot = {
            "bits": [3], "terminated": [0], "frames": [frames], "marks": [marks],
        }
        with pytest.raises(ValueError, match=error):
            StateTable(ObjectInterner()).import_states(snapshot, 12, 13)

    @pytest.mark.parametrize("bits,error", [
        ([3, 0], "non-empty object set"),
        ([3, -5], "negative"),
    ])
    def test_malformed_bitmasks_rejected(self, bits, error):
        snapshot = {
            "bits": bits, "terminated": [0, 0], "frames": [1, 1], "marks": [1, 1],
        }
        with pytest.raises(ValueError, match=error):
            StateTable(ObjectInterner()).import_states(snapshot, 12, 13)

    @pytest.mark.parametrize("last_frame_id,window_size,error", [
        (3, 2, "outside the window"),     # a frame past a narrower window
        (None, 3, "before the first frame"),
    ])
    def test_frames_outside_the_window_rejected(
        self, last_frame_id, window_size, error
    ):
        snapshot = {"bits": [3], "terminated": [0], "frames": [0b111], "marks": [0b100]}
        StateTable(ObjectInterner()).import_states(snapshot, 3, 3)  # sound as is
        with pytest.raises(ValueError, match=error):
            StateTable(ObjectInterner()).import_states(
                snapshot, last_frame_id, window_size
            )


class TestSSGGraphRoundTrip:
    @pytest.mark.parametrize("seed", range(6))
    def test_mid_stream_graph_restores_identically(self, seed):
        relation = bursty_stream(seed, num_frames=90)
        generator = StrictStateGraphGenerator(window_size=9, duration=5)
        frames = list(relation.frames())
        for frame in frames[:60]:
            generator.process_frame(frame)
        restored = StrictStateGraphGenerator(window_size=9, duration=5)
        restored.import_checkpoint(json_roundtrip(generator.export_checkpoint()))
        assert sorted(restored.edges()) == sorted(generator.edges()), f"seed={seed}"
        assert restored.principal_object_sets() == generator.principal_object_sets(), (
            f"seed={seed}"
        )
        assert restored.live_state_count() == generator.live_state_count(), f"seed={seed}"
        a = canonical_results(generator.process_frame(f) for f in frames[60:])
        b = canonical_results(restored.process_frame(f) for f in frames[60:])
        assert a == b, f"seed={seed}: SSG diverged after restore"


    @staticmethod
    def _mid_stream_payload():
        generator = StrictStateGraphGenerator(window_size=9, duration=5)
        for frame in list(bursty_stream(1, num_frames=90).frames())[:40]:
            generator.process_frame(frame)
        payload = json_roundtrip(generator.export_checkpoint())
        assert all(payload["state"]["graph"].values()), "a column is empty"
        return payload, len(payload["state"]["states"]["bits"])

    @pytest.mark.parametrize("column", [
        "children", "parents", "roots", "principals", "previous_results",
        "memo_children",
    ])
    @pytest.mark.parametrize("position", ["past-the-table", -1])
    def test_position_outside_the_table_rejected(self, column, position):
        """Graph columns address states by table position; one that points
        nowhere (or, negative, silently at the wrong end) must not load."""
        payload, size = self._mid_stream_payload()
        values = payload["state"]["graph"][column]
        values[len(values) // 2:len(values) // 2 + 1] = [
            size if position == "past-the-table" else position
        ]
        with pytest.raises(ValueError, match="outside its state table"):
            StrictStateGraphGenerator(window_size=9, duration=5).import_checkpoint(payload)

    @pytest.mark.parametrize("damage", [
        lambda graph: graph["child_counts"].pop(),             # misaligned
        lambda graph: graph["parent_counts"].append(0),
        lambda graph: graph["children"].pop(),                 # do not add up
        lambda graph: graph["parents"].append(0),
        lambda graph: graph["child_counts"].__setitem__(0, -2),
        lambda graph: graph["principal_counts"].pop(),
        lambda graph: graph["principal_frames"].append(1),
        lambda graph: graph["principal_counts"].__setitem__(0, -1),
        lambda graph: graph["memo_children"].pop(),
        lambda graph: graph.pop("roots"),
    ])
    def test_misaligned_graph_columns_rejected(self, damage):
        payload, _ = self._mid_stream_payload()
        damage(payload["state"]["graph"])
        with pytest.raises((ValueError, KeyError)):
            StrictStateGraphGenerator(window_size=9, duration=5).import_checkpoint(payload)

    @pytest.mark.parametrize("damage", [
        lambda counts: counts.pop(),                         # misaligned
        lambda counts: counts.append(0),
        lambda counts: counts.__setitem__(counts.index(0), 1),  # too many
        lambda counts: counts.__setitem__(                   # too few
            next(at for at, count in enumerate(counts) if count), 0
        ),
        lambda counts: counts.__setitem__(                   # negative
            next(at for at, count in enumerate(counts) if count > 1), -1
        ),
    ])
    def test_memo_counts_that_do_not_add_up_rejected(self, damage):
        payload, _ = self._mid_stream_payload()
        counts = payload["state"]["graph"]["memo_counts"]
        assert 0 in counts and max(counts) > 1, "scene too small"
        damage(counts)
        restored = StrictStateGraphGenerator(window_size=9, duration=5)
        with pytest.raises(ValueError, match="does not add up to memo_counts"):
            restored.import_checkpoint(payload)


def dense_frames(seed: int, count: int, objects: int = 10, presence: float = 0.8):
    """Every object in most frames, each flickering on its own."""
    rng = random.Random(seed)
    return [
        FrameObservation(frame_id, {
            oid: "car" for oid in range(objects) if rng.random() < presence
        })
        for frame_id in range(count)
    ]


def memo_by_bits(generator):
    """Each graph node's ``reached`` set restricted to live states, keyed and
    valued by object-set bits (serials differ between processes)."""
    bits_of = {state.serial: state.bits for state in generator.live_states()}
    return {
        state.bits: frozenset(
            bits_of[serial] for serial in state.reached if serial in bits_of
        )
        for state in generator.live_states() if state.reached is not None
    }


class TestEdgeMemo:
    """SSG's edge memo (``State.reached``) through a checkpoint: a restored
    generator keeps the live part of it, so its graph evolves exactly as the
    uninterrupted one's."""

    WINDOW, DURATION, FOLLOW = 12, 6, 20

    def fresh(self):
        return StrictStateGraphGenerator(
            window_size=self.WINDOW, duration=self.DURATION
        )

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 1 << 16),
        cuts=st.lists(
            st.tuples(st.integers(1, 60), st.booleans()), min_size=1, max_size=3
        ),
    )
    def test_restored_memo_follows_the_uninterrupted_one(self, seed, cuts):
        """``cuts`` are (frames before the cut, force a memo prune there)."""
        frames = dense_frames(
            seed, sum(gap for gap, _ in cuts) + self.FOLLOW * len(cuts)
        )
        uninterrupted, source = self.fresh(), self.fresh()
        at = 0
        for gap, prune in cuts:
            for frame in frames[at:at + gap]:
                uninterrupted.process_frame(frame)
                source.process_frame(frame)
            at += gap
            if prune:
                uninterrupted._prune_edge_memo()
            restored = self.fresh()
            restored.import_checkpoint(json_roundtrip(source.export_checkpoint()))
            assert memo_by_bits(restored) == memo_by_bits(uninterrupted)
            for frame in frames[at:at + self.FOLLOW]:
                where = f"seed {seed}, frame {frame.frame_id}"
                expected = uninterrupted.process_frame(frame)
                assert canonical_results([restored.process_frame(frame)]) \
                    == canonical_results([expected]), where
                source.process_frame(frame)
                assert restored.edges() == uninterrupted.edges(), where
                assert memo_by_bits(restored) == memo_by_bits(uninterrupted), where
            at += self.FOLLOW
            assert restored.export_checkpoint() == uninterrupted.export_checkpoint()

    def test_memo_stays_within_its_bound(self, monkeypatch):
        """A principal seen every third frame outlives the random subsets
        between them, so its memo fills with states that died: the count
        reaches the prune's trigger, and stays at or below it after every
        frame."""
        rng = random.Random(3)
        generator = StrictStateGraphGenerator(window_size=4, duration=2)
        prune = generator._prune_edge_memo
        prunes = []
        monkeypatch.setattr(
            generator, "_prune_edge_memo", lambda: prunes.append(prune())
        )
        for frame_id in range(2000):
            objects = range(12) if frame_id % 3 == 0 else rng.sample(range(12), 6)
            generator.process_frame(
                FrameObservation(frame_id, {oid: "car" for oid in objects})
            )
            live = generator.live_states()
            entries = sum(len(s.reached) for s in live if s.reached is not None)
            assert generator._memo_size == entries, f"frame {frame_id}"
            assert entries <= 64 * len(live) + 1024, f"frame {frame_id}"
        assert prunes, "the stream never reached the prune's trigger"


# ----------------------------------------------------------------------
# Whole-generator round-trips (all four methods)
# ----------------------------------------------------------------------
def seeded_scene(maker, seed):
    """A seeded random stream at the round trip's small window."""
    return maker(seed, num_frames=80), 7, 4


def compaction_scene(window, duration):
    """Gaps longer than a tiny window: base shifts, full graph teardown."""
    return gap_stream(71, num_frames=80, window=5), window, duration


#: ``(relation, window, duration)`` builders: seeded random streams, the
#: compaction edge cases, then the registry scenes at the figures' window
#: (skipped without numpy).
ROUND_TRIP_SCENES = [
    pytest.param(partial(seeded_scene, maker, seed), id=f"{seed}-{maker.__name__}")
    for seed in range(4)
    for maker in (bursty_stream, gap_stream)
] + [
    pytest.param(partial(compaction_scene, window, duration),
                 id=f"compaction-{window}-{duration}")
    for window, duration in [(5, 1), (5, 5), (6, 4)]
] + [
    pytest.param(partial(registry_scene, name), id=name)
    for name in REGISTRY_DATASETS
]


@pytest.mark.parametrize("generator_cls", ALL_GENERATORS)
class TestGeneratorRoundTrip:
    @pytest.mark.parametrize("scene", ROUND_TRIP_SCENES)
    def test_restored_suffix_is_byte_identical(self, generator_cls, scene):
        relation, window, duration = scene()
        frames = list(relation.frames())
        cut = len(frames) // 2
        generator = generator_cls(window_size=window, duration=duration)
        for frame in frames[:cut]:
            generator.process_frame(frame)
        payload = json_roundtrip(generator.export_checkpoint())
        restored = generator_cls(window_size=window, duration=duration)
        restored.import_checkpoint(payload)
        a = canonical_results(generator.process_frame(f) for f in frames[cut:])
        b = canonical_results(restored.process_frame(f) for f in frames[cut:])
        assert a == b, (
            f"{generator_cls.name} stream={relation.name}: "
            "restored run diverged from uninterrupted run"
        )
        assert restored.stats.as_dict() == generator.stats.as_dict(), (
            f"{generator_cls.name} stream={relation.name}: work counters diverged"
        )

    def test_method_mismatch_rejected(self, generator_cls):
        generator = generator_cls(window_size=5, duration=2)
        payload = generator.export_checkpoint()
        payload["method"] = "SOMETHING_ELSE"
        with pytest.raises(ValueError):
            generator_cls(window_size=5, duration=2).import_checkpoint(payload)

    def test_window_mismatch_rejected(self, generator_cls):
        generator = generator_cls(window_size=5, duration=2)
        payload = generator.export_checkpoint()
        with pytest.raises(ValueError):
            generator_cls(window_size=6, duration=2).import_checkpoint(payload)

    def test_label_projection_mismatch_rejected(self, generator_cls):
        """Importing under a different label projection would silently
        project frames onto the wrong class set."""
        generator = generator_cls(
            window_size=5, duration=2, labels_of_interest={"car"}
        )
        payload = generator.export_checkpoint()
        receiver = generator_cls(
            window_size=5, duration=2, labels_of_interest={"person"}
        )
        with pytest.raises(ValueError, match="label projection"):
            receiver.import_checkpoint(payload)
        unrestricted = generator_cls(window_size=5, duration=2)
        with pytest.raises(ValueError, match="label projection"):
            unrestricted.import_checkpoint(payload)


# ----------------------------------------------------------------------
# Engine and shard round-trips
# ----------------------------------------------------------------------
class TestEngineRoundTrip:
    @pytest.mark.parametrize("method", list(MCOSMethod))
    @pytest.mark.parametrize("seed", range(3))
    def test_engine_resumes_identically(self, method, seed, small_workload):
        relation = labelled_stream(seed, num_frames=70)
        frames = list(relation.frames())
        cut = 40
        engine = TemporalVideoQueryEngine(
            small_workload,
            EngineConfig(method=method, window_size=10, duration=5),
        )
        pre = [engine.process_frame(f) for f in frames[:cut]]
        restored = TemporalVideoQueryEngine.from_checkpoint(
            json_roundtrip(engine.checkpoint())
        )
        assert [q.query_id for q in restored.queries] == [
            q.query_id for q in engine.queries
        ]
        a = [engine.process_frame(f) for f in frames[cut:]]
        b = [restored.process_frame(f) for f in frames[cut:]]
        assert a == b, f"method={method.value} seed={seed}"

    def test_restore_into_mismatched_engine_config_rejected(self, small_workload):
        engine = TemporalVideoQueryEngine(
            small_workload,
            EngineConfig(method=MCOSMethod.SSG, window_size=10, duration=5),
        )
        payload = engine.checkpoint()
        other = TemporalVideoQueryEngine(
            small_workload,
            EngineConfig(method=MCOSMethod.MFS, window_size=10, duration=5),
        )
        with pytest.raises(ValueError, match="config does not match"):
            other.restore(payload)

    def test_restore_into_mismatched_queries_rejected(self, small_workload):
        """Same config, different workload: resuming would silently evaluate
        the wrong queries under the restored generator state."""
        config = EngineConfig(method=MCOSMethod.SSG, window_size=10, duration=5)
        engine = TemporalVideoQueryEngine(small_workload, config)
        payload = engine.checkpoint()
        other = TemporalVideoQueryEngine(
            list(reversed(small_workload)),
            EngineConfig(method=MCOSMethod.SSG, window_size=10, duration=5),
        )
        with pytest.raises(ValueError, match="queries do not match"):
            other.restore(payload)


class TestEngineLabelBound:
    def test_labels_stay_bounded_on_fresh_id_streams(self, small_workload):
        """Real trackers mint ever-fresh ids; the engine's label map (and
        hence checkpoint size) must track the window population, not the
        stream length."""
        import random
        rng = random.Random(0)
        engine = TemporalVideoQueryEngine(
            small_workload,
            EngineConfig(method=MCOSMethod.MFS, window_size=10, duration=5),
        )
        from repro.datamodel import FrameObservation
        next_id = 0
        for frame_id in range(400):
            count = rng.randint(1, 4)
            labels = {}
            for _ in range(count):
                labels[next_id] = rng.choice(["person", "car"])
                next_id += 1  # every object appears exactly once
            engine.process_frame(FrameObservation(frame_id, labels))
        # ~1000 distinct ids were seen; only the recent population survives.
        assert len(engine.checkpoint()["labels"]) < 200


class TestShardRoundTrip:
    """A shard travels inside its router's document: a one-stream router
    with frames held in the reorder buffer resumes byte-identically."""

    @pytest.mark.parametrize("seed", range(3))
    def test_shard_with_pending_buffer_resumes_identically(self, seed, small_workload):
        import random
        rng = random.Random(seed)
        relation = labelled_stream(seed + 50, num_frames=90)
        frames = list(relation.frames())
        # Bounded shuffle: displace frames by at most the watermark.
        jitter = 4
        for start in range(0, len(frames), jitter):
            block = frames[start:start + jitter]
            rng.shuffle(block)
            frames[start:start + jitter] = block
        cut = 50
        router = StreamRouter(small_workload, batch_size=6, watermark=jitter)
        router.route_many(("cam-a", frame) for frame in frames[:cut])
        blob = router.to_bytes()
        restored = StreamRouter.from_bytes(blob)
        shard, twin = router.shards()["cam-a"], restored.shards()["cam-a"]
        assert twin.queue_depth == shard.queue_depth > 0, f"seed={seed}"
        assert restored.to_bytes() == blob, (
            f"seed={seed}: restore→re-checkpoint is not byte-identical"
        )
        a = shard.offer_many(frames[cut:]) + shard.flush()
        b = twin.offer_many(frames[cut:]) + twin.flush()
        assert a == b, f"seed={seed}: shard diverged after restore"
        assert shard.stats.as_dict()["frames_ingested"] == \
            twin.stats.as_dict()["frames_ingested"], f"seed={seed}"


# ----------------------------------------------------------------------
# Envelope validation
# ----------------------------------------------------------------------
class TestCheckpointEnvelope:
    def test_roundtrip(self):
        payload = {"hello": [1, 2, {"three": 4}]}
        data = ckpt.to_bytes("generator", payload)
        assert ckpt.from_bytes(data, expect_kind="generator") == payload

    def test_rejects_foreign_format(self):
        with pytest.raises(CheckpointError):
            ckpt.unwrap({"format": "something-else", "version": 1})

    def test_rejects_future_version(self):
        document = ckpt.wrap("router", {})
        document["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(CheckpointError):
            ckpt.unwrap(document)

    def test_rejects_wrong_kind(self):
        data = ckpt.to_bytes("router", {})
        with pytest.raises(CheckpointError):
            ckpt.from_bytes(data, expect_kind="engine")

    def test_rejects_unknown_kind(self):
        with pytest.raises(CheckpointError):
            ckpt.wrap("mystery", {})
        document = ckpt.wrap("router", {})
        document["kind"] = "mystery"
        with pytest.raises(CheckpointError):
            ckpt.unwrap(document)

    def test_rejects_invalid_json(self):
        with pytest.raises(CheckpointError):
            ckpt.from_bytes(b"{not json")

    def test_truncated_shard_payload_raises_checkpoint_error(self, small_workload):
        """Deeply-missing keys surface as CheckpointError, not raw KeyError."""
        router = StreamRouter(small_workload)
        router.shard_for("s")
        payload = router.checkpoint()
        del payload["shards"][0]["engine"]["labels"]
        with pytest.raises(CheckpointError):
            StreamRouter.from_checkpoint(payload)
        payload2 = router.checkpoint()
        del payload2["shards"][0]["engine"]["generators"][0]["interner"]
        with pytest.raises(CheckpointError):
            StreamRouter.from_checkpoint(payload2)

    def test_rejects_non_object_payload(self):
        document = ckpt.wrap("router", {})
        document["payload"] = [1, 2, 3]
        with pytest.raises(CheckpointError):
            ckpt.unwrap(document)

    def test_save_load_file(self, tmp_path):
        path = tmp_path / "router.ckpt"
        ckpt.save(path, "router", {"x": 1})
        assert ckpt.load(path, expect_kind="router") == {"x": 1}
