"""Compact checkpoint codec: round-trips, versions, size, errors.

The codec must be loss-free for every payload the runtime produces (every
generator method, engines, shards, routers), read version 10 only and refuse
every other version by name, reject malformed, truncated or hostile bytes
with :class:`CheckpointError`, and actually be compact — a hard
size-regression bound against plain JSON of the same document on the
benchmark workload.
"""

from __future__ import annotations

import json
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import EngineConfig, MCOSMethod, TemporalVideoQueryEngine
from repro.session import Session
from repro.streaming import CheckpointError, StreamRouter
from repro.streaming import checkpoint as ckpt
from repro.workloads.streams import bench_scenario, interleave_feeds

from tests.conftest import (
    ALL_GENERATORS,
    INCREMENTAL_GENERATORS,
    build_queries,
    bursty_stream,
    canonical_results,
    labelled_stream,
)


def encode_decode(payload, kind="generator"):
    """Force a payload through the compact wire form and back."""
    return ckpt.from_bytes(ckpt.to_bytes(kind, payload), expect_kind=kind)


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------
class TestBinaryRoundTrip:
    @pytest.mark.parametrize("generator_cls", ALL_GENERATORS)
    @pytest.mark.parametrize("seed", range(3))
    def test_every_generator_method_resumes_byte_identically(
        self, generator_cls, seed
    ):
        """export_state → import_state through v4 bytes for every method."""
        relation = labelled_stream(seed, num_frames=70)
        frames = list(relation.frames())
        split = len(frames) // 2
        original = generator_cls(window_size=9, duration=4)
        for frame in frames[:split]:
            original.process_frame(frame)
        blob = original.export_state()
        assert blob[:len(ckpt.MAGIC)] == ckpt.MAGIC, "not compact form"
        restored = generator_cls(window_size=9, duration=4)
        restored.import_state(blob)
        tail_original = [original.process_frame(f) for f in frames[split:]]
        tail_restored = [restored.process_frame(f) for f in frames[split:]]
        assert canonical_results(tail_restored) == canonical_results(
            tail_original
        ), f"seed={seed} method={generator_cls.name}"
        # The snapshot itself survives the codec exactly.
        payload = original.export_checkpoint()
        assert encode_decode(payload) == json.loads(json.dumps(payload)), (
            f"seed={seed} method={generator_cls.name}"
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_engine_state_bytes_resume_byte_identically(self, seed):
        relation = labelled_stream(seed * 31 + 5, num_frames=60)
        frames = list(relation.frames())
        queries = build_queries(
            ["person >= 1", "car >= 1 AND person >= 1"], window=8, duration=4
        )
        config = EngineConfig(method=MCOSMethod.SSG, window_size=8, duration=4)
        original = TemporalVideoQueryEngine(queries, config)
        for frame in frames[:30]:
            original.process_frame(frame)
        blob = original.export_state()
        restored = TemporalVideoQueryEngine.from_state(blob)
        assert restored.export_state() == blob, f"seed={seed}"
        for frame in frames[30:]:
            assert restored.process_frame(frame) == original.process_frame(
                frame
            ), f"seed={seed}"
        # import_state into an identically configured engine also works.
        sibling = TemporalVideoQueryEngine(queries, config)
        sibling.import_state(original.export_state())
        assert sibling.export_state() == original.export_state(), f"seed={seed}"

    def test_value_types_survive_exactly(self):
        payload = {
            "none": None,
            "bools": [True, False],
            "ints": [0, -1, 7, -128, 2 ** 300, -(2 ** 300)],
            "floats": [0.0, -2.5, 1e-9, 123456.789],
            "text": ["", "ascii", "uniçødé ☃"],
            "nested": {"list": [{"deep": [1, "two", None]}], "empty": {}},
            "int_list_delta": [1000000, 1000001, 1000002, 999990],
            "empty_list": [],
            "holey": [1, None, 3],
        }
        assert encode_decode(payload, "router") == payload

    def test_tuples_canonicalise_to_lists(self):
        assert encode_decode({"t": (1, 2, 3)}, "router") == {"t": [1, 2, 3]}


# ----------------------------------------------------------------------
# Versions
# ----------------------------------------------------------------------
def varint(value: int) -> bytes:
    """``value`` as an unsigned LEB128 varint."""
    out = bytearray()
    ckpt._write_varint(out, value)
    return bytes(out)


class TestVersions:
    def test_only_version10_is_written_or_read(self):
        assert ckpt.CHECKPOINT_VERSION == 10
        assert ckpt.SUPPORTED_VERSIONS == (10,)
        assert ckpt.MAGIC == b"RSCK10\x00"
        assert ckpt.wrap("router", {})["version"] == 10
        blob = ckpt.to_bytes("router", {})
        assert blob[:len(ckpt.MAGIC)] == ckpt.MAGIC
        with pytest.raises(TypeError):
            ckpt.to_bytes("router", {}, version=3)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, 9, 11])
    def test_other_versions_are_refused_by_name(self, version):
        body = ckpt.to_bytes("router", {"a": 1})[len(ckpt.MAGIC):]
        if version == 1:
            blob = json.dumps(dict(ckpt.wrap("router", {}), version=1)).encode()
        else:
            blob = b"RSCK%d\x00" % version + body
        with pytest.raises(CheckpointError, match=f"version {version}\\b"):
            ckpt.from_bytes(blob)
        document = dict(ckpt.wrap("router", {}), version=version)
        with pytest.raises(CheckpointError, match=f"version {version}\\b"):
            ckpt.unwrap(document)

    def test_foreign_bytes_rejected(self):
        with pytest.raises(CheckpointError, match="unknown magic"):
            ckpt.from_bytes(b"PK\x03\x04 not a checkpoint")
        with pytest.raises(CheckpointError, match="must be bytes"):
            ckpt.from_bytes("RSCK4")

    def test_binary_body_must_declare_the_version_of_its_magic(self):
        document = dict(ckpt.wrap("router", {"a": 1}), version=3)
        blob = ckpt._encode_binary(document)
        assert blob[:len(ckpt.MAGIC)] == ckpt.MAGIC
        with pytest.raises(CheckpointError, match="does not declare version 10"):
            ckpt.from_bytes(blob)


# ----------------------------------------------------------------------
# Resuming from version-10 bytes
# ----------------------------------------------------------------------
class TestResumeFromBytes:
    @pytest.mark.parametrize("generator_cls", INCREMENTAL_GENERATORS)
    @pytest.mark.parametrize("seed", range(3))
    def test_bursty_generator_blob_restores_to_its_export(
        self, generator_cls, seed
    ):
        """A mid-stream blob on a bursty scene restores to a generator whose
        re-export is the direct export, and whose suffix is the original's."""
        frames = list(bursty_stream(seed, num_frames=90).frames())
        original = generator_cls(window_size=9, duration=4)
        for frame in frames[:60]:
            original.process_frame(frame)
        direct = original.export_checkpoint()
        assert isinstance(direct["state"]["states"], dict), "not columnar"
        restored = generator_cls(window_size=9, duration=4)
        restored.import_state(ckpt.to_bytes("generator", direct))
        assert restored.export_checkpoint() == direct, f"seed={seed}"
        assert restored.export_state() == original.export_state(), f"seed={seed}"
        a = canonical_results(original.process_frame(f) for f in frames[60:])
        b = canonical_results(restored.process_frame(f) for f in frames[60:])
        assert a == b, f"seed={seed}"

    @pytest.mark.parametrize(
        "groups", [[(8, 4)], [(8, 4), (12, 6)]], ids=["one-group", "two-groups"]
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_router_resumes_from_bytes(self, groups, seed):
        """The router document holds each query, window group and setting
        once, its shard entries hold per-stream state only, and a router
        restored from its bytes re-checkpoints and continues exactly."""
        feeds, queries = bench_scenario(2, 50, groups, 2, seed)
        router = StreamRouter(queries, batch_size=4)
        events = list(interleave_feeds(feeds))
        router.route_many(events[:60])
        assert any(shard.matches for shard in router.shards().values())
        document = router.checkpoint()
        ids = document["queries"]["ids"]
        assert sorted(ids) == sorted(query.query_id for query in queries)
        assert len(set(ids)) == len(ids)
        assert document["group_order"] == [list(group) for group in groups]
        for entry in document["shards"]:
            assert set(entry) == {
                "stream_id", "max_seen", "last_emitted", "pending",
                "retained", "stats", "engine",
            }
            assert set(entry["engine"]) == {
                "sources", "labels", "counters", "generators",
            }
            assert len(entry["engine"]["sources"]) == len(groups)
        restored = StreamRouter.from_bytes(ckpt.to_bytes("router", document))
        assert restored.checkpoint() == document, f"seed={seed}"
        restored.route_many(events[60:])
        router.route_many(events[60:])
        restored.flush()
        router.flush()
        for stream_id in feeds:
            assert restored.matches_for(stream_id) == router.matches_for(
                stream_id
            ), f"seed={seed} stream={stream_id}"

    @pytest.mark.parametrize("backend", ["inline", "router"])
    def test_session_resumes_from_bytes(self, backend):
        """A session with drained handles, matches still retained in the
        backend and one cancelled handle restores byte-identically: active
        handles name their query by id, the cancelled one is the one row of
        the registry's own query table."""
        feeds, queries = bench_scenario(2, 50, [(8, 4), (12, 6)], 2, 5)
        events = list(interleave_feeds(feeds))
        with Session(backend=backend, method="SSG") as session:
            handles = [session.register(query) for query in queries]
            for stream_id, frame in events[:40]:
                session.ingest(stream_id, frame)
            session.flush()
            session.drain()                      # into the handles
            handles[-1].cancel()
            for stream_id, frame in events[40:70]:
                session.ingest(stream_id, frame)  # retained in the backend
            session.flush()
            blob = session.checkpoint()
            registry = ckpt.from_bytes(blob)["registry"]
            assert any(registry["matches"])
            assert registry["ids"] == [query.query_id for query in queries]
            assert registry["cancelled"]["ids"] == [queries[-1].query_id]
            with Session.restore(blob) as restored:
                assert restored.checkpoint() == blob
                for stream_id, frame in events[70:]:
                    session.ingest(stream_id, frame)
                    restored.ingest(stream_id, frame)
                assert [h.matches() for h in restored.handles] == [
                    handle.matches() for handle in handles
                ]


# ----------------------------------------------------------------------
# Int columns (tag 9)
# ----------------------------------------------------------------------
def tree_bytes(value) -> bytes:
    """``value`` in the tree encoding alone (no string table, no zlib)."""
    out = bytearray()
    ckpt._encode_value(value, out, {})
    return bytes(out)


def read_tree(body: bytes):
    reader = ckpt._Reader(body)
    value = reader.read_value()
    assert reader.pos == len(body), "trailing bytes"
    return value


#: Values at, just inside and just outside every item width.
BOUNDARIES = sorted({
    sign * (1 << bits) + offset
    for bits in (7, 8, 15, 16, 31, 32, 63, 64)
    for sign in (1, -1)
    for offset in (-1, 0, 1)
} | {0})

int64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


class TestIntColumns:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.one_of(int64, st.sampled_from(BOUNDARIES), st.integers(-200, 200)),
        max_size=40,
    ))
    def test_int_lists_round_trip_exactly(self, values):
        encoded = tree_bytes(values)
        decoded = read_tree(encoded)
        assert decoded == values
        assert all(type(item) is int for item in decoded)
        fits = all(-(1 << 63) <= item < (1 << 63) for item in values)
        expected_tag = (
            ckpt._T_LIST if not values
            else ckpt._T_INTLIST if len(values) < ckpt.COLUMN_MIN_VALUES
            else ckpt._T_INTCOLUMN if fits
            else ckpt._T_WIDECOLUMN if min(values) >= 0
            else ckpt._T_INTLIST
        )
        assert encoded[0] == expected_tag
        assert tree_bytes(list(values)) == encoded, "not canonical"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-(1 << 62), 1 << 62), st.lists(
        st.integers(-130, 130), min_size=ckpt.COLUMN_MIN_VALUES, max_size=60,
    ))
    def test_deltas_are_stored_when_narrower(self, first, steps):
        """Sorted-ish columns far from zero (frame ids, table positions):
        the first value is the base, the items are the small differences —
        negative ones included."""
        values = [first]
        for step in steps:
            values.append(values[-1] + step)
        encoded = tree_bytes(values)
        assert read_tree(encoded) == values
        if not -(1 << 15) <= first < (1 << 15):
            assert encoded[1] & ckpt._DELTA, "raw although deltas are narrower"
            assert encoded[1] & ~ckpt._DELTA <= 2

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_each_width_boundary(self, width):
        top = (1 << (8 * width - 1)) - 1
        # The 0 after the extremes keeps the deltas wider than the values.
        inside = [top, -top - 1, 0] * ckpt.COLUMN_MIN_VALUES
        encoded = tree_bytes(inside)
        assert encoded[:2] == bytes([ckpt._T_INTCOLUMN, width])
        assert read_tree(encoded) == inside
        outside = inside + [top + 1]
        assert read_tree(tree_bytes(outside)) == outside
        if width < 8:
            assert tree_bytes(outside)[:2] == bytes([ckpt._T_INTCOLUMN, 2 * width])

    def test_beyond_64_bits_takes_a_wide_column_unless_negative(self):
        """A non-negative list with an int wider than 64 bits (object-set
        bitmasks, frame bitsets of long windows) is a tag-10 wide column; a
        wide list holding a negative int keeps the varints of tag 8."""
        wide = list(range(20)) + [1 << 64]
        assert tree_bytes(wide)[:3] == bytes([ckpt._T_WIDECOLUMN, 9, len(wide)])
        assert read_tree(tree_bytes(wide)) == wide
        wide_negative = [-1] + wide
        assert tree_bytes(wide_negative)[0] == ckpt._T_INTLIST
        assert read_tree(tree_bytes(wide_negative)) == wide_negative
        short = wide[-ckpt.COLUMN_MIN_VALUES + 1:]
        assert tree_bytes(short)[0] == ckpt._T_INTLIST
        assert read_tree(tree_bytes(short)) == short
        negative = list(range(20)) + [-(1 << 63) - 1]
        assert tree_bytes(negative)[0] == ckpt._T_INTLIST
        assert read_tree(tree_bytes(negative)) == negative
        # Extremes that fit, whose difference does not: raw, never deltas.
        extremes = [-(1 << 63), (1 << 63) - 1] * ckpt.COLUMN_MIN_VALUES
        assert tree_bytes(extremes)[:2] == bytes([ckpt._T_INTCOLUMN, 8])
        assert read_tree(tree_bytes(extremes)) == extremes

    def test_below_the_threshold_stays_a_varint_list(self):
        short = list(range(1000, 1000 + ckpt.COLUMN_MIN_VALUES - 1))
        assert tree_bytes(short)[0] == ckpt._T_INTLIST
        assert tree_bytes(short + [5])[0] == ckpt._T_INTCOLUMN

    def test_bools_are_not_ints(self):
        flags = [True, False] * 10
        decoded = read_tree(tree_bytes(flags))
        assert decoded == flags and all(type(item) is bool for item in decoded)
        assert tree_bytes(flags)[0] == ckpt._T_LIST
        mixed = list(range(10)) + [True]
        decoded = read_tree(tree_bytes(mixed))
        assert decoded[-1] is True and tree_bytes(mixed)[0] == ckpt._T_LIST

    def test_tuples_take_the_column_path_too(self):
        assert read_tree(tree_bytes(tuple(range(100, 130)))) == list(range(100, 130))

    # -- hostile headers -------------------------------------------------
    def column(self, kind: int, count: int, items: bytes, base: bytes = b"") -> bytes:
        return bytes([ckpt._T_INTCOLUMN, kind]) + varint(count) + base + items

    def test_every_truncation_of_a_column_raises(self):
        for values in (list(range(300, 340)), [5, -3, 1000, -70000] * 4):
            encoded = tree_bytes(values)
            assert encoded[0] == ckpt._T_INTCOLUMN
            for cut in range(len(encoded)):
                with pytest.raises(CheckpointError):
                    read_tree(encoded[:cut])

    @pytest.mark.parametrize("kind", [0, 3, 5, 16, 0x13, 0x21, 0x81, 0xFF])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(CheckpointError, match="int-column kind"):
            read_tree(self.column(kind, 1, b"\x00" * 16))

    @pytest.mark.parametrize("kind", [1, 2, 4, 8, 0x11, 0x18])
    def test_count_past_the_end_never_allocates(self, kind):
        """A header promising 2**62 items over a handful of bytes must fail
        on the length check, before anything is sized by the count."""
        body = self.column(kind, 1 << 62, b"\x00" * 64, base=b"\x00")
        with pytest.raises(CheckpointError, match="runs past the end"):
            read_tree(body)

    def test_delta_column_needs_a_first_value(self):
        with pytest.raises(CheckpointError, match="without a first value"):
            read_tree(self.column(0x11, 0, b""))

    # -- wide columns (tag 10) -----------------------------------------
    @pytest.mark.parametrize("width", range(9, 65))
    def test_wide_columns_round_trip_at_every_width(self, width):
        import random
        rng = random.Random(width)
        top = 1 << (8 * width)
        values = [rng.randrange(top) for _ in range(ckpt.COLUMN_MIN_VALUES)]
        values += [0, top - 1, top >> 1, 1 << 64]
        encoded = tree_bytes(values)
        assert encoded == (
            bytes([ckpt._T_WIDECOLUMN]) + varint(width) + varint(len(values))
            + b"".join(value.to_bytes(width, "little") for value in values)
        )
        decoded = read_tree(encoded)
        assert decoded == values and all(type(item) is int for item in decoded)

    def wide_column(self, width: int, count: int, items: bytes) -> bytes:
        return bytes([ckpt._T_WIDECOLUMN]) + varint(width) + varint(count) + items

    def test_every_truncation_of_a_wide_column_raises(self):
        encoded = tree_bytes([1 << 70, 5] * ckpt.COLUMN_MIN_VALUES)
        assert encoded[0] == ckpt._T_WIDECOLUMN
        for cut in range(len(encoded)):
            with pytest.raises(CheckpointError):
                read_tree(encoded[:cut])

    def test_wide_column_of_width_zero_rejected(self):
        with pytest.raises(CheckpointError, match="width 0"):
            read_tree(self.wide_column(0, 1 << 62, b""))

    @pytest.mark.parametrize("width,count", [(9, 1 << 62), (1 << 62, 9), (1, 65)])
    def test_wide_count_past_the_end_never_allocates(self, width, count):
        with pytest.raises(CheckpointError, match="runs past the end"):
            read_tree(self.wide_column(width, count, b"\x01" * 64))

    def test_hostile_column_inside_a_whole_checkpoint(self):
        strings = b"\x00"  # empty string table
        with pytest.raises(CheckpointError):
            ckpt.from_bytes(ckpt.MAGIC + zlib.compress(
                strings + self.column(8, 1 << 40, b"\x01" * 8)
            ))


# ----------------------------------------------------------------------
# Malformed and truncated input
# ----------------------------------------------------------------------
class TestMalformedInput:
    def test_every_truncation_raises_checkpoint_error(self):
        blob = ckpt.to_bytes("router", {"a": [1, 2, 3], "b": "text", "c": None})
        for cut in range(len(blob)):
            with pytest.raises(CheckpointError):
                ckpt.from_bytes(blob[:cut])

    def test_trailing_garbage_rejected(self):
        blob = ckpt.to_bytes("router", {"a": 1})
        with pytest.raises(CheckpointError):
            ckpt.from_bytes(blob + b"x")

    def test_corrupt_compressed_body_rejected(self):
        with pytest.raises(CheckpointError):
            ckpt.from_bytes(ckpt.MAGIC + b"this is not zlib data")

    def test_unknown_tag_rejected(self):
        # Hand-roll a body: empty string table, then an invalid tag byte.
        body = bytes([0]) + bytes([250])
        with pytest.raises(CheckpointError):
            ckpt.from_bytes(ckpt.MAGIC + zlib.compress(body))

    def test_string_reference_out_of_range_rejected(self):
        # Empty string table, then a string value referencing index 5.
        body = bytes([0]) + bytes([5, 5])
        with pytest.raises(CheckpointError):
            ckpt.from_bytes(ckpt.MAGIC + zlib.compress(body))

    def test_binary_body_must_be_an_envelope(self):
        # A valid tree that is not an envelope dict must be rejected.
        body = bytes([0, 3, 0])  # no strings, int 0
        with pytest.raises(CheckpointError):
            ckpt.from_bytes(ckpt.MAGIC + zlib.compress(body))

    def test_non_string_dict_keys_rejected_on_write(self):
        with pytest.raises(CheckpointError):
            ckpt.to_bytes("router", {"outer": {1: "int key"}})

    def test_unserialisable_values_rejected_on_write(self):
        with pytest.raises(CheckpointError):
            ckpt.to_bytes("router", {"x": {"nested": set([1, 2])}})


# ----------------------------------------------------------------------
# Size regression
# ----------------------------------------------------------------------
class TestCompactness:
    def test_written_form_is_at_most_40_percent_of_v1_on_bench_workload(self):
        """The compaction the codec exists for, pinned as a regression bound
        against plain JSON of the same envelope (the version-1 form).

        Uses the pool/streaming benchmark scenario (scaled down only in
        frame count to keep the suite fast — the state shape per frame is
        identical), snapshotting a router mid-stream with live reorder
        buffers and retained matches.
        """
        feeds, queries = bench_scenario(4, 150, [(24, 16), (36, 24)], 4, 7)
        router = StreamRouter(queries, batch_size=16, restrict_labels=False)
        router.route_many(interleave_feeds(feeds))
        payload = router.checkpoint()
        plain = len(json.dumps(
            ckpt.wrap("router", payload), separators=(",", ":")
        ).encode("ascii"))
        compact = len(ckpt.to_bytes("router", payload))
        assert compact <= 0.4 * plain, (
            f"compact checkpoint regressed: {compact} bytes vs {plain} "
            f"bytes of plain JSON ({compact / plain:.1%})"
        )

    def test_to_bytes_is_canonical(self):
        feeds, queries = bench_scenario(2, 40, [(8, 4)], 2, 3)
        router = StreamRouter(queries, batch_size=4)
        router.route_many(interleave_feeds(feeds))
        assert router.to_bytes() == router.to_bytes()
        assert StreamRouter.from_bytes(router.to_bytes()).to_bytes() == \
            router.to_bytes()

    def test_decompression_bomb_rejected(self, monkeypatch):
        """A tiny file expanding past the body ceiling must raise, not OOM."""
        import zlib as zlib_module
        monkeypatch.setattr(ckpt, "MAX_DECOMPRESSED_BYTES", 4096)
        bomb = ckpt.MAGIC + zlib_module.compress(b"\x00" * 1_000_000)
        assert len(bomb) < 2000  # the point: small wire size, huge body
        with pytest.raises(CheckpointError, match="size limit"):
            ckpt.from_bytes(bomb)
