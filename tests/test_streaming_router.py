"""Cross-shard equivalence suite and streaming-runtime behavior tests.

The central property: interleaved multi-stream workloads routed through a
:class:`~repro.streaming.router.StreamRouter` yield, for every stream, results
identical to a dedicated single-engine run over that stream alone.  Streams
are randomized and every assertion message carries the seed that produced the
failing stream.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro.datamodel import FrameObservation, VideoRelation
from repro.engine import EngineConfig, MCOSMethod, TemporalVideoQueryEngine
from repro.query.parser import parse_query
from repro.streaming import StreamRouter, StreamShard
from repro.workloads.streams import interleave_feeds

from tests.conftest import build_queries, labelled_stream


def make_feeds(seed: int, num_feeds: int = 4, num_frames: int = 70) -> Dict[str, VideoRelation]:
    """Independent labelled feeds for one randomized scenario."""
    return {
        f"cam-{i}": labelled_stream(seed * 37 + i, num_frames=num_frames)
        for i in range(num_feeds)
    }


def interleaved(feeds: Dict[str, VideoRelation], seed: int, jitter: int = 0):
    """The shipped interleaving (round-robin + bounded jitter), as a list."""
    return list(interleave_feeds(feeds, jitter=jitter, seed=seed))


def multi_group_queries() -> List:
    """A mixed workload spanning two window groups."""
    return (
        build_queries(
            ["person >= 1", "car >= 1 AND person >= 1", "truck >= 1 OR bus >= 1"],
            window=8, duration=4,
        )
        + build_queries(
            ["person >= 2", "(car >= 1 OR truck >= 1) AND person <= 4"],
            window=12, duration=7,
        )
    )


def group_matches(router: StreamRouter, stream_id: str, group) -> List:
    """The matches of one window group's queries on a stream's shard, in
    emission order."""
    ids = {query.query_id for query in router.queries_of_group(group)}
    return [m for m in router.shard_for(stream_id).matches if m.query_id in ids]


class TestRouterEquivalence:
    @pytest.mark.parametrize("method", list(MCOSMethod))
    @pytest.mark.parametrize("seed", range(4))
    def test_per_stream_results_match_dedicated_engines(self, method, seed):
        """In-order multi-stream routing == one dedicated engine per group."""
        feeds = make_feeds(seed)
        queries = multi_group_queries()
        router = StreamRouter(queries, method=method, batch_size=5)
        router.route_many(interleaved(feeds, seed))
        router.flush()
        for stream_id, relation in feeds.items():
            for group in router.group_keys:
                window, duration = group
                dedicated = TemporalVideoQueryEngine(
                    router.queries_of_group(group),
                    EngineConfig(
                        method=method, window_size=window, duration=duration
                    ),
                )
                expected = dedicated.run(relation).matches
                actual = group_matches(router, stream_id, group)
                assert actual == expected, (
                    f"seed={seed} method={method.value} stream={stream_id} "
                    f"group={group}: router diverged from the dedicated engine "
                    f"({len(actual)} vs {len(expected)} matches)"
                )

    @pytest.mark.parametrize("seed", range(4))
    def test_jittered_arrival_within_watermark_is_lossless(self, seed):
        """Out-of-order arrival (bounded by the watermark) changes nothing."""
        feeds = make_feeds(seed, num_feeds=3)
        queries = multi_group_queries()
        jitter = 3  # 3 feeds round-robin: same-stream displacement < 3
        router = StreamRouter(queries, batch_size=4, watermark=3)
        router.route_many(interleaved(feeds, seed, jitter=jitter))
        router.flush()
        stats = router.stats()
        # Guard against a vacuous scenario: the jitter must actually have
        # produced out-of-order arrival within streams.
        assert stats["totals"]["reordered"] > 0, f"seed={seed}"
        assert stats["totals"]["dropped_late"] == 0, f"seed={seed}"
        assert (
            stats["totals"]["frames_processed"]
            == stats["totals"]["frames_ingested"]
        ), f"seed={seed}"
        for stream_id, relation in feeds.items():
            for group in router.group_keys:
                window, duration = group
                dedicated = TemporalVideoQueryEngine(
                    router.queries_of_group(group),
                    EngineConfig(window_size=window, duration=duration),
                )
                expected = dedicated.run(relation).matches
                actual = group_matches(router, stream_id, group)
                assert actual == expected, (
                    f"seed={seed} stream={stream_id} group={group}: jittered "
                    "routing diverged from the in-order dedicated engine"
                )

    @pytest.mark.parametrize("seed", range(4))
    def test_jitter_bound_holds_for_unequal_length_feeds(self, seed):
        """The per-stream jitter bound must survive short feeds exhausting.

        Regression: fixed-size shuffle blocks let a surviving stream's
        frames displace by a whole block once shorter feeds ended, so a
        watermark equal to the jitter silently dropped frames.
        """
        feeds = {
            "long": labelled_stream(seed * 91 + 1, num_frames=60),
            "short": labelled_stream(seed * 91 + 2, num_frames=10),
        }
        queries = build_queries(["person >= 1", "car >= 1"], window=8, duration=4)
        router = StreamRouter(queries, batch_size=1, watermark=2)
        router.route_many(interleaved(feeds, seed, jitter=2))
        router.flush()
        stats = router.stats()
        assert stats["totals"]["dropped_late"] == 0, f"seed={seed}"
        assert (
            stats["totals"]["frames_processed"]
            == stats["totals"]["frames_ingested"]
        ), f"seed={seed}"
        for stream_id, relation in feeds.items():
            dedicated = TemporalVideoQueryEngine(
                router.queries_of_group((8, 4)),
                EngineConfig(window_size=8, duration=4),
            )
            assert router.shard_for(stream_id).matches == \
                dedicated.run(relation).matches, f"seed={seed} stream={stream_id}"

    @pytest.mark.parametrize("seed", range(3))
    def test_mid_stream_checkpoint_restore_is_transparent(self, seed):
        """Restoring the router mid-stream must not change any match."""
        feeds = make_feeds(seed, num_feeds=3)
        queries = multi_group_queries()
        events = interleaved(feeds, seed)
        cut = len(events) // 2

        control = StreamRouter(queries, batch_size=4)
        all_matches = control.route_many(events)
        all_matches += control.flush()

        router = StreamRouter(queries, batch_size=4)
        first = router.route_many(events[:cut])
        restored = StreamRouter.from_bytes(router.to_bytes())
        second = restored.route_many(events[cut:])
        second += restored.flush()
        assert first + second == all_matches, (
            f"seed={seed}: checkpoint/restore changed the match stream"
        )

    def test_matches_for_collects_across_groups(self):
        feeds = make_feeds(0, num_feeds=2)
        queries = multi_group_queries()
        router = StreamRouter(queries, batch_size=4)
        router.route_many(interleaved(feeds, 0))
        router.flush()
        for stream_id in feeds:
            combined = router.matches_for(stream_id)
            per_group = sum(
                len(group_matches(router, stream_id, group))
                for group in router.group_keys
            )
            assert len(combined) == per_group
            assert [m.frame_id for m in combined] == sorted(
                m.frame_id for m in combined
            )


class TestShardBehavior:
    def queries(self):
        return build_queries(["person >= 1"], window=6, duration=2)

    def frames(self, ids):
        return [FrameObservation(i, {1: "person"}) for i in ids]

    def test_batching_defers_processing(self):
        shard = StreamShard("s", self.queries(), batch_size=4)
        for frame in self.frames(range(3)):
            assert shard.offer(frame) == []
        assert shard.queue_depth == 3
        assert shard.engine.frames_processed == 0
        shard.offer(self.frames([3])[0])  # fourth frame completes the batch
        assert shard.queue_depth == 0
        assert shard.engine.frames_processed == 4
        assert shard.stats.batches == 1

    def test_watermark_holds_frames_back(self):
        shard = StreamShard(
            "s", self.queries(), batch_size=1, watermark=2
        )
        shard.offer_many(self.frames([0, 1, 2]))
        # Only frame 0 has cleared the watermark (max_seen=2, watermark=2).
        assert shard.engine.frames_processed == 1
        assert shard.queue_depth == 2
        shard.flush()
        assert shard.engine.frames_processed == 3

    def test_out_of_order_within_watermark_reorders(self):
        shard = StreamShard(
            "s", self.queries(), batch_size=10, watermark=3
        )
        shard.offer_many(self.frames([1, 0, 3, 2]))
        shard.flush()
        assert shard.stats.reordered == 2
        assert shard.stats.dropped_late == 0
        assert shard.engine.frames_processed == 4

    def test_late_frame_dropped_after_emission(self):
        shard = StreamShard("s", self.queries(), batch_size=1)
        shard.offer_many(self.frames([0, 1, 2]))
        assert shard.engine.frames_processed == 3
        shard.offer(self.frames([1])[0])  # slot already emitted: late
        assert shard.stats.dropped_late == 1
        shard.offer(self.frames([2])[0])  # redelivery of the frontier frame
        assert shard.stats.duplicates == 1
        assert shard.stats.dropped_late == 1
        assert shard.engine.frames_processed == 3

    def test_duplicate_buffered_frame_dropped(self):
        shard = StreamShard(
            "s", self.queries(), batch_size=10, watermark=5
        )
        shard.offer_many(self.frames([0, 1, 1]))
        assert shard.stats.duplicates == 1
        shard.flush()
        assert shard.engine.frames_processed == 2

    def test_shard_serves_every_window_group_of_its_queries(self):
        shard = StreamShard(
            "s",
            build_queries(["person >= 1"], window=10, duration=5)
            + build_queries(["person >= 1"], window=6, duration=2),
        )
        assert shard.engine.group_keys == [(10, 5), (6, 2)]
        assert len(shard.engine.generators) == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            StreamShard("s", self.queries(), batch_size=0)
        with pytest.raises(ValueError):
            StreamShard("s", self.queries(), watermark=-1)


class TestRouterTopology:
    def test_queries_grouped_by_window(self):
        queries = multi_group_queries()
        router = StreamRouter(queries)
        assert router.group_keys == [(8, 4), (12, 7)]
        assert len(router.queries_of_group((8, 4))) == 3
        assert len(router.queries_of_group((12, 7))) == 2
        # Global ids are unique and stable.
        ids = [q.query_id for q in router.queries]
        assert ids == sorted(set(ids))

    def test_shards_created_lazily_per_stream(self):
        router = StreamRouter(multi_group_queries())
        assert router.shards() == {}
        router.route("cam-a", FrameObservation(0, {1: "person"}))
        assert list(router.shards()) == ["cam-a"]
        router.route("cam-b", FrameObservation(0, {1: "person"}))
        assert list(router.shards()) == ["cam-a", "cam-b"]
        assert router.stream_ids() == ["cam-a", "cam-b"]

    def test_shard_for_serves_every_window_group(self):
        router = StreamRouter(multi_group_queries())
        shard = router.shard_for("cam-a")
        assert shard.stream_id == "cam-a"
        assert shard.engine.group_keys == [(8, 4), (12, 7)]
        with pytest.raises(ValueError):
            StreamRouter([]).shard_for("cam-a")

    def test_empty_workload_starts_cold(self):
        """A router may start with no queries (live registration fills it):
        frames route nowhere until a query arrives, but their stream takes
        its first-seen place."""
        router = StreamRouter([])
        assert router.group_keys == []
        frame = FrameObservation(0, {1: "car"})
        assert router.route("cam-a", frame) == []
        assert router.stream_ids() == ["cam-a"]
        assert router.shards() == {}
        registered = router.register_query(parse_query("car >= 1", window=6, duration=2))
        assert registered.query_id == 0
        assert router.group_keys == [(6, 2)]

    def test_stream_order_survives_group_retirement(self):
        """First-seen stream order is persistent: retiring a whole window
        group (cancelling its last query) must not reorder — or drop —
        streams in stream_ids()/drain/stats, even when the interleaving of
        shard creation would suggest otherwise."""
        router = StreamRouter(
            [parse_query("person >= 1", window=6, duration=2)], batch_size=1
        )
        g1 = router.queries[0]
        frame = lambda fid: FrameObservation(fid, {1: "person", 2: "person"})
        router.route("cam-A", frame(0))                      # A: G1
        g2 = router.register_query(
            parse_query("person >= 2", window=8, duration=2)
        )                                                    # A: G1 + G2
        router.route("cam-B", frame(1))                      # B: G1 + G2
        router.route("cam-A", frame(1))
        assert router.stream_ids() == ["cam-A", "cam-B"]
        router.cancel_query(g1.query_id)                     # G1 leaves both
        assert router.stream_ids() == ["cam-A", "cam-B"], (
            "group retirement reordered the streams"
        )
        # ... and the order survives a checkpoint round trip, including a
        # stream that currently has no shards at all.
        router.cancel_query(g2.query_id)
        third = router.register_query(
            parse_query("person >= 1", window=9, duration=3)
        )
        assert router.stream_ids() == ["cam-A", "cam-B"]
        restored = StreamRouter.from_checkpoint(router.checkpoint())
        assert restored.stream_ids() == ["cam-A", "cam-B"]
        assert restored.queries == [third]

    def test_engine_checkpoint_preserves_cancelled_id_tombstones(self):
        """An engine restored from a checkpoint must never hand a cancelled
        query's id to a new registration — a drained match would otherwise
        be ambiguous between the old and new query."""
        engine = TemporalVideoQueryEngine(
            [
                parse_query("person >= 1", window=6, duration=2),
                parse_query("car >= 1", window=6, duration=2),
            ],
            EngineConfig(method="SSG", window_size=6, duration=2),
        )
        engine.cancel_query(1)
        restored = TemporalVideoQueryEngine.from_checkpoint(engine.checkpoint())
        fresh = restored.register_query(
            parse_query("bus >= 1", window=6, duration=2)
        )
        assert fresh.query_id == 2, "cancelled id 1 was reused after restore"

    def test_drained_matches_stay_with_their_consumer_across_restore(self):
        """Consumed matches are not replayed; unconsumed ones are not lost."""
        feeds = make_feeds(6, num_feeds=1, num_frames=40)
        events = interleaved(feeds, 6)
        cut = len(events) // 2
        control = StreamRouter(multi_group_queries(), batch_size=4)
        control.route_many(events)
        control.flush()

        router = StreamRouter(multi_group_queries(), batch_size=4)
        router.route_many(events[:cut])
        consumed = router.drain_matches().get("cam-0", [])
        router.route_many(events[cut:])
        router.flush()
        target = StreamRouter.from_bytes(router.to_bytes())
        # Only the undrained tail crossed the checkpoint...
        unconsumed = target.matches_for("cam-0")
        assert consumed and unconsumed
        # ...and together they reconstruct the full history exactly once.
        assert consumed + unconsumed == control.matches_for("cam-0")

    def test_routing_on_a_handed_off_router_rejected(self):
        """After a hand-off (the worker pool's start) a straggler frame must
        fail loudly, not fork a stream into a fresh empty shard; the
        workload stays live for registration and cancellation."""
        router = StreamRouter(multi_group_queries())
        router.route("cam-a", FrameObservation(0, {1: "person"}))
        router.hand_off()
        assert router.shards() == {}
        for stream_id in ("cam-a", "cam-new"):
            with pytest.raises(ValueError, match="worker pool"):
                router.route(stream_id, FrameObservation(1, {1: "person"}))
        query = router.register_query(parse_query("car >= 1", window=6, duration=2))
        router.cancel_query(query.query_id)
        assert router.stream_ids() == ["cam-a"]

    def test_drain_matches_bounds_retention(self):
        feeds = make_feeds(3, num_feeds=2, num_frames=40)
        router = StreamRouter(multi_group_queries(), batch_size=4)
        router.route_many(interleaved(feeds, 3))
        router.flush()
        drained = router.drain_matches()
        assert drained and all(matches for matches in drained.values())
        assert router.drain_matches() == {}
        for stream_id in feeds:
            assert router.matches_for(stream_id) == []

    def test_stats_aggregate_counts(self):
        feeds = make_feeds(2, num_feeds=2, num_frames=30)
        router = StreamRouter(multi_group_queries(), batch_size=4)
        router.route_many(interleaved(feeds, 2))
        router.flush()
        stats = router.stats()
        assert stats["streams"] == 2
        assert stats["window_groups"] == 2
        assert stats["shards"] == 2
        # Every frame enters its stream's shard once, whatever the groups.
        assert stats["totals"]["frames_ingested"] == 2 * 30
        assert stats["totals"]["queue_depth"] == 0
        assert list(stats["per_shard"]) == ["cam-0", "cam-1"]


class TestShardCounters:
    def test_shard_counters_survive_the_router_checkpoint(self):
        """Every ingest counter rides the checkpoint, late and duplicate
        drops included."""
        feeds = make_feeds(3, num_feeds=2, num_frames=40)
        router = StreamRouter(multi_group_queries(), batch_size=4, watermark=1)
        events = interleaved(feeds, 3, jitter=2)
        # Replay some events verbatim to force duplicate/late drops.
        router.route_many(events)
        router.route_many(events[:10])
        router.flush()
        stream_id = router.stream_ids()[0]
        before = router.shards()[stream_id].stats.as_dict()
        assert before["dropped_late"] + before["duplicates"] > 0, (
            "vacuous scenario: no late/duplicate drops produced"
        )
        twin = StreamRouter.from_bytes(router.to_bytes())
        assert twin.shards()[stream_id].stats.as_dict() == before
