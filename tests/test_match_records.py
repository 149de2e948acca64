"""Grouped match records: one per result state, order kept, nothing lost.

``pack_matches`` is what leaves a pool worker and what every retained-match
list inside a checkpoint is written as; ``unpack_matches`` must give back
exactly the sequence that went in — every field, stream attribution
included, in the original order — for any sequence, grouped well or not.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.query.evaluator import (
    MAX_RECORD_FRAMES,
    QueryMatch,
    pack_matches,
    unpack_matches,
)
from repro.streaming import CheckpointError, StreamRouter
from repro.streaming import checkpoint as ckpt
from repro.workloads.streams import bench_scenario, interleave_feeds


def fields(matches):
    """Every field of every match (``==`` alone ignores ``stream_id``)."""
    return [
        (m.query_id, m.frame_id, m.object_ids, m.frame_ids, m.class_counts,
         m.stream_id)
        for m in matches
    ]


# A result state as the evaluator sees it, and the queries it satisfies.
frame_sets = st.one_of(
    st.builds(lambda a, n: tuple(range(a, a + n)),
              st.integers(0, 500), st.integers(0, 40)),        # one run
    st.lists(st.integers(0, 60), max_size=12, unique=True)
    .map(lambda ids: tuple(sorted(ids))),                       # several runs
    st.lists(st.integers(-5, 60), max_size=6).map(tuple),       # any order
)
states = st.tuples(
    st.sampled_from(["cam-0", "cam-1", ""]),
    st.integers(0, 600),
    st.frozensets(st.integers(0, 40), max_size=6),
    frame_sets,
    st.lists(
        st.tuples(st.sampled_from(["bus", "car", "person"]), st.integers(0, 9)),
        max_size=3, unique_by=lambda pair: pair[0],
    ).map(lambda pairs: tuple(sorted(pairs))),
    st.lists(st.integers(0, 30), min_size=1, max_size=5),
    st.booleans(),  # build this state's matches from shared objects?
)


def matches_of(drawn):
    matches = []
    for stream_id, frame_id, objects, frames, counts, query_ids, shared in drawn:
        for query_id in query_ids:
            if not shared:
                # Equal but not identical: what a hand-built match, or one
                # loaded from a per-match record, looks like.
                objects = frozenset(set(objects))
                frames = tuple(list(frames))
                counts = tuple(list(counts))
            matches.append(
                QueryMatch(query_id, frame_id, objects, frames, counts, stream_id)
            )
    return matches


class TestPackUnpack:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(states, max_size=12))
    def test_round_trip_keeps_every_field_and_the_order(self, drawn):
        matches = matches_of(drawn)
        records = pack_matches(matches)
        assert len(records) <= len(matches)
        assert sum(len(record[0]) for record in records) == len(matches)
        unpacked = unpack_matches(records)
        assert fields(unpacked) == fields(matches)
        # Through the wire forms the records really travel in.
        assert fields(unpack_matches(json.loads(json.dumps(records)))) \
            == fields(matches)
        through_codec = ckpt.from_bytes(
            ckpt.to_bytes("router", {"retained": records})
        )["retained"]
        assert fields(unpack_matches(through_codec)) == fields(matches)
        # What comes out shares its objects per record, so it packs into
        # the same records again: grouping is a pure function of the list.
        assert pack_matches(unpacked) == records

    @settings(max_examples=100, deadline=None)
    @given(st.lists(states, max_size=10), st.integers(0, 30))
    def test_a_cancel_filter_in_between_keeps_runs_together(self, drawn, cancelled):
        """Dropping one query's matches (what a cancellation does to a
        retained list) leaves every state's remaining matches adjacent."""
        drawn = [state[:6] + (True,) for state in drawn]
        kept = [m for m in matches_of(drawn) if m.query_id != cancelled]
        records = pack_matches(kept)
        assert fields(unpack_matches(records)) == fields(kept)
        assert len(records) <= sum(
            1 for state in drawn if any(q != cancelled for q in state[5])
        )

    def test_only_adjacent_matches_merge(self):
        """Two streams reporting in turns: merging across the interleaving
        would reorder delivery, so nothing merges."""
        objects, frames, counts = frozenset({1, 2}), (4, 5, 6), (("car", 2),)
        turns = [
            QueryMatch(query_id, 6, objects, frames, counts, stream_id)
            for query_id in (1, 2, 3)
            for stream_id in ("cam-0", "cam-1")
        ]
        records = pack_matches(turns)
        assert len(records) == len(turns)
        assert fields(unpack_matches(records)) == fields(turns)

    def test_one_record_per_result_state_from_the_evaluator(self):
        feeds, queries = bench_scenario(2, 60, [(8, 4), (12, 6)], 4, 3)
        router = StreamRouter(queries, batch_size=4)
        router.route_many(interleave_feeds(feeds))
        router.flush()
        group_of = {q.query_id: (q.window, q.duration) for q in router.queries}
        result_states = {stream_id: 0 for stream_id in feeds}
        for stream_id, shard in router.shards().items():
            matches = shard.matches
            # A result state is one group's: two groups answering the same
            # object set evaluate it apart.
            distinct = {
                (m.frame_id, m.object_ids, m.frame_ids, group_of[m.query_id])
                for m in matches
            }
            assert len(pack_matches(matches)) == len(distinct)
            result_states[stream_id] += len(distinct)
        # A frame's matches come group by group: each state's run is whole.
        drained = router.drain_matches()
        for stream_id, matches in drained.items():
            records = pack_matches(matches)
            assert len(records) == result_states[stream_id], stream_id
            assert fields(unpack_matches(records)) == fields(matches)
        assert sum(result_states.values()) < sum(map(len, drained.values()))

    def test_matches_restored_from_a_checkpoint_group_again(self):
        feeds, queries = bench_scenario(1, 60, [(8, 4)], 4, 3)
        (stream_id, relation), = feeds.items()
        router = StreamRouter(queries, batch_size=4)
        for frame in relation.frames():
            router.route(stream_id, frame)
        (shard,) = router.shards().values()
        assert shard.matches
        blob = router.to_bytes()
        restored_router = StreamRouter.from_bytes(blob)
        (restored,) = restored_router.shards().values()
        assert fields(restored.matches) == fields(shard.matches)
        assert restored_router.to_bytes() == blob
        assert pack_matches(restored.matches) == pack_matches(shard.matches)


class TestOlderAndMalformedRecords:
    def test_per_match_records_are_refused(self):
        """Only grouped records are read: the per-match form of
        :meth:`QueryMatch.to_record` is not a checkpoint record."""
        match = QueryMatch(3, 9, frozenset({1, 4}), (7, 8, 9), (("car", 2),), "s")
        assert fields(unpack_matches(pack_matches([match]))) == fields([match])
        for record in (match.to_record(), match.to_record()[:5]):
            with pytest.raises(ValueError, match="malformed match record"):
                unpack_matches([record])

    @pytest.mark.parametrize("record", [
        [[1], 9, [1], [5], [], "s"],                 # odd number of bounds
        [[1], 9, [1], [5, 5], [], "s"],              # empty run
        [[1], 9, [1], [9, 5], [], "s"],              # backwards run
        [[1], 9, [1], [0, MAX_RECORD_FRAMES + 1], [], "s"],   # hostile span
        [[1], 9, [1], [0.5, 3.5], [], "s"],          # not integers
        [[1], 9, ["x"], [5, 6], [], "s"],
        [["q"], 9, [1], [5, 6], [], "s"],
        [[1], 9, [1], [5, 6], [["car"]], "s"],
        [[1], 9, [1], [5, 6], []],                   # too short
        [[1], None, [1], [5, 6], [], "s"],
        [],
        None,
        [7, 9, [1], "frames"],                       # malformed per-match form
    ])
    def test_malformed_records_raise_value_error(self, record):
        with pytest.raises(ValueError, match="malformed match record"):
            unpack_matches([record])

    def test_malformed_retained_list_is_a_checkpoint_error(self):
        feeds, queries = bench_scenario(1, 40, [(8, 4)], 2, 3)
        (stream_id, relation), = feeds.items()
        router = StreamRouter(queries, batch_size=4)
        for frame in relation.frames():
            router.route(stream_id, frame)
        payload = router.checkpoint()
        (entry,) = payload["shards"]
        assert entry["retained"]
        entry["retained"][0][3] = [0, MAX_RECORD_FRAMES + 1]
        with pytest.raises(CheckpointError, match="malformed match record"):
            StreamRouter.from_checkpoint(payload)
