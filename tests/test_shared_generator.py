"""One generator per stream answers every window group.

A stream's engine runs one MCOS generator per label projection, at the
largest window of its groups, and cuts each group's result set from it.
The property under test: every window group's per-frame matches — which
carry each result state's object set and frame set, in the result set's
canonical order — equal those of a dedicated engine of that group alone,
started when the group joined, through

* groups present from the first frame;
* a group joining mid-stream with a smaller and with a larger window,
  which keeps a generator of its own;
* a registration that moves one group's projection off the shared one;
* cancelling the largest group;
* pruning (one generator per group);
* a checkpoint → restore cut at any frame, a late group's generator
  included.

Streams are hypothesis-drawn sets of object ids whose range drifts (ids
churn, so interner compaction recycles bits) with empty frames allowed.
Beside them: generator steps per source frame on the benchmark's feeds, a
late frame against a registration barrier, and the matches every session
backend delivers against dedicated engines.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import FrameObservation
from repro.engine import EngineConfig, MCOSMethod, TemporalVideoQueryEngine
from repro.query.parser import parse_query
from repro.session import Session
from repro.streaming import StreamRouter, group_queries_by_window
from repro.workloads.streams import bench_scenario, interleave_feeds

LABELS = ("car", "person", "truck")
METHODS = [MCOSMethod.NAIVE, MCOSMethod.MFS, MCOSMethod.SSG]
GroupKey = Tuple[int, int]

#: Frames as object-id sets; ``to_frames`` shifts the ids as the stream
#: goes, so early objects leave for good and new ones arrive.
streams = st.lists(
    st.sets(st.integers(min_value=0, max_value=5), max_size=5),
    min_size=4, max_size=36,
)


def to_frames(id_sets: Sequence[set]) -> List[FrameObservation]:
    frames = []
    for index, ids in enumerate(id_sets):
        shift = 3 * (index // 8)
        frames.append(FrameObservation(index, {
            oid + shift: LABELS[(oid + shift) % 3] for oid in ids
        }))
    return frames


class Twin:
    """A shared engine and one dedicated engine per window group, driven
    through the same frames and lifecycle operations."""

    def __init__(self, method: MCOSMethod, groups: Dict[GroupKey, List[str]],
                 pruning: bool = False):
        self.method = method
        self.pruning = pruning
        self.next_id = 0
        self.ids: Dict[GroupKey, List[int]] = {}
        self.dedicated: Dict[GroupKey, TemporalVideoQueryEngine] = {}
        queries = {group: self._queries(group, texts)
                   for group, texts in groups.items()}
        self.shared = TemporalVideoQueryEngine(queries, EngineConfig(
            method=method, enable_pruning=pruning,
        ))
        for group, group_queries in queries.items():
            self.dedicated[group] = self._engine(group, group_queries)

    def _queries(self, group: GroupKey, texts: Sequence[str]):
        queries = []
        for text in texts:
            queries.append(parse_query(
                text, window=group[0], duration=group[1]
            ).with_id(self.next_id))
            self.ids.setdefault(group, []).append(self.next_id)
            self.next_id += 1
        return queries

    def _engine(self, group: GroupKey, queries) -> TemporalVideoQueryEngine:
        return TemporalVideoQueryEngine(queries, EngineConfig(
            method=self.method, window_size=group[0], duration=group[1],
            enable_pruning=self.pruning,
        ))

    def add_group(self, group: GroupKey, texts: Sequence[str]) -> None:
        queries = self._queries(group, texts)
        self.shared.add_group(group[0], group[1], queries)
        self.dedicated[group] = self._engine(group, queries)

    def register(self, group: GroupKey, text: str) -> None:
        (query,) = self._queries(group, [text])
        self.shared.register_query(query)
        self.dedicated[group].register_query(query)

    def cancel_group(self, group: GroupKey) -> None:
        for query_id in self.ids.pop(group):
            self.shared.cancel_query(query_id)
        del self.dedicated[group]

    def restore(self) -> None:
        blob = self.shared.export_state()
        self.shared = TemporalVideoQueryEngine.from_state(blob)
        assert self.shared.export_state() == blob

    def step(self, frame: FrameObservation) -> None:
        shared = self.shared.process_frame(frame)
        for group, engine in self.dedicated.items():
            ids = set(self.ids[group])
            expected = engine.process_frame(frame)
            actual = [match for match in shared if match.query_id in ids]
            assert actual == expected, (
                f"{self.method.value} group={group} frame={frame.frame_id}: "
                f"{len(actual)} matches vs {len(expected)} dedicated"
            )


#: Queries every result state satisfies (every count is >= 0), so the
#: matches list each group's whole result set, plus selective ones.
EVERYTHING = ["car >= 0 OR person >= 0 OR truck >= 0"]
SELECTIVE = ["car >= 1 AND person >= 1", "truck >= 2 OR car >= 3"]


def run(twin: Twin, frames, plan: Dict[int, list], restore_at=None) -> None:
    for frame in frames:
        for action, *args in plan.get(frame.frame_id, ()):
            getattr(twin, action)(*args)
        if frame.frame_id == restore_at:
            twin.restore()
        twin.step(frame)


@pytest.mark.parametrize("method", METHODS)
class TestSharedGeneratorMatchesDedicated:
    @settings(max_examples=25, deadline=None)
    @given(id_sets=streams)
    def test_groups_present_from_the_first_frame(self, method, id_sets):
        twin = Twin(method, {
            (6, 3): EVERYTHING, (3, 1): EVERYTHING + SELECTIVE,
            (6, 5): SELECTIVE[:1], (4, 0): EVERYTHING,
        })
        assert len(twin.shared.generators) == 2  # two projections
        run(twin, to_frames(id_sets), {})

    @settings(max_examples=25, deadline=None)
    @given(id_sets=streams, join=st.integers(min_value=1, max_value=12))
    def test_join_with_a_smaller_window(self, method, id_sets, join):
        twin = Twin(method, {(7, 3): EVERYTHING})
        frames = to_frames(id_sets)
        run(twin, frames, {join: [("add_group", (4, 2), EVERYTHING)]})
        if len(frames) > join:
            assert len(twin.shared.generators) == 2

    @settings(max_examples=25, deadline=None)
    @given(id_sets=streams, join=st.integers(min_value=1, max_value=12))
    def test_join_with_a_larger_window(self, method, id_sets, join):
        twin = Twin(method, {(4, 2): EVERYTHING, (3, 3): SELECTIVE})
        frames = to_frames(id_sets)
        run(twin, frames, {join: [("add_group", (7, 1), EVERYTHING)]})
        if len(frames) > join:
            assert [g.window_size for g in twin.shared.generators] == [4, 7]

    @settings(max_examples=25, deadline=None)
    @given(id_sets=streams, at=st.integers(min_value=0, max_value=20))
    def test_projection_split(self, method, id_sets, at):
        twin = Twin(method, {(6, 2): ["car >= 1"], (4, 1): ["car >= 0"]})
        run(twin, to_frames(id_sets), {at: [("register", (4, 1), "person >= 1")]})

    @settings(max_examples=25, deadline=None)
    @given(id_sets=streams, at=st.integers(min_value=0, max_value=20))
    def test_cancelling_the_largest_group(self, method, id_sets, at):
        twin = Twin(method, {(7, 4): EVERYTHING, (4, 2): EVERYTHING})
        run(twin, to_frames(id_sets), {at: [("cancel_group", (7, 4))]})
        assert twin.shared.generator.window_size == 7

    @settings(max_examples=20, deadline=None)
    @given(id_sets=streams)
    def test_pruning_keeps_a_generator_per_group(self, method, id_sets):
        twin = Twin(method, {
            (6, 3): ["car >= 1", "person >= 2"], (4, 2): ["car >= 2"],
        }, pruning=True)
        assert len(twin.shared.generators) == 2
        run(twin, to_frames(id_sets), {})

    @settings(max_examples=30, deadline=None)
    @given(id_sets=streams, join=st.integers(min_value=1, max_value=10),
           cut=st.integers(min_value=0, max_value=35),
           larger=st.booleans())
    def test_restore_at_any_frame(self, method, id_sets, join, cut, larger):
        """A restore cut anywhere, before or after a live join, resumes
        the uninterrupted engine's matches (the dedicated engines never
        restore)."""
        twin = Twin(method, {(5, 2): EVERYTHING, (3, 1): SELECTIVE})
        group = (8, 3) if larger else (4, 1)
        run(twin, to_frames(id_sets),
            {join: [("add_group", group, EVERYTHING)]}, restore_at=cut)


def test_a_late_group_is_a_generator_block_of_its_own():
    twin = Twin(MCOSMethod.SSG, {(6, 3): EVERYTHING})
    frames = to_frames([{0, 1, 2}, {1, 2}, {2, 3}] * 6)
    run(twin, frames[:5], {2: [("add_group", (4, 2), EVERYTHING)]})
    state = twin.shared.checkpoint()
    assert [block["stats"]["frames_processed"]
            for block in state["generators"]] == [5, 3]
    assert state["sources"] == [0, 1]
    twin.restore()
    run(twin, frames[5:], {})
    assert len(twin.shared.generators) == 2


# ----------------------------------------------------------------------
# Generator steps per source frame on the benchmark's feeds
# ----------------------------------------------------------------------
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "stack")


@pytest.mark.parametrize("workload", [
    "query_fanout", "multicam_pool", "gateway_open_loop", "dense_scene",
])
def test_one_generator_step_per_source_frame(workload):
    """Summed ``frames_processed`` of a stream's generators per frame the
    stream ingested: 1.0 on every workload (3.0 on ``query_fanout`` and 2.0
    on ``multicam_pool`` and ``gateway_open_loop`` with a generator per
    window group)."""
    sys.path.insert(0, BENCHMARK)
    try:
        from stackbench.inputs import build
    finally:
        sys.path.remove(BENCHMARK)
    inputs = build(workload, 12, size=0.15)
    kwargs = dict(inputs.session_kwargs, backend="router")
    kwargs = {key: value for key, value in kwargs.items()
              if key not in ("num_workers", "dispatch_batch", "checkpoint_every")}
    with Session(**kwargs) as session:
        for query in inputs.queries:
            session.register(query)
        session.ingest_many(inputs.ordered)
        session.flush()
        stats = session.stats()["backend_stats"]
    steps = sum(entry["generator"]["frames_processed"]
                for entry in stats["per_shard"].values())
    assert steps / stats["totals"]["frames_processed"] == 1.0


# ----------------------------------------------------------------------
# A late frame never crosses a registration barrier
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["router", "pool"])
def test_late_frame_is_dropped_for_every_group_and_counted_once(backend):
    """A frame behind the stream's emission frontier is late for every
    window group, a group registered at that frontier included: it is
    dropped once, and the new query matches only past its frontier."""
    kwargs = {"num_workers": 1} if backend == "pool" else {}
    with Session(backend=backend, watermark=2, batch_size=1, **kwargs) as session:
        frame = lambda fid: FrameObservation(fid, {1: "car"})
        first = session.register("car >= 1", window=4, duration=1)
        for frame_id in (1, 2, 3, 5, 6):
            session.ingest("cam", frame(frame_id))
        second = session.register("car >= 1", window=6, duration=1)
        assert second.warmup_watermark("cam") == 6 + 6
        for frame_id in (4, 7, 8, 9, 10):
            session.ingest("cam", frame(frame_id))
        session.flush()
        stats = session.stats()["backend_stats"]
        assert stats["totals"]["dropped_late"] == 1
        assert [m.frame_id for m in second.matches()] == [7, 8, 9, 10]
        assert 4 not in [m.frame_id for m in first.matches()]


def test_registration_threads_a_new_group_into_live_shards():
    router = StreamRouter([parse_query("car >= 1", window=4, duration=1)],
                          batch_size=1)
    router.route("cam", FrameObservation(0, {1: "car"}))
    added = router.register_query(parse_query("car >= 1", window=6, duration=2))
    shard = router.shard_for("cam")
    assert shard.engine.group_keys == [(4, 1), (6, 2)]
    for frame_id in range(1, 8):
        router.route("cam", FrameObservation(frame_id, {1: "car"}))
    assert len(shard.engine.generators) == 2  # the late group keeps its own
    assert [m.frame_id for m in shard.matches if m.query_id == added.query_id] \
        == list(range(2, 8))


# ----------------------------------------------------------------------
# Every backend delivers what dedicated per-group engines compute
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["inline", "router", "pool"])
def test_delivered_matches_equal_dedicated_engines(backend):
    """Per (query, stream), the matches a session delivers equal those of a
    dedicated engine of the query's window group run over that stream."""
    feeds, queries = bench_scenario(3, 45, [(6, 3), (9, 2), (12, 6)], 2, 17)
    kwargs = {"num_workers": 2} if backend == "pool" else {"batch_size": 4}
    with Session(backend=backend, **kwargs) as session:
        handles = [session.register(query) for query in queries]
        session.ingest_many(interleave_feeds(feeds))
        session.flush()
        delivered: Dict[Tuple[int, str], list] = {}
        for handle in handles:
            for match in handle.matches():
                delivered.setdefault((match.query_id, match.stream_id), []) \
                    .append(match)
    expected: Dict[Tuple[int, str], list] = {}
    for (window, duration), group in group_queries_by_window(queries).items():
        for stream_id, relation in feeds.items():
            engine = TemporalVideoQueryEngine(group, EngineConfig(
                window_size=window, duration=duration,
            ))
            for match in engine.run(relation).matches:
                expected.setdefault((match.query_id, stream_id), []).append(
                    match.for_stream(stream_id)
                )
    assert delivered == expected
