"""Malformed documents fail as :class:`CheckpointError` and nothing else.

Every field of a small router document, of a small session document, of
a small engine document and of a small document of each incremental
generator is set, one at a time,
to each of a handful of wrong-shaped values.  Each mutated document must
either restore cleanly or raise :class:`CheckpointError` — never a raw
``TypeError``, ``ValueError``, ``AttributeError`` or ``KeyError`` from deep
inside a reader.  (Restoring
cleanly is no promise that the restored object can run: a label or a
counter of the wrong type is only noticed when it is next used.)  A query
table whose columns do not fit together is refused naming the column.
"""

from __future__ import annotations

import copy
from functools import partial
from typing import Iterator, List, Tuple, Union

import pytest

from repro import Session
from repro.core import (
    MarkedFrameSetGenerator,
    NaiveGenerator,
    StrictStateGraphGenerator,
)
from repro.datamodel import FrameObservation
from repro.engine import TemporalVideoQueryEngine
from repro.streaming import CheckpointError, StreamRouter
from repro.streaming.checkpoint import from_bytes, to_bytes
from repro.workloads.streams import bench_scenario, interleave_feeds

#: The wrong-shaped values each field is set to.
MUTATIONS = (None, "x", -1, [], {}, [[1]])

Path = Tuple[Union[str, int], ...]


def field_paths(tree, prefix: Path = ()) -> Iterator[Path]:
    """The path of every dict value and list item below ``tree``."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def mutated(document, path: Path, value):
    """``document`` with the field at ``path`` set to ``value``; only the
    containers on the path are copied."""
    root = parent = copy.copy(document)
    for key in path[:-1]:
        parent[key] = copy.copy(parent[key])
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(value)
    return root


def escapes(document, restore) -> List[str]:
    """Every mutation whose restore raised something but CheckpointError."""
    pristine = copy.deepcopy(document)
    found = []
    for path in field_paths(pristine):
        for value in MUTATIONS:
            try:
                restore(mutated(document, path, value))
            except CheckpointError:
                pass
            except Exception as exc:  # noqa: BLE001 - the point of the test
                found.append(f"{path} = {value!r}: {exc!r}")
    assert document == pristine, "a restore changed the document it read"
    return found


def small_scenario(frames: int):
    """Two streams, two window groups of one query each."""
    feeds, queries = bench_scenario(2, frames, [(4, 2), (5, 3)], 1, 5)
    return queries, list(interleave_feeds(feeds))


def test_router_document_mutations_raise_checkpoint_error_only():
    queries, events = small_scenario(8)
    router = StreamRouter(queries, batch_size=3)
    router.route_many(events)
    document = router.checkpoint()
    assert len(document["shards"]) == 2  # one per stream
    StreamRouter.from_checkpoint(copy.deepcopy(document))  # the clean one

    found = escapes(document, StreamRouter.from_checkpoint)
    assert not found, f"{len(found)} raw errors, e.g. {found[:5]}"


def test_each_shard_entry_is_one_listed_streams():
    """A second entry for one stream, or an entry whose stream the first-seen
    order omits, is refused rather than silently replacing or reordering a
    shard."""
    queries, events = small_scenario(8)
    router = StreamRouter(queries, batch_size=3)
    router.route_many(events)
    document = router.checkpoint()

    twice = copy.deepcopy(document)
    twice["shards"].append(copy.deepcopy(twice["shards"][0]))
    with pytest.raises(CheckpointError, match="two shards"):
        StreamRouter.from_checkpoint(twice)
    unlisted = copy.deepcopy(document)
    unlisted["stream_order"].pop(0)
    with pytest.raises(CheckpointError, match="omits stream"):
        StreamRouter.from_checkpoint(unlisted)


def test_a_per_match_record_in_a_retained_list_is_refused():
    """Shard entries retain matches as grouped records, one per result
    state; the per-match form is no checkpoint record."""
    queries, events = small_scenario(8)
    router = StreamRouter(queries, batch_size=3)
    router.route_many(events)
    document = router.checkpoint()
    entry = document["shards"][0]
    matches = router.matches_for(entry["stream_id"])
    assert matches and entry["retained"]
    entry["retained"].append(matches[0].to_record())
    with pytest.raises(CheckpointError, match="malformed match record"):
        StreamRouter.from_checkpoint(document)


def test_session_document_mutations_raise_checkpoint_error_only():
    queries, events = small_scenario(5)
    session = Session(backend="router", batch_size=3)
    handles = [session.register(query) for query in queries]
    session.ingest_many(events[:6])
    session.drain()
    handles[0].cancel()
    session.ingest_many(events[6:])
    document = from_bytes(session.checkpoint(), expect_kind="session")
    session.close()
    registry = document["registry"]
    assert len(registry["ids"]) > len(registry["cancelled"]["ids"]) > 0

    def restore(payload):
        # Not closed: a router-backed session holds no process, and closing
        # flushes, which a mutant that restored cleanly may fail at.
        Session.restore(to_bytes("session", payload))

    found = escapes(document, restore)
    assert not found, f"{len(found)} raw errors, e.g. {found[:5]}"


def small_engine(queries, events) -> TemporalVideoQueryEngine:
    """A standalone engine, one window group per query, fed one stream."""
    engine = TemporalVideoQueryEngine({
        (query.window, query.duration): [query] for query in queries
    })
    for stream_id, frame in events:
        if stream_id == events[0][0]:
            engine.process_frame(frame)
    return engine


def restore_engine(payload) -> None:
    TemporalVideoQueryEngine.from_state(to_bytes("engine", payload))


def test_engine_document_mutations_raise_checkpoint_error_only():
    document = small_engine(*small_scenario(6)).checkpoint()
    restore_engine(copy.deepcopy(document))  # the clean one
    found = escapes(document, restore_engine)
    assert not found, f"{len(found)} raw errors, e.g. {found[:5]}"


def test_a_generator_collecting_above_a_group_duration_is_refused():
    """A group cut from a generator that collects satisfied states at a
    higher duration than the group's would miss states: loading refuses
    the document instead of failing at the next frame."""
    from repro.datamodel import FrameObservation
    from repro.query.parser import parse_query

    router = StreamRouter([
        parse_query("car >= 1", window=4, duration=2),
        parse_query("car >= 1", window=5, duration=3),
    ], batch_size=1)
    for frame_id in range(6):
        router.route("cam", FrameObservation(frame_id, {1: "car"}))
    document = router.checkpoint()
    (block,) = document["shards"][0]["engine"]["generators"]
    assert (block["window_size"], block["collect_duration"]) == (5, 2)
    StreamRouter.from_checkpoint(copy.deepcopy(document))  # the clean one

    path = ("shards", 0, "engine", "generators", 0, "collect_duration")
    try:
        StreamRouter.from_checkpoint(mutated(document, path, 3))
    except CheckpointError as exc:
        assert "does not fit the window groups" in str(exc)
    else:
        raise AssertionError("a collect duration above (4, 2) restored")


GENERATORS = [NaiveGenerator, MarkedFrameSetGenerator, StrictStateGraphGenerator]


def generator_document(generator_cls, frames):
    """The checkpoint payload of a ``(4, 2)`` generator fed ``frames``."""
    generator = generator_cls(window_size=4, duration=2)
    for frame_id, objects in enumerate(frames):
        generator.process_frame(
            FrameObservation(frame_id, {oid: "car" for oid in objects})
        )
    return from_bytes(generator.export_state(), expect_kind="generator")


def restore_generator(generator_cls, payload) -> None:
    generator_cls(window_size=4, duration=2).import_state(
        to_bytes("generator", payload)
    )


@pytest.mark.parametrize("generator_cls", GENERATORS)
def test_generator_document_mutations_raise_checkpoint_error_only(generator_cls):
    document = generator_document(
        generator_cls, [{1, 2}, {1, 2, 3}, {2, 3}, {1, 3}, {1, 2, 3}, {2}]
    )
    assert document["state"]["states"]["bits"]
    restore_generator(generator_cls, copy.deepcopy(document))  # the clean one

    found = escapes(document, partial(restore_generator, generator_cls))
    assert not found, f"{len(found)} raw errors, e.g. {found[:5]}"


def past_the_window(document) -> None:
    document["state"]["states"]["frames"][0] |= 1 << 4


def mark_without_its_frame(document) -> None:
    states = document["state"]["states"]
    states["frames"][0] &= ~1
    states["marks"][0] |= 1


def negative_frames(document) -> None:
    document["state"]["states"]["frames"][0] = -1


def before_the_first_frame(document) -> None:
    document["last_frame_id"] = None


@pytest.mark.parametrize("generator_cls", GENERATORS)
@pytest.mark.parametrize("damage,error", [
    (past_the_window, "outside the window"),
    (mark_without_its_frame, "mark outside the frame set"),
    (negative_frames, "negative"),
    (before_the_first_frame, "before the first frame"),
])
def test_a_generator_document_with_frames_outside_its_window_is_refused(
    generator_cls, damage, error
):
    """States hold frames 0..3 of a 4-frame window, as bits 0..3 over its
    start.  A bit past the window would report a frame that never came; a
    mark without its frame, or a negative bitset, is no frame set at all;
    claiming no frame yet would keep states no frame made."""
    document = generator_document(generator_cls, [{1, 2}] * 4)
    restore_generator(generator_cls, copy.deepcopy(document))  # the clean one
    assert document["state"]["states"]["frames"][0] == 0b1111

    damage(document)
    with pytest.raises(CheckpointError, match=error):
        restore_generator(generator_cls, document)


def damaged_clauses(table) -> None:
    table["clauses"][0] += 1


def position_out_of_range(table) -> None:
    table["conditions"][0] = len(table["labels"])


def unknown_comparison(table) -> None:
    table["operators"][0] = 3


def negative_threshold(table) -> None:
    table["thresholds"][0] = -1


def empty_clause(table) -> None:
    table["clauses"][0] += 1
    table["sizes"].insert(0, 0)


def label_not_a_string(table) -> None:
    table["labels"][0] = 7


def short_column(table) -> None:
    table["windows"].pop()


def own_table(document):
    return document["queries"]


def cancelled_table(document):
    return document["registry"]["cancelled"]


def table_documents():
    """(document, its query table, restore) for a router document, a
    session document with a cancelled handle and an engine document."""
    queries, events = small_scenario(6)
    router = StreamRouter(queries, batch_size=3)
    router.route_many(events)
    yield router.checkpoint(), own_table, StreamRouter.from_checkpoint
    with Session(backend="router", batch_size=3) as session:
        for query in queries:
            session.register(query)
        session.ingest_many(events)
        session.cancel(session.handles[0])
        document = from_bytes(session.checkpoint(), expect_kind="session")
    yield document, cancelled_table, lambda payload: Session.restore(
        to_bytes("session", payload)
    )
    engine = small_engine(queries, events)
    yield engine.checkpoint(), own_table, restore_engine


@pytest.mark.parametrize("damage,column", [
    (damaged_clauses, "clauses"),
    (position_out_of_range, "conditions"),
    (unknown_comparison, "operators"),
    (negative_threshold, "thresholds"),
    (empty_clause, "sizes"),
    (label_not_a_string, "labels"),
    (short_column, "windows"),
])
def test_a_malformed_query_table_is_refused_naming_its_column(damage, column):
    """Every document holding queries holds them as one query table; a
    table whose columns do not fit together is refused, naming the
    column, instead of building a workload nobody registered."""
    for document, table_of, restore in table_documents():
        restore(copy.deepcopy(document))  # the clean one
        damaged = copy.deepcopy(document)
        damage(table_of(damaged))
        with pytest.raises(CheckpointError, match=f"column '{column}'"):
            restore(damaged)
