"""The end-to-end temporal video query engine.

A :class:`TemporalVideoQueryEngine` accepts CNF queries in one or more
window groups (queries sharing a ``(window, duration)`` pair), evaluates
each group through one query evaluator, selects an MCOS generation
strategy, and then consumes a structured relation frame by frame, reporting
query matches as the window slides -- the data flow of Figure 2 in the
paper.

Evaluators are the workload, engines are streams
------------------------------------------------
A group's :class:`~repro.query.evaluator.QueryEvaluator` holds its queries
and their CNFEvalE index and depends on no stream, so an engine may be
handed evaluators another owner shares: the stream router keeps one per
window group and every stream's engine evaluates against it.  The engine
keeps only per-stream state: the label map, the generators, and per group
its Proposition-1 filter and the reuse of its previous result set.  A
query change is made once on the evaluator by whoever owns it, then each
engine follows with :meth:`~TemporalVideoQueryEngine.queries_changed`
(re-project its generator, drop its terminated markers),
:meth:`~TemporalVideoQueryEngine.add_group` or
:meth:`~TemporalVideoQueryEngine.remove_group`; a standalone engine's
:meth:`~TemporalVideoQueryEngine.register_query` and
:meth:`~TemporalVideoQueryEngine.cancel_query` do both steps.

One generator answers several window groups
-------------------------------------------
A ``w``-window generator's states at frame ``i`` are the states of a larger
window's generator cut at ``i - w + 1`` (Theorems 1 and 4; see
:meth:`~repro.core.base.MCOSGenerator.cut_result`).  So the engine runs one
generator per label projection, at the largest window of the groups it
serves and collecting satisfied states at their smallest duration, and each
group reads its result set off that generator: the group the generator was
built for takes its report, the others a cut.  With pruning on, the
projection key includes the group, because the Proposition-1 filter belongs
to one group's queries.

Groups present before the first frame share from that frame on.  A group
added later runs a fresh generator of its own window until it is
cancelled, exactly as a dedicated engine would.  A query change that moves
one group's projection moves that group onto a copy of its generator
(export and import at the same window) that re-projects, which is what a
dedicated generator would have done; the other groups keep the original.
Cancelling the largest group leaves its generator at its window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.core.base import GeneratorStats, MCOSGenerator
from repro.core.result import ResultStateSet
from repro.datamodel.observation import FrameObservation
from repro.datamodel.relation import VideoRelation
from repro.engine.config import EngineConfig, MCOSMethod
from repro.query.evaluator import QueryEvaluator, QueryMatch, ResultReuse
from repro.query.model import CNFQuery, pack_queries, unpack_queries
from repro.query.pruning import StatePruner, require_pruning_compatible


@dataclass
class EngineRunResult:
    """Aggregated outcome of running the engine over a relation."""

    method: str
    matches: List[QueryMatch]
    frames_processed: int
    generator_stats: GeneratorStats
    result_states: int = 0

    def matches_by_query(self) -> Dict[int, List[QueryMatch]]:
        """Group the produced matches by query identifier."""
        grouped: Dict[int, List[QueryMatch]] = {}
        for match in self.matches:
            grouped.setdefault(match.query_id, []).append(match)
        return grouped


#: A window group: the ``(window, duration)`` pair its queries share.
GroupKey = Tuple[int, int]

#: What a window group is given as: its queries, or a shared evaluator.
GroupQueries = Union[Iterable[CNFQuery], QueryEvaluator]


class _Group:
    """One window group on this engine's stream: its queries' (possibly
    shared) evaluator, its Proposition-1 filter (pruning only), the reuse
    of its previous result set and the source it reads result sets from."""

    __slots__ = ("key", "evaluator", "pruner", "reuse", "source")

    def __init__(self, key: GroupKey, evaluator: QueryEvaluator,
                 pruner: Optional[StatePruner]):
        self.key = key
        self.evaluator = evaluator
        self.pruner = pruner
        self.reuse = ResultReuse()
        self.source: "_Source"


class _Source:
    """One generator and the window groups it answers; ``result`` is the
    last frame's report."""

    __slots__ = ("generator", "groups", "result")

    def __init__(self, generator: MCOSGenerator, groups: List[GroupKey]):
        self.generator = generator
        self.groups = groups
        self.result: Optional[ResultStateSet] = None


class TemporalVideoQueryEngine:
    """Evaluates CNF temporal queries over a video feed relation."""

    def __init__(
        self,
        queries: Union[Iterable[CNFQuery], Mapping[GroupKey, GroupQueries]],
        config: Optional[EngineConfig] = None,
    ):
        """``queries`` is either a plain iterable, every query in the
        config's ``(window_size, duration)`` group whatever its own
        parameters, or a mapping ``(window, duration) -> queries`` of
        several window groups, in registration order, for which the
        config's ``window_size`` and ``duration`` go unused.  A group given
        as a :class:`QueryEvaluator` is evaluated through it, shared with
        its other users; one given as queries gets an evaluator of its own,
        which assigns ids of its own, so queries of several groups should
        carry distinct ids already (the router assigns them)."""
        self.config = config or EngineConfig()
        self._groups: Dict[GroupKey, _Group] = {}
        self._sources: List[_Source] = []
        self._labels: Dict[int, str] = {}
        #: The last frame whose labels were recorded: a frame repeating its
        #: id -> label map has nothing new to record.
        self._labels_frame: Optional[FrameObservation] = None  # repro-lint: disable=CKPT-DRIFT -- marks which frame's labels are already recorded; import and label pruning clear it, and the next frame records its labels again
        self._frames_processed = 0
        self._result_states = 0
        #: Prune the engine's label map every this many frames (aligned with
        #: the generators' interner-compaction cadence of the largest
        #: window), keeping long-running memory bounded by the window
        #: population.
        self._prune_labels_every = 0  # repro-lint: disable=CKPT-DRIFT -- derived from the groups' windows, which round-trip
        if not isinstance(queries, Mapping):
            queries = {(self.config.window_size, self.config.duration): queries}
        for (window, duration), group_queries in queries.items():
            self.add_group(window, duration, group_queries)
        if not self._groups:
            raise ValueError("the engine needs at least one query")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_generator(
        self, window: int, duration: int, labels: Optional[Iterable[str]],
        state_filter: Optional[StatePruner] = None,
    ) -> MCOSGenerator:
        return self.config.method.generator_class(
            window_size=window,
            duration=duration,
            labels_of_interest=labels,
            state_filter=state_filter,
        )

    def _projection(self, group: _Group) -> Optional[frozenset]:
        """The label projection the group's queries ask for."""
        if not self.config.restrict_labels:
            return None
        return frozenset(group.evaluator.labels_of_interest())

    def _sharing_key(self, source: _Source) -> Tuple:
        """Sources of equal keys may answer each other's groups: the label
        projection, plus the group when pruning (one group per source)."""
        labels = source.generator.config.labels_of_interest
        return (
            frozenset(labels) if labels is not None else None,
            source.groups[0] if self.config.enable_pruning else None,
        )

    def _attach(self, group: _Group) -> None:
        """Give a new group a source: before the first frame the one of its
        sharing key (grown to its window), otherwise a fresh one."""
        window, duration = group.key
        labels = self._projection(group)
        key = (labels, group.key if self.config.enable_pruning else None)
        if self._frames_processed == 0:
            for source in self._sources:
                if self._sharing_key(source) != key:
                    continue
                if window > source.generator.window_size:
                    source.generator = self._build_generator(window, duration, labels)
                source.groups.append(group.key)
                group.source = source
                self._sync_collect(source)
                return
        source = _Source(
            self._build_generator(window, duration, labels, group.pruner),
            [group.key],
        )
        self._sources.append(source)
        group.source = source

    def _sync_collect(self, source: _Source) -> None:
        """Collect at the smallest duration of the source's groups."""
        generator = source.generator
        duration = min(min(d for _, d in source.groups), generator.duration)
        if duration != generator.collect_duration:
            generator.set_collect_duration(duration)

    @property
    def generator(self) -> MCOSGenerator:
        """The first generator (the only one of a one-group engine)."""
        return self._sources[0].generator

    @property
    def generators(self) -> List[MCOSGenerator]:
        """Every generator the engine runs, in creation order."""
        return [source.generator for source in self._sources]

    @property
    def evaluator(self) -> QueryEvaluator:
        """The first window group's evaluator (the only one of a one-group
        engine)."""
        return next(iter(self._groups.values())).evaluator

    @property
    def group_keys(self) -> List[GroupKey]:
        """The window groups served, in registration order."""
        return list(self._groups)

    @property
    def queries(self) -> List[CNFQuery]:
        """The registered queries (with assigned identifiers), group by
        group in registration order."""
        return [
            query
            for group in self._groups.values()
            for query in group.evaluator.queries
        ]

    def generator_stats(self) -> GeneratorStats:
        """The work counters of every generator, summed."""
        total = GeneratorStats()
        for generator in self.generators:
            total = total.merge(generator.stats)
        return total

    # ------------------------------------------------------------------
    # Live query lifecycle
    # ------------------------------------------------------------------
    def add_group(
        self, window: int, duration: int, queries: GroupQueries
    ) -> List[CNFQuery]:
        """Serve another window group, given as its queries or as a shared
        evaluator; returns its registered queries.

        Before the first frame the group shares the generator of its label
        projection; on a live engine it runs a fresh generator of its own
        (see the module docstring).
        """
        key = (window, duration)
        if key in self._groups:
            raise ValueError(f"window group {key} is already served")
        evaluator = (
            queries if isinstance(queries, QueryEvaluator)
            else QueryEvaluator(queries)
        )
        if len(evaluator.index) == 0:
            raise ValueError(f"window group {key} needs at least one query")
        pruner: Optional[StatePruner] = None
        if self.config.enable_pruning:
            for query in evaluator.queries:
                require_pruning_compatible(query)
            pruner = StatePruner(evaluator)
        group = _Group(key, evaluator, pruner)
        self._groups[key] = group
        self._attach(group)
        self._prune_labels_every = 4 * max(w for w, _ in self._groups)
        return evaluator.queries

    def remove_group(self, group_key: GroupKey) -> None:
        """Stop serving a window group; its source goes with its last group."""
        if len(self._groups) == 1 and group_key in self._groups:
            raise ValueError(
                "removing the last window group would leave the engine "
                "without a workload; retire the engine (or its shard) instead"
            )
        group = self._groups.pop(group_key)
        source = group.source
        source.groups.remove(group_key)
        if source.groups:
            self._sync_collect(source)
        else:
            self._sources.remove(source)
        self._prune_labels_every = 4 * max(w for w, _ in self._groups)

    def register_query(self, query: CNFQuery) -> CNFQuery:
        """Add a query to one of the engine's window groups mid-stream.

        The query joins its group's evaluator index immediately and the
        group's label projection widens to cover its classes, so it is
        evaluated from the next processed frame on.  States already in the
        window were built without the query's classes; results for the new
        query are guaranteed to equal a present-from-frame-0 run only from
        one full window after registration (the warm-up watermark the
        session layer reports).  Returns the registered copy carrying its
        assigned id.
        """
        group = self._groups.get((query.window, query.duration))
        if group is None:
            raise ValueError(
                f"query window group ({query.window}, {query.duration}) does "
                f"not match the engine's {self.group_keys}"
            )
        if group.pruner is not None:
            require_pruning_compatible(query)
        registered = group.evaluator.add_query(query)
        self.queries_changed(group.key, added=True)
        return registered

    def cancel_query(self, query_id: int) -> CNFQuery:
        """Remove a registered query mid-stream.

        The query's clause bits are cleared from the evaluator, its id is
        tombstoned inside its group's evaluator so it is never reassigned,
        pruning immediately stops keeping states alive on its behalf, and
        the group's label projection narrows to its remaining queries'
        classes.  A group losing its last query is removed.  Cancelling the
        engine's last query is refused — retire the engine (or its shard)
        instead, which also releases the window state.
        """
        for group in self._groups.values():
            registered = group.evaluator.index.queries
            if query_id not in registered:
                continue
            if len(registered) > 1:
                removed = group.evaluator.remove_query(query_id)
                self.queries_changed(group.key, added=False)
                return removed
            if len(self._groups) == 1:
                raise ValueError(
                    "cancelling the last query would leave the engine without "
                    "a workload; retire the engine (or its shard) instead"
                )
            removed = registered[query_id]
            self.remove_group(group.key)
            return removed
        raise KeyError(f"no registered query with id {query_id}")

    def queries_changed(self, group_key: GroupKey, added: bool) -> None:
        """Follow a query ``added`` to (or removed from) a served group's
        evaluator: the per-stream half of a registration or cancellation.

        An added query under pruning loosens the group's filter, so the
        generator drops its terminated markers (the filter may keep sets
        it refused so far); either way the group's label projection is
        re-pointed at its current queries.  A group sharing its source
        moves onto a copy of the source's generator first, so the other
        groups keep their projection.
        """
        group = self._groups[group_key]
        if added and group.pruner is not None:
            group.source.generator.forget_terminated()
        labels = self._projection(group)
        if labels is None:
            return
        source = group.source
        generator = source.generator
        if frozenset(generator.config.labels_of_interest or ()) == labels:
            return
        if len(source.groups) > 1:
            # Copied before the original stops collecting at the group's
            # duration: a collect duration only ever rises mid-stream.
            copy = self._build_generator(
                generator.window_size, generator.duration,
                generator.config.labels_of_interest,
            )
            copy.import_checkpoint(generator.export_checkpoint())
            source.groups.remove(group.key)
            self._sync_collect(source)
            source = _Source(copy, [group.key])
            self._sources.append(source)
            group.source = source
            self._sync_collect(source)
        source.generator.set_labels_of_interest(labels)

    @property
    def method_label(self) -> str:
        """Method name including the ``_O`` suffix when pruning is enabled."""
        return self.config.method_label

    @property
    def frames_processed(self) -> int:
        """Frames the engine has consumed so far."""
        return self._frames_processed

    @property
    def result_states(self) -> int:
        """Result states examined across all processed frames."""
        return self._result_states

    # ------------------------------------------------------------------
    # Streaming API
    # ------------------------------------------------------------------
    def process_frame(
        self, frame: FrameObservation, stream_id: str = ""
    ) -> List[QueryMatch]:
        """Process one frame and return the query matches of the new window.

        Matches come group by group in registration order, each group's in
        its result set's canonical order.  ``stream_id`` names the feed the
        frame came from; every returned match carries it (the bare engine
        knows no stream and leaves it empty).
        """
        if not frame.same_labels(self._labels_frame):
            labels = self._labels
            for oid in frame.object_ids:
                labels.setdefault(oid, frame.label_of(oid))
            self._labels_frame = frame

        for source in self._sources:
            source.result = source.generator.process_frame(frame)
        per_group = []
        for group in self._groups.values():
            source = group.source
            config = source.generator.config
            if group.key == (config.window_size, config.duration):
                per_group.append(source.result)
            else:
                per_group.append(source.generator.cut_result(*group.key))

        matches: List[QueryMatch] = []
        labels = self._labels
        for group, results in zip(self._groups.values(), per_group):
            matches += group.evaluator.evaluate_result_set(
                results, labels, stream_id, group.reuse
            )
            self._result_states += len(results)

        self._frames_processed += 1
        if self._frames_processed % self._prune_labels_every == 0:
            self._prune_labels()
        return matches

    def _prune_labels(self) -> None:
        """Drop labels of objects no live state references.

        Evaluation only ever looks up labels of reported states' objects,
        which are all interned — so after compacting every generator's
        interner to its live population, any label outside them can never
        be needed again.  Without this, ``_labels`` (and hence checkpoint
        size) would grow with every distinct tracker id the feed ever
        produced, the one structure not bounded by the window.
        """
        interners = []
        for generator in self.generators:
            generator.compact_interner()
            interners.append(generator.interner)
        self._labels = {
            oid: label for oid, label in self._labels.items()
            if any(oid in interner for interner in interners)
        }
        self._labels_frame = None

    def stream(self, relation: VideoRelation) -> Iterator[List[QueryMatch]]:
        """Yield the per-frame query matches for an entire relation."""
        for frame in relation.frames():
            yield self.process_frame(frame)

    def run(self, relation: VideoRelation) -> EngineRunResult:
        """Process a whole relation and return the aggregated result."""
        matches: List[QueryMatch] = []
        for frame_matches in self.stream(relation):
            matches.extend(frame_matches)
        return EngineRunResult(
            method=self.method_label,
            matches=matches,
            frames_processed=self._frames_processed,
            generator_stats=self.generator_stats(),
            result_states=self._result_states,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _config_dict(self) -> Dict:
        """The semantics-affecting config fields, as stored in engine
        documents.

        Single source of truth for :meth:`checkpoint`, :meth:`restore`'s
        validation and :meth:`from_checkpoint`'s parsing: a future config
        field added here is automatically serialised *and* validated.  The
        windows live in the ``groups`` block.
        """
        return {
            "method": self.config.method.value,
            "enable_pruning": self.config.enable_pruning,
            "restrict_labels": self.config.restrict_labels,
        }

    def _workload(self) -> Tuple[Dict[str, List[int]], Dict[str, list]]:
        """The window groups, in order, as columns — window, duration and
        number of queries — and every group's queries, in group order, as
        one :func:`~repro.query.model.pack_queries` table."""
        evaluators = [group.evaluator for group in self._groups.values()]
        groups = {
            "windows": [window for window, _ in self._groups],
            "durations": [duration for _, duration in self._groups],
            "sizes": [len(evaluator.queries) for evaluator in evaluators],
        }
        queries = chain.from_iterable(
            evaluator.queries for evaluator in evaluators
        )
        return groups, pack_queries(queries)

    def checkpoint(self) -> Dict:
        """Snapshot the engine between frames as a self-contained engine
        document (a plain dict tree).

        It holds the configuration and the workload — each group's window,
        duration, number of queries and id floor, and the queries as one
        table — followed by the :meth:`snapshot` of the stream, so
        :meth:`from_checkpoint` can resume the stream byte-identically in a
        fresh process.
        """
        groups, queries = self._workload()
        #: Evaluator id floors: keep cancelled-query ids tombstoned across a
        #: restore (ids must never be reused — a drained match would
        #: otherwise be ambiguous between old and new query).
        groups["next_query_ids"] = [
            group.evaluator.index.next_query_id
            for group in self._groups.values()
        ]
        return {
            "config": self._config_dict(),
            "groups": groups,
            "queries": queries,
            **self.snapshot(),
        }

    def snapshot(self) -> Dict:
        """The engine's per-stream state between frames: for each window
        group, in order, the position of the generator block it reads
        (``sources``), the label map, the counters and one block per
        generator.  No query, group key or setting is in it: a shard's
        entry in a router document holds this, the router document the
        workload."""
        position = {id(source): at for at, source in enumerate(self._sources)}
        return {
            "sources": [
                position[id(group.source)] for group in self._groups.values()
            ],
            "labels": [[oid, label] for oid, label in self._labels.items()],
            "counters": {
                "frames_processed": self._frames_processed,
                "result_states": self._result_states,
            },
            "generators": [
                source.generator.export_checkpoint() for source in self._sources
            ],
        }

    def restore(self, payload: Dict) -> None:
        """Restore an engine document (:meth:`checkpoint`) onto this engine.

        The engine must be configured identically to the document and
        serve the same window groups with the same queries
        (:meth:`from_checkpoint` guarantees this; direct callers are checked
        here) — a silent mismatch would change semantics mid-stream.
        """
        config = payload["config"]
        own = self._config_dict()
        mismatched = {
            key: (config.get(key), value)
            for key, value in own.items()
            if config.get(key) != value
        }
        if mismatched:
            raise ValueError(
                f"checkpoint config does not match the engine's: {mismatched}"
            )
        entries = payload["groups"]
        groups, queries = self._workload()
        if ({key: entries[key] for key in groups} != groups
                or payload["queries"] != queries):
            raise ValueError(
                "checkpoint window groups and queries do not match the "
                "engine's; resuming would evaluate the wrong workload"
            )
        floors = entries["next_query_ids"]
        if len(floors) != len(self._groups):
            raise ValueError(
                f"checkpoint holds {len(floors)} id floors for "
                f"{len(self._groups)} window groups"
            )
        self.resume(payload)
        for floor, group in zip(floors, self._groups.values()):
            group.evaluator.index.reserve_ids(int(floor))
            # Derived state is never part of a snapshot: resume cold.
            group.evaluator.forget_signatures()

    def resume(self, payload: Dict) -> None:
        """Restore a :meth:`snapshot` onto this engine, which serves the
        window groups the snapshot was taken over, in the same order."""
        blocks = payload["generators"]
        positions = payload["sources"]
        if len(positions) != len(self._groups):
            raise ValueError(
                f"checkpoint places {len(positions)} window groups, the "
                f"engine serves {len(self._groups)}"
            )
        members: List[List[_Group]] = [[] for _ in blocks]
        for at, group in zip(positions, self._groups.values()):
            at = int(at)
            if not 0 <= at < len(blocks):
                raise ValueError(
                    f"checkpoint group names generator {at} of {len(blocks)}"
                )
            members[at].append(group)
        sources: List[_Source] = []
        for state, groups in zip(blocks, members):
            labels = state["labels_of_interest"]
            projection = frozenset(labels) if labels is not None else None
            generator = self._build_generator(
                int(state["window_size"]), int(state["duration"]), labels,
                groups[0].pruner if groups else None,
            )
            generator.import_checkpoint(state)
            source = _Source(generator, [group.key for group in groups])
            if (not groups
                    or (self.config.enable_pruning and len(groups) > 1)
                    or any(self._projection(group) != projection
                           or group.key[0] > generator.window_size
                           or group.key[1] < generator.collect_duration
                           for group in groups)):
                raise ValueError(
                    "checkpoint generator block does not fit the window "
                    "groups that read it"
                )
            for group in groups:
                group.source = source
            sources.append(source)
        self._sources = sources
        self._labels = {int(oid): label for oid, label in payload["labels"]}
        self._labels_frame = None
        counters = payload["counters"]
        self._frames_processed = int(counters["frames_processed"])
        self._result_states = int(counters["result_states"])

    def export_state(self) -> bytes:
        """The :meth:`checkpoint` document as compact checkpoint bytes.

        This is the byte-level hand-off form: self-contained (config and
        queries included), canonical, and written as checkpoint version 10,
        the only version :meth:`import_state` and :meth:`from_state` read.
        """
        # Lazy import: the streaming package imports this module, so a
        # module-scope import here would be circular.
        from repro.streaming.checkpoint import to_bytes

        return to_bytes("engine", self.checkpoint())

    def import_state(self, data: bytes) -> None:
        """Restore this engine from :meth:`export_state` bytes.

        The engine must be configured identically to the snapshot (see
        :meth:`restore`); use :meth:`from_state` to rebuild from scratch.
        """
        from repro.streaming.checkpoint import from_bytes, reading

        payload = from_bytes(data, expect_kind="engine")
        with reading("engine checkpoint"):
            self.restore(payload)

    @classmethod
    def from_state(cls, data: bytes) -> "TemporalVideoQueryEngine":
        """Rebuild an engine (typically in a fresh process) from state bytes."""
        from repro.streaming.checkpoint import from_bytes, reading

        payload = from_bytes(data, expect_kind="engine")
        with reading("engine checkpoint"):
            return cls.from_checkpoint(payload)

    @classmethod
    def from_checkpoint(cls, payload: Dict) -> "TemporalVideoQueryEngine":
        """Rebuild an engine from a :meth:`checkpoint` document.

        Queries are re-registered in their checkpointed order (ids are stored
        in the document, so assignments cannot drift), each group taking
        the next ``sizes`` rows of the table, then the mutable state is
        restored on top.
        """
        config = payload["config"]
        entries = payload["groups"]
        queries = iter(unpack_queries(payload["queries"]))
        groups = {
            (int(window), int(duration)): list(islice(queries, int(size)))
            for window, duration, size in zip(
                entries["windows"], entries["durations"], entries["sizes"]
            )
        }
        engine = cls(groups, EngineConfig(
            method=MCOSMethod(config["method"]),
            enable_pruning=bool(config["enable_pruning"]),
            restrict_labels=bool(config["restrict_labels"]),
        ))
        engine.restore(payload)
        return engine

    def reset(self) -> None:
        """Reset the engine to process another relation from scratch: every
        group starts over, sharing generators as before a first frame."""
        for group in self._groups.values():
            group.evaluator.forget_signatures()
        self._sources = []
        self._frames_processed = 0
        for group in self._groups.values():
            self._attach(group)
        self._labels = {}
        self._labels_frame = None
        self._result_states = 0
