"""The end-to-end temporal video query engine.

A :class:`TemporalVideoQueryEngine` accepts a set of CNF queries sharing the
same window/duration parameters, builds the query evaluation index, selects an
MCOS generation strategy, and then consumes a structured relation frame by
frame, reporting query matches as the window slides -- exactly the data flow
of Figure 2 in the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from repro.core.base import GeneratorStats, MCOSGenerator
from repro.core.interning import ObjectInterner
from repro.core.result import ResultStateSet
from repro.datamodel.observation import FrameObservation
from repro.datamodel.relation import VideoRelation
from repro.engine.config import EngineConfig, MCOSMethod
from repro.query.evaluator import QueryEvaluator, QueryMatch
from repro.query.model import CNFQuery
from repro.query.pruning import StatePruner, require_pruning_compatible


@dataclass
class EngineRunResult:
    """Aggregated outcome of running the engine over a relation."""

    method: str
    matches: List[QueryMatch]
    frames_processed: int
    mcos_seconds: float
    evaluation_seconds: float
    generator_stats: GeneratorStats
    result_states: int = 0

    @property
    def total_seconds(self) -> float:
        """MCOS generation plus query evaluation time."""
        return self.mcos_seconds + self.evaluation_seconds

    def matches_by_query(self) -> Dict[int, List[QueryMatch]]:
        """Group the produced matches by query identifier."""
        grouped: Dict[int, List[QueryMatch]] = {}
        for match in self.matches:
            grouped.setdefault(match.query_id, []).append(match)
        return grouped


class TemporalVideoQueryEngine:
    """Evaluates CNF temporal queries over a video feed relation."""

    def __init__(self, queries: Iterable[CNFQuery], config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        self.evaluator = QueryEvaluator(queries)
        if len(self.evaluator.index) == 0:
            raise ValueError("the engine needs at least one query")

        self._pruner: Optional[StatePruner] = None  # repro-lint: disable=CKPT-DRIFT -- stateless policy object, rebuilt from config.enable_pruning on restore
        if self.config.enable_pruning:
            for query in self.evaluator.queries:
                require_pruning_compatible(query)
            self._pruner = StatePruner(self.evaluator)

        self._labels: Dict[int, str] = {}
        #: The last frame whose labels were recorded: a frame repeating its
        #: id -> label map has nothing new to record.
        self._labels_frame: Optional[FrameObservation] = None  # repro-lint: disable=CKPT-DRIFT -- marks which frame's labels are already recorded; import and label pruning clear it, and the next frame records its labels again
        #: Engine-owned object interner, shared with every generator the
        #: engine builds: masks stay compatible (and narrow, via recycling)
        #: across resets, which matters for long-running feeds.
        self.interner = ObjectInterner()  # repro-lint: disable=CKPT-DRIFT -- shared reference; the generator's checkpoint round-trips the interner
        self.generator = self._build_generator()
        self._mcos_seconds = 0.0
        self._evaluation_seconds = 0.0
        self._frames_processed = 0
        self._result_states = 0
        #: Prune the engine's label map every this many frames (aligned with
        #: the generators' interner-compaction cadence), keeping long-running
        #: memory bounded by the window population.
        self._prune_labels_every = 4 * self.config.window_size  # repro-lint: disable=CKPT-DRIFT -- derived from config.window_size, which round-trips

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_generator(self) -> MCOSGenerator:
        labels_of_interest = (
            self.evaluator.labels_of_interest() if self.config.restrict_labels else None
        )
        generator_class = self.config.method.generator_class
        return generator_class(
            window_size=self.config.window_size,
            duration=self.config.duration,
            labels_of_interest=labels_of_interest,
            state_filter=self._pruner,
            interner=self.interner,
        )

    @property
    def queries(self) -> List[CNFQuery]:
        """The registered queries (with assigned identifiers)."""
        return self.evaluator.queries

    # ------------------------------------------------------------------
    # Live query lifecycle
    # ------------------------------------------------------------------
    def register_query(self, query: CNFQuery) -> CNFQuery:
        """Add a query to a (possibly mid-stream) engine.

        The query joins the evaluator index immediately and the label
        projection widens to cover its classes, so it is evaluated from the
        next processed frame on.  States already in the window were built
        without the query's classes; results for the new query are
        guaranteed to equal a present-from-frame-0 run only from one full
        window after registration (the warm-up watermark the session layer
        reports).  Returns the registered copy carrying its assigned id.
        """
        if (query.window, query.duration) != (
            self.config.window_size,
            self.config.duration,
        ):
            raise ValueError(
                f"query window group ({query.window}, {query.duration}) does "
                f"not match the engine's ({self.config.window_size}, "
                f"{self.config.duration})"
            )
        if self._pruner is not None:
            require_pruning_compatible(query)
        registered = self.evaluator.add_query(query)
        self._sync_label_projection()
        return registered

    def cancel_query(self, query_id: int) -> CNFQuery:
        """Remove a registered query mid-stream.

        The query's evaluator postings are deleted in place, its id is
        tombstoned inside the evaluator so it is never reassigned, pruning
        immediately stops keeping states alive on its behalf, and the label
        projection narrows to the remaining queries' classes.  Cancelling
        the last query is refused — retire the engine (or its shard)
        instead, which also releases the window state.
        """
        registered = self.evaluator.index.queries
        if query_id not in registered:
            raise KeyError(f"no registered query with id {query_id}")
        if len(registered) == 1:
            raise ValueError(
                "cancelling the last query would leave the engine without a "
                "workload; retire the engine (or its shard) instead"
            )
        removed = self.evaluator.remove_query(query_id)
        self._sync_label_projection()
        return removed

    def _sync_label_projection(self) -> None:
        """Re-point the generator's label projection at the current queries."""
        if self.config.restrict_labels:
            self.generator.set_labels_of_interest(
                self.evaluator.labels_of_interest()
            )

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

    @property
    def mcos_seconds(self) -> float:
        """Cumulative wall-clock seconds spent in MCOS generation."""
        return self._mcos_seconds

    @property
    def evaluation_seconds(self) -> float:
        """Cumulative wall-clock seconds spent in query evaluation."""
        return self._evaluation_seconds

    # ------------------------------------------------------------------
    # Streaming API
    # ------------------------------------------------------------------
    def process_frame(
        self, frame: FrameObservation, stream_id: str = ""
    ) -> List[QueryMatch]:
        """Process one frame and return the query matches of the new window.

        ``stream_id`` names the feed the frame came from; every returned
        match carries it (the bare engine knows no stream and leaves it
        empty).
        """
        if not frame.same_labels(self._labels_frame):
            labels = self._labels
            for oid in frame.object_ids:
                labels.setdefault(oid, frame.label_of(oid))
            self._labels_frame = frame

        start = time.perf_counter()
        results: ResultStateSet = self.generator.process_frame(frame)
        self._mcos_seconds += time.perf_counter() - start

        start = time.perf_counter()
        matches = self.evaluator.evaluate_result_set(
            results, self._labels, stream_id
        )
        self._evaluation_seconds += time.perf_counter() - start

        self._frames_processed += 1
        self._result_states += len(results)
        if self._frames_processed % self._prune_labels_every == 0:
            self._prune_labels()
        return matches

    def _prune_labels(self) -> None:
        """Drop labels of objects no live state references.

        Evaluation only ever looks up labels of reported states' objects,
        which are all interned — so after compacting the interner to the
        live population, any label outside it can never be needed again.
        Without this, ``_labels`` (and hence checkpoint size) would grow
        with every distinct tracker id the feed ever produced, the one
        structure not bounded by the window.
        """
        self.generator.compact_interner()
        interner = self.interner
        self._labels = {
            oid: label for oid, label in self._labels.items() if oid in interner
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
            mcos_seconds=self._mcos_seconds,
            evaluation_seconds=self._evaluation_seconds,
            generator_stats=self.generator.stats,
            result_states=self._result_states,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _config_dict(self) -> Dict:
        """The semantics-affecting config fields, as stored in checkpoints.

        Single source of truth for :meth:`checkpoint`, :meth:`restore`'s
        validation and :meth:`from_checkpoint`'s parsing: a future config
        field added here is automatically serialised *and* validated.
        """
        return {
            "method": self.config.method.value,
            "window_size": self.config.window_size,
            "duration": self.config.duration,
            "enable_pruning": self.config.enable_pruning,
            "restrict_labels": self.config.restrict_labels,
        }

    def checkpoint(self) -> Dict:
        """Snapshot the engine between frames (a plain dict tree).

        The snapshot is self-contained: it embeds the configuration and the
        registered queries, so :meth:`from_checkpoint` can resume the stream
        byte-identically in a fresh process.  Only call between frames.
        """
        return self._snapshot(
            "queries", [query.to_dict() for query in self.evaluator.queries]
        )

    def checkpoint_by_id(self) -> Dict:
        """:meth:`checkpoint` with the queries named by id (``query_ids``).

        The form a shard writes inside a router or shard document, which
        holds the query dicts once for all its engines.  :meth:`restore`
        takes it on an engine built from those queries.
        """
        return self._snapshot(
            "query_ids", [query.query_id for query in self.evaluator.queries]
        )

    def _snapshot(self, queries_key: str, queries: List) -> Dict:
        return {
            "config": self._config_dict(),
            queries_key: queries,
            #: Evaluator id floor: keeps cancelled-query ids tombstoned
            #: across a restore (ids must never be reused — a drained match
            #: would otherwise be ambiguous between old and new query).
            "next_query_id": self.evaluator.index.next_query_id,
            "labels": [[oid, label] for oid, label in self._labels.items()],
            "counters": {
                "mcos_seconds": self._mcos_seconds,
                "evaluation_seconds": self._evaluation_seconds,
                "frames_processed": self._frames_processed,
                "result_states": self._result_states,
            },
            "generator": self.generator.export_checkpoint(),
        }

    def restore(self, payload: Dict) -> None:
        """Restore labels, counters and generator state from a checkpoint.

        The engine must be configured identically to the snapshot
        (:meth:`from_checkpoint` guarantees this; direct callers are checked
        here) — a silent config mismatch would change semantics mid-stream.
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
        registered = self.evaluator.queries
        if "query_ids" in payload:
            same = payload["query_ids"] == [q.query_id for q in registered]
        else:
            same = payload.get("queries") == [q.to_dict() for q in registered]
        if not same:
            raise ValueError(
                "checkpoint queries do not match the engine's registered "
                "queries; resuming would evaluate the wrong workload"
            )
        self.evaluator.index.reserve_ids(int(payload["next_query_id"]))
        # Derived state is never part of a snapshot: resume cold.
        self.evaluator.forget_signatures()
        self._labels = {int(oid): label for oid, label in payload["labels"]}
        self._labels_frame = None
        counters = payload["counters"]
        self._mcos_seconds = float(counters["mcos_seconds"])
        self._evaluation_seconds = float(counters["evaluation_seconds"])
        self._frames_processed = int(counters["frames_processed"])
        self._result_states = int(counters["result_states"])
        self.generator.import_checkpoint(payload["generator"])

    def export_state(self) -> bytes:
        """The :meth:`checkpoint` snapshot as compact checkpoint bytes.

        This is the byte-level hand-off form: self-contained (config and
        queries included), canonical, and written as checkpoint version 4,
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
        """Rebuild an engine from a :meth:`checkpoint` snapshot.

        Queries are re-registered in their checkpointed order (ids are stored
        in the snapshot, so assignments cannot drift), then the mutable state
        is restored on top.
        """
        config = EngineConfig(
            method=MCOSMethod(payload["config"]["method"]),
            window_size=int(payload["config"]["window_size"]),
            duration=int(payload["config"]["duration"]),
            enable_pruning=bool(payload["config"]["enable_pruning"]),
            restrict_labels=bool(payload["config"]["restrict_labels"]),
        )
        queries = [CNFQuery.from_dict(entry) for entry in payload["queries"]]
        engine = cls(queries, config)
        engine.restore(payload)
        return engine

    def reset(self) -> None:
        """Reset the engine to process another relation from scratch.

        The interner survives the reset: released bit positions are recycled,
        so masks stay narrow no matter how many relations the engine serves.
        """
        self.interner.compact(0)
        self.generator = self._build_generator()
        self.evaluator.forget_signatures()
        self._labels = {}
        self._labels_frame = None
        self._mcos_seconds = 0.0
        self._evaluation_seconds = 0.0
        self._frames_processed = 0
        self._result_states = 0
