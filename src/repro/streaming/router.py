"""Routing incoming frames across per-stream shards.

The paper's engine evaluates one query group over one relation; the
:class:`StreamRouter` is the runtime layer that serves *many concurrent video
feeds* and *heterogeneous query workloads* on top of it:

* the router owns the workload: queries are **auto-grouped** by their
  ``(window, duration)`` parameters into one
  :class:`~repro.query.evaluator.QueryEvaluator` per group, which every
  stream evaluates against.  A registration or cancellation changes that
  evaluator once, then each shard's engine does its per-stream part
  (re-project its generator, drop its Proposition-1 terminated markers,
  add or remove the group): the index work does not grow with the number
  of streams;
* each stream gets one :class:`StreamShard` — one reorder buffer and one
  engine — created lazily on the stream's first frame, so per-stream state
  is isolated, bounded by that stream's largest window, and independently
  checkpointable.  The engine runs one MCOS generator per label projection
  at the largest window of the stream's groups and answers every group
  from it, so a stream pays for one generator step per frame however many
  window groups its queries fall into;
* the whole router checkpoints to one document, which states each query,
  window group and setting once; its shard entries hold per-stream state
  only.  The worker pool starts each worker process from its slice of that
  document's shards.

Within a frame, matches come group by group in registration order, each
group's in its result set's canonical order (ascending sorted object ids,
then ascending query id).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Set, Tuple

from repro.datamodel.observation import FrameObservation
from repro.engine.config import MCOSMethod
from repro.query.evaluator import EvaluationStats, QueryEvaluator, QueryMatch
from repro.query.model import CNFQuery, pack_queries, unpack_queries
from repro.query.pruning import require_pruning_compatible
from repro.streaming.checkpoint import (
    CheckpointError,
    from_bytes,
    reading,
    to_bytes,
)
from repro.streaming.shard import GroupKey, StreamShard, group_queries_by_window

def zero_ingest_totals() -> Dict:
    """A fresh all-zero ingest counter block (shared layout of totals)."""
    return {
        "shards": 0,
        "frames_ingested": 0,
        "frames_processed": 0,
        "dropped_late": 0,
        "duplicates": 0,
        "reordered": 0,
        "batches": 0,
    }


def _ingest_totals(block: Mapping) -> Dict:
    """A checkpointed ingest counter block (see :func:`zero_ingest_totals`)."""
    return {key: int(block[key]) for key in zero_ingest_totals()}


class StreamRouter:
    """Partitions frames of many streams across per-stream shards."""

    def __init__(
        self,
        queries: Iterable[CNFQuery],
        method: MCOSMethod = MCOSMethod.SSG,
        batch_size: int = 8,
        watermark: int = 0,
        enable_pruning: bool = False,
        restrict_labels: bool = True,
    ):
        queries = list(queries)
        self.method = MCOSMethod(method)
        self.batch_size = batch_size
        self.watermark = watermark
        self.enable_pruning = enable_pruning
        self.restrict_labels = restrict_labels
        #: Ids of cancelled queries.  Tombstoned forever: an id is never
        #: reassigned, so a match drained after the cancellation point can
        #: never be attributed to the wrong query.
        self._cancelled: Set[int] = set()
        #: Every id a live or cancelled query holds (maintained, so a
        #: registration checks its id in O(1)).
        self._used_ids: Set[int] = set()
        for query in queries:
            if query.query_id is not None:
                self._claim_id(query)  # first, so assigned ids avoid them
        #: Registered queries with router-global ids (assigned here so that a
        #: match's ``query_id`` means the same thing on every shard).
        self.queries: List[CNFQuery] = [
            query if query.query_id is not None else self._claim_id(query)
            for query in queries
        ]
        #: One evaluator per window group, in group order, shared by every
        #: shard's engine.
        self._groups: Dict[GroupKey, QueryEvaluator] = {
            group: QueryEvaluator(members)
            for group, members in group_queries_by_window(self.queries).items()
        }
        self._shards: Dict[str, StreamShard] = {}
        #: Stream first-seen order, persistent across retirements: a stream
        #: whose shard was retired because every query was cancelled keeps
        #: its position (and re-grows a shard in place when a query
        #: arrives) — deriving order from live shards would silently
        #: reorder reports.  A stream seen before any query was registered
        #: takes its place too.
        self._stream_order: Dict[str, None] = {}
        #: Cumulative ingest counters of shards retired because every query
        #: was cancelled, frozen at retirement: removing a shard must not
        #: make its late-drop/duplicate/reorder history vanish from
        #: :meth:`stats`.
        self._retired_totals: Dict = zero_ingest_totals()
        #: Set by :meth:`hand_off`: the shards now live in another owner
        #: (the worker pool), so a frame routed here would fork a stream.
        self._handed_off = False

    def _claim_id(self, query: CNFQuery) -> CNFQuery:
        """The query with its id: its own, which no live or cancelled query
        may hold, or else the smallest id none holds."""
        used = self._used_ids
        if query.query_id is None:
            next_id = 0
            while next_id in used:
                next_id += 1
            query = query.with_id(next_id)
        elif query.query_id in used:
            raise ValueError(
                f"query id {query.query_id} is already registered or "
                "tombstoned on this router"
            )
        used.add(query.query_id)
        return query

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def group_keys(self) -> List[GroupKey]:
        """The window groups the registered queries fall into."""
        return list(self._groups)

    def queries_of_group(self, group: GroupKey) -> List[CNFQuery]:
        """The queries of one window group, in registration order."""
        return self._groups[group].queries

    def stream_ids(self) -> List[str]:
        """Streams this router serves, in first-seen order.

        Includes streams whose shard was retired because every query was
        cancelled (they are still this router's streams and resume in
        place when a query returns) and streams seen before the first
        query was registered.
        """
        return list(self._stream_order)

    def shards(self) -> Dict[str, StreamShard]:
        """Live shards keyed by stream id."""
        return dict(self._shards)

    def shard_for(self, stream_id: str) -> StreamShard:
        """Return (creating if necessary) the shard of a stream."""
        if self._handed_off:
            raise ValueError(
                f"this router's shards were handed to a worker pool; a frame "
                f"of stream {stream_id!r} routed here would fork its state "
                "(route it through the pool)"
            )
        if not self._groups:
            raise ValueError("no queries are registered on this router")
        shard = self._shards.get(stream_id)
        if shard is None:
            shard = self._shards[stream_id] = self._new_shard(stream_id)
        self._stream_order.setdefault(stream_id, None)
        return shard

    def _new_shard(self, stream_id: str) -> StreamShard:
        """A fresh shard of the stream over the router's evaluators."""
        return StreamShard(
            stream_id,
            self._groups,
            method=self.method,
            batch_size=self.batch_size,
            watermark=self.watermark,
            enable_pruning=self.enable_pruning,
            restrict_labels=self.restrict_labels,
        )

    # ------------------------------------------------------------------
    # Live query lifecycle
    # ------------------------------------------------------------------
    def register_query(self, query: CNFQuery) -> CNFQuery:
        """Register a query on a (possibly live) router.

        The query joins its window group's evaluator once, then every live
        shard's engine follows.  A query joining an existing window group
        widens that group's label projection mid-stream; one that starts a
        new group starts it on a fresh generator, from the next frame each
        stream's shard emits — its evaluation starts from the registration
        point (see the session layer for the warm-up watermark this
        implies).  Frames still held in a shard's reorder buffer will be
        evaluated against the new query; the session layer flushes first,
        treating registration as a barrier.  Ids are never recycled: a
        query arriving without one is assigned the smallest id no live *or
        cancelled* query has used.
        """
        if self.enable_pruning:
            # Checked eagerly (not at lazy shard creation): the registration
            # call is the only sensible place for the caller to handle it.
            require_pruning_compatible(query)
        query = self._claim_id(query)
        self.queries.append(query)
        group = (query.window, query.duration)
        evaluator = self._groups.get(group)
        engines = [shard.engine for shard in self._shards.values()]
        if evaluator is None:
            evaluator = self._groups[group] = QueryEvaluator([query])
            for engine in engines:
                engine.add_group(*group, evaluator)
        else:
            evaluator.add_query(query)
            for engine in engines:
                engine.queries_changed(group, added=True)
        return query

    def cancel_query(self, query_id: int) -> CNFQuery:
        """Cancel a registered query by id (tombstoning the id forever).

        The query leaves its group's evaluator once (its clause bits cleared),
        then every live shard follows — pruning and label projection
        re-derived from the group's survivors, undrained matches of the
        query discarded; a window group it empties leaves the shards'
        engines.  When the cancellation empties the whole workload, the
        shards are retired (their window state is released; their ingest
        counters are frozen into ``stats()["retired"]``).
        """
        query = next(
            (q for q in self.queries if q.query_id == query_id), None
        )
        if query is None:
            raise KeyError(f"no registered query with id {query_id}")
        group = (query.window, query.duration)
        self.queries = [q for q in self.queries if q.query_id != query_id]
        self._cancelled.add(query_id)
        evaluator = self._groups[group]
        if len(evaluator.index) > 1:
            evaluator.remove_query(query_id)
        else:
            del self._groups[group]
        if self._groups:
            for shard in self._shards.values():
                if group in self._groups:
                    shard.engine.queries_changed(group, added=False)
                else:
                    shard.engine.remove_group(group)
                shard.forget_query(query_id)
            return query
        retired = self._retired_totals
        for shard in self._shards.values():
            retired["shards"] += 1
            for field, value in self._freeze_ingest_stats(shard).items():
                retired[field] += value
        self._shards = {}
        return query

    @staticmethod
    def _freeze_ingest_stats(shard: StreamShard) -> Dict:
        """A shard's cumulative ingest counters, frozen for the retired
        accounting block."""
        stats = shard.stats
        return {
            "frames_ingested": stats.frames_ingested,
            "frames_processed": shard.engine.frames_processed,
            "dropped_late": stats.dropped_late,
            "duplicates": stats.duplicates,
            "reordered": stats.reordered,
            "batches": stats.batches,
        }

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, stream_id: str, frame: FrameObservation) -> List[QueryMatch]:
        """Route one frame of one stream to its shard.

        Returns the matches produced by this call (across every window
        group of the stream's queries).
        """
        shard = self._shards.get(stream_id)
        if shard is None:
            if not self._groups and not self._handed_off:
                # No workload yet: nothing to evaluate, but the stream is
                # seen, so it keeps its first-seen place.
                self._stream_order.setdefault(stream_id, None)
                return []
            shard = self.shard_for(stream_id)
        return shard.offer(frame)

    def route_many(
        self, events: Iterable[Tuple[str, FrameObservation]]
    ) -> List[QueryMatch]:
        """Route a ``(stream_id, frame)`` event sequence; returns all matches."""
        matches: List[QueryMatch] = []
        for stream_id, frame in events:
            matches.extend(self.route(stream_id, frame))
        return matches

    def flush(self) -> List[QueryMatch]:
        """Flush every shard's reorder buffer (end of stream / drain point)."""
        matches: List[QueryMatch] = []
        for shard in self._shards.values():
            matches.extend(shard.flush())
        return matches

    def matches_for(self, stream_id: str) -> List[QueryMatch]:
        """A stream's retained matches in emission order: frame by frame,
        and within a frame group by group in registration order."""
        shard = self._shards.get(stream_id)
        return shard.matches if shard is not None else []

    def drain_matches(self) -> Dict[str, List[QueryMatch]]:
        """Drain every shard's retained matches, grouped by stream.

        Streams come in first-seen order, each stream's matches in the
        order of :meth:`matches_for`.  Draining periodically keeps
        long-running memory bounded by the windows alone.
        """
        drained: Dict[str, List[QueryMatch]] = {}
        for stream_id in self._stream_order:
            shard = self._shards.get(stream_id)
            if shard is not None:
                matches = shard.drain_matches()
                if matches:
                    drained[stream_id] = matches
        return drained

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Aggregate + per-shard ingest statistics (JSON-friendly).

        ``per_shard`` is keyed by stream id, in first-seen order; each entry
        sums the work counters of the shard's generators (``generator``).
        ``evaluator`` sums the counters of the window groups' evaluators,
        which every shard shares.
        """
        per_shard = {}
        totals = {
            "frames_ingested": 0,
            "frames_processed": 0,
            "dropped_late": 0,
            "duplicates": 0,
            "reordered": 0,
            "queue_depth": 0,
        }
        for stream_id in self._stream_order:
            shard = self._shards.get(stream_id)
            if shard is None:
                continue
            entry = shard.stats.as_dict()
            entry["frames_processed"] = shard.engine.frames_processed
            entry["queue_depth"] = shard.queue_depth
            entry["generator"] = shard.engine.generator_stats().as_dict()
            per_shard[stream_id] = entry
            for key in totals:
                totals[key] += entry[key]
        evaluation = EvaluationStats().as_dict()
        for evaluator in self._groups.values():
            for name, value in evaluator.stats.as_dict().items():
                evaluation[name] += value
        return {
            "streams": len(self._stream_order),
            "window_groups": len(self._groups),
            "shards": len(self._shards),
            "totals": totals,
            #: Counters of shards retired because every query was
            #: cancelled — frozen at retirement so history survives.
            "retired": dict(self._retired_totals),
            "per_shard": per_shard,
            "evaluator": evaluation,
        }

    # ------------------------------------------------------------------
    # Checkpointing and hand-off
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict:
        """Snapshot the router: configuration, queries, and every shard's
        per-stream state."""
        return {
            "method": self.method.value,
            "batch_size": self.batch_size,
            "watermark": self.watermark,
            "enable_pruning": self.enable_pruning,
            "restrict_labels": self.restrict_labels,
            "queries": pack_queries(self.queries),
            "cancelled": sorted(self._cancelled),
            #: Live group order.  Usually reconstructible from the query
            #: list, but a partial cancellation can leave a group anchored
            #: at a position its first *remaining* query no longer implies —
            #: and group order decides match order within a frame, so it
            #: must survive restores exactly.
            "group_order": [list(group) for group in self._groups],
            "shards": [
                shard.checkpoint_entry() for shard in self._shards.values()
            ],
            "retired_totals": dict(self._retired_totals),
            #: Persistent first-seen order (may include currently shardless
            #: streams — see ``stream_ids``).
            "stream_order": list(self._stream_order),
        }

    def hand_off(self) -> None:
        """Give the router's shards to a new owner.

        The worker pool calls this once its workers started from their
        slices of :meth:`checkpoint`.  The router keeps its workload — it
        still assigns query ids and takes registrations and cancellations
        — but holds no shards, and refuses every frame with a
        :class:`ValueError`, since a shard grown here would fork the
        stream's state.
        """
        self._shards = {}
        self._handed_off = True

    def to_bytes(self) -> bytes:
        """The router snapshot as canonical checkpoint bytes."""
        return to_bytes("router", self.checkpoint())

    @classmethod
    @reading("router checkpoint")
    def from_checkpoint(cls, payload: Dict) -> "StreamRouter":
        """Rebuild a router (and all its shards) from a snapshot.

        Each query is built once, from the ``queries`` table, and indexed
        once into the router's evaluators; every shard is built over them
        with the router's settings and resumes its entry's per-stream state.
        """
        router = cls(
            unpack_queries(payload["queries"]),
            method=MCOSMethod(payload["method"]),
            batch_size=int(payload["batch_size"]),
            watermark=int(payload["watermark"]),
            enable_pruning=bool(payload["enable_pruning"]),
            restrict_labels=bool(payload["restrict_labels"]),
        )
        router._cancelled = {int(qid) for qid in payload["cancelled"]}
        router._used_ids |= router._cancelled
        order = [(int(window), int(duration))
                 for window, duration in payload["group_order"]]
        if sorted(order) != sorted(router._groups):
            raise CheckpointError(
                f"router checkpoint group order {order} does not list the "
                f"window groups of its queries {list(router._groups)}"
            )
        router._groups = {group: router._groups[group] for group in order}
        router._stream_order = {
            str(stream_id): None for stream_id in payload["stream_order"]
        }
        for entry in payload["shards"]:
            stream_id = str(entry["stream_id"])
            if stream_id not in router._stream_order:
                raise CheckpointError(
                    f"router checkpoint stream order omits stream "
                    f"{stream_id!r}, which has a shard"
                )
            if stream_id in router._shards:
                raise CheckpointError(
                    f"router checkpoint holds two shards of stream {stream_id!r}"
                )
            shard = router._shards[stream_id] = router._new_shard(stream_id)
            shard.resume(entry)
        router._retired_totals = _ingest_totals(payload["retired_totals"])
        return router

    @classmethod
    def from_bytes(cls, data: bytes) -> "StreamRouter":
        """Rebuild a router from canonical checkpoint bytes."""
        return cls.from_checkpoint(from_bytes(data, expect_kind="router"))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"StreamRouter(queries={len(self.queries)}, "
            f"groups={len(self._groups)}, shards={len(self._shards)})"
        )
