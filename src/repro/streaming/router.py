"""Routing incoming frames across per-(stream, window-group) shards.

The paper's engine evaluates one query group over one relation; the
:class:`StreamRouter` is the runtime layer that serves *many concurrent video
feeds* and *heterogeneous query workloads* on top of it:

* queries are **auto-grouped** by their ``(window, duration)`` parameters —
  the grouping the engine requires but previously had to be done by hand
  ("queries with differing windows should be run in separate engine
  instances", :class:`~repro.engine.config.EngineConfig`).  All queries of a
  group share one MCOS generation pass per stream instead of one per query;
* each ``(stream, group)`` pair gets its own :class:`StreamShard`, created
  lazily on the stream's first frame, so per-stream state is isolated,
  bounded by that stream's window, and independently checkpointable;
* shards can be **detached** (checkpointed and removed) and **adopted**
  elsewhere, which is how the worker pool moves streams into processes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.datamodel.observation import FrameObservation
from repro.engine.config import MCOSMethod
from repro.query.evaluator import QueryMatch
from repro.query.model import CNFQuery
from repro.query.pruning import require_pruning_compatible
from repro.streaming.checkpoint import (
    CheckpointError,
    from_bytes,
    reading,
    to_bytes,
)
from repro.streaming.shard import ShardKey, StreamShard

#: A window group: the ``(window, duration)`` pair shards are keyed by.
GroupKey = Tuple[int, int]


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
        "processing_seconds": 0.0,
    }


def _ingest_totals(block: Mapping) -> Dict:
    """A checkpointed ingest counter block (see :func:`zero_ingest_totals`)."""
    return {
        key: float(block[key]) if key == "processing_seconds" else int(block[key])
        for key in zero_ingest_totals()
    }


def standalone_shards(document: Mapping) -> List[Dict]:
    """A router document's shard entries as standalone shard documents: each
    entry plus the query dicts its engine block names by id (what
    :meth:`StreamRouter.adopt` takes)."""
    by_id = {entry["query_id"]: entry for entry in document["queries"]}
    return [
        dict(entry, queries=[by_id[qid] for qid in entry["engine"]["query_ids"]])
        for entry in document["shards"]
    ]


def interleave_group_matches(
    per_group_matches: Iterable[Sequence[QueryMatch]],
) -> List[QueryMatch]:
    """Merge one stream's per-group match lists into canonical order.

    Matches are keyed by ``(frame_id, group registration index, emission
    sequence)`` — within a frame, groups interleave in registration order
    and each group keeps its emission order.  The sort is stable and total
    over those keys, so repeated calls agree byte for byte; every report
    surface (router, worker pool, session backends) shares this one
    definition of match order.
    """
    keyed: List[Tuple[int, int, int, QueryMatch]] = []
    for group_index, matches in enumerate(per_group_matches):
        for seq, match in enumerate(matches):
            keyed.append((match.frame_id, group_index, seq, match))
    keyed.sort(key=lambda item: item[:3])
    return [match for _, _, _, match in keyed]


def group_queries_by_window(
    queries: Iterable[CNFQuery],
) -> Dict[GroupKey, List[CNFQuery]]:
    """Partition queries into window groups, preserving registration order.

    Group order follows the first query of each group, and queries keep their
    relative order within a group, so shard engines assign ids and report
    matches deterministically.
    """
    groups: Dict[GroupKey, List[CNFQuery]] = {}
    for query in queries:
        groups.setdefault((query.window, query.duration), []).append(query)
    return groups


class StreamRouter:
    """Partitions frames of many streams across per-(stream, group) shards."""

    def __init__(
        self,
        queries: Iterable[CNFQuery],
        method: MCOSMethod = MCOSMethod.SSG,
        batch_size: int = 8,
        watermark: int = 0,
        enable_pruning: bool = False,
        restrict_labels: bool = True,
        retain_matches: bool = True,
    ):
        queries = list(queries)
        self.method = MCOSMethod(method)
        self.batch_size = batch_size
        self.watermark = watermark
        self.enable_pruning = enable_pruning
        self.restrict_labels = restrict_labels
        self.retain_matches = retain_matches
        #: Registered queries with router-global ids (assigned here so that a
        #: match's ``query_id`` means the same thing on every shard).
        self.queries: List[CNFQuery] = self._assign_ids(queries)
        self._groups: Dict[GroupKey, List[CNFQuery]] = group_queries_by_window(
            self.queries
        )
        self._shards: Dict[Tuple[str, GroupKey], StreamShard] = {}
        #: Stream first-seen order, persistent across group retirements: a
        #: stream whose every shard was retired by a query-group
        #: cancellation keeps its position (and re-grows shards in place
        #: when a new group arrives) — deriving order from live shards
        #: would silently reorder reports.  Detach *does* remove the
        #: stream: it departed to another owner.
        self._stream_order: Dict[str, None] = {}
        #: Streams handed off via :meth:`detach`, with the window groups
        #: still awaiting adoption.  Routing to one raises instead of
        #: silently resurrecting an empty shard that would fork the stream's
        #: state; the tombstone lifts only once :meth:`adopt` has restored
        #: every detached group (a partially-adopted stream is still forked).
        self._detached: Dict[str, List[GroupKey]] = {}
        #: Cumulative ingest counters of every shard this router detached,
        #: frozen at detach time.  Without this, a detach made the departed
        #: shard's late-drop/duplicate/reorder counts vanish from
        #: :meth:`stats` entirely (the shard left ``_shards``), so exported
        #: stats silently under-reported after every hand-off.
        self._departed_totals: Dict = zero_ingest_totals()
        #: Per-slot frozen counters backing ``_departed_totals``: when a
        #: detached shard is adopted *back* (a round-trip hand-off, e.g.
        #: through a worker pool), its frozen contribution is reversed —
        #: the shard's live counters are in ``totals`` again, so leaving
        #: them in ``departed`` too would double-count.
        self._departed_by_slot: Dict[Tuple[str, GroupKey], Dict] = {}
        #: Ids of cancelled queries.  Tombstoned forever: an id is never
        #: reassigned, so a match drained after the cancellation point can
        #: never be attributed to the wrong query.
        self._cancelled: set = set()
        #: Cumulative ingest counters of shards retired because their whole
        #: window group was cancelled, frozen at retirement.  The same
        #: accounting rule as ``_departed_totals``: removing a shard must
        #: not make its late-drop/duplicate/reorder history vanish from
        #: :meth:`stats`.
        self._retired_totals: Dict = zero_ingest_totals()

    @staticmethod
    def _assign_ids(queries: Sequence[CNFQuery]) -> List[CNFQuery]:
        """Give every query a unique id, keeping any pre-assigned ones."""
        used = {q.query_id for q in queries if q.query_id is not None}
        if len(used) != sum(1 for q in queries if q.query_id is not None):
            raise ValueError("queries carry duplicate pre-assigned ids")
        next_id = 0
        assigned: List[CNFQuery] = []
        for query in queries:
            if query.query_id is None:
                while next_id in used:
                    next_id += 1
                used.add(next_id)
                query = query.with_id(next_id)
            assigned.append(query)
        return assigned

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def group_keys(self) -> List[GroupKey]:
        """The window groups the registered queries fall into."""
        return list(self._groups)

    def queries_of_group(self, group: GroupKey) -> List[CNFQuery]:
        """The queries of one window group, in registration order."""
        return list(self._groups[group])

    def stream_ids(self) -> List[str]:
        """Streams this router serves, in first-seen order.

        Includes streams whose shards were all retired by query-group
        cancellations (they are still this router's streams and resume in
        place when a matching group returns); excludes streams detached to
        another owner.
        """
        return list(self._stream_order)

    def shards(self) -> Dict[Tuple[str, GroupKey], StreamShard]:
        """Live shards keyed by ``(stream_id, (window, duration))``."""
        return dict(self._shards)

    def shard_for(self, stream_id: str, group: Optional[GroupKey] = None) -> StreamShard:
        """Return (creating if necessary) the shard of a stream and group.

        ``group`` may be omitted when the workload has a single window group.
        """
        if group is None:
            if len(self._groups) != 1:
                raise ValueError(
                    "the workload has several window groups; pass group="
                    f"{self.group_keys}"
                )
            group = self.group_keys[0]
        elif group not in self._groups:
            raise KeyError(f"no queries registered for window group {group}")
        if stream_id in self._detached:
            raise ValueError(
                f"stream {stream_id!r} was detached from this router; a new "
                "shard here would fork its state (adopt the checkpoint to "
                "resume it)"
            )
        shard = self._shards.get((stream_id, group))
        if shard is None:
            window, duration = group
            shard = StreamShard(
                ShardKey(stream_id=stream_id, window=window, duration=duration),
                self._groups[group],
                method=self.method,
                batch_size=self.batch_size,
                watermark=self.watermark,
                enable_pruning=self.enable_pruning,
                restrict_labels=self.restrict_labels,
                retain_matches=self.retain_matches,
            )
            self._shards[(stream_id, group)] = shard
        self._stream_order.setdefault(stream_id, None)
        return shard

    # ------------------------------------------------------------------
    # Live query lifecycle
    # ------------------------------------------------------------------
    def register_query(self, query: CNFQuery) -> CNFQuery:
        """Register a query on a (possibly live) router.

        A query whose ``(window, duration)`` pair starts a new window group
        gets fresh shards lazily, per stream, on the next frame each stream
        routes — its evaluation starts from the registration point.  A query
        joining an existing group is threaded into every live shard of that
        group (the shard engines rebuild their evaluator index and widen
        their label projection mid-stream); see the session layer for the
        warm-up watermark this implies.  Ids are never recycled: a query
        arriving without one is assigned the smallest id no live *or
        cancelled* query has used.
        """
        if self.enable_pruning:
            # Checked eagerly (not at lazy shard creation): the registration
            # call is the only sensible place for the caller to handle it.
            require_pruning_compatible(query)
        used = {q.query_id for q in self.queries} | self._cancelled
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
        group = (query.window, query.duration)
        live_group = group in self._groups
        self.queries.append(query)
        self._groups.setdefault(group, []).append(query)
        if live_group:
            for (_, shard_group), shard in self._shards.items():
                if shard_group == group:
                    shard.register_query(query)
        return query

    def cancel_query(self, query_id: int) -> CNFQuery:
        """Cancel a registered query by id (tombstoning the id forever).

        The query leaves every live shard of its group — evaluator postings
        dropped, pruning and label projection re-derived from the survivors,
        undrained matches of the query discarded.  When the cancellation
        empties its window group, the group's shards are retired wholesale
        (their window state is released; their ingest counters are frozen
        into ``stats()["retired"]``) and any pending detached-stream
        tombstones for the group are lifted — there is nothing left to
        adopt.
        """
        query = next(
            (q for q in self.queries if q.query_id == query_id), None
        )
        if query is None:
            raise KeyError(f"no registered query with id {query_id}")
        group = (query.window, query.duration)
        self.queries = [q for q in self.queries if q.query_id != query_id]
        remaining = [q for q in self._groups[group] if q.query_id != query_id]
        self._cancelled.add(query_id)
        if remaining:
            self._groups[group] = remaining
            for (_, shard_group), shard in self._shards.items():
                if shard_group == group:
                    shard.cancel_query(query_id)
        else:
            del self._groups[group]
            for key in [k for k in self._shards if k[1] == group]:
                shard = self._shards.pop(key)
                retired = self._retired_totals
                retired["shards"] += 1
                for field, value in self._freeze_ingest_stats(shard).items():
                    retired[field] += value
            for stream_id in list(self._detached):
                pending = self._detached[stream_id]
                if group in pending:
                    pending.remove(group)
                    if not pending:
                        del self._detached[stream_id]
        return query

    @property
    def cancelled_ids(self) -> List[int]:
        """Tombstoned (cancelled) query ids, ascending."""
        return sorted(self._cancelled)

    # ------------------------------------------------------------------
    # Hand-off introspection (the worker pool's supported surface)
    # ------------------------------------------------------------------
    def has_live_shards(self, stream_id: str) -> bool:
        """Whether any shard of the stream is currently live here."""
        return any(key[0] == stream_id for key in self._shards)

    def detached_streams(self) -> Dict[str, List[GroupKey]]:
        """Detached-stream tombstones: stream id → groups awaiting adoption
        (a copy; reflects lifts performed by cancellations)."""
        return {
            stream_id: list(groups)
            for stream_id, groups in self._detached.items()
        }

    def departed_slot_snapshots(self) -> Dict[Tuple[str, GroupKey], Dict]:
        """Frozen per-slot counters of shards detached from this router."""
        return {
            slot: dict(frozen)
            for slot, frozen in self._departed_by_slot.items()
        }

    def fold_retired(self, totals: Mapping) -> None:
        """Fold an external retired-counters block into this router's.

        Used on pool shutdown: shards retired *inside* workers froze their
        counters in the worker's router; the origin absorbs them so its
        ``stats()["retired"]`` equals an uninterrupted run's.
        """
        retired = self._retired_totals
        for key, value in totals.items():
            retired[key] = retired.get(key, 0) + value

    def set_stream_order(self, order: Iterable[str]) -> None:
        """Impose a stream first-seen order (streams this router already
        knows but ``order`` omits keep their positions after it)."""
        ordered: Dict[str, None] = {stream_id: None for stream_id in order}
        for stream_id in self._stream_order:
            ordered.setdefault(stream_id, None)
        self._stream_order = ordered

    @staticmethod
    def _freeze_ingest_stats(shard: StreamShard) -> Dict:
        """A shard's cumulative ingest counters, frozen for the departed/
        retired accounting blocks."""
        stats = shard.stats
        return {
            "frames_ingested": stats.frames_ingested,
            "frames_processed": stats.frames_processed,
            "dropped_late": stats.dropped_late,
            "duplicates": stats.duplicates,
            "reordered": stats.reordered,
            "batches": stats.batches,
            "processing_seconds": stats.processing_seconds,
        }

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, stream_id: str, frame: FrameObservation) -> List[QueryMatch]:
        """Route one frame of one stream to all of its group shards.

        Returns the matches produced by this call (across every group the
        stream's queries fall into).
        """
        matches: List[QueryMatch] = []
        shards = self._shards
        for group in self._groups:
            # A live shard is found directly; ``shard_for`` runs on a miss
            # only (a new stream or group, or a detached stream, which
            # has no shards and raises there).
            shard = shards.get((stream_id, group))
            if shard is None:
                shard = self.shard_for(stream_id, group)
            matches.extend(shard.offer(frame))
        return matches

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
        """A stream's matches across all its group shards, in the canonical
        order of :func:`interleave_group_matches`."""
        per_group: List[List[QueryMatch]] = []
        for group in self._groups:
            shard = self._shards.get((stream_id, group))
            per_group.append(shard.matches if shard is not None else [])
        return interleave_group_matches(per_group)

    def drain_matches(self) -> Dict[str, List[QueryMatch]]:
        """Drain every shard's retained matches, grouped by stream.

        Per-stream ordering follows :meth:`matches_for`.  Draining
        periodically (or constructing the router with
        ``retain_matches=False`` and consuming ``route``'s return values)
        keeps long-running memory bounded by the windows alone.
        """
        drained: Dict[str, List[QueryMatch]] = {}
        for stream_id in self.stream_ids():
            matches = self.matches_for(stream_id)
            if matches:
                drained[stream_id] = matches
        for shard in self._shards.values():
            shard.drain_matches()
        return drained

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Aggregate + per-shard ingest statistics (JSON-friendly)."""
        per_shard = {}
        totals = {
            "frames_ingested": 0,
            "frames_processed": 0,
            "dropped_late": 0,
            "duplicates": 0,
            "reordered": 0,
            "processing_seconds": 0.0,
            "queue_depth": 0,
        }
        # Canonical report order: stream first-seen order crossed with group
        # registration order.  Shard *creation* order used to coincide with
        # this, but live query registration can spin up a new group's shards
        # mid-stream (creation epochs interleave); pinning the report to the
        # canonical order keeps stats byte-comparable across architectures
        # regardless of when each group joined.
        for stream_id in self.stream_ids():
            for group in self._groups:
                shard = self._shards.get((stream_id, group))
                if shard is None:
                    continue
                entry = shard.stats.as_dict()
                entry["queue_depth"] = shard.queue_depth
                entry["generator"] = shard.engine.generator.stats.as_dict()
                entry["evaluator"] = shard.engine.evaluator.stats.as_dict()
                per_shard[str(shard.key)] = entry
                totals["frames_ingested"] += shard.stats.frames_ingested
                totals["frames_processed"] += shard.stats.frames_processed
                totals["dropped_late"] += shard.stats.dropped_late
                totals["duplicates"] += shard.stats.duplicates
                totals["reordered"] += shard.stats.reordered
                totals["processing_seconds"] += shard.stats.processing_seconds
                totals["queue_depth"] += shard.queue_depth
        seconds = totals["processing_seconds"]
        totals["processing_seconds"] = round(seconds, 6)
        totals["frames_per_sec"] = (
            round(totals["frames_processed"] / seconds, 2) if seconds else 0.0
        )
        departed = dict(self._departed_totals)
        departed["processing_seconds"] = round(departed["processing_seconds"], 6)
        retired = dict(self._retired_totals)
        retired["processing_seconds"] = round(retired["processing_seconds"], 6)
        return {
            "streams": len(self.stream_ids()),
            "window_groups": len(self._groups),
            "shards": len(self._shards),
            "totals": totals,
            #: Counters of shards handed off via detach, frozen at detach
            #: time — kept separate from ``totals`` because the shard's live
            #: counters now accrue on whoever adopted it (summing both views
            #: across routers would double-count).
            "departed": departed,
            #: Counters of shards retired because their whole window group
            #: was cancelled — frozen at retirement so history survives.
            "retired": retired,
            "per_shard": per_shard,
        }

    # ------------------------------------------------------------------
    # Checkpointing and hand-off
    # ------------------------------------------------------------------
    def _detached_payload(self) -> List:
        """The detached-stream tombstones in checkpoint layout."""
        return [
            [stream_id, [list(group) for group in groups]]
            for stream_id, groups in self._detached.items()
        ]

    def config_checkpoint(self, include_detached: bool = False) -> Dict:
        """The workload-only part of :meth:`checkpoint`: config and queries.

        This is what a :class:`~repro.streaming.pool.ShardWorkerPool` ships
        to a fresh worker process — enough to build an empty router serving
        the identical workload (query ids included), with no shard state.
        ``include_detached`` additionally carries the detached-stream
        tombstones, so workers refuse a foreign stream exactly as the
        origin would.
        """
        return {
            "method": self.method.value,
            "batch_size": self.batch_size,
            "watermark": self.watermark,
            "enable_pruning": self.enable_pruning,
            "restrict_labels": self.restrict_labels,
            "retain_matches": self.retain_matches,
            "queries": [query.to_dict() for query in self.queries],
            "cancelled": sorted(self._cancelled),
            #: Live group order.  Usually reconstructible from the query
            #: list, but a partial cancellation can leave a group anchored
            #: at a position its first *remaining* query no longer implies —
            #: and group order decides shard creation and match
            #: interleaving, so it must survive restores exactly.
            "group_order": [list(group) for group in self._groups],
            "detached": self._detached_payload() if include_detached else [],
            "shards": [],
        }

    def checkpoint(self) -> Dict:
        """Snapshot the router: configuration, queries, and every shard."""
        document = self.config_checkpoint(include_detached=True)
        document["shards"] = [
            shard.checkpoint_entry() for shard in self._shards.values()
        ]
        document["departed_totals"] = dict(self._departed_totals)
        document["retired_totals"] = dict(self._retired_totals)
        #: Persistent first-seen order (may include currently shardless
        #: streams whose groups were retired — see ``stream_ids``).
        document["stream_order"] = list(self._stream_order)
        document["departed_slots"] = [
            [stream_id, [window, duration], dict(frozen)]
            for (stream_id, (window, duration)), frozen
            in self._departed_by_slot.items()
        ]
        return document

    def to_bytes(self) -> bytes:
        """The router snapshot as canonical checkpoint bytes."""
        return to_bytes("router", self.checkpoint())

    @classmethod
    @reading("router checkpoint")
    def from_checkpoint(cls, payload: Dict) -> "StreamRouter":
        """Rebuild a router (and all its shards) from a snapshot.

        Each query is parsed once, from ``queries``; every shard's engine
        is built from its group's queries, which the shard entry must name
        by id, in registration order.
        """
        router = cls(
            [CNFQuery.from_dict(q) for q in payload["queries"]],
            method=MCOSMethod(payload["method"]),
            batch_size=int(payload["batch_size"]),
            watermark=int(payload["watermark"]),
            enable_pruning=bool(payload["enable_pruning"]),
            restrict_labels=bool(payload["restrict_labels"]),
            retain_matches=bool(payload["retain_matches"]),
        )
        router._cancelled = {int(qid) for qid in payload["cancelled"]}
        order = [(int(window), int(duration))
                 for window, duration in payload["group_order"]]
        if sorted(order) != sorted(router._groups):
            raise CheckpointError(
                f"router checkpoint group order {order} does not list the "
                f"window groups of its queries {list(router._groups)}"
            )
        router._groups = {group: router._groups[group] for group in order}
        for entry in payload["shards"]:
            key = ShardKey.from_payload(entry["key"])
            router._adopt(entry, router._group_queries(key))
        for stream_id, groups in payload["detached"]:
            router._detached[str(stream_id)] = [
                (int(window), int(duration)) for window, duration in groups
            ]
        if "stream_order" not in payload:
            # A :meth:`config_checkpoint` document: a workload, no history.
            return router
        stream_order = {
            str(stream_id): None for stream_id in payload["stream_order"]
        }
        unlisted = [s for s in router._stream_order if s not in stream_order]
        if unlisted:
            raise CheckpointError(
                f"router checkpoint stream order omits streams {unlisted} "
                "that have shards"
            )
        router._stream_order = stream_order
        router._departed_totals = _ingest_totals(payload["departed_totals"])
        router._retired_totals = _ingest_totals(payload["retired_totals"])
        for stream_id, (window, duration), frozen in payload["departed_slots"]:
            slot = (str(stream_id), (int(window), int(duration)))
            router._departed_by_slot[slot] = {
                key: float(value) if key == "processing_seconds" else int(value)
                for key, value in frozen.items()
            }
        return router

    @classmethod
    def from_bytes(cls, data: bytes) -> "StreamRouter":
        """Rebuild a router from canonical checkpoint bytes."""
        return cls.from_checkpoint(from_bytes(data, expect_kind="router"))

    def detach(self, stream_id: str) -> List[Dict]:
        """Checkpoint and remove every shard of one stream (a hand-off).

        The returned snapshots can be :meth:`adopt`-ed by another router —
        typically in another process — which resumes the stream exactly where
        this one left off.  Retained (produced-but-not-yet-drained) matches
        travel with the snapshot, so nothing is lost in the hand-off; matches
        already consumed via :meth:`drain_matches` are not replayed.  The
        removed shards' ingest counters freeze into the ``departed``
        accounting block, the stream leaves first-seen order, and a
        detached-stream tombstone is laid so a stray frame routed here fails
        loudly instead of forking state.
        """
        if not self.has_live_shards(stream_id):
            raise KeyError(f"no shards for stream {stream_id!r}")
        removed: List[Dict] = []
        removed_groups: List[GroupKey] = []
        for key in [k for k in self._shards if k[0] == stream_id]:
            shard = self._shards.pop(key)
            removed.append(shard.checkpoint())
            removed_groups.append(key[1])
            frozen = self._freeze_ingest_stats(shard)
            self._departed_by_slot[(stream_id, key[1])] = frozen
            departed = self._departed_totals
            departed["shards"] += 1
            for field, value in frozen.items():
                departed[field] += value
        self._stream_order.pop(stream_id, None)
        self._detached[stream_id] = removed_groups
        return removed

    def adopt(self, shard_payload: Dict) -> StreamShard:
        """Restore a standalone shard document (:meth:`detach`,
        :meth:`StreamShard.checkpoint`) into this router.

        The shard's window group must be one this router serves, the query
        dicts the document carries must be exactly that group's (ids
        included — otherwise the shard would keep answering a foreign
        workload while ``queries`` and :meth:`matches_for` describe this
        router's, e.g. a different query under the same id), and the
        ``(stream, group)`` slot must be free.  The shard's engine is then
        built from this router's own queries.
        """
        with reading("shard checkpoint"):
            key = ShardKey.from_payload(shard_payload["key"])
            queries = self._group_queries(key)
            if shard_payload["queries"] != [q.to_dict() for q in queries]:
                raise CheckpointError(
                    f"cannot adopt shard {key}: its queries do not match "
                    f"this router's window group {key.group} workload"
                )
        return self._adopt(shard_payload, queries)

    def _group_queries(self, key: ShardKey) -> List[CNFQuery]:
        """The queries of a shard's window group, which this router must
        serve."""
        queries = self._groups.get(key.group)
        if queries is None:
            raise CheckpointError(
                f"cannot adopt shard {key}: this router serves window "
                f"groups {self.group_keys}"
            )
        return queries

    def _adopt(
        self, shard_payload: Dict, queries: Sequence[CNFQuery]
    ) -> StreamShard:
        """The adopt core: build the shard from ``queries`` (its group's, as
        the caller checked) and install it in its free slot."""
        shard = StreamShard.from_entry(shard_payload, queries)
        group = shard.key.group
        slot = (shard.key.stream_id, group)
        if slot in self._shards:
            raise CheckpointError(
                f"cannot adopt shard {shard.key}: slot already occupied"
            )
        self._shards[slot] = shard
        self._stream_order.setdefault(shard.key.stream_id, None)
        pending = self._detached.get(shard.key.stream_id)
        if pending is not None:
            if group in pending:
                pending.remove(group)
            if not pending:
                del self._detached[shard.key.stream_id]
        frozen = self._departed_by_slot.pop(slot, None)
        if frozen is not None:
            # The shard is back: its (still-running) counters count in
            # ``totals`` again, so reverse the frozen departed contribution.
            departed = self._departed_totals
            departed["shards"] -= 1
            for field, value in frozen.items():
                departed[field] -= value
            if departed["shards"] == 0:
                # Reset exactly: float subtraction of several seconds values
                # can leave a ±1e-17 residue that would round to "-0.0".
                self._departed_totals = zero_ingest_totals()
        return shard

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"StreamRouter(queries={len(self.queries)}, "
            f"groups={len(self._groups)}, shards={len(self._shards)})"
        )
