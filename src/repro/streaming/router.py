"""Routing incoming frames across per-stream shards.

The paper's engine evaluates one query group over one relation; the
:class:`StreamRouter` is the runtime layer that serves *many concurrent video
feeds* and *heterogeneous query workloads* on top of it:

* queries are **auto-grouped** by their ``(window, duration)`` parameters,
  one evaluator per group and stream;
* each stream gets one :class:`StreamShard` — one reorder buffer and one
  engine — created lazily on the stream's first frame, so per-stream state
  is isolated, bounded by that stream's largest window, and independently
  checkpointable.  The engine runs one MCOS generator per label projection
  at the largest window of the stream's groups and answers every group
  from it, so a stream pays for one generator step per frame however many
  window groups its queries fall into;
* shards can be **detached** (checkpointed and removed) and **adopted**
  elsewhere, which is how the worker pool moves streams into processes.

Within a frame, matches come group by group in registration order, each
group's in its result set's canonical order (ascending sorted object ids,
then ascending query id).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

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
        "processing_seconds": 0.0,
    }


def _ingest_totals(block: Mapping) -> Dict:
    """A checkpointed ingest counter block (see :func:`zero_ingest_totals`)."""
    return {
        key: float(block[key]) if key == "processing_seconds" else int(block[key])
        for key in zero_ingest_totals()
    }


def _frozen_counters(block: Mapping) -> Dict:
    """A checkpointed per-stream frozen counter block."""
    return {
        key: float(value) if key == "processing_seconds" else int(value)
        for key, value in block.items()
    }


def _entry_groups(entry: Mapping) -> List[GroupKey]:
    """The window groups a shard entry's engine block serves, in order."""
    return [
        (int(group["window"]), int(group["duration"]))
        for group in entry["engine"]["groups"]
    ]


def standalone_shards(document: Mapping) -> List[Dict]:
    """A router document's shard entries as standalone shard documents: each
    entry plus the query dicts its engine block names by id (what
    :meth:`StreamRouter.adopt` takes)."""
    by_id = {entry["query_id"]: entry for entry in document["queries"]}
    return [
        dict(entry, queries=[
            by_id[qid]
            for group in entry["engine"]["groups"]
            for qid in group["query_ids"]
        ])
        for entry in document["shards"]
    ]


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
        retain_matches: bool = True,
    ):
        queries = list(queries)
        self.method = MCOSMethod(method)
        self.batch_size = batch_size
        self.watermark = watermark
        self.enable_pruning = enable_pruning
        self.restrict_labels = restrict_labels
        self.retain_matches = retain_matches
        #: Ids of cancelled queries.  Tombstoned forever: an id is never
        #: reassigned, so a match drained after the cancellation point can
        #: never be attributed to the wrong query.
        self._cancelled: Set[int] = set()
        #: Every id a live or cancelled query holds (maintained, so a
        #: registration checks its id in O(1)).
        self._used_ids: Set[int] = set()
        #: Registered queries with router-global ids (assigned here so that a
        #: match's ``query_id`` means the same thing on every shard).
        self.queries: List[CNFQuery] = self._assign_ids(queries)
        self._groups: Dict[GroupKey, List[CNFQuery]] = group_queries_by_window(
            self.queries
        )
        self._shards: Dict[str, StreamShard] = {}
        #: Stream first-seen order, persistent across retirements: a stream
        #: whose shard was retired because every query was cancelled keeps
        #: its position (and re-grows a shard in place when a query
        #: arrives) — deriving order from live shards would silently
        #: reorder reports.  Detach *does* remove the stream: it departed
        #: to another owner.
        self._stream_order: Dict[str, None] = {}
        #: Streams handed off via :meth:`detach` and not adopted back.
        #: Routing to one raises instead of silently resurrecting an empty
        #: shard that would fork the stream's state.
        self._detached: Dict[str, None] = {}
        #: Cumulative ingest counters of every shard this router detached,
        #: frozen at detach time, so a hand-off does not make the departed
        #: shard's late-drop/duplicate/reorder counts vanish from
        #: :meth:`stats`.
        self._departed_totals: Dict = zero_ingest_totals()
        #: Per-stream frozen counters backing ``_departed_totals``: when a
        #: detached shard is adopted *back* (a round-trip hand-off, e.g.
        #: through a worker pool), its frozen contribution is reversed —
        #: the shard's live counters are in ``totals`` again, so leaving
        #: them in ``departed`` too would double-count.
        self._departed_by_stream: Dict[str, Dict] = {}
        #: Cumulative ingest counters of shards retired because every query
        #: was cancelled, frozen at retirement.  The same accounting rule
        #: as ``_departed_totals``: removing a shard must not make its
        #: late-drop/duplicate/reorder history vanish from :meth:`stats`.
        self._retired_totals: Dict = zero_ingest_totals()

    def _assign_ids(self, queries: Sequence[CNFQuery]) -> List[CNFQuery]:
        """Give every query a unique id, keeping any pre-assigned ones."""
        used = self._used_ids
        used.update(q.query_id for q in queries if q.query_id is not None)
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

        Includes streams whose shard was retired because every query was
        cancelled (they are still this router's streams and resume in
        place when a query returns); excludes streams detached to another
        owner.
        """
        return list(self._stream_order)

    def shards(self) -> Dict[str, StreamShard]:
        """Live shards keyed by stream id."""
        return dict(self._shards)

    def _group_queries(self, groups: Iterable[GroupKey]) -> List[CNFQuery]:
        """The queries of the given window groups, group by group; each
        group must be one this router serves."""
        queries: List[CNFQuery] = []
        for group in groups:
            members = self._groups.get(group)
            if members is None:
                raise CheckpointError(
                    f"cannot adopt a shard serving window group {group}: this "
                    f"router serves window groups {self.group_keys}"
                )
            queries += members
        return queries

    def shard_for(self, stream_id: str) -> StreamShard:
        """Return (creating if necessary) the shard of a stream."""
        if not self._groups:
            raise ValueError("no queries are registered on this router")
        if stream_id in self._detached:
            raise ValueError(
                f"stream {stream_id!r} was detached from this router; a new "
                "shard here would fork its state (adopt the checkpoint to "
                "resume it)"
            )
        shard = self._shards.get(stream_id)
        if shard is None:
            shard = StreamShard(
                stream_id,
                self._group_queries(self._groups),
                method=self.method,
                batch_size=self.batch_size,
                watermark=self.watermark,
                enable_pruning=self.enable_pruning,
                restrict_labels=self.restrict_labels,
                retain_matches=self.retain_matches,
            )
            self._shards[stream_id] = shard
        self._stream_order.setdefault(stream_id, None)
        return shard

    # ------------------------------------------------------------------
    # Live query lifecycle
    # ------------------------------------------------------------------
    def register_query(self, query: CNFQuery) -> CNFQuery:
        """Register a query on a (possibly live) router.

        The query is threaded into every live shard.  A query joining an
        existing window group widens that group's label projection
        mid-stream; one that starts a new group starts it on a fresh
        generator, from the next frame each stream's shard emits — its
        evaluation starts from the registration point (see the session
        layer for the warm-up watermark this implies).  Ids are never
        recycled: a query arriving without one is assigned the smallest id
        no live *or cancelled* query has used.
        """
        if self.enable_pruning:
            # Checked eagerly (not at lazy shard creation): the registration
            # call is the only sensible place for the caller to handle it.
            require_pruning_compatible(query)
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
        self.queries.append(query)
        self._groups.setdefault((query.window, query.duration), []).append(query)
        for shard in self._shards.values():
            shard.register_query(query)
        return query

    def cancel_query(self, query_id: int) -> CNFQuery:
        """Cancel a registered query by id (tombstoning the id forever).

        The query leaves every live shard — evaluator postings dropped,
        pruning and label projection re-derived from its group's survivors,
        undrained matches of the query discarded; a window group it empties
        leaves the shards' engines.  When the cancellation empties the
        whole workload, the shards are retired (their window state is
        released; their ingest counters are frozen into
        ``stats()["retired"]``) and the detached-stream tombstones are
        lifted — there is nothing left to adopt.
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
        else:
            del self._groups[group]
        if self._groups:
            for shard in self._shards.values():
                shard.cancel_query(query_id)
            return query
        retired = self._retired_totals
        for shard in self._shards.values():
            retired["shards"] += 1
            for field, value in self._freeze_ingest_stats(shard).items():
                retired[field] += value
        self._shards = {}
        self._detached = {}
        return query

    @property
    def cancelled_ids(self) -> List[int]:
        """Tombstoned (cancelled) query ids, ascending."""
        return sorted(self._cancelled)

    # ------------------------------------------------------------------
    # Hand-off introspection (the worker pool's supported surface)
    # ------------------------------------------------------------------
    def has_live_shards(self, stream_id: str) -> bool:
        """Whether the stream's shard is currently live here."""
        return stream_id in self._shards

    def detached_streams(self) -> List[str]:
        """Detached-stream tombstones: streams awaiting adoption (a copy;
        reflects lifts performed by cancellations)."""
        return list(self._detached)

    def departed_stream_snapshots(self) -> Dict[str, Dict]:
        """Frozen per-stream counters of shards detached from this router."""
        return {
            stream_id: dict(frozen)
            for stream_id, frozen in self._departed_by_stream.items()
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
        """Route one frame of one stream to its shard.

        Returns the matches produced by this call (across every window
        group of the stream's queries).
        """
        shard = self._shards.get(stream_id)
        if shard is None:
            # A new stream, or a detached one (which raises there).
            if not self._groups:
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
        order of :meth:`matches_for`.  Draining periodically (or
        constructing the router with ``retain_matches=False`` and consuming
        ``route``'s return values) keeps long-running memory bounded by the
        windows alone.
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
        sums the work counters of the shard's generators (``generator``)
        and of its window groups' evaluators (``evaluator``).
        """
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
        for stream_id in self._stream_order:
            shard = self._shards.get(stream_id)
            if shard is None:
                continue
            entry = shard.stats.as_dict()
            entry["queue_depth"] = shard.queue_depth
            entry["generator"] = shard.engine.generator_stats().as_dict()
            entry["evaluator"] = shard.engine.evaluation_stats().as_dict()
            per_shard[stream_id] = entry
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
            "streams": len(self._stream_order),
            "window_groups": len(self._groups),
            "shards": len(self._shards),
            "totals": totals,
            #: Counters of shards handed off via detach, frozen at detach
            #: time — kept separate from ``totals`` because the shard's live
            #: counters now accrue on whoever adopted it (summing both views
            #: across routers would double-count).
            "departed": departed,
            #: Counters of shards retired because every query was
            #: cancelled — frozen at retirement so history survives.
            "retired": retired,
            "per_shard": per_shard,
        }

    # ------------------------------------------------------------------
    # Checkpointing and hand-off
    # ------------------------------------------------------------------
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
            #: and group order decides match order within a frame, so it
            #: must survive restores exactly.
            "group_order": [list(group) for group in self._groups],
            "detached": list(self._detached) if include_detached else [],
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
        #: streams — see ``stream_ids``).
        document["stream_order"] = list(self._stream_order)
        document["departed_streams"] = [
            [stream_id, dict(frozen)]
            for stream_id, frozen in self._departed_by_stream.items()
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
        is built from the router's queries of its window groups, which the
        shard entry must name by id, in registration order.
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
        router._used_ids |= router._cancelled
        order = [(int(window), int(duration))
                 for window, duration in payload["group_order"]]
        if sorted(order) != sorted(router._groups):
            raise CheckpointError(
                f"router checkpoint group order {order} does not list the "
                f"window groups of its queries {list(router._groups)}"
            )
        router._groups = {group: router._groups[group] for group in order}
        for entry in payload["shards"]:
            groups = _entry_groups(entry)
            if groups != order:
                raise CheckpointError(
                    f"router checkpoint shard {entry['stream_id']!r} serves "
                    f"window groups {groups}, the router {order}"
                )
            router._adopt(entry, router._group_queries(groups))
        router._detached = {
            str(stream_id): None for stream_id in payload["detached"]
        }
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
        router._departed_by_stream = {
            str(stream_id): _frozen_counters(frozen)
            for stream_id, frozen in payload["departed_streams"]
        }
        return router

    @classmethod
    def from_bytes(cls, data: bytes) -> "StreamRouter":
        """Rebuild a router from canonical checkpoint bytes."""
        return cls.from_checkpoint(from_bytes(data, expect_kind="router"))

    def detach(self, stream_id: str) -> Dict:
        """Checkpoint and remove a stream's shard (a hand-off).

        The returned snapshot can be :meth:`adopt`-ed by another router —
        typically in another process — which resumes the stream exactly
        where this one left off.  Retained (produced-but-not-yet-drained)
        matches travel with the snapshot, so nothing is lost in the
        hand-off; matches already consumed via :meth:`drain_matches` are not
        replayed.  The shard's ingest counters freeze into the ``departed``
        accounting block, the stream leaves first-seen order, and a
        detached-stream tombstone is laid so a stray frame routed here
        fails loudly instead of forking state.
        """
        shard = self._shards.pop(stream_id, None)
        if shard is None:
            raise KeyError(f"no shard for stream {stream_id!r}")
        frozen = self._freeze_ingest_stats(shard)
        self._departed_by_stream[stream_id] = frozen
        departed = self._departed_totals
        departed["shards"] += 1
        for field, value in frozen.items():
            departed[field] += value
        self._stream_order.pop(stream_id, None)
        self._detached[stream_id] = None
        return shard.checkpoint()

    def adopt(self, shard_payload: Dict) -> StreamShard:
        """Restore a standalone shard document (:meth:`detach`,
        :meth:`StreamShard.checkpoint`) into this router.

        Every window group of the shard must be one this router serves,
        with exactly that group's query dicts (ids included — otherwise the
        shard would keep answering a foreign workload while ``queries`` and
        :meth:`matches_for` describe this router's, e.g. a different query
        under the same id), or one whose queries were all cancelled here
        since, which the shard then drops with its undrained matches.  The
        stream must have no live shard here.  The shard's engine is built
        from this router's own queries; groups registered here since the
        snapshot start on the stream as fresh groups do.
        """
        with reading("shard checkpoint"):
            stream_id = str(shard_payload["stream_id"])
            carried = list(shard_payload["queries"])
            queries: List[CNFQuery] = []
            cancelled: List[GroupKey] = []
            at = 0
            for block in shard_payload["engine"]["groups"]:
                group = (int(block["window"]), int(block["duration"]))
                dicts = carried[at:at + len(block["query_ids"])]
                at += len(dicts)
                members = self._groups.get(group)
                if members is not None:
                    if dicts != [query.to_dict() for query in members]:
                        raise CheckpointError(
                            f"cannot adopt shard {stream_id!r}: its queries do "
                            f"not match this router's window group {group}"
                        )
                    queries += members
                elif dicts and all(d["query_id"] in self._cancelled for d in dicts):
                    queries += [CNFQuery.from_dict(d) for d in dicts]
                    cancelled.append(group)
                else:
                    raise CheckpointError(
                        f"cannot adopt shard {stream_id!r}: this router serves "
                        f"window groups {self.group_keys}, not {group}"
                    )
            if at != len(carried) \
                    or len(cancelled) == len(shard_payload["engine"]["groups"]):
                raise CheckpointError(
                    f"cannot adopt shard {stream_id!r}: its queries do not "
                    "match this router's workload"
                )
        return self._adopt(shard_payload, queries, cancelled)

    def _adopt(
        self, shard_payload: Dict, queries: Sequence[CNFQuery],
        cancelled: Sequence[GroupKey] = (),
    ) -> StreamShard:
        """The adopt core: build the shard from ``queries`` (its groups', as
        the caller checked), drop the ``cancelled`` groups, start the
        router's other groups on it and install it on its stream."""
        stream_id = str(shard_payload["stream_id"])
        if stream_id in self._shards:
            raise CheckpointError(
                f"cannot adopt shard {stream_id!r}: the stream already has one"
            )
        shard = StreamShard.from_entry(shard_payload, queries)
        for group in cancelled:
            shard.remove_group(group)
        engine = shard.engine
        for group, members in self._groups.items():
            if group not in engine.group_keys:
                engine.add_group(group[0], group[1], members)
        engine.order_groups(self._groups)
        self._shards[stream_id] = shard
        self._stream_order.setdefault(stream_id, None)
        self._detached.pop(stream_id, None)
        frozen = self._departed_by_stream.pop(stream_id, None)
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
