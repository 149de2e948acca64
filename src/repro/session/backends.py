"""Backend adapters of the session facade.

A :class:`~repro.session.session.Session` talks to one serving architecture
through the small :class:`Backend` protocol; the three existing runtimes
adapt to it here:

* :class:`InlineBackend` — one
  :class:`~repro.engine.engine.TemporalVideoQueryEngine` per
  ``(stream, window-group)``, driven synchronously in-process.  No
  batching, no reorder buffer: the engine-semantics path, for notebooks,
  tests and single-feed tools.
* :class:`RouterBackend` — a :class:`~repro.streaming.router.StreamRouter`
  with batched ingest, watermark reordering and shard checkpoints.
* :class:`PoolBackend` — a
  :class:`~repro.streaming.pool.ShardWorkerPool` over a router: shards run
  in worker processes with crash recovery.

All three deliver matches through the same retained-until-drained contract
and report them in the same canonical order (stream first-seen order,
matches keyed by frame id crossed with group registration order), so a
workload driven through any backend produces byte-identical reports —
pinned by the differential suite.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple

from repro.datamodel.observation import FrameObservation
from repro.engine.config import EngineConfig, MCOSMethod
from repro.engine.engine import TemporalVideoQueryEngine
from repro.query.evaluator import QueryMatch, pack_matches, unpack_matches
from repro.query.model import CNFQuery
from repro.query.pruning import require_pruning_compatible
from repro.streaming.checkpoint import CheckpointError
from repro.streaming.pool import (
    PoolError,
    ShardWorkerPool,
    WorkerCrashError,
    parse_placement_block,
)
from repro.streaming.router import (
    StreamRouter,
    interleave_group_matches,
    zero_ingest_totals,
)

#: A window group key, as everywhere else in the runtime.
GroupKey = Tuple[int, int]


class Backend(abc.ABC):
    """What a serving architecture must provide to sit under a Session.

    Queries arrive with their session-assigned ids; matches are retained
    inside the backend until :meth:`drain` collects them.  ``flush`` forces
    buffered-but-unprocessed frames through (end-of-stream or barrier
    point); inline backends process synchronously and treat it as a no-op.
    """

    #: Name the backend is selected by (``Session(backend=...)``).
    kind: str = "abstract"

    @abc.abstractmethod
    def register(self, query: CNFQuery) -> None:
        """Thread a (possibly mid-stream) registration down the stack."""

    @abc.abstractmethod
    def cancel(self, query: CNFQuery) -> None:
        """Thread a cancellation down the stack (id is tombstoned above)."""

    @abc.abstractmethod
    def ingest(self, stream_id: str, frame: FrameObservation) -> None:
        """Feed one frame of one stream."""

    @abc.abstractmethod
    def flush(self) -> None:
        """Force any buffered frames through (barrier / end of stream)."""

    @abc.abstractmethod
    def drain(self) -> Dict[str, List[QueryMatch]]:
        """Collect and clear all retained matches, keyed by stream, in the
        canonical report order."""

    @abc.abstractmethod
    def matches_for(self, stream_id: str) -> List[QueryMatch]:
        """One stream's retained matches in canonical order (not cleared)."""

    @abc.abstractmethod
    def stats(self) -> Dict:
        """Backend-specific statistics (layout varies per backend)."""

    @abc.abstractmethod
    def checkpoint_payload(self) -> Dict:
        """JSON-friendly snapshot embedded in the session checkpoint."""

    def health(self) -> Dict[str, Dict]:
        """Per-stream health map (empty = the backend tracks no health).

        Backends with a failure domain (worker processes) report
        ``{stream_id: {"state": "healthy" | "parked", ...}}``; in-process
        backends have no partial-failure mode and report ``{}``.
        """
        return {}

    def repair(self) -> List[str]:
        """Re-adopt parked streams after degradation (no-op when the
        backend has no failure domain or nothing is parked)."""
        return []

    def grow(self, count: int = 1) -> List[int]:
        """Add workers to an elastic backend (pool only)."""
        raise PoolError(
            f"backend {self.kind!r} has a fixed in-process worker set and "
            "cannot grow; use the pool backend for elastic workers"
        )

    def shrink(self, count: int = 1) -> List[int]:
        """Retire workers from an elastic backend (pool only)."""
        raise PoolError(
            f"backend {self.kind!r} has a fixed in-process worker set and "
            "cannot shrink; use the pool backend for elastic workers"
        )

    def close(self) -> None:
        """Release resources (worker processes, window state)."""


class InlineBackend(Backend):
    """Dedicated engines per ``(stream, window-group)``, driven in-process.

    This is the session-shaped form of using
    :class:`TemporalVideoQueryEngine` directly: frames are evaluated
    synchronously at ingest (out-of-order frames raise, as the bare engine
    does), and matches accumulate per engine until drained.
    """

    kind = "inline"

    def __init__(
        self,
        method: MCOSMethod = MCOSMethod.SSG,
        enable_pruning: bool = False,
        restrict_labels: bool = True,
    ):
        self.method = MCOSMethod(method)
        self.enable_pruning = enable_pruning
        self.restrict_labels = restrict_labels
        #: Window groups in registration order (same retire/re-append
        #: semantics as the router's), each holding its live queries.
        self._groups: Dict[GroupKey, List[CNFQuery]] = {}
        #: Streams in first-seen order (first frame routed to any group).
        self._streams: Dict[str, None] = {}
        self._engines: Dict[Tuple[str, GroupKey], TemporalVideoQueryEngine] = {}
        self._retained: Dict[Tuple[str, GroupKey], List[QueryMatch]] = {}

    # -- lifecycle ------------------------------------------------------
    def register(self, query: CNFQuery) -> None:
        if self.enable_pruning:
            # Engines are created lazily per stream; validate here so the
            # registration call fails, not some later ingest.
            require_pruning_compatible(query)
        group = (query.window, query.duration)
        live_group = group in self._groups
        self._groups.setdefault(group, []).append(query)
        if live_group:
            for (_, engine_group), engine in self._engines.items():
                if engine_group == group:
                    engine.register_query(query)

    def cancel(self, query: CNFQuery) -> None:
        group = (query.window, query.duration)
        remaining = [
            q for q in self._groups[group] if q.query_id != query.query_id
        ]
        if remaining:
            self._groups[group] = remaining
            for slot, engine in self._engines.items():
                if slot[1] == group:
                    engine.cancel_query(query.query_id)
                    retained = self._retained[slot]
                    if retained:
                        self._retained[slot] = [
                            m for m in retained if m.query_id != query.query_id
                        ]
        else:
            # Last query of the group: retire its engines and their state.
            del self._groups[group]
            for slot in [s for s in self._engines if s[1] == group]:
                del self._engines[slot]
                del self._retained[slot]

    # -- ingest and results ---------------------------------------------
    def ingest(self, stream_id: str, frame: FrameObservation) -> None:
        for group, queries in self._groups.items():
            self._streams.setdefault(stream_id, None)
            slot = (stream_id, group)
            engine = self._engines.get(slot)
            if engine is None:
                window, duration = group
                engine = TemporalVideoQueryEngine(
                    queries,
                    EngineConfig(
                        method=self.method,
                        window_size=window,
                        duration=duration,
                        enable_pruning=self.enable_pruning,
                        restrict_labels=self.restrict_labels,
                    ),
                )
                self._engines[slot] = engine
                self._retained[slot] = []
            self._retained[slot].extend(engine.process_frame(frame, stream_id))

    def flush(self) -> None:
        """Inline evaluation is synchronous; nothing is ever buffered."""

    def matches_for(self, stream_id: str) -> List[QueryMatch]:
        return interleave_group_matches(
            self._retained.get((stream_id, group), ())
            for group in self._groups
        )

    def drain(self) -> Dict[str, List[QueryMatch]]:
        drained: Dict[str, List[QueryMatch]] = {}
        for stream_id in self._streams:
            matches = self.matches_for(stream_id)
            if matches:
                drained[stream_id] = matches
        for slot in self._retained:
            self._retained[slot] = []
        return drained

    # -- introspection and checkpointing --------------------------------
    def stats(self) -> Dict:
        per_engine = {}
        for stream_id in self._streams:
            for group in self._groups:
                engine = self._engines.get((stream_id, group))
                if engine is None:
                    continue
                window, duration = group
                per_engine[f"{stream_id}/w{window}d{duration}"] = {
                    "frames_processed": engine.frames_processed,
                    "result_states": engine.result_states,
                    "mcos_seconds": round(engine.mcos_seconds, 6),
                    "evaluation_seconds": round(engine.evaluation_seconds, 6),
                    "generator": engine.generator.stats.as_dict(),
                    "evaluator": engine.evaluator.stats.as_dict(),
                }
        return {
            "method": self.method.value,
            "engines": len(self._engines),
            "window_groups": len(self._groups),
            "per_engine": per_engine,
        }

    def checkpoint_payload(self) -> Dict:
        return {
            "groups": [
                [window, duration, [q.to_dict() for q in queries]]
                for (window, duration), queries in self._groups.items()
            ],
            "streams": list(self._streams),
            "engines": [
                [
                    stream_id,
                    [group[0], group[1]],
                    self._engines[(stream_id, group)].checkpoint(),
                    pack_matches(self._retained[(stream_id, group)]),
                ]
                for stream_id in self._streams
                for group in self._groups
                if (stream_id, group) in self._engines
            ],
        }

    @classmethod
    def restore(
        cls,
        payload: Dict,
        method: MCOSMethod = MCOSMethod.SSG,
        enable_pruning: bool = False,
        restrict_labels: bool = True,
        **_config,
    ) -> "InlineBackend":
        backend = cls(
            method=method,
            enable_pruning=enable_pruning,
            restrict_labels=restrict_labels,
        )
        try:
            for window, duration, queries in payload["groups"]:
                backend._groups[(int(window), int(duration))] = [
                    CNFQuery.from_dict(q) for q in queries
                ]
            for stream_id in payload["streams"]:
                backend._streams[str(stream_id)] = None
            for stream_id, group, engine_payload, retained in payload["engines"]:
                slot = (str(stream_id), (int(group[0]), int(group[1])))
                backend._engines[slot] = TemporalVideoQueryEngine.from_checkpoint(
                    engine_payload
                )
                backend._retained[slot] = unpack_matches(retained)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed inline-backend checkpoint: {exc!r}"
            ) from exc
        return backend


class RouterBackend(Backend):
    """The in-process sharded streaming runtime behind the session API."""

    kind = "router"

    def __init__(
        self,
        method: MCOSMethod = MCOSMethod.SSG,
        batch_size: int = 8,
        watermark: int = 0,
        enable_pruning: bool = False,
        restrict_labels: bool = True,
        router: Optional[StreamRouter] = None,
    ):
        self.router = router if router is not None else StreamRouter(
            [],
            method=method,
            batch_size=batch_size,
            watermark=watermark,
            enable_pruning=enable_pruning,
            restrict_labels=restrict_labels,
            retain_matches=True,
        )

    def register(self, query: CNFQuery) -> None:
        self.router.register_query(query)

    def cancel(self, query: CNFQuery) -> None:
        self.router.cancel_query(query.query_id)

    def ingest(self, stream_id: str, frame: FrameObservation) -> None:
        self.router.route(stream_id, frame)

    def flush(self) -> None:
        self.router.flush()

    def drain(self) -> Dict[str, List[QueryMatch]]:
        return self.router.drain_matches()

    def matches_for(self, stream_id: str) -> List[QueryMatch]:
        return self.router.matches_for(stream_id)

    def stats(self) -> Dict:
        return self.router.stats()

    def checkpoint_payload(self) -> Dict:
        return self.router.checkpoint()

    @classmethod
    def restore(cls, payload: Dict, **_config) -> "RouterBackend":
        return cls(router=StreamRouter.from_checkpoint(payload))


class PoolBackend(Backend):
    """The multiprocess shard worker pool behind the session API.

    The pool starts eagerly (workers spawn on construction) and stops
    gracefully on :meth:`close`, adopting all state back into its origin
    router.  Checkpoints are taken live through
    :meth:`ShardWorkerPool.checkpoint_router` — the pool keeps serving.
    """

    kind = "pool"

    def __init__(
        self,
        method: MCOSMethod = MCOSMethod.SSG,
        batch_size: int = 8,
        watermark: int = 0,
        enable_pruning: bool = False,
        restrict_labels: bool = True,
        num_workers: int = 2,
        dispatch_batch: int = 32,
        checkpoint_every: int = 8,
        placement: str = "round-robin",
        assignment: Optional[Dict[str, int]] = None,
        stream_frames: Optional[Dict[str, int]] = None,
        supervision: Optional[Dict] = None,
        degraded_mode: bool = True,
        first_seen: Optional[int] = None,
        auto_rebalance: Optional[Dict] = None,
        shared_memory: bool = False,
        router: Optional[StreamRouter] = None,
    ):
        if router is None:
            router = StreamRouter(
                [],
                method=method,
                batch_size=batch_size,
                watermark=watermark,
                enable_pruning=enable_pruning,
                restrict_labels=restrict_labels,
                retain_matches=True,
            )
        self.pool = ShardWorkerPool(
            router,
            num_workers=num_workers,
            dispatch_batch=dispatch_batch,
            checkpoint_every=checkpoint_every,
            placement=placement,
            assignment=assignment,
            stream_frames=stream_frames,
            supervision=supervision,
            # Sessions prefer staying up: an irrecoverable worker parks its
            # streams (per-stream health) instead of breaking the session.
            on_irrecoverable="park" if degraded_mode else "raise",
            first_seen=first_seen,
            auto_rebalance=auto_rebalance,
            shared_memory=shared_memory,
        )
        self.pool.start()

    def register(self, query: CNFQuery) -> None:
        self.pool.register_query(query)

    def cancel(self, query: CNFQuery) -> None:
        self.pool.cancel_query(query.query_id)

    def ingest(self, stream_id: str, frame: FrameObservation) -> None:
        self.pool.route(stream_id, frame)

    def flush(self) -> None:
        self.pool.flush()

    def drain(self) -> Dict[str, List[QueryMatch]]:
        return self.pool.drain_matches()

    def matches_for(self, stream_id: str) -> List[QueryMatch]:
        return self.pool.matches_for(stream_id)

    def stats(self) -> Dict:
        return self.pool.stats()

    def health(self) -> Dict[str, Dict]:
        return self.pool.stream_health()

    def repair(self) -> List[str]:
        """Repair a degraded pool (respawn parked workers, replay journal)."""
        return self.pool.repair()

    def grow(self, count: int = 1) -> List[int]:
        return self.pool.grow(count)

    def shrink(self, count: int = 1) -> List[int]:
        return self.pool.shrink(count)

    def checkpoint_payload(self) -> Dict:
        return self.pool.checkpoint_router()

    @classmethod
    def restore(
        cls,
        payload: Dict,
        num_workers: int = 2,
        dispatch_batch: int = 32,
        checkpoint_every: int = 8,
        placement: str = "round-robin",
        supervision: Optional[Dict] = None,
        degraded_mode: bool = True,
        auto_rebalance: Optional[Dict] = None,
        shared_memory: bool = False,
        **_config,
    ) -> "PoolBackend":
        # A checkpoint taken on a pool carries its placement block; honour
        # the persisted assignment and load history so the restored pool
        # reproduces the exact worker layout with its signals intact
        # (remapped deterministically when num_workers shrank, rejected
        # loudly for impossible layouts).  Checkpoints taken on other
        # backends have no block — streams are placed afresh by the
        # configured policy.
        block = parse_placement_block(payload)
        router = StreamRouter.from_checkpoint(payload)
        try:
            return cls(
                num_workers=num_workers,
                dispatch_batch=dispatch_batch,
                checkpoint_every=checkpoint_every,
                placement=placement,
                assignment=block.get("assignment"),
                stream_frames=block.get("stream_frames"),
                first_seen=block.get("first_seen"),
                supervision=supervision,
                degraded_mode=degraded_mode,
                auto_rebalance=auto_rebalance,
                shared_memory=shared_memory,
                router=router,
            )
        except WorkerCrashError:
            # A worker dying during start() is a *runtime* failure (OOM,
            # signals), not a judgement on the checkpoint — let it surface
            # as itself so diagnosis is not misdirected at the data.
            raise
        except PoolError as exc:
            # One validation implementation — the pool's own constructor
            # and start() (impossible layouts, uncovered load history).
            # In the restore path those judgements are about checkpoint
            # *data*, so they surface under the checkpoint contract rather
            # than as the PoolError direct streaming-layer users see.
            raise CheckpointError(
                f"invalid placement in pool checkpoint: {exc}"
            ) from exc

    def close(self) -> None:
        """Release worker processes, whatever state the pool is in.

        A healthy pool stops gracefully (state adopted back into the
        origin router); a degraded pool cannot — its parked journal has no
        process to replay into — so it is terminated; and any failure
        during the graceful path falls back to termination too.  Close
        never raises and never leaks a worker process.
        """
        if not self.pool.started:
            return
        if self.pool.degraded:
            self.pool.terminate()
            return
        try:
            self.pool.stop()
        except Exception:  # crash-path cleanup must still reap workers
            try:
                self.pool.terminate()
            except Exception:  # pragma: no cover - reaping is best-effort
                pass


#: Backend registry keyed by the ``Session(backend=...)`` selector.
BACKENDS = {
    InlineBackend.kind: InlineBackend,
    RouterBackend.kind: RouterBackend,
    PoolBackend.kind: PoolBackend,
}


# ----------------------------------------------------------------------
# Cross-backend state conversion
# ----------------------------------------------------------------------
#: Backends whose checkpoint state is a router-layout document.  Router and
#: pool checkpoints are mutually transparent: a pool's merged checkpoint IS
#: a router document (plus a ``placement`` block the router ignores), so a
#: restore across this pair needs no conversion at all.
_ROUTER_SHAPED = frozenset({RouterBackend.kind, PoolBackend.kind})


def convert_backend_state(
    source_kind: str,
    target_kind: str,
    state: Dict,
    config: Dict,
    active_queries: List[Dict],
    cancelled_ids: List[int],
    stream_frontiers: Dict[str, int],
    group_order: List[GroupKey],
) -> Dict:
    """Translate one backend's checkpoint state into another's.

    All three backends serialise down to the same primitives — engine
    checkpoints, retained-match records, window-group workloads — so a
    snapshot taken on any backend can resume on any other:

    * **router ⇄ pool** — byte-transparent (both are router-layout
      documents; the pool's extra ``placement`` block is ignored by the
      router and rebuilt by a fresh pool).
    * **inline → router/pool** — every per-(stream, group) engine becomes a
      shard with an empty reorder buffer whose emission frontier is the
      stream's ingest frontier; shard ingest counters are synthesised from
      the engine's frame count (inline evaluation is synchronous: one
      frame, one batch, nothing dropped or reordered).
    * **router/pool → inline** — every shard is restored and **flushed**
      (inline evaluation has no reorder buffer, so buffered frames are
      evaluated now, at the conversion barrier — matches land in the
      retained buffer) and its engine + retained matches become the inline
      slot.  Runtime-layer bookkeeping with no inline counterpart
      (departed/retired ingest counters, detached-stream tombstones) is
      dropped; converting back fills those blocks with zeros.

    ``active_queries`` / ``cancelled_ids`` come from the session registry —
    the inline backend does not track cancellations itself, but the router
    document must tombstone them so ids are never reused after a restore.
    """
    if source_kind == target_kind or (
        source_kind in _ROUTER_SHAPED and target_kind in _ROUTER_SHAPED
    ):
        return state
    if source_kind == InlineBackend.kind:
        return _router_state_from_inline(
            state, config, active_queries, cancelled_ids,
            stream_frontiers, group_order,
        )
    if target_kind == InlineBackend.kind:
        return _inline_state_from_router(state)
    raise CheckpointError(  # pragma: no cover - registry and kinds agree
        f"no conversion from {source_kind!r} to {target_kind!r}"
    )


def _router_state_from_inline(
    state: Dict,
    config: Dict,
    active_queries: List[Dict],
    cancelled_ids: List[int],
    stream_frontiers: Dict[str, int],
    group_order: List[GroupKey],
) -> Dict:
    """An inline-backend snapshot as a router-layout checkpoint document."""
    try:
        streams = [str(stream_id) for stream_id in state["streams"]]
        engines = {
            (str(stream_id), (int(group[0]), int(group[1]))):
                (engine_payload, retained)
            for stream_id, group, engine_payload, retained in state["engines"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"malformed inline-backend checkpoint: {exc!r}"
        ) from exc
    shards: List[Dict] = []
    for stream_id in streams:
        frontier = stream_frontiers.get(stream_id)
        for group in group_order:
            entry = engines.get((stream_id, group))
            if entry is None:
                continue
            engine_payload, retained = entry
            counters = engine_payload.get("counters", {})
            frames = int(counters.get("frames_processed", 0))
            seconds = round(
                float(counters.get("mcos_seconds", 0.0))
                + float(counters.get("evaluation_seconds", 0.0)),
                6,
            )
            shards.append({
                "key": {
                    "stream_id": stream_id,
                    "window": group[0],
                    "duration": group[1],
                },
                "batch_size": int(config["batch_size"]),
                "watermark": int(config["watermark"]),
                "retain_matches": True,
                # Inline evaluation is synchronous: everything ingested has
                # been evaluated, so the reorder buffer is empty and the
                # emission frontier is the stream's ingest frontier.
                "max_seen": frontier,
                "last_emitted": frontier,
                "pending": [],
                "retained": list(retained),
                "stats": {
                    "frames_ingested": frames,
                    "frames_processed": frames,
                    "dropped_late": 0,
                    "duplicates": 0,
                    "reordered": 0,
                    "batches": frames,
                    "max_queue_depth": 0,
                    "processing_seconds": seconds,
                    "frames_per_sec": round(frames / seconds, 2)
                    if seconds else 0.0,
                },
                "engine": engine_payload,
            })
    return {
        "method": str(config["method"]),
        "batch_size": int(config["batch_size"]),
        "watermark": int(config["watermark"]),
        "enable_pruning": bool(config["enable_pruning"]),
        "restrict_labels": bool(config["restrict_labels"]),
        "retain_matches": True,
        "queries": list(active_queries),
        "cancelled": sorted(cancelled_ids),
        "group_order": [list(group) for group in group_order],
        "detached": [],
        "shards": shards,
        # The single ingest-counter schema the router owns: a key added
        # there flows into converted documents automatically.
        "departed_totals": zero_ingest_totals(),
        "retired_totals": zero_ingest_totals(),
        "stream_order": streams,
        "departed_slots": [],
    }


def _inline_state_from_router(state: Dict) -> Dict:
    """A router-layout checkpoint as an inline-backend snapshot.

    Shards are restored and flushed — the inline backend evaluates
    synchronously and holds no reorder buffer, so frames still buffered in
    the snapshot are evaluated here, at the conversion barrier, and their
    matches join the retained buffer exactly as a pre-restore ``flush()``
    would have produced them.
    """
    from repro.streaming.shard import StreamShard

    try:
        queries = [CNFQuery.from_dict(q) for q in state["queries"]]
        group_order = [
            (int(window), int(duration))
            for window, duration in state["group_order"]
        ]
        stream_order = [str(stream_id) for stream_id in state["stream_order"]]
        shard_payloads = list(state["shards"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"malformed router checkpoint: {exc!r}"
        ) from exc
    by_group: Dict[GroupKey, List[CNFQuery]] = {}
    for query in queries:
        by_group.setdefault((query.window, query.duration), []).append(query)
    engines: Dict[Tuple[str, GroupKey], StreamShard] = {}
    for payload in shard_payloads:
        shard = StreamShard.from_checkpoint(payload)
        shard.flush()
        engines[(shard.key.stream_id, shard.key.group)] = shard
    return {
        "groups": [
            [window, duration, [q.to_dict() for q in by_group.get((window, duration), [])]]
            for window, duration in group_order
        ],
        "streams": stream_order,
        "engines": [
            [
                stream_id,
                [group[0], group[1]],
                engines[(stream_id, group)].engine.checkpoint(),
                pack_matches(engines[(stream_id, group)].matches),
            ]
            for stream_id in stream_order
            for group in group_order
            if (stream_id, group) in engines
        ],
    }
