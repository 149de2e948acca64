"""The client-facing session facade over the serving runtimes.

A :class:`Session` is the paper's service model as an API: a long-lived
object against which analysts *register* and *cancel* co-occurrence queries
while camera feeds keep flowing.  One facade subsumes the serving
architectures — the in-process sharded stream router (``"inline"`` is the
router with one-frame batches, evaluated synchronously at ingest) and the
multiprocess worker pool — behind identical semantics::

    from repro import Session, Q

    with Session(backend="router", method="SSG") as session:
        congestion = session.register(Q("car") >= 3, window=90, duration=60)
        for frame in feed.frames():
            session.ingest("cam-01", frame)
        session.flush()
        for match in congestion.matches():
            ...

Queries can be a fluent-builder expression (``Q("car") >= 2``), a text
expression (``"car >= 2 AND person >= 1"``) or a prebuilt
:class:`~repro.query.model.CNFQuery`; all normalise to the same canonical
form, which is also how duplicate registrations are detected.

Live lifecycle semantics
------------------------
Registration takes effect at each stream's *ingest frontier*: frames
ingested before the call are never evaluated against the new query.  For a
stream that already carried frames, results are guaranteed to match a
present-from-frame-0 run only from the **warm-up watermark** onward — one
full window past the registration frontier
(:meth:`QueryHandle.warmup_watermark`) — because states already inside the
window were built without the query's classes.  Cancellation tombstones the
query id forever, drops its evaluator postings and undelivered matches,
removes a window group it empties from every stream, and retires the
shards (releasing their window state) when it empties the workload.

Checkpoints (:meth:`Session.checkpoint` / :meth:`Session.restore`) embed
the full registry — active queries, cancelled ids, registration frontiers,
undelivered per-handle matches — alongside the backend state, in the same
versioned codec the streaming runtime uses, and can be taken on a *live*
pool (workers keep serving).

The session keeps no copy of the workload.  Its router (on ``"pool"`` the
origin router the workers were started from) holds the queries, one
evaluator per window group, and assigns ids: the smallest id no live or
cancelled query holds, which is the session's registration count because
ids are tombstoned forever.  Window-group order is the router's.

Threading contract
------------------
A session is **single-caller**: one thread drives it at a time, and every
layer below (engine frame ordering, shard batch buffers, the pool's op log
and flush barriers) assumes calls arrive serialized.  The contract is
*not* enforced with locks — two threads interleaving ``ingest`` would
corrupt per-stream frame order before any individual structure noticed.
To drive one session from many threads (or from an event loop, as
:mod:`repro.serve` does), route every call through a
:class:`~repro.session.dispatch.SessionDispatcher`, which owns the session
on one worker thread and executes submitted operations strictly in
submission order.
"""

from __future__ import annotations

import warnings
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.datamodel.observation import FrameObservation
from repro.engine.config import MCOSMethod
from repro.query.builder import QueryExpr
from repro.query.evaluator import QueryMatch, pack_matches, unpack_matches
from repro.query.model import (
    DEFAULT_DURATION,
    DEFAULT_WINDOW,
    CNFQuery,
    pack_queries,
    unpack_queries,
)
from repro.query.parser import parse_query
from repro.query.pruning import require_pruning_compatible
from repro.streaming.checkpoint import (
    CheckpointError,
    collector_paused,
    from_bytes,
    reading,
    to_bytes,
)
from repro.streaming.pool import PoisonOpError, ShardWorkerPool
from repro.streaming.router import StreamRouter

#: Everything :meth:`Session.register` accepts as a query.
QueryLike = Union[str, QueryExpr, CNFQuery]

#: The ``Session(backend=...)`` selectors.  ``"inline"`` and ``"router"``
#: serve frames from a :class:`StreamRouter` in process (``"inline"`` with
#: one-frame batches and no reorder window); ``"pool"`` hands its shards
#: to a :class:`ShardWorkerPool`.
_BACKENDS = ("inline", "router", "pool")

#: The ``config`` keys a session checkpoint carries: how the session serves,
#: not what it evaluates (the router document under ``state`` holds the
#: method, batching and engine options).  :meth:`Session.restore` keeps
#: only these, so a checkpoint that names a since-retired knob still
#: restores, and re-checkpoints without it.
_CONFIG_KEYS = ("backend", "num_workers", "dispatch_batch", "checkpoint_every")

#: Pool sizing knobs.  Every backend records them, because a checkpoint
#: taken on any backend may resume on the pool, so every backend checks
#: that each is a positive int.
_POOL_SIZING = ("num_workers", "dispatch_batch", "checkpoint_every")


def _check_pool_sizing(
    config: Dict, names: Tuple[str, ...] = _POOL_SIZING
) -> None:
    """Raise ``ValueError`` unless each knob ``names`` picks from
    ``config`` is a positive int."""
    for name in names:
        value = config[name]
        if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
            raise ValueError(f"{name} must be a positive int, got {value!r}")


class UnknownStreamError(KeyError):
    """A stream id that has never ingested a frame on this session.

    Raised by :meth:`Session.matches_for` uniformly across all three
    backends, so callers (the service tier's 404 path in particular) can
    tell "no such stream" from "a known stream with no retained matches"
    without backend-specific probing.
    """

    def __init__(self, stream_id: str):
        super().__init__(stream_id)
        self.stream_id = stream_id

    def __str__(self) -> str:
        return (
            f"unknown stream {self.stream_id!r}: no frame of this stream "
            "has been ingested on this session"
        )


class QueryHandle:
    """A registered query's lifecycle handle.

    Handles are returned by :meth:`Session.register` and stay valid for the
    session's lifetime: :meth:`matches` accumulates the query's results
    (across all streams, in drain order), :meth:`cancel` retires the query,
    and :meth:`warmup_watermark` reports the frame id from which results on
    a given stream are guaranteed to equal a present-from-frame-0 run.
    """

    __slots__ = (
        "_session", "query", "_registered_at", "_matches", "_active",
        "_faults",
    )

    def __init__(
        self,
        session: "Session",
        query: CNFQuery,
        registered_at: Dict[str, int],
    ):
        self._session = session
        #: The registered query, canonical form, carrying its assigned id.
        self.query = query
        self._registered_at = registered_at
        self._matches: List[QueryMatch] = []
        self._active = True
        #: Backend faults observed while this query was active (see
        #: :meth:`faults`).
        self._faults: List[Dict] = []

    # -- identity -------------------------------------------------------
    @property
    def query_id(self) -> int:
        """The session-assigned (never recycled) query id."""
        return self.query.query_id

    @property
    def name(self) -> str:
        """The query's optional human-readable name."""
        return self.query.name

    @property
    def active(self) -> bool:
        """False once the query has been cancelled."""
        return self._active

    # -- results --------------------------------------------------------
    def matches(self) -> List[QueryMatch]:
        """All matches delivered for this query so far.

        Pulls freshly produced matches from the backend first (unless the
        session is closed, in which case the already-delivered buffer is
        returned) — on ``pool`` the matches that have arrived, which may
        lag the latest frames by one drain (see :meth:`Session.drain`).
        The list accumulates in drain order and is a copy — mutating it
        does not affect the handle.

        The buffer grows with the query's total match count; a long-running
        service that polls forever should consume via :meth:`take_matches`
        (or the per-stream :meth:`Session.drain`) to keep memory bounded by
        the polling interval instead.
        """
        if not self._session.closed:
            self._session.drain()
        return list(self._matches)

    def take_matches(self) -> List[QueryMatch]:
        """Like :meth:`matches`, but transfers ownership: the handle's
        buffer is cleared, so repeated calls see each match exactly once
        and handle memory stays bounded by the polling interval."""
        taken = self.matches()
        self._matches = []
        return taken

    def faults(self) -> List[Dict]:
        """Backend faults observed while this query was active.

        Each record is the session-level fault dict (``kind`` from the
        pool's failure taxonomy, the affected ``streams``, a ``detail``
        message) — a per-query view of the same events
        ``Session.stats()["faults"]`` reports pool-wide.  A non-empty list
        means matches on the named streams may be missing or delayed; an
        empty list means every delivered match carries the usual
        exactly-once guarantee.
        """
        return [dict(fault) for fault in self._faults]

    def cancel(self) -> None:
        """Cancel this query on the session (see :meth:`Session.cancel`)."""
        self._session.cancel(self)

    # -- warm-up --------------------------------------------------------
    def warmup_watermark(self, stream_id: str) -> Optional[int]:
        """First frame id of ``stream_id`` with full-history guarantees.

        ``None`` when the stream had no frames before this query was
        registered — the query saw the stream's whole history, so every
        match is already equivalent to a from-frame-0 run.  Otherwise the
        registration frontier plus one window: matches at or beyond this
        frame id are produced from windows that lie entirely after the
        registration point.
        """
        frontier = self._registered_at.get(stream_id)
        if frontier is None:
            return None
        return frontier + self.query.window

    def warmup_watermarks(self) -> Dict[str, int]:
        """Per-stream warm-up watermarks for streams live at registration."""
        return {
            stream_id: frontier + self.query.window
            for stream_id, frontier in self._registered_at.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "active" if self._active else "cancelled"
        return (
            f"QueryHandle(id={self.query_id}, {state}, "
            f"query={str(self.query)!r})"
        )


class Session:
    """One backend-agnostic facade over engine, router and pool serving.

    Parameters
    ----------
    backend:
        ``"inline"`` (the sharded in-process streaming runtime with
        one-frame batches and no reorder window: each frame is evaluated
        synchronously at ingest), ``"router"`` (the same runtime, batched
        and reordering) or ``"pool"`` (multiprocess shard workers; spawned
        eagerly).
    method:
        MCOS state-maintenance strategy (name or
        :class:`~repro.engine.config.MCOSMethod`).
    batch_size / watermark:
        Shard ingest batching and out-of-order tolerance (router and pool
        backends; ``"inline"`` serves with ``1`` / ``0`` whatever is
        passed, and its checkpoints carry those).
        A frame that arrives after its slot was evaluated is dropped and
        counted in ``stats()["backend_stats"]["totals"]["dropped_late"]``,
        a repeat of the last evaluated frame in ``"duplicates"``.
    enable_pruning / restrict_labels:
        The engine-level optimisations, applied uniformly.
    num_workers / dispatch_batch / checkpoint_every:
        Worker pool sizing and cadence.  Only the pool backend uses them,
        but every backend records them (a checkpoint may resume on a pool),
        so each must be a positive int everywhere.  The k-th stream the
        session sees lives on pool worker ``k mod num_workers``.  The pool
        has one failure policy, with no settings: a worker that exhausts
        its restart budget *parks* its streams — the session stays up, the
        remaining streams keep serving byte-identical results, and
        :meth:`stream_health` / ``stats()["stream_health"]`` report the
        parked streams until :meth:`repair`.
    queries:
        Optional initial workload; each entry is registered as if passed to
        :meth:`register`.
    """

    def __init__(
        self,
        backend: str = "inline",
        *,
        method: Union[str, MCOSMethod] = MCOSMethod.SSG,
        batch_size: int = 8,
        watermark: int = 0,
        enable_pruning: bool = False,
        restrict_labels: bool = True,
        num_workers: int = 2,
        dispatch_batch: int = 32,
        checkpoint_every: int = 8,
        queries: Iterable[QueryLike] = (),
    ):
        if backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose one of "
                f"{sorted(_BACKENDS)}"
            )
        if backend == "inline":
            # The router with one-frame batches and no reorder window.
            batch_size, watermark = 1, 0
        self._config = {
            "backend": backend,
            "num_workers": num_workers,
            "dispatch_batch": dispatch_batch,
            "checkpoint_every": checkpoint_every,
        }
        _check_pool_sizing(self._config)
        self._init_registry()
        self._start_runtime(StreamRouter(
            [],
            method=MCOSMethod(method),
            batch_size=int(batch_size),
            watermark=int(watermark),
            enable_pruning=bool(enable_pruning),
            restrict_labels=bool(restrict_labels),
        ))
        try:
            for query in queries:
                self.register(query)
        except BaseException:
            # The pool backend spawns worker processes eagerly; a rejected
            # initial query must not leak them.
            self._closed = True
            self._stop_pool()
            raise

    def _init_registry(self) -> None:
        self._handles: Dict[int, QueryHandle] = {}
        #: The active handles keyed by their query (structural equality:
        #: same clauses, window and duration), so a duplicate registration
        #: is one lookup, not a scan of the workload.  ``None`` after a
        #: restore until a registration needs it (:meth:`_active_queries`).
        self._active: Optional[Dict[CNFQuery, QueryHandle]] = {}
        self._delivered: Dict[int, int] = {}
        #: Per-stream ingest frontier (highest frame id) and frame counts,
        #: in first-seen order — the session-level truth that warm-up
        #: watermarks and deterministic stats are derived from.
        self._frontiers: Dict[str, int] = {}
        self._frames: Dict[str, int] = {}
        #: True when the backend may hold undrained matches (frames were
        #: ingested or flushed since the last drain, or on ``pool`` matches
        #: were still on their way at the last drain).  Lets ``drain`` —
        #: and therefore every ``handle.matches()`` poll — skip the backend
        #: when nothing can be pending.
        self._dirty = False
        self._closed = False
        #: Backend faults observed over the session's lifetime (poison
        #: quarantines, parked streams, crashes) — deterministic records,
        #: mirrored into the handles that were active when they happened.
        self._faults: List[Dict] = []
        #: Health fault keys already recorded, so a parked stream is
        #: reported once, not once per drain.
        self._seen_health_faults: set = set()
        #: Final ``stats()`` snapshot taken by :meth:`close` — keeps
        #: ``stats()`` readable on a closed session, including one that
        #: went down broken or degraded.
        self._final_stats: Optional[Dict] = None

    def _start_runtime(self, router: StreamRouter) -> None:
        """Serve frames from ``router``, or on ``"pool"`` from a started
        worker pool it hands its shards to.

        ``_router`` keeps the workload either way (it assigns query ids
        and holds ``queries``); ``_runtime`` is whichever of the two serves
        frames, and takes the verbs they share.
        """
        config = self._config
        self._router = router
        self._pool: Optional[ShardWorkerPool] = None
        if config["backend"] == "pool":
            self._pool = ShardWorkerPool(
                router,
                num_workers=config["num_workers"],
                dispatch_batch=config["dispatch_batch"],
                checkpoint_every=config["checkpoint_every"],
            ).start()
        self._runtime: Union[StreamRouter, ShardWorkerPool] = (
            router if self._pool is None else self._pool
        )

    def _stop_pool(self) -> None:
        """Release the worker processes, whatever state the pool is in.

        A healthy pool stops gracefully (the workers' final checkpoints
        merge into one router); a degraded pool cannot — its parked journal
        has no process to replay into — so it is terminated; and any
        failure during the graceful path falls back to termination too.
        Never raises and never leaks a worker process.
        """
        pool = self._pool
        if pool is None or not pool.started:
            return
        if pool.degraded:
            pool.terminate()
            return
        try:
            pool.stop()
        except Exception:  # crash-path cleanup must still reap workers
            try:
                pool.terminate()
            except Exception:  # pragma: no cover - reaping is best-effort
                pass

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backend_kind(self) -> str:
        """Which serving architecture the session runs on."""
        return self._config["backend"]

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    @property
    def handles(self) -> List[QueryHandle]:
        """Every handle ever registered, in registration order."""
        return list(self._handles.values())

    @property
    def queries(self) -> List[CNFQuery]:
        """The active queries, in registration order."""
        return [h.query for h in self._handles.values() if h.active]

    def handle(self, query_id: int) -> QueryHandle:
        """Look up a handle by its query id."""
        return self._handles[query_id]

    def stream_ids(self) -> List[str]:
        """Streams that have ingested at least one frame, first-seen order."""
        return list(self._frontiers)

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------
    def register(
        self,
        query: QueryLike,
        *,
        window: Optional[int] = None,
        duration: Optional[int] = None,
        name: Optional[str] = None,
    ) -> QueryHandle:
        """Register a query (text, builder expression or ``CNFQuery``).

        ``window`` / ``duration`` / ``name`` override or supply the temporal
        parameters and label; a prebuilt ``CNFQuery`` keeps its own unless
        overridden.  The query is normalised to canonical form, checked
        against the active workload for duplicates (structural equality —
        same clauses, window and duration), assigned a fresh id, and
        threaded down to the backend: on streams already flowing it joins
        mid-stream with the warm-up guarantee documented on
        :meth:`QueryHandle.warmup_watermark`.

        Registration is a **barrier**: frames still buffered inside the
        backend (batch and reorder buffers of the router/pool shards) are
        forced through first, under the pre-registration workload — so
        "frames ingested before the call are never evaluated against the
        new query" holds on every backend, byte-identically.  On a
        ``watermark > 0`` backend the barrier also advances each shard's
        emission frontier to its highest buffered frame id: jittered
        frames still in flight *across* the barrier arrive behind that
        frontier and are dropped as late — schedule lifecycle changes at
        quiet points on heavily reordered feeds.
        """
        self._require_open()
        normalized = self._coerce_query(query, window, duration, name)
        active = self._active_queries().get(normalized)
        if active is not None:
            raise ValueError(
                f"duplicate registration: query {str(normalized)!r} "
                f"(window={normalized.window}, "
                f"duration={normalized.duration}) is already active as "
                f"id {active.query_id}"
            )
        if self._router.enable_pruning:
            # Validated here, before the flush barrier below runs: a
            # rejected registration must not mutate stream processing
            # state (the flush advances shard emission frontiers).
            require_pruning_compatible(normalized)
        # The barrier: evaluate everything already ingested under the old
        # workload before the new query can see any state.
        self._runtime.flush()
        self._dirty = True
        # The router assigns the id.
        registered = self._runtime.register_query(normalized)
        handle = QueryHandle(self, registered, dict(self._frontiers))
        self._handles[registered.query_id] = handle
        self._active_queries()[registered] = handle
        self._delivered[registered.query_id] = 0
        return handle

    def _active_queries(self) -> Dict[CNFQuery, QueryHandle]:
        """The active handles keyed by query, built on first use after a
        restore: hashing a query canonicalises it, which a restore of a
        large workload would otherwise pay up front for every query."""
        if self._active is None:
            self._active = {
                handle.query: handle
                for handle in self._handles.values() if handle.active
            }
        return self._active

    def cancel(self, handle_or_id: Union[QueryHandle, int]) -> None:
        """Cancel a registered query.

        Cancellation is a **barrier**, mirroring :meth:`register` (the
        same watermark caveat applies): frames already ingested but still
        buffered are forced through first (the query was live when they
        arrived, so their matches are produced) and drained into the
        handles — they remain readable through
        :meth:`QueryHandle.matches`.  Everything after the cancellation
        point is dropped, the id is tombstoned forever, and window state
        held purely on the query's behalf is released.
        """
        self._require_open()
        handle = (
            handle_or_id
            if isinstance(handle_or_id, QueryHandle)
            else self._handles[handle_or_id]
        )
        if handle._session is not self:
            raise ValueError("the handle belongs to a different session")
        if not handle.active:
            raise ValueError(
                f"query {handle.query_id} has already been cancelled"
            )
        self._runtime.flush()
        self._dirty = True
        self.drain()
        self._runtime.cancel_query(handle.query_id)
        handle._active = False
        if self._active is not None:
            del self._active[handle.query]

    # ------------------------------------------------------------------
    # Ingest and results
    # ------------------------------------------------------------------
    def ingest(self, stream_id: str, frame: FrameObservation) -> None:
        """Feed one frame of one stream to every active window group."""
        self._require_open()
        self._runtime.route(stream_id, frame)
        self._dirty = True
        frontier = self._frontiers.get(stream_id)
        if frontier is None or frame.frame_id > frontier:
            self._frontiers[stream_id] = frame.frame_id
        self._frames[stream_id] = self._frames.get(stream_id, 0) + 1

    def ingest_many(
        self, events: Iterable[Tuple[str, FrameObservation]]
    ) -> None:
        """Feed a ``(stream_id, frame)`` event sequence."""
        for stream_id, frame in events:
            self.ingest(stream_id, frame)

    def flush(self) -> None:
        """Force buffered frames through every backend shard (barrier)."""
        self._require_open()
        self._runtime.flush()
        self._dirty = True

    def drain(self) -> Dict[str, List[QueryMatch]]:
        """Collect all newly produced matches, keyed by stream.

        Matches are simultaneously delivered into their queries' handles
        (:meth:`QueryHandle.matches`), so both access patterns — by stream
        and by query — see every result exactly once in the same canonical
        order.

        On ``inline`` and ``router`` a drain returns every match produced
        so far.  On ``pool`` it returns the matches that have arrived from
        the workers and waits only for the frames dispatched before the
        previous drain, so the workers keep running while the caller
        ingests; later drains deliver the rest, each match exactly once.
        :meth:`flush` is the barrier: a drain right after it returns
        everything, as on the other backends.

        Faults surface here, attributed per query instead of as one
        opaque pool-wide failure: a quarantined poison operation is
        recorded into ``stats()["faults"]`` and every active handle's
        :meth:`QueryHandle.faults`, then the drain *continues* — the
        healthy remainder is delivered.  Streams parked with a worker that
        exhausted its restart budget are recorded as faults the same way,
        without raising.
        """
        self._require_open()
        if not self._dirty:
            return {}
        try:
            drained = self._runtime.drain_matches()
        except PoisonOpError as exc:
            self._record_fault({
                "kind": "poison",
                "streams": sorted({
                    str(stream_id)
                    for record in exc.records
                    for stream_id in record.get("streams", ())
                }),
                "detail": str(exc),
                "records": [dict(record) for record in exc.records],
            })
            # The poison op is already quarantined; the rest of the drain
            # is healthy and must still be delivered.
            drained = self._runtime.drain_matches()
        self._dirty = self._pool is not None and not self._pool.settled
        self._observe_health_faults()
        for matches in drained.values():
            for match in matches:
                handle = self._handles.get(match.query_id)
                if handle is not None:
                    handle._matches.append(match)
                    self._delivered[match.query_id] += 1
        return drained

    def matches_for(self, stream_id: str) -> List[QueryMatch]:
        """One stream's retained (not yet drained) matches, canonical order.

        A stream id that has never ingested a frame raises
        :class:`UnknownStreamError` (a ``KeyError``) — identically on all
        three backends, which each used to answer with whatever their
        internals happened to do.  A *known* stream with nothing retained
        returns ``[]``.
        """
        self._require_open()
        if stream_id not in self._frontiers:
            raise UnknownStreamError(stream_id)
        return self._runtime.matches_for(stream_id)

    def _record_fault(self, fault: Dict) -> None:
        """Append a fault record session-wide and to every active handle."""
        self._faults.append(dict(fault))
        for handle in self._handles.values():
            if handle.active:
                handle._faults.append(dict(fault))

    def _observe_health_faults(self) -> None:
        """Record newly unhealthy streams (degraded mode parks silently)."""
        if self._pool is None:
            return
        for stream_id, record in self._pool.stream_health().items():
            state = record.get("state", "healthy")
            if state == "healthy":
                continue
            key = (str(stream_id), str(state), str(record.get("kind", "")))
            if key in self._seen_health_faults:
                continue
            self._seen_health_faults.add(key)
            self._record_fault({
                "kind": str(record.get("kind") or state),
                "streams": [str(stream_id)],
                "detail": str(
                    record.get("reason")
                    or f"stream {stream_id!r} is {state}"
                ),
            })

    def stream_health(self) -> Dict[str, Dict]:
        """Per-stream health, for every stream that has ingested frames.

        ``{"state": "healthy"}`` normally; a stream parked by a degraded
        pool reports ``{"state": "parked", "kind": ..., "reason": ...}``
        with the failure kind of the worker that took it down.  In-process
        backends have no partial-failure domain, so every stream is always
        healthy — which keeps this map (and its copy in ``stats()``)
        backend-invariant on fault-free runs.
        """
        self._require_open()
        return self._stream_health()

    def _stream_health(self) -> Dict[str, Dict]:
        health: Dict[str, Dict] = {}
        if self._pool is not None:
            try:
                health = self._pool.stream_health()
            except Exception:  # a broken pool must not take stats() with it
                pass
        out: Dict[str, Dict] = {}
        for stream_id in self._frontiers:
            record = health.get(stream_id)
            if record is None or record.get("state", "healthy") == "healthy":
                out[stream_id] = {"state": "healthy"}
                continue
            entry = {"state": str(record["state"])}
            for key in ("kind", "reason"):
                if record.get(key):
                    entry[key] = str(record[key])
            out[stream_id] = entry
        return out

    def repair(self) -> List[str]:
        """Re-adopt the parked streams of a degraded pool backend.

        Respawns the parked workers and replays their journals (checkpoint
        plus every operation since); once the cause of death is gone the
        revived streams resume exactly where they parked.  Returns the
        revived stream ids (empty when nothing was parked — including on
        backends with no failure domain).  Parked-stream fault records
        stay in :meth:`stats` history; health reporting returns to
        ``"healthy"``.
        """
        self._require_open()
        revived = [] if self._pool is None else self._pool.repair()
        if revived:
            self._dirty = True
            # A repaired stream that parks again is a new fault; re-arm
            # its health-fault key.
            self._seen_health_faults.clear()
        return revived

    def stats(self) -> Dict:
        """Session statistics: a deterministic, backend-independent core
        plus the raw backend report under ``"backend_stats"``.

        The core — queries, groups, per-stream frame counts and frontiers,
        per-query delivery counts, per-stream health, the fault history —
        is a pure function of the API call sequence (plus any faults the
        backend suffered; none on a fault-free run), so a workload driven
        through any backend must agree on it byte for byte (pinned by the
        differential suite).

        On a closed session the final snapshot taken by :meth:`close` is
        returned — including for a session that went down broken or
        degraded, where ``"faults"`` records what happened and
        ``"backend_stats"`` is ``None`` if the backend could no longer
        report.
        """
        if self._closed and self._final_stats is not None:
            return dict(self._final_stats)
        self._require_open()
        stats = self._stats_core()
        stats["backend_stats"] = self._runtime.stats()
        return stats

    def _stats_core(self) -> Dict:
        return {
            "backend": self.backend_kind,
            "queries": [
                [
                    qid,
                    {
                        "name": handle.query.name,
                        "window": handle.query.window,
                        "duration": handle.query.duration,
                        "active": handle.active,
                        "delivered": self._delivered.get(qid, 0),
                    },
                ]
                for qid, handle in self._handles.items()
            ],
            "window_groups": [list(group) for group in self._router.group_keys],
            "streams": [
                [
                    stream_id,
                    {
                        "frames": self._frames[stream_id],
                        "frontier": self._frontiers[stream_id],
                    },
                ]
                for stream_id in self._frontiers
            ],
            "stream_health": self._stream_health(),
            "faults": [dict(fault) for fault in self._faults],
        }

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    @collector_paused()
    def checkpoint(self) -> bytes:
        """Snapshot the whole session as versioned checkpoint bytes.

        Self-contained: configuration, the full query registry (active and
        cancelled, with registration frontiers and undelivered per-handle
        matches) and the backend state.  Pool-backed sessions snapshot
        *live* — workers keep serving.  Restoring yields a session that
        re-checkpoints byte-identically until new frames arrive.

        The registry is a table of columns, one row per handle: its query
        id, delivered count, undelivered matches and registration
        frontiers.  An active handle's query is in the backend's router
        document; the cancelled handles' queries, which no router holds
        any more, are the registry's own ``cancelled`` query table.  A
        handle registered at the frontiers of the streams seen so far, the
        first streams of ``streams``, so its row holds the frontiers
        alone.
        """
        self._require_open()
        handles = list(self._handles.values())
        payload = {
            "config": dict(self._config),
            "registry": {
                "ids": list(self._handles),
                "cancelled": pack_queries(
                    handle.query for handle in handles if not handle.active
                ),
                "delivered": [
                    self._delivered.get(query_id, 0)
                    for query_id in self._handles
                ],
                "matches": [pack_matches(handle._matches) for handle in handles],
                "registered_at": [
                    list(handle._registered_at.values()) for handle in handles
                ],
            },
            "streams": [
                [stream_id, self._frontiers[stream_id], self._frames[stream_id]]
                for stream_id in self._frontiers
            ],
            "state": (
                self._router.checkpoint() if self._pool is None
                else self._pool.checkpoint_router()
            ),
        }
        return to_bytes("session", payload)

    @classmethod
    @collector_paused()
    def restore(
        cls,
        data: bytes,
        *,
        backend: Optional[str] = None,
        num_workers: Optional[int] = None,
    ) -> "Session":
        """Rebuild a session from checkpoint bytes — on *any* backend.

        By default the session resumes on the backend kind it was
        checkpointed on.  Pass ``backend=`` to resume the same state on a
        different serving architecture: every backend checkpoints the same
        router-layout document, so a snapshot taken on ``inline``,
        ``router`` or ``pool`` restores onto any of the three unchanged and
        re-exports byte-identically.  The runtime is built from that router
        document alone: it holds the method, the engine options and the
        batching, so an ``inline`` snapshot resumes with one-frame batches
        on any backend, and a ``router`` snapshot keeps its batch size and
        watermark on ``inline``.  The session ``config`` holds only how the
        session serves: the backend and the pool sizing.

        ``num_workers`` overrides the pool sizing of the restored session
        (useful when resuming a pool snapshot on differently-sized
        hardware); stream k then lives on worker ``k mod num_workers``.
        A pool sizing knob that is not a positive int raises
        ``ValueError`` when passed here and :class:`CheckpointError` when
        read from the checkpoint.
        """
        if backend is not None and backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose one of "
                f"{sorted(_BACKENDS)}"
            )
        if num_workers is not None:
            # Eager, like the backend override: a bad value here is an
            # argument error, not a corrupt checkpoint (CheckpointError).
            _check_pool_sizing({"num_workers": num_workers}, ("num_workers",))
        payload = from_bytes(data, expect_kind="session")
        with reading("session checkpoint"):
            config = {
                key: value for key, value in dict(payload["config"]).items()
                if key in _CONFIG_KEYS
            }
            source_kind = config["backend"]
            if source_kind not in _BACKENDS:
                raise ValueError(
                    f"checkpoint names unknown backend {source_kind!r}"
                )
            if backend is not None:
                config["backend"] = backend
            if num_workers is not None:
                config["num_workers"] = num_workers
            _check_pool_sizing(config)
            session = cls.__new__(cls)
            session._config = config
            session._init_registry()
            # The pool layout is re-derived from the document's stream
            # order for this session's worker count; nothing about it is
            # persisted.
            session._start_runtime(
                StreamRouter.from_checkpoint(payload["state"])
            )
            try:
                session._restore_registry(payload)
            except BaseException:
                # The pool backend spawns worker processes eagerly; a
                # malformed registry after the backend is built must not
                # leak them (same guard as a rejected initial query in
                # __init__).
                session._closed = True
                session._stop_pool()
                raise
        return session

    def _restore_registry(self, payload: Dict) -> None:
        """The registry half of :meth:`restore`, on the restored backend:
        a handle whose id is no row of the ``cancelled`` table is active
        and resolves its id against the backend's queries."""
        registry = payload["registry"]
        ids, delivered, matches, registered_at = [
            registry[key]
            for key in ("ids", "delivered", "matches", "registered_at")
        ]
        for key, column in (
            ("delivered", delivered), ("matches", matches),
            ("registered_at", registered_at),
        ):
            if len(column) != len(ids):
                raise CheckpointError(
                    f"session registry column {key!r} has {len(column)} "
                    f"entries, column 'ids' has {len(ids)}"
                )
        if len(set(ids)) != len(ids):
            raise CheckpointError("session registry column 'ids' repeats an id")
        for stream_id, frontier, frames in payload["streams"]:
            self._frontiers[str(stream_id)] = int(frontier)
            self._frames[str(stream_id)] = int(frames)
        streams = list(self._frontiers)
        if max(map(len, registered_at), default=0) > len(streams):
            raise CheckpointError(
                "session registry column 'registered_at' holds more "
                f"frontiers than the {len(streams)} streams"
            )
        cancelled = {
            query.query_id: query
            for query in unpack_queries(registry["cancelled"])
        }
        if not cancelled.keys() <= set(ids):
            raise CheckpointError(
                "session registry table 'cancelled' holds a query no handle "
                "names"
            )
        registered = {query.query_id: query for query in self._router.queries}
        self._active = None
        for query_id, frontiers, handle_matches, handle_delivered in zip(
            ids, registered_at, matches, delivered
        ):
            query = cancelled.get(query_id)
            active = query is None
            if active:
                query = registered.get(query_id)
                if query is None:
                    raise CheckpointError(
                        f"session checkpoint names active query "
                        f"{query_id!r}, which its backend state does not hold"
                    )
            handle = QueryHandle(
                self, query, dict(zip(streams, map(int, frontiers)))
            )
            handle._active = active
            handle._matches = unpack_matches(handle_matches)
            self._handles[query_id] = handle
            self._delivered[query_id] = int(handle_delivered)
        # The restored backend may carry retained matches from the
        # snapshot; the first drain must reach it.
        self._dirty = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the session down (idempotent).

        The buffered tail of every stream is flushed through and the
        produced matches are pulled into their handles, so
        :meth:`QueryHandle.matches` keeps working on a closed session and
        every ingested frame was evaluated, whatever the batching.  Then
        the backend releases its resources (a pool stops gracefully,
        taking each worker's final checkpoint before its process exits).

        Close **never raises**, whatever state the backend is in: on a
        pool broken by a worker that raised inside an operation, or one
        with parked streams, it drains what is drainable, records the
        failure into the final :meth:`stats` snapshot (readable after
        close) and each handle's :meth:`QueryHandle.faults`, and always
        releases the worker processes — escalating a stuck shutdown to
        termination rather than leaking them.
        """
        if self._closed:
            return
        try:
            self._runtime.flush()
            self._dirty = True
            self.drain()
        except Exception as exc:
            # Closing must always release resources, but a failed final
            # flush means the buffered tail was NOT evaluated (e.g. a pool
            # worker raised inside an operation and broke the pool) — say
            # so instead of silently under-delivering.
            warnings.warn(
                f"session close could not flush the buffered tail "
                f"({exc!r}); matches of recently ingested frames may be "
                "missing",
                RuntimeWarning,
                stacklevel=2,
            )
            self._record_fault(
                {"kind": "crash", "streams": [], "detail": str(exc)}
            )
        # The final snapshot: everything that is still knowable about the
        # session, preserved past close.  The core never touches the
        # backend except through the exception-safe health probe; the raw
        # backend report is best-effort (None when the backend is too
        # broken to report).
        snapshot = self._stats_core()
        try:
            snapshot["backend_stats"] = self._runtime.stats()
        except Exception:
            snapshot["backend_stats"] = None
        self._final_stats = snapshot
        self._closed = True
        self._stop_pool()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("the session is closed")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_query(
        query: QueryLike,
        window: Optional[int],
        duration: Optional[int],
        name: Optional[str],
    ) -> CNFQuery:
        """Normalise any accepted query form to a canonical ``CNFQuery``."""
        if isinstance(query, str):
            return parse_query(
                query,
                window=window if window is not None else DEFAULT_WINDOW,
                duration=duration if duration is not None else DEFAULT_DURATION,
                name=name or "",
            )
        if isinstance(query, QueryExpr):
            return query.to_query(
                window=window if window is not None else DEFAULT_WINDOW,
                duration=duration if duration is not None else DEFAULT_DURATION,
                name=name or "",
            )
        if isinstance(query, CNFQuery):
            return CNFQuery(
                query.disjunctions,
                window=window if window is not None else query.window,
                duration=duration if duration is not None else query.duration,
                name=name if name is not None else query.name,
            ).canonical()
        raise TypeError(
            f"cannot register a {type(query).__name__}; pass a query string, "
            "a Q(...) builder expression or a CNFQuery"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "closed" if self._closed else "open"
        return (
            f"Session(backend={self.backend_kind!r}, "
            f"queries={len(self.queries)}, streams={len(self._frontiers)}, "
            f"{state})"
        )
