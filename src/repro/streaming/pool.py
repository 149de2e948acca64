"""Multiprocess shard worker pool with crash recovery.

A :class:`ShardWorkerPool` takes the shards of a
:class:`~repro.streaming.router.StreamRouter` out of the driving process and
spreads them over ``multiprocessing`` workers:

* **hand-off via checkpoints** — :meth:`start` detaches every live stream
  from the origin router and ships each shard to its worker as versioned
  checkpoint bytes (:mod:`repro.streaming.checkpoint`);
  every worker runs an ordinary in-process router built from the origin's
  :meth:`~repro.streaming.router.StreamRouter.config_checkpoint`, so worker
  behaviour is *the* single-process behaviour, stream by stream;
* **batched dispatch over queues** — frames are buffered per worker and
  dispatched in batches; each stream is owned by exactly one worker, so
  per-stream frame order is preserved and results are independent of the
  worker count *and* of where each stream lands;
* **load-aware placement** — which worker owns a first-seen stream is
  decided by a pluggable :class:`~repro.streaming.placement.PlacementPolicy`
  (deterministic round-robin by default; a least-loaded policy driven by
  the per-worker frame/queue-depth signals ships too), and a live stream
  can be moved between workers mid-flight with :meth:`migrate_stream` /
  :meth:`rebalance` — flush-barriered and op-logged, so differential runs
  stay byte-identical and crash recovery replays the move.  The assignment
  map is persisted in pool checkpoints so a restore reproduces the exact
  worker layout;
* **crash recovery** — the parent keeps, per worker, the last periodic
  checkpoint it received plus the log of state-changing operations sent
  after it (the *unacked tail*).  When a worker dies (e.g. SIGKILL), a fresh
  process is spawned, restored from the checkpoint, and the tail is replayed
  in order.  Workers are deterministic functions of their operation log, so
  a recovered worker produces exactly the matches the dead one would have;
  duplicate acknowledgements from replay are discarded by sequence number;
* **graceful shutdown** — :meth:`stop` checkpoints every worker and adopts
  all shards back into the origin router, which resumes exactly where the
  pool left off (detach tombstones lift);
* **supervision** — workers heartbeat on their result queues (sequence
  number, current operation, frames since the last beat) and a parent-side
  :class:`~repro.streaming.supervision.Supervisor` watchdog classifies
  them healthy / slow / hung from acknowledgement progress, escalating
  hung workers ``terminate()`` → ``kill()`` into the ordinary recovery
  path.  Restarts wait a jittered exponential backoff; an operation that
  kills a worker repeatedly is **quarantined** (skipped, recorded in
  ``stats()["quarantined"]``, surfaced as :class:`PoisonOpError` on the
  next drain) instead of burning the restart budget; and when a worker is
  irrecoverable a pool constructed with ``on_irrecoverable="park"``
  enters **degraded mode** — the dead worker's streams are parked (frames
  journaled for a later :meth:`repair`) while every other stream keeps
  serving byte-identical results.  Scripted failures for all of this live
  in :mod:`repro.streaming.faultinject`.

Exactly-once effects
--------------------
Every state-changing message carries a per-worker sequence number.  The
parent records the highest acknowledged sequence per worker and ignores
re-acknowledgements below it, and checkpoints cover exactly the operations
sent before the checkpoint request (queues are FIFO), so a replayed tail is
applied to a state that has seen none of it.  Matches are retained inside
the worker's shards (and therefore inside every checkpoint) until
explicitly drained, so produced-but-undelivered matches survive a crash.

Read-only queries (stats, match listings, checkpoint requests) are not
logged; if a crash swallows one, the caller transparently re-issues it.
"""

from __future__ import annotations

import inspect
import json
import multiprocessing
import queue as queue_module
import time
import traceback
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.datamodel.observation import FrameObservation
from repro.query.evaluator import QueryMatch, pack_matches, unpack_matches
from repro.query.model import CNFQuery
from repro.streaming.checkpoint import CheckpointError, from_bytes, to_bytes
from repro.streaming.faultinject import InjectedFault, load_injector
from repro.streaming.placement import (
    PlacementPolicy,
    WorkerLoad,
    resolve_placement,
)
from repro.streaming.router import StreamRouter
from repro.streaming.supervision import (
    AutoRebalanceConfig,
    SupervisionConfig,
    Supervisor,
)

#: Sentinel stored as the "ack" of a read-only query lost to a worker crash.
_LOST = object()


class PoolError(RuntimeError):
    """Raised when the pool is misused or a worker fails unrecoverably."""


class WorkerCrashError(PoolError):
    """A worker failed terminally and broke the pool.

    Raised when a worker keeps dying past its restart budget, and recorded
    (as the chained cause of later :class:`PoolError`\\ s on the broken
    pool) when a worker raises inside an operation — a deterministic raise
    would replay-crash forever, so it is not restarted.  Carries the full
    crash context so callers can react programmatically:

    * ``kind`` — machine-readable failure class: ``"crash"`` (process
      death), ``"hang"`` (watchdog escalation), ``"poison"`` (one
      operation kept killing the worker with quarantine disabled), or
      ``"restart-budget"`` (the consecutive-fruitless-restart budget ran
      out);
    * ``stream_ids`` — the streams assigned to the failed worker (the
      results a caller can no longer get from this pool);
    * ``worker_index`` — which worker failed;
    * ``exitcode`` — the dead process's exit code (negative = signal;
      ``None`` when the worker raised instead of dying);
    * ``op_seq`` — the highest operation sequence the worker had
      acknowledged before the failure;
    * ``pending_ops`` — logged operations that were still awaiting replay;
    * ``traceback_summary`` — last line of the worker's traceback when it
      died raising (``None`` for signal deaths, which leave no traceback).
    """

    def __init__(
        self,
        message: str,
        *,
        worker_index: Optional[int] = None,
        exitcode: Optional[int] = None,
        op_seq: Optional[int] = None,
        pending_ops: int = 0,
        traceback_summary: Optional[str] = None,
        kind: str = "crash",
        stream_ids: Optional[Sequence[str]] = None,
    ):
        super().__init__(message)
        self.worker_index = worker_index
        self.exitcode = exitcode
        self.op_seq = op_seq
        self.pending_ops = pending_ops
        self.traceback_summary = traceback_summary
        self.kind = kind
        self.stream_ids = list(stream_ids) if stream_ids is not None else []


class PoisonOpError(PoolError):
    """One or more deterministically-crashing operations were quarantined.

    Raised once by :meth:`ShardWorkerPool.drain_matches` after a
    quarantine, so the caller that consumes results learns — exactly once,
    with structured context in ``records`` — that some results may be
    incomplete.  The pool itself stays healthy: the poison operation was
    skipped, the worker recovered, and every other operation's results are
    byte-identical to a fault-free run.  The full quarantine history also
    stays visible under ``stats()["quarantined"]``.
    """

    def __init__(self, records: Sequence[Mapping]):
        summary = ", ".join(
            f"op {record['op_seq']} ({record['op']!s}, worker "
            f"{record['worker']}, {record['crashes']} crashes)"
            for record in records
        )
        super().__init__(
            f"poison operation(s) quarantined: {summary}; results touching "
            "the quarantined operation(s) may be incomplete"
        )
        self.records = [dict(record) for record in records]


def _traceback_summary(text: str) -> str:
    """The last non-empty line of a formatted traceback (the raise site)."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    return lines[-1] if lines else ""


def _reap_process(process, timeout: float = 5.0) -> Optional[int]:
    """Join a worker process, escalating ``terminate()`` → ``kill()``.

    Every stop/restart path funnels through here so a worker that ignores
    (or cannot receive) one signal tier is pushed to the next instead of
    being leaked as a zombie behind an ignored ``join(timeout)``.  Returns
    the exit code; raises :class:`PoolError` in the (theoretically
    impossible) case a process survives SIGKILL, because continuing would
    silently leak it.
    """
    if process is None:
        return None
    process.join(timeout)
    if process.is_alive():
        process.terminate()
        process.join(timeout)
    if process.is_alive():
        process.kill()
        process.join(timeout)
    if process.is_alive():  # pragma: no cover - kernel-level failure
        raise PoolError(
            f"worker process {process.pid} survived SIGKILL and cannot be "
            "reaped; refusing to leak it"
        )
    return process.exitcode


def parse_placement_block(payload: Mapping) -> Dict:
    """Parse the ``placement`` block of a pool checkpoint document.

    Returns a dict with ``policy`` / ``num_workers`` / ``first_seen``
    (verbatim when present) and ``assignment`` / ``stream_frames`` decoded
    from their list-of-pairs wire form into plain dicts; an empty dict
    when the document has no block (router checkpoints, pre-placement
    snapshots).
    The single parser shared by :meth:`ShardWorkerPool.from_checkpoint`
    and the session pool backend, so the wire format cannot drift.
    """
    block = payload.get("placement")
    if block is None or block == {}:
        return {}
    if not isinstance(block, Mapping):
        # Present but the wrong shape (list, string, number — including
        # falsy values like [] that must not masquerade as "absent").
        raise CheckpointError(
            "malformed placement block in pool checkpoint: expected a "
            f"mapping, got {type(block).__name__}"
        )

    def decode_pairs(name: str, cast) -> Dict:
        entries = block.get(name, [])
        if not isinstance(entries, list):
            # A dict (or string) here would iterate its keys and silently
            # mis-unpack; the wire form is strictly a list of pairs.
            raise CheckpointError(
                f"malformed placement block in pool checkpoint: {name!r} "
                f"must be a list of [stream, value] pairs, got "
                f"{type(entries).__name__}"
            )
        try:
            return {str(stream_id): cast(value) for stream_id, value in entries}
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed placement block in pool checkpoint: {exc!r}"
            ) from exc

    parsed: Dict = {
        "assignment": decode_pairs("assignment", lambda value: value),
        "stream_frames": decode_pairs("stream_frames", int),
    }
    for key in ("policy", "num_workers", "first_seen"):
        if key in block:
            parsed[key] = block[key]
    return parsed


def remap_assignment(
    assignment: Mapping[str, int],
    num_workers: int,
    known_streams: Optional[Sequence[str]] = None,
) -> Dict[str, int]:
    """Validate a persisted stream→worker map against a worker count.

    Entries that fit (``0 <= index < num_workers``) are kept verbatim, so a
    restore with the checkpointed worker count reproduces the exact layout.
    A pool restored with *fewer* workers deterministically folds
    out-of-range indices back in (``index % num_workers``) — any layout is
    semantically valid, placement only affects load.  Impossible layouts
    fail loudly instead of being silently recomputed: a negative or
    non-integral index, or (when ``known_streams`` is given) a placement
    for a stream the checkpoint does not serve.
    """
    if num_workers <= 0:
        raise PoolError("num_workers must be positive")
    known = None if known_streams is None else set(known_streams)
    remapped: Dict[str, int] = {}
    for stream_id, index in assignment.items():
        stream_id = str(stream_id)
        if isinstance(index, bool) or not isinstance(index, int):
            raise PoolError(
                f"impossible placement: stream {stream_id!r} is assigned to "
                f"{index!r}, which is not a worker index"
            )
        if index < 0:
            raise PoolError(
                f"impossible placement: stream {stream_id!r} is assigned to "
                f"negative worker index {index}"
            )
        if known is not None and stream_id not in known:
            raise PoolError(
                f"impossible placement: stream {stream_id!r} has a persisted "
                "assignment but the checkpoint does not serve it"
            )
        remapped[stream_id] = index % num_workers
    return remapped


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _apply_op(router: StreamRouter, op: Tuple):
    """Apply one state-changing operation to the worker's local router."""
    kind = op[0]
    if kind == "adopt":
        for blob in op[1]:
            router.adopt(from_bytes(blob, expect_kind="shard"))
        return None
    if kind == "frames":
        for stream_id, record in op[1]:
            router.route(stream_id, FrameObservation.from_record(record))
        return None
    if kind == "flush":
        router.flush()
        return None
    if kind == "drain":
        return {
            stream_id: pack_matches(matches)
            for stream_id, matches in router.drain_matches().items()
        }
    if kind == "expel":
        # Migration hand-off: checkpoint-and-remove the stream's shards
        # without freezing departed counters (the stream stays inside this
        # logical service).  Membership is pre-checked — NOT caught as
        # KeyError — so a replayed expel against a post-expel checkpoint
        # (or a worker that never grew shards for the stream) expels
        # nothing, while a genuine failure mid-removal stays loud instead
        # of silently discarding already-popped shard state.
        if op[1] not in router.stream_ids():
            return []
        return [to_bytes("shard", payload) for payload in router.expel(op[1])]
    if kind == "register":
        # The query arrives with its id pre-assigned by the origin router,
        # so every worker (and every crash-replay of this op) lands on the
        # identical registration.
        router.register_query(CNFQuery.from_dict(op[1]))
        return None
    if kind == "cancel":
        router.cancel_query(int(op[1]))
        return None
    raise PoolError(f"unknown worker operation {kind!r}")


def _answer_query(router: StreamRouter, query: Tuple):
    """Answer one read-only query against the worker's local router."""
    kind = query[0]
    if kind == "stats":
        return router.stats()
    if kind == "matches":
        return pack_matches(router.matches_for(query[1]))
    if kind == "ckpt":
        return router.to_bytes()
    raise PoolError(f"unknown worker query {kind!r}")


def _worker_main(
    index: int,
    tasks,
    results,
    config_blob: bytes,
    heartbeat_interval: float = 0.5,
) -> None:
    """Worker loop: fold the parent's operation stream into a local router.

    State-changing operations and read-only queries are acknowledged with
    their sequence number; ``restore`` replaces the whole router (crash
    recovery) and ``stop`` answers with a final checkpoint and exits.
    Checkpoints are only ever taken between messages, which is the
    between-frames boundary the shard checkpoint contract requires.

    Supervision: the loop emits a heartbeat before every operation (phase
    ``busy``, carrying the sequence and op kind — the parent's poison
    attribution signal) and one per ``heartbeat_interval`` while the task
    queue is empty (phase ``idle``), each carrying the frames applied
    since the previous beat.  When a fault plan is installed in the
    environment (:mod:`repro.streaming.faultinject`), its injector hooks
    run at the op/query/ack boundaries; an injected checkpoint-write
    failure answers the query with a ``nack`` instead of dying.
    """
    injector = load_injector(index)
    try:
        router = StreamRouter.from_bytes(config_blob)
        frames_since = 0
        while True:
            try:
                message = tasks.get(timeout=heartbeat_interval)
            except queue_module.Empty:
                results.put(("hb", index, {
                    "phase": "idle", "seq": None, "op": None,
                    "frames_since": frames_since,
                }))
                frames_since = 0
                continue
            kind = message[0]
            if kind == "op":
                _, seq, op = message
                results.put(("hb", index, {
                    "phase": "busy", "seq": seq, "op": op[0],
                    "frames_since": frames_since,
                }))
                frames_since = 0
                if injector is not None:
                    injector.before_op(seq, op)
                payload = _apply_op(router, op)
                if op[0] == "frames":
                    frames_since = len(op[1])
                if injector is not None and injector.suppress_ack(seq):
                    continue
                results.put(("ack", index, seq, payload))
            elif kind == "query":
                _, seq, query = message
                try:
                    if injector is not None:
                        injector.before_query(seq, query[0])
                    payload = _answer_query(router, query)
                except InjectedFault as fault:
                    results.put(("nack", index, seq, str(fault)))
                else:
                    results.put(("ack", index, seq, payload))
            elif kind == "restore":
                router = StreamRouter.from_bytes(message[1])
            elif kind == "stop":
                results.put(("stopped", index, router.to_bytes()))
                return
            else:
                raise PoolError(f"unknown worker message {kind!r}")
    except Exception:
        results.put(("error", index, traceback.format_exc()))


# ----------------------------------------------------------------------
# Parent-side bookkeeping
# ----------------------------------------------------------------------
class _WorkerHandle:
    """Parent-side state of one worker: process, queues, log, checkpoints."""

    __slots__ = (
        "index", "process", "tasks", "results", "next_seq", "log",
        "last_checkpoint", "pending_ckpt_seq", "inflight", "max_acked",
        "acks", "buffer", "restarts", "ops_since_ckpt", "stopped_state",
        "ckpt_count", "frames_routed", "parked", "death_kind",
        "pending_sent_at", "last_progress_at", "stop_requested_at",
        "culprit_seq", "culprit_streak", "last_busy_seq", "quarantined_seqs",
        "recovery_started_at", "recovery_target_seq",
    )

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.tasks = None
        self.results = None
        #: Next sequence number (monotonic across restarts of this worker).
        self.next_seq = 0
        #: Unacked tail: ``(seq, op)`` of state-changing operations not yet
        #: covered by a received checkpoint.
        self.log: List[Tuple[int, Tuple]] = []
        #: Latest router checkpoint received from this worker.
        self.last_checkpoint: Optional[bytes] = None
        #: Sequence of the outstanding periodic checkpoint request, if any.
        self.pending_ckpt_seq: Optional[int] = None
        #: Sequences sent but not yet acknowledged.
        self.inflight: set = set()
        #: Highest acknowledged sequence (replay duplicates fall below it).
        self.max_acked = -1
        #: Payload-bearing acknowledgements not yet consumed by a caller.
        self.acks: Dict[int, object] = {}
        #: Frames buffered for the next ``frames`` dispatch.
        self.buffer: List[Tuple[str, list]] = []
        #: Consecutive restarts without acknowledgement progress — reset to
        #: zero whenever a fresh ack advances ``max_acked``, so the budget
        #: measures *fruitless* restarts, not lifetime bad luck.
        self.restarts = 0
        self.ops_since_ckpt = 0
        #: Parked (degraded mode): the process is dead, operations are only
        #: journaled, and :meth:`ShardWorkerPool.repair` replays them.
        self.parked = False
        #: Failure kind staged by an escalation for the next ``_recover``.
        self.death_kind: Optional[str] = None
        #: Dispatch wall-clock per unacknowledged sequence (ops *and*
        #: queries) — the watchdog's oldest-pending-age signal.
        self.pending_sent_at: Dict[int, float] = {}
        #: Wall-clock of the last acknowledgement progress (or spawn).
        self.last_progress_at = 0.0
        #: Wall-clock of the outstanding graceful-stop request, if any
        #: (``stop`` carries no sequence, so the watchdog tracks it here).
        self.stop_requested_at: Optional[float] = None
        #: Poison attribution: the operation blamed for the last death and
        #: how many consecutive deaths landed on it.
        self.culprit_seq: Optional[int] = None
        self.culprit_streak = 0
        #: Sequence of the last ``busy`` heartbeat — what the worker was
        #: actually executing when it died.
        self.last_busy_seq: Optional[int] = None
        #: Sequences quarantined as poison (their awaiters resolve to None).
        self.quarantined_seqs: set = set()
        #: Recovery-latency probe: death-detection time and the last
        #: replayed sequence; fulfilled when that sequence acks.
        self.recovery_started_at: Optional[float] = None
        self.recovery_target_seq: Optional[int] = None
        #: Cumulative frame load of the streams this worker currently owns
        #: (migrations move a stream's history with it) — the load signal
        #: placement policies rank workers by.
        self.frames_routed = 0
        #: Checkpoints received over the worker's lifetime (freshness token
        #: for :meth:`ShardWorkerPool.checkpoint_now`).
        self.ckpt_count = 0
        #: Final checkpoint delivered by a graceful ``stop``.
        self.stopped_state: Optional[bytes] = None


class ShardWorkerPool:
    """Drives a router's shards from a pool of worker processes.

    Parameters
    ----------
    router:
        The origin :class:`StreamRouter`.  Its live shards are detached on
        :meth:`start` and adopted back on :meth:`stop`; it must retain
        matches (``retain_matches=True``), since the pool delivers matches
        through :meth:`drain_matches` / :meth:`matches_for`.
    num_workers:
        Worker process count.  Results are identical for any value ≥ 1.
    dispatch_batch:
        Frames buffered per worker before a ``frames`` operation is sent.
    checkpoint_every:
        Periodic checkpoint cadence, in state-changing operations per
        worker.  Smaller values shorten the replay tail after a crash at
        the cost of more snapshot traffic.
    max_inflight:
        Bound on unacknowledged operations per worker (backpressure, and a
        bound on parent-side replay-log memory between checkpoints).
    max_restarts:
        Crash-recovery budget per worker, counted over *consecutive
        fruitless* restarts (acknowledgement progress resets it); a worker
        that exceeds it is irrecoverable — :class:`WorkerCrashError` by
        default, parked (degraded mode) with ``on_irrecoverable="park"``.
    supervision:
        A :class:`~repro.streaming.supervision.SupervisionConfig` (or a
        mapping of its fields, or ``None`` for defaults): heartbeat
        cadence, slow/hang thresholds, restart backoff, poison quarantine
        threshold.
    on_irrecoverable:
        ``"raise"`` (default) breaks the whole pool when a worker is
        irrecoverable; ``"park"`` enters degraded mode instead — the dead
        worker's streams are parked and journaled while every other stream
        keeps serving byte-identical results, until :meth:`repair`.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (cheapest), else the platform default.
    placement:
        Stream→worker placement policy: a
        :class:`~repro.streaming.placement.PlacementPolicy` instance or a
        registered name (``"round-robin"``, the deterministic default, or
        ``"least-loaded"``).  Placement never changes results — only how
        evenly load spreads.
    assignment:
        Optional persisted stream→worker map (the ``placement.assignment``
        block of a pool checkpoint).  Seeded — after validation and, if the
        worker count shrank, a deterministic remap (see
        :func:`remap_assignment`) — before any policy decision, so a
        restored pool reproduces the checkpointed layout exactly.
    first_seen:
        Optional persisted monotonic count of streams the service has
        *ever* placed (the ``placement.first_seen`` block).  Round-robin
        placement slots are derived from it, so a restore — even one with
        retired or remapped streams — continues the first-seen sequence
        instead of re-deriving slots from the live assignment size.
    auto_rebalance:
        ``None``/``False`` (default) leaves rebalancing caller-invoked.
        An :class:`~repro.streaming.supervision.AutoRebalanceConfig` (or
        mapping of its fields, or ``True`` for defaults) arms the
        autonomous trigger: the supervision tick watches per-worker
        offered load and wall-clock processing rate and fires
        :meth:`rebalance` when drift crosses the watermark (with
        hysteresis and cooldown).
    """

    def __init__(
        self,
        router: StreamRouter,
        num_workers: int = 2,
        dispatch_batch: int = 32,
        checkpoint_every: int = 8,
        max_inflight: int = 64,
        max_restarts: int = 3,
        start_method: Optional[str] = None,
        poll_interval: float = 0.02,
        placement: Union[str, PlacementPolicy, None] = None,
        assignment: Optional[Mapping[str, int]] = None,
        stream_frames: Optional[Mapping[str, int]] = None,
        supervision: Union[SupervisionConfig, Mapping, None] = None,
        on_irrecoverable: str = "raise",
        first_seen: Optional[int] = None,
        auto_rebalance: Union[AutoRebalanceConfig, Mapping, bool, None] = None,
    ):
        if num_workers <= 0:
            raise PoolError("num_workers must be positive")
        if on_irrecoverable not in ("raise", "park"):
            raise PoolError(
                f"on_irrecoverable must be 'raise' or 'park', got "
                f"{on_irrecoverable!r}"
            )
        if dispatch_batch <= 0 or checkpoint_every <= 0 or max_inflight <= 0:
            raise PoolError(
                "dispatch_batch, checkpoint_every and max_inflight must be positive"
            )
        if not router.retain_matches:
            raise PoolError(
                "the pool delivers matches via drain_matches/matches_for, "
                "which requires the router to retain matches"
            )
        self.router = router
        self.num_workers = num_workers
        self.dispatch_batch = dispatch_batch
        self.checkpoint_every = checkpoint_every
        self.max_inflight = max_inflight
        self.max_restarts = max_restarts
        self.poll_interval = poll_interval
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        if stream_frames is not None:
            if assignment is None:
                raise PoolError(
                    "stream_frames requires assignment: load history is "
                    "seeded per the persisted stream->worker layout, so "
                    "without one it would be silently dropped"
                )
            assigned = {str(k) for k in assignment}
            uncovered = [s for s in stream_frames if str(s) not in assigned]
            if uncovered:
                raise PoolError(
                    "stream_frames entries have no persisted assignment "
                    f"(their history would be silently dropped): {uncovered}"
                )
        if first_seen is not None:
            if (isinstance(first_seen, bool) or not isinstance(first_seen, int)
                    or first_seen < 0):
                raise PoolError(
                    f"first_seen must be a non-negative integer, got "
                    f"{first_seen!r}"
                )
        self._ctx = multiprocessing.get_context(start_method)
        self._placement = resolve_placement(placement)
        # Legacy placement policies predate the first_seen kwarg; detect
        # once instead of masking in-policy TypeErrors on every placement.
        try:
            place_params = inspect.signature(self._placement.place).parameters
            self._place_takes_first_seen = (
                "first_seen" in place_params
                or any(
                    param.kind is inspect.Parameter.VAR_KEYWORD
                    for param in place_params.values()
                )
            )
        except (TypeError, ValueError):  # pragma: no cover - builtins only
            self._place_takes_first_seen = True
        self._workers: List[_WorkerHandle] = []
        #: Stream ownership, in global first-seen order (policy-placed).
        self._assignment: Dict[str, int] = {}
        #: Persisted layout to honour on :meth:`start` (validated there,
        #: once the origin router's stream set is known).
        self._initial_assignment: Optional[Dict[str, int]] = (
            {str(k): v for k, v in assignment.items()}
            if assignment is not None else None
        )
        #: Persisted per-stream load history, seeded on :meth:`start` so a
        #: restored pool's placement/rebalance signals carry over.
        self._initial_stream_frames: Dict[str, int] = (
            {str(k): int(v) for k, v in stream_frames.items()}
            if stream_frames is not None else {}
        )
        #: Cumulative frames routed per stream — the observed load signal
        #: :meth:`rebalance` re-packs streams by.
        self._stream_frames: Dict[str, int] = {}
        #: Live migrations performed (stats counter).
        self._migrations = 0
        #: The terminal failure that broke the pool, chained into every
        #: subsequent PoolError so the cause is never discarded.
        self._failure: Optional[PoolError] = None
        #: The origin router's ``departed`` block at start() time: streams
        #: it had already handed to *other* owners.  Shards shipped to this
        #: pool's own workers are excluded (they are being served, not
        #: departed), so :meth:`stats` mirrors an uninterrupted router.
        self._origin_departed: Optional[Dict] = None
        #: The origin router's ``retired`` block at start() time (shards
        #: retired by pre-pool query-group cancellations).
        self._origin_retired: Optional[Dict] = None
        #: Pre-pool frozen departed slots, snapshotted at start(): hand-offs
        #: that belong to *other* owners and therefore survive into a live
        #: merged checkpoint (:meth:`checkpoint_router`), unlike our own
        #: detaches.  (Detached-stream tombstones are *not* snapshotted —
        #: the origin router's live ``_detached`` stays authoritative, e.g.
        #: a mid-pool group cancellation lifts pending entries there.)
        self._origin_departed_slots: Dict = {}
        self._config_blob: Optional[bytes] = None
        self._started = False
        self._stopped = False
        self._broken = False
        self._checkpoints_taken = 0
        self._matches_shipped = 0
        self._match_records_shipped = 0
        self._ops_dispatched = 0
        self._frames_dispatched = 0
        self._total_restarts = 0
        self._supervision = SupervisionConfig.coerce(supervision)
        self._auto_rebalance = AutoRebalanceConfig.coerce(auto_rebalance)
        if self._auto_rebalance is not None:
            # Fail at construction, not first trigger, on a bad policy name.
            resolve_placement(self._auto_rebalance.policy)
        self._supervisor = Supervisor(
            self._supervision, num_workers,
            auto_rebalance=self._auto_rebalance,
        )
        self._on_irrecoverable = on_irrecoverable
        #: Monotonic count of streams ever placed (round-robin slots are
        #: derived from it; persisted in the checkpoint placement block).
        self._first_seen = 0
        self._initial_first_seen = first_seen
        #: Next wall-clock at which route() runs a supervision tick.
        self._next_tick_at = 0.0
        #: True while a migration, grow/shrink, recovery or shutdown is
        #: mid-flight — the autonomous trigger must not fire a rebalance
        #: into a pool whose worker set or stream ownership is in motion.
        self._in_maintenance = False
        #: Elastic grow/shrink events (stats surface).
        self._elastic_events: List[Dict] = []
        self._grown = 0
        self._shrunk = 0
        #: Quarantined-operation records, in quarantine order (stats surface).
        self._quarantined: List[Dict] = []
        #: Quarantine records not yet surfaced as a PoisonOpError.
        self._poison_pending: List[Dict] = []
        #: Degraded mode: parked-worker records by worker index.
        self._parked: Dict[int, Dict] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._started

    @property
    def restarts(self) -> int:
        """Workers restarted after crashes over the pool's lifetime."""
        return self._total_restarts

    @property
    def supervision(self) -> SupervisionConfig:
        """The supervision configuration in effect."""
        return self._supervision

    @property
    def auto_rebalance(self) -> Optional[AutoRebalanceConfig]:
        """The autonomous-rebalance configuration (``None`` = disarmed)."""
        return self._auto_rebalance

    @property
    def degraded(self) -> bool:
        """Whether any worker is parked (degraded mode; see :meth:`repair`)."""
        return bool(self._parked)

    @property
    def quarantined(self) -> List[Dict]:
        """Quarantined-operation records, in quarantine order."""
        return [dict(record) for record in self._quarantined]

    def parked_streams(self) -> Dict[str, Dict]:
        """Per-stream park records of a degraded pool (empty when healthy).

        Maps each parked stream to its tombstone: owning worker, failure
        ``kind``, human-readable ``reason``, journaled operations awaiting
        :meth:`repair`, and frames journaled since the park.
        """
        block: Dict[str, Dict] = {}
        for index, record in self._parked.items():
            worker = self._workers[index]
            for stream_id in record["streams"]:
                block[stream_id] = {
                    "worker": index,
                    "kind": record["kind"],
                    "reason": record["reason"],
                    "pending_ops": len(worker.log),
                    "frames_parked": record.get("frames_parked", 0),
                }
        return block

    def stream_health(self) -> Dict[str, Dict]:
        """Health of every stream the pool serves.

        Healthy streams map to ``{"state": "healthy", "worker": i}``;
        streams of a parked worker to ``{"state": "parked", ...}`` with the
        failure kind and reason.  Byte-stable on fault-free runs.
        """
        health: Dict[str, Dict] = {}
        for stream_id, index in self._assignment.items():
            record = self._parked.get(index)
            if record is None:
                health[stream_id] = {"state": "healthy", "worker": index}
            else:
                health[stream_id] = {
                    "state": "parked",
                    "worker": index,
                    "kind": record["kind"],
                    "reason": record["reason"],
                }
        return health

    def stream_ids(self) -> List[str]:
        """Streams routed through (or handed to) the pool, first-seen order.

        Matches :meth:`StreamRouter.stream_ids` on an uninterrupted
        single-process run of the same event sequence.
        """
        return list(self._assignment)

    def worker_pids(self) -> List[int]:
        """Process ids of the current worker generation (fault injection)."""
        self._require_running()
        return [worker.process.pid for worker in self._workers]

    def start(self) -> "ShardWorkerPool":
        """Detach the origin router's shards and ship them to fresh workers."""
        if self._started:
            raise PoolError("the pool is already started")
        if self._stopped or self._broken:
            raise PoolError("a stopped or broken pool cannot be restarted")
        router = self.router
        # Streams the origin had already detached belong to someone else;
        # their tombstones travel to every worker so a routing mistake fails
        # there exactly as it would have failed on the origin router.
        config = router.config_checkpoint(include_detached=True)
        self._config_blob = to_bytes("router", config)
        # Snapshot pre-existing hand-offs before our own detaches land.
        origin_stats = router.stats()
        self._origin_departed = dict(origin_stats["departed"])
        self._origin_retired = dict(origin_stats["retired"])
        self._origin_departed_slots = router.departed_slot_snapshots()
        if self._initial_assignment is not None:
            # Restore path: reproduce the checkpointed layout exactly (or
            # remap deterministically when the worker count shrank) before
            # any policy decision can run.  Validated *before* any worker
            # process exists — an impossible layout must not leak children.
            self._assignment = remap_assignment(
                self._initial_assignment,
                self.num_workers,
                known_streams=router.stream_ids(),
            )
        # The first-seen counter resumes from the checkpointed value when
        # one exists; documents that predate it fall back to the restored
        # assignment size (exact for layouts that never lost a stream).
        # Never below the assignment size — the counter means "streams
        # ever placed", which the current layout is a lower bound on.
        self._first_seen = max(
            len(self._assignment),
            self._initial_first_seen
            if self._initial_first_seen is not None else 0,
        )
        self._workers = [_WorkerHandle(index) for index in range(self.num_workers)]
        for worker in self._workers:
            self._spawn(worker)
        self._started = True
        try:
            for stream_id, frames in self._initial_stream_frames.items():
                # Restored load history: placement decisions and rebalance
                # plans resume from the checkpointed signals instead of
                # re-learning (or worse, planning on) zero loads.  The
                # constructor guarantees every entry has an assignment.
                self._stream_frames[stream_id] = int(frames)
                worker = self._workers[self._assignment[stream_id]]
                worker.frames_routed += int(frames)
            for stream_id in router.stream_ids():
                index = self._assign(stream_id)
                if not router.has_live_shards(stream_id):
                    # Every shard of this stream was retired by query-group
                    # cancellations: nothing to ship, but the stream keeps its
                    # first-seen position (new groups resume it in place).
                    continue
                payloads = router.detach(stream_id)
                worker = self._workers[index]
                blobs = [to_bytes("shard", payload) for payload in payloads]
                self._send_op(worker, ("adopt", blobs))
        except BaseException:
            # A failed hand-off must not leak the just-spawned workers.
            self.terminate()
            raise
        return self

    def stop(self) -> StreamRouter:
        """Gracefully shut down: checkpoint workers, adopt shards back.

        Returns the origin router, which now owns every shard again (new
        streams included) and resumes exactly where the workers left off.
        """
        self._require_running()
        if self._parked:
            raise PoolError(
                "cannot gracefully stop a degraded pool (streams parked on "
                f"workers {sorted(self._parked)}): repair() it first, or "
                "terminate() to abandon the parked state"
            )
        # Shutdown is maintenance: the stop-await pumps below must not
        # fire an autonomous rebalance into workers that are checkpointing
        # their final state.  The pool never serves again, so the flag is
        # simply left set.
        self._in_maintenance = True
        self._flush_buffers()
        stop_sent_to = {}
        for worker in self._workers:
            worker.tasks.put(("stop",))
            worker.stop_requested_at = time.monotonic()
            stop_sent_to[worker.index] = worker.process
        while any(worker.stopped_state is None for worker in self._workers):
            self._pump(block=True)
            for worker in self._workers:
                if (worker.stopped_state is None
                        and worker.process is not stop_sent_to[worker.index]):
                    # The worker died between our stop request and its final
                    # checkpoint; _pump recovered it (restore + tail replay),
                    # so re-request the stop from the fresh process.
                    worker.tasks.put(("stop",))
                    worker.stop_requested_at = time.monotonic()
                    stop_sent_to[worker.index] = worker.process
        for worker in self._workers:
            worker.process.join()
        self._started = False
        self._stopped = True
        # Adopt back in global first-seen stream order (not worker order):
        # the origin router's shard/stream iteration order then matches what
        # an uninterrupted single-process run would have produced.
        by_stream: Dict[str, List[Dict]] = {}
        for worker in self._workers:
            payload = from_bytes(worker.stopped_state, expect_kind="router")
            # Shards retired inside this worker (query group cancelled
            # mid-run) froze their counters in the worker's router; fold
            # them into the origin so post-stop stats equal an
            # uninterrupted single-process run's.
            retired = payload.get("retired_totals")
            if retired:
                self.router.fold_retired(retired)
            for shard_payload in payload.get("shards", []):
                stream_id = str(shard_payload["key"]["stream_id"])
                by_stream.setdefault(stream_id, []).append(shard_payload)
        for stream_id in self._assignment:
            for shard_payload in by_stream.pop(stream_id, []):
                self.router.adopt(shard_payload)
        for shard_payloads in by_stream.values():  # pragma: no cover - safety
            for shard_payload in shard_payloads:
                self.router.adopt(shard_payload)
        # Adoption can only re-learn streams that still have shards; a
        # stream whose every shard was retired by a mid-pool group
        # cancellation is still the service's stream (an uninterrupted
        # router keeps it, and so does checkpoint_router()).  Re-impose the
        # global first-seen order from the assignment.
        self.router.set_stream_order(self._assignment)
        self._close_queues()
        return self.router

    def terminate(self) -> None:
        """Abort without adopting state back (used on errors and in tests)."""
        for worker in self._workers:
            process = worker.process
            if process is not None and process.is_alive():
                process.terminate()
        for worker in self._workers:
            # Escalates to kill() on a stuck worker and asserts the reap —
            # terminate() must never leak a zombie behind an ignored join.
            _reap_process(
                worker.process, timeout=self._supervision.escalation_timeout
            )
        self._close_queues()
        self._started = False
        self._stopped = True

    def __enter__(self) -> "ShardWorkerPool":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self._started and not self._parked:
            self.stop()
        elif self._started:
            # Error unwind — or a degraded pool the caller never repaired,
            # whose parked shards cannot be adopted back gracefully.
            self.terminate()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, stream_id: str, frame: FrameObservation) -> None:
        """Buffer one frame for its owning worker (dispatched in batches).

        Unlike the in-process router, matches are not returned here — they
        accumulate in the workers' shards and are collected with
        :meth:`drain_matches` / :meth:`matches_for`.
        """
        self._require_running()
        worker = self._workers[self._assign(stream_id)]
        worker.buffer.append((stream_id, frame.to_record()))
        worker.frames_routed += 1
        self._stream_frames[stream_id] = (
            self._stream_frames.get(stream_id, 0) + 1
        )
        if len(worker.buffer) >= self.dispatch_batch:
            self._dispatch_buffer(worker)
        if time.monotonic() >= self._next_tick_at:
            self.tick()

    def route_many(self, events: Iterable[Tuple[str, FrameObservation]]) -> None:
        """Route a ``(stream_id, frame)`` event sequence."""
        for stream_id, frame in events:
            self.route(stream_id, frame)

    def flush(self) -> None:
        """Flush every worker shard's reorder buffer (end-of-stream point)."""
        self._require_running()
        self._flush_buffers()
        seqs = [
            (worker, self._send_op(worker, ("flush",)))
            for worker in self._workers
        ]
        for worker, seq in seqs:
            if worker.parked:
                continue  # journaled; repair() replays it in order
            self._await(worker, seq)

    # ------------------------------------------------------------------
    # Supervision tick
    # ------------------------------------------------------------------
    def tick(self) -> Optional[Dict]:
        """One supervision tick: drain results, watchdog, drift evaluation.

        This is the supervisor's own entry point — it does not require a
        caller to be blocked in ``_pump``.  The routing hot path invokes
        it time-gated, and an idle parent (or an external scheduler) can
        call it directly: a hung worker is escalated even when nobody is
        awaiting an acknowledgement, and with ``auto_rebalance`` armed a
        drifted load distribution fires :meth:`rebalance` autonomously.
        Returns the trigger record (drift ratios, plan, migration count)
        when an autonomous rebalance fired, else ``None``.
        """
        self._require_running()
        auto = self._auto_rebalance
        interval = (
            auto.interval if auto is not None
            else self._supervision.heartbeat_interval
        )
        self._next_tick_at = time.monotonic() + interval
        self._drain_results()
        self._watchdog()
        return self._maybe_autorebalance()

    def _maybe_autorebalance(self) -> Optional[Dict]:
        """Evaluate load drift; fire and annotate a rebalance if over it."""
        auto = self._auto_rebalance
        if (auto is None or self._parked or not self._started
                or self._in_maintenance):
            return None
        trigger = self._supervisor.evaluate_drift(
            [worker.frames_routed for worker in self._workers],
            time.monotonic(),
        )
        if trigger is None:
            return None
        started = time.monotonic()
        plan = self.rebalance(policy=auto.policy)
        # Annotate the supervisor's ledger record in place: what drifted,
        # what moved, and how even the fleet came out.
        trigger["plan"] = dict(plan)
        trigger["migrations"] = len(plan)
        trigger["rebalance_seconds"] = round(time.monotonic() - started, 6)
        loads = [float(worker.frames_routed) for worker in self._workers]
        trigger["offered_ratio_after"] = round(
            Supervisor._imbalance(loads), 4
        )
        return trigger

    # ------------------------------------------------------------------
    # Placement and rebalancing
    # ------------------------------------------------------------------
    @property
    def placement(self) -> PlacementPolicy:
        """The stream→worker placement policy in effect."""
        return self._placement

    @property
    def migrations(self) -> int:
        """Live stream migrations performed over the pool's lifetime."""
        return self._migrations

    def assignment(self) -> Dict[str, int]:
        """The current stream→worker map, in global first-seen order."""
        return dict(self._assignment)

    def worker_loads(self) -> List[Dict]:
        """Per-worker load signals (JSON-friendly; bench/monitoring surface).

        ``frames`` is the cumulative offered load of the worker's *owned*
        streams (a migrated stream's history moves with it);
        ``queue_depth`` the instantaneous backlog — parent-side buffered
        frames plus unacknowledged operations.
        """
        return [
            {
                "index": load.index,
                "streams": load.streams,
                "frames": load.frames,
                "queue_depth": load.queue_depth,
            }
            for load in self._worker_loads()
        ]

    def migrate_stream(self, stream_id: str, worker: int) -> bool:
        """Move a live stream to another worker without dropping a frame.

        The move reuses the detach→checkpoint-bytes→adopt machinery: the
        owning worker *expels* the stream (checkpointing its shards —
        reorder buffers, retained matches and counters included — with no
        departed accounting, since the stream stays inside this service),
        and the target worker adopts the bytes.  Both legs are **op-logged**,
        so a crash on either side replays the migration in order, and the
        hand-off is **flush-barriered**: frames already routed are
        dispatched first, so per-stream frame order — and therefore every
        byte of the differential contract — is preserved.  Subsequent
        frames of the stream route to the new worker.

        Returns ``True`` when shards actually moved, ``False`` for a
        no-op (the stream already lives on ``worker``).  Migrating an
        unknown stream or to an out-of-range worker raises.
        """
        self._require_running()
        if not 0 <= worker < self.num_workers:
            raise PoolError(
                f"cannot migrate {stream_id!r} to worker {worker}: the pool "
                f"has workers 0..{self.num_workers - 1}"
            )
        source_index = self._assignment.get(stream_id)
        if source_index is None:
            raise PoolError(
                f"cannot migrate unknown stream {stream_id!r} (no frames "
                "routed and no shards shipped for it)"
            )
        if source_index == worker:
            return False
        source = self._workers[source_index]
        target = self._workers[worker]
        if source.parked or target.parked:
            parked_index = source_index if source.parked else worker
            raise PoolError(
                f"cannot migrate {stream_id!r}: worker {parked_index} is "
                "parked (degraded mode); repair() the pool first"
            )
        # Barrier: every frame routed so far must reach the source before
        # the expel (per-worker FIFO then guarantees the checkpoint covers
        # them); the target's buffer is dispatched too so the adopt cannot
        # overtake frames of other streams buffered before the migration.
        previous_maintenance = self._in_maintenance
        self._in_maintenance = True
        try:
            self._dispatch_buffer(source)
            self._dispatch_buffer(target)
            expel_seq = self._send_op(source, ("expel", stream_id))
            blobs = self._await(source, expel_seq)
            if source.parked or target.parked:
                # The source (or target) became irrecoverable while we
                # waited on the expel: the hand-off cannot complete, and
                # flipping the assignment now would fork ownership from
                # the journaled state.
                raise PoolError(
                    f"migration of {stream_id!r} aborted: a participating "
                    "worker parked mid-migration; repair() the pool first"
                )
            if expel_seq in source.quarantined_seqs:
                # The expel itself was quarantined as poison — the shards
                # never left the source, so the stream keeps its old owner.
                raise PoolError(
                    f"migration of {stream_id!r} aborted: its expel "
                    "operation was quarantined as poison (see "
                    "stats()['quarantined'])"
                )
            if blobs:
                self._send_op(target, ("adopt", blobs))
        finally:
            self._in_maintenance = previous_maintenance
        self._assignment[stream_id] = worker
        # The stream's frame history moves with it: a worker's load is the
        # sum of its *owned* streams' loads (which is also how a restored
        # pool re-seeds the counters), so placement decisions after a
        # migration see the hot stream on its new owner, not its old one.
        frames = self._stream_frames.get(stream_id, 0)
        source.frames_routed -= frames
        target.frames_routed += frames
        self._migrations += 1
        return True

    def rebalance(
        self, policy: Union[str, PlacementPolicy, None] = None
    ) -> Dict[str, int]:
        """Re-pack streams onto workers according to a placement policy.

        Asks the policy (the pool's own by default; pass
        ``policy="least-loaded"`` to rebalance a round-robin pool) for a
        migration plan from the observed per-stream frame loads and applies
        it with :meth:`migrate_stream`.  Static policies (round-robin) plan
        nothing; the least-loaded policy re-packs heaviest-first so a hot
        stream stops dragging its neighbours.  Returns the applied plan
        (stream id → new worker).
        """
        self._require_running()
        if self._parked:
            raise PoolError(
                "cannot rebalance a degraded pool (streams parked on "
                f"workers {sorted(self._parked)}): repair() it first"
            )
        planner = (
            self._placement if policy is None else resolve_placement(policy)
        )
        plan = planner.rebalance(
            self._assignment, self._stream_frames, self.num_workers
        )
        for stream_id, worker in plan.items():
            self.migrate_stream(stream_id, worker)
        return plan

    # ------------------------------------------------------------------
    # Elastic workers
    # ------------------------------------------------------------------
    def grow(self, count: int = 1) -> List[int]:
        """Add ``count`` workers to a live pool; returns their indices.

        New workers come up through the existing restore path — a fresh
        process built from the origin's config checkpoint, exactly like a
        crash recovery with an empty tail — and own no streams until
        placement or a rebalance moves some there (with ``auto_rebalance``
        armed, the next over-watermark tick does it autonomously).  The
        grown worker count is persisted in pool checkpoints.
        """
        self._require_running()
        if count < 1:
            raise PoolError("grow() needs a positive worker count")
        if self._parked:
            raise PoolError(
                "cannot grow a degraded pool (streams parked on workers "
                f"{sorted(self._parked)}): repair() it first"
            )
        previous_maintenance = self._in_maintenance
        self._in_maintenance = True
        try:
            self._flush_buffers()
            added = [
                _WorkerHandle(self.num_workers + offset)
                for offset in range(count)
            ]
            self._workers.extend(added)
            self.num_workers += count
            # Resize the supervisor before any spawn: the new workers'
            # heartbeats must find their views the moment results drain.
            self._supervisor.resize(self.num_workers)
            for worker in added:
                self._spawn(worker)
        finally:
            self._in_maintenance = previous_maintenance
        indices = [worker.index for worker in added]
        self._grown += count
        self._elastic_events.append({
            "action": "grow", "workers": indices,
            "num_workers": self.num_workers,
        })
        return indices

    def shrink(self, count: int = 1) -> List[int]:
        """Retire the ``count`` highest-index workers; returns their indices.

        Each retiring worker's streams are migrated (flush-barriered,
        op-logged — the ordinary :meth:`migrate_stream` machinery) onto
        the least-loaded surviving worker, then the worker is stopped
        gracefully: its final checkpoint is verified empty of shards and
        its retired-shard counters fold into the service totals, exactly
        as :meth:`stop` folds them.  At least one worker must remain.
        """
        self._require_running()
        if count < 1:
            raise PoolError("shrink() needs a positive worker count")
        if count >= self.num_workers:
            raise PoolError(
                f"cannot shrink {count} of {self.num_workers} workers: at "
                "least one must remain"
            )
        if self._parked:
            raise PoolError(
                "cannot shrink a degraded pool (streams parked on workers "
                f"{sorted(self._parked)}): repair() it first"
            )
        previous_maintenance = self._in_maintenance
        self._in_maintenance = True
        try:
            self._flush_buffers()
            keep = self.num_workers - count
            retiring = self._workers[keep:]
            survivors = self._workers[:keep]
            for worker in retiring:
                owned = [
                    stream_id
                    for stream_id, index in self._assignment.items()
                    if index == worker.index
                ]
                for stream_id in owned:
                    target = min(
                        survivors,
                        key=lambda survivor: (
                            survivor.frames_routed, survivor.index
                        ),
                    )
                    self.migrate_stream(stream_id, target.index)
            indices = [worker.index for worker in retiring]
            for worker in retiring:
                # Graceful per-worker stop with the same crash-resilient
                # re-request loop stop() uses: a worker dying between the
                # stop request and its final checkpoint is recovered and
                # re-asked from the fresh process.
                worker.tasks.put(("stop",))
                worker.stop_requested_at = time.monotonic()
                stop_process = worker.process
                while worker.stopped_state is None:
                    self._pump(block=True, focus=worker)
                    if (worker.stopped_state is None
                            and worker.process is not stop_process):
                        worker.tasks.put(("stop",))
                        worker.stop_requested_at = time.monotonic()
                        stop_process = worker.process
                worker.process.join()
                payload = from_bytes(
                    worker.stopped_state, expect_kind="router"
                )
                leftover = payload.get("shards", [])
                if leftover:  # pragma: no cover - migration invariant
                    raise PoolError(
                        f"retiring worker {worker.index} still held "
                        f"{len(leftover)} shard(s) after migrating its "
                        "streams away; refusing to drop state"
                    )
                retired = payload.get("retired_totals")
                if retired:
                    # Fold into the origin router (so a later stop()
                    # reports the full service history) *and* the live
                    # snapshot the pool's own stats/checkpoints are built
                    # from.
                    self.router.fold_retired(retired)
                    for key, value in retired.items():
                        self._origin_retired[key] = (
                            self._origin_retired.get(key, 0) + value
                        )
                for q in (worker.tasks, worker.results):
                    if q is not None:
                        q.close()
                        q.cancel_join_thread()
                # Null the queues out: the remaining retiring workers' stop
                # loops still pump every handle, and a closed queue must
                # read as "nothing to drain", not raise.
                worker.tasks = None
                worker.results = None
            del self._workers[keep:]
            self.num_workers = keep
            self._supervisor.resize(self.num_workers)
        finally:
            self._in_maintenance = previous_maintenance
        self._shrunk += count
        self._elastic_events.append({
            "action": "shrink", "workers": indices,
            "num_workers": self.num_workers,
        })
        return indices

    # ------------------------------------------------------------------
    # Live query lifecycle
    # ------------------------------------------------------------------
    def register_query(self, query: CNFQuery) -> CNFQuery:
        """Register a query on every worker of a live pool.

        The origin router assigns the id (it is the single source of truth
        for the workload, and :meth:`stop`'s adopt-back validation compares
        against it), then the registration ships to every worker as a
        *logged* operation: a crash replays it in order, and the per-worker
        FIFO guarantees it lands after every frame ingested before the
        registration — exactly the single-process semantics.  Frame buffers
        are flushed first for the same reason.
        """
        self._require_running()
        self._flush_buffers()
        registered = self.router.register_query(query)
        for worker in self._workers:
            self._send_op(worker, ("register", registered.to_dict()))
        return registered

    def cancel_query(self, query_id: int) -> CNFQuery:
        """Cancel a query on every worker of a live pool (id tombstoned).

        Applied to the origin router first (bookkeeping + adopt-back
        validation), then shipped to every worker as a logged operation;
        workers drop the query's evaluator entries and undrained matches,
        and retire whole shards when the cancellation empties its window
        group (their frozen ingest counters surface in
        ``stats()["retired"]`` and fold back into the origin on
        :meth:`stop`).
        """
        self._require_running()
        self._flush_buffers()
        removed = self.router.cancel_query(query_id)
        for worker in self._workers:
            self._send_op(worker, ("cancel", query_id))
        return removed

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def matches_for(self, stream_id: str) -> List[QueryMatch]:
        """A stream's retained matches, ordered exactly as the router's.

        A parked stream answers with ``[]`` — its matches are retained in
        the journaled state and become available again after
        :meth:`repair` (see :meth:`stream_health` to tell the cases apart).
        """
        self._require_running()
        index = self._assignment.get(stream_id)
        if index is None:
            return []
        worker = self._workers[index]
        if worker.parked:
            return []
        self._dispatch_buffer(worker)
        records = self._call(worker, ("matches", stream_id))
        if records is None:  # worker parked while we awaited the query
            return []
        return self._unpack_shipped(records)

    def drain_matches(self) -> Dict[str, List[QueryMatch]]:
        """Drain every worker's retained matches, grouped by stream.

        Stream order is global first-seen order and per-stream match order
        is the router's — byte-identical to what the single-process router
        would have drained.  Parked workers are skipped entirely (their
        matches stay retained in the journaled state for :meth:`repair`).

        Raises :class:`PoisonOpError` — exactly once per quarantine — when
        an operation was quarantined since the last drain, so the caller
        consuming results learns they may be incomplete; calling
        :meth:`drain_matches` again then drains normally.
        """
        self._require_running()
        if self._poison_pending:
            records = list(self._poison_pending)
            self._poison_pending.clear()
            raise PoisonOpError(records)
        self._flush_buffers()
        seqs = [
            (worker, self._send_op(worker, ("drain",)))
            for worker in self._workers
            if not worker.parked
        ]
        merged: Dict[str, List[QueryMatch]] = {}
        per_worker = {}
        for worker, seq in seqs:
            # drain is a *logged* op: if the worker crashes first, the replay
            # re-runs it with the same sequence number, so the await below
            # always completes with the (deterministic) payload.
            per_worker[worker.index] = self._await(worker, seq) or {}
        for stream_id, index in self._assignment.items():
            records = per_worker.get(index, {}).get(stream_id)
            if records:
                merged[stream_id] = self._unpack_shipped(records)
        return merged

    def _unpack_shipped(self, records: List) -> List[QueryMatch]:
        """Expand grouped match records a worker shipped, counting both sides."""
        matches = unpack_matches(records)
        self._match_records_shipped += len(records)
        self._matches_shipped += len(matches)
        return matches

    def stats(self) -> Dict:
        """Aggregate + per-shard statistics across all workers.

        The layout mirrors :meth:`StreamRouter.stats` (plus a ``pool``
        block), and ``per_shard`` is rebuilt in the router's canonical
        creation order — stream first-seen order crossed with group
        registration order — so reports are comparable byte for byte
        after stripping wall-clock fields (:func:`deterministic_stats`).
        """
        self._require_running()
        self._flush_buffers()
        worker_stats = []
        for worker in self._workers:
            if worker.parked:
                continue  # journaled state; surfaced under "parked" instead
            stats = self._call(worker, ("stats",))
            if stats is not None:
                worker_stats.append(stats)
        totals = {
            "frames_ingested": 0, "frames_processed": 0, "dropped_late": 0,
            "duplicates": 0, "reordered": 0, "processing_seconds": 0.0,
            "queue_depth": 0,
        }
        # Workers never detach, so their departed blocks are zero; what the
        # oracle router would report as departed is exactly the origin's
        # pre-pool hand-offs, snapshotted at start().  Retirements (a whole
        # query group cancelled) *do* happen inside workers, so their frozen
        # retired counters sum on top of the origin's pre-pool block.
        departed = dict(self._origin_departed)
        retired = dict(self._origin_retired)
        shards = 0
        per_shard_raw: Dict[str, Dict] = {}
        for stats in worker_stats:
            shards += stats["shards"]
            for key in totals:
                totals[key] += stats["totals"][key]
            per_shard_raw.update(stats["per_shard"])
            for key, value in stats["departed"].items():
                departed[key] += value
            for key, value in stats["retired"].items():
                retired[key] += value
        seconds = totals["processing_seconds"]
        totals["processing_seconds"] = round(seconds, 6)
        totals["frames_per_sec"] = (
            round(totals["frames_processed"] / seconds, 2) if seconds else 0.0
        )
        departed["processing_seconds"] = round(departed["processing_seconds"], 6)
        retired["processing_seconds"] = round(retired["processing_seconds"], 6)
        per_shard: Dict[str, Dict] = {}
        for stream_id in self._assignment:
            for window, duration in self.router.group_keys:
                key = f"{stream_id}/w{window}d{duration}"
                if key in per_shard_raw:
                    per_shard[key] = per_shard_raw[key]
        return {
            "streams": len(self._assignment),
            "window_groups": len(self.router.group_keys),
            "shards": shards,
            "totals": totals,
            "departed": departed,
            "retired": retired,
            "per_shard": per_shard,
            "parked": self.parked_streams(),
            "quarantined": self.quarantined,
            "pool": {
                "workers": self.num_workers,
                "restarts": self._total_restarts,
                "checkpoints_taken": self._checkpoints_taken,
                #: Matches the workers shipped back and the grouped records
                #: (one per result state) they travelled in.
                "matches_shipped": self._matches_shipped,
                "match_records_shipped": self._match_records_shipped,
                "ops_dispatched": self._ops_dispatched,
                "frames_dispatched": self._frames_dispatched,
                "placement": self._placement.name,
                "migrations": self._migrations,
                "worker_loads": self.worker_loads(),
                "degraded": self.degraded,
                "supervision": self._supervisor.stats(),
                "elastic": {
                    "grown": self._grown,
                    "shrunk": self._shrunk,
                    "events": [dict(e) for e in self._elastic_events],
                },
            },
        }

    def checkpoint_now(self) -> None:
        """Force an immediate checkpoint of every worker (shrinks the tail)."""
        self._require_running()
        self._flush_buffers()
        for worker in self._workers:
            if worker.parked:
                continue  # journaled state is its checkpoint until repair()
            # Wait for a checkpoint *received after entry*: acknowledgements
            # of replayed ops after a crash can advance max_acked past a
            # lost request's sequence, so sequence progress alone does not
            # prove a fresh snapshot landed.
            baseline = worker.ckpt_count
            while worker.ckpt_count == baseline and not worker.parked:
                if worker.pending_ckpt_seq is None:
                    self._request_checkpoint(worker)
                self._pump(block=True, focus=worker)

    def checkpoint_router(self) -> Dict:
        """A merged router-layout checkpoint of the *live* pool.

        Every worker snapshots its local router (a read-only query, so the
        pool keeps serving); the shard payloads are merged under the origin
        router's current workload configuration in canonical order —
        stream first-seen order crossed with group registration order, the
        layout an uninterrupted single-process router would produce.
        Streams owned by this pool are live in the merged document (their
        shards are embedded, their detach tombstones omitted); hand-offs
        that predate the pool belong to other owners and survive verbatim.
        :meth:`StreamRouter.from_checkpoint` on the result yields a router
        that resumes the whole service — including registered-after-start
        and cancelled query state — exactly where the workers are now.
        """
        self._require_running()
        if self._parked:
            raise PoolError(
                "cannot export a merged checkpoint of a degraded pool "
                f"(streams parked on workers {sorted(self._parked)}): the "
                "parked shards' state lives in an unreplayed journal; "
                "repair() the pool first"
            )
        self._flush_buffers()
        # Every worker is asked before any is awaited, so the workers export
        # side by side; a reply lost to a crash is asked for again.
        asked = [
            (worker, self._send_query(worker, ("ckpt",)))
            for worker in self._workers
        ]
        worker_payloads = []
        for worker, seq in asked:
            blob = self._await(worker, seq)
            if blob is _LOST:
                blob = self._call(worker, ("ckpt",))
            worker_payloads.append(from_bytes(blob, expect_kind="router"))
        document = self.router.config_checkpoint(include_detached=False)
        # Tombstones come from the origin router *live*, not a start-time
        # snapshot: a mid-pool group cancellation lifts pending entries on
        # the origin, and a stale copy would permanently block the stream
        # after a restore.  Streams owned by this pool are live in the
        # merged document, so their own detach tombstones are omitted.
        document["detached"] = [
            [stream_id, [list(group) for group in groups]]
            for stream_id, groups in self.router.detached_streams().items()
            if stream_id not in self._assignment
        ]
        by_stream: Dict[str, List[Dict]] = {}
        retired = dict(self._origin_retired)
        for payload in worker_payloads:
            for key, value in payload.get("retired_totals", {}).items():
                retired[key] = retired.get(key, 0) + value
            for shard_payload in payload.get("shards", []):
                stream_id = str(shard_payload["key"]["stream_id"])
                by_stream.setdefault(stream_id, []).append(shard_payload)
        group_order = {
            group: index for index, group in enumerate(self.router.group_keys)
        }
        shards: List[Dict] = []
        for stream_id in self._assignment:
            entries = by_stream.pop(stream_id, [])
            entries.sort(
                key=lambda p: group_order.get(
                    (int(p["key"]["window"]), int(p["key"]["duration"])),
                    len(group_order),
                )
            )
            shards.extend(entries)
        for entries in by_stream.values():  # pragma: no cover - safety
            shards.extend(entries)
        # Key order mirrors StreamRouter.checkpoint() exactly: the merged
        # document must be byte-identical to what the restored router would
        # itself re-export (the codec is canonical, insertion order is
        # state), so a router⇄pool restore round-trips byte-transparently.
        document["shards"] = shards
        document["departed_totals"] = dict(self._origin_departed)
        retired["processing_seconds"] = round(
            retired.get("processing_seconds", 0.0), 6
        )
        document["retired_totals"] = retired
        document["stream_order"] = list(self._assignment)
        document["departed_slots"] = [
            [stream_id, [window, duration], dict(frozen)]
            for (stream_id, (window, duration)), frozen
            in self._origin_departed_slots.items()
        ]
        # Placement decisions land in the checkpoint: a pool restored from
        # this document reproduces the exact worker layout (the router
        # ignores — and its own checkpoints omit — this block, so a
        # router⇄pool round trip is byte-transparent).
        document["placement"] = {
            "policy": self._placement.name,
            "num_workers": self.num_workers,
            #: Monotonic count of streams ever placed — round-robin slots
            #: continue from it after a restore even when the live
            #: assignment no longer reflects first-seen history.
            "first_seen": self._first_seen,
            "assignment": [
                [stream_id, index]
                for stream_id, index in self._assignment.items()
            ],
            #: Per-stream load history in assignment order (canonical), so
            #: a restored pool's placement and rebalance signals carry on
            #: from the observed loads instead of restarting at zero.
            "stream_frames": [
                [stream_id, self._stream_frames.get(stream_id, 0)]
                for stream_id in self._assignment
            ],
        }
        return document

    @classmethod
    def from_checkpoint(
        cls,
        payload: Dict,
        num_workers: Optional[int] = None,
        placement: Union[str, PlacementPolicy, None] = None,
        **pool_kwargs,
    ) -> "ShardWorkerPool":
        """Build a (not yet started) pool from a router-layout checkpoint.

        Accepts both a plain :meth:`StreamRouter.checkpoint` document and a
        pool's own :meth:`checkpoint_router` export.  When the document
        carries a ``placement`` block, its assignment map (and per-stream
        load history) is persisted into the new pool and reproduced on
        :meth:`start` — remapped deterministically if ``num_workers``
        differs from the recorded count, rejected loudly if the layout is
        impossible (see :func:`remap_assignment`).  ``num_workers`` and
        ``placement`` default to the checkpointed values (or 2 workers /
        round-robin for documents that predate placement persistence).
        """
        block = parse_placement_block(payload)
        if num_workers is None:
            try:
                num_workers = int(block.get("num_workers", 2))
            except (TypeError, ValueError) as exc:
                raise CheckpointError(
                    "malformed placement block in pool checkpoint: "
                    f"num_workers {block.get('num_workers')!r} is not an "
                    "integer"
                ) from exc
        if placement is None:
            placement = str(block.get("policy", "round-robin"))
            try:
                resolve_placement(placement)
            except ValueError as exc:
                # A bad policy *name in the checkpoint* is malformed data
                # (CheckpointError, like num_workers above); a bad caller-
                # supplied placement= stays a plain ValueError.
                raise CheckpointError(
                    f"malformed placement block in pool checkpoint: {exc}"
                ) from exc
        first_seen = block.get("first_seen")
        if first_seen is not None:
            if isinstance(first_seen, bool) or not isinstance(first_seen, int):
                raise CheckpointError(
                    "malformed placement block in pool checkpoint: "
                    f"first_seen {first_seen!r} is not an integer"
                )
        router = StreamRouter.from_checkpoint(payload)
        return cls(
            router,
            num_workers=num_workers,
            placement=placement,
            assignment=block.get("assignment"),
            stream_frames=block.get("stream_frames"),
            first_seen=first_seen,
            **pool_kwargs,
        )

    # ------------------------------------------------------------------
    # Internals: dispatch, acknowledgements, recovery
    # ------------------------------------------------------------------
    def _require_running(self) -> None:
        if self._broken:
            # Chain the recorded terminal failure instead of discarding it:
            # callers see worker index, failure kind, op sequence and
            # traceback summary in the cause.
            detail = (
                f": {self._failure}" if self._failure is not None
                else " (no failure context was recorded)"
            )
            raise PoolError(
                f"the pool is broken (a worker failed){detail}"
            ) from self._failure
        if not self._started:
            raise PoolError(
                "the pool is not running (start() it first; a stopped pool "
                "cannot be reused)"
            )

    def _assign(self, stream_id: str) -> int:
        index = self._assignment.get(stream_id)
        if index is None:
            if self._place_takes_first_seen:
                index = self._placement.place(
                    stream_id, self._worker_loads(),
                    first_seen=self._first_seen,
                )
            else:
                index = self._placement.place(stream_id, self._worker_loads())
            # Same strictness as remap_assignment validates restored
            # layouts with: a float or None from a custom policy must fail
            # here, loudly, not crash route() or poison the checkpoint.
            if (isinstance(index, bool) or not isinstance(index, int)
                    or not 0 <= index < self.num_workers):
                raise PoolError(
                    f"placement policy {self._placement.name!r} returned "
                    f"worker index {index!r} for stream {stream_id!r} "
                    f"(expected an int in 0..{self.num_workers - 1})"
                )
            self._assignment[stream_id] = index
            self._first_seen += 1
        return index

    def _worker_loads(self) -> List[WorkerLoad]:
        """Per-worker load signals handed to the placement policy."""
        streams = [0] * self.num_workers
        for index in self._assignment.values():
            streams[index] += 1
        return [
            WorkerLoad(
                index=worker.index,
                streams=streams[worker.index],
                frames=worker.frames_routed,
                queue_depth=len(worker.buffer) + len(worker.inflight),
            )
            for worker in self._workers
        ]

    def _spawn(self, worker: _WorkerHandle) -> None:
        worker.tasks = self._ctx.Queue()
        worker.results = self._ctx.Queue()
        worker.process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker.index, worker.tasks, worker.results,
                self._config_blob, self._supervision.heartbeat_interval,
            ),
            daemon=True,
            name=f"shard-worker-{worker.index}",
        )
        worker.process.start()
        # A fresh generation starts with a clean watchdog slate; replayed
        # operations are re-stamped as they are re-sent.
        worker.pending_sent_at.clear()
        worker.last_progress_at = time.monotonic()
        worker.last_busy_seq = None

    def _dispatch_buffer(self, worker: _WorkerHandle) -> None:
        if worker.buffer:
            frames = worker.buffer
            worker.buffer = []
            self._frames_dispatched += len(frames)
            self._send_op(worker, ("frames", frames))

    def _flush_buffers(self) -> None:
        for worker in self._workers:
            self._dispatch_buffer(worker)

    def _send_op(self, worker: _WorkerHandle, op: Tuple) -> int:
        seq = worker.next_seq
        worker.next_seq += 1
        worker.log.append((seq, op))
        self._ops_dispatched += 1
        if worker.parked:
            # Degraded mode: the op is only journaled; repair() replays the
            # whole journal in order, so ordering (and therefore the
            # differential contract) is preserved across the outage.
            if op[0] == "frames":
                record = self._parked.get(worker.index)
                if record is not None:
                    record["frames_parked"] = (
                        record.get("frames_parked", 0) + len(op[1])
                    )
            return seq
        worker.inflight.add(seq)
        worker.pending_sent_at[seq] = time.monotonic()
        worker.tasks.put(("op", seq, op))
        worker.ops_since_ckpt += 1
        if (worker.ops_since_ckpt >= self.checkpoint_every
                and worker.pending_ckpt_seq is None):
            self._request_checkpoint(worker)
        while len(worker.inflight) > self.max_inflight:
            self._pump(block=True, focus=worker)
        return seq

    def _send_query(self, worker: _WorkerHandle, query: Tuple) -> int:
        seq = worker.next_seq
        worker.next_seq += 1
        worker.inflight.add(seq)
        worker.pending_sent_at[seq] = time.monotonic()
        worker.tasks.put(("query", seq, query))
        return seq

    def _request_checkpoint(self, worker: _WorkerHandle) -> None:
        worker.pending_ckpt_seq = self._send_query(worker, ("ckpt",))
        worker.ops_since_ckpt = 0

    def _call(self, worker: _WorkerHandle, query: Tuple):
        """Issue a read-only query, transparently retrying across crashes.

        Returns ``None`` when the worker parks mid-call (the query can
        never be answered until :meth:`repair`; callers treat it as
        absent data).
        """
        while True:
            if worker.parked:
                return None
            seq = self._send_query(worker, query)
            result = self._await(worker, seq)
            if result is not _LOST:
                return result

    def _await(self, worker: _WorkerHandle, seq: int):
        """Block until ``seq`` is acknowledged; returns its payload.

        Resolves to ``None`` when the sequence can no longer be answered:
        it was quarantined as poison, or the worker parked (degraded mode)
        while we waited.
        """
        while True:
            if seq in worker.acks:
                return worker.acks.pop(seq)
            if worker.max_acked >= seq:
                return None
            if seq in worker.quarantined_seqs or worker.parked:
                return worker.acks.pop(seq, None)
            self._pump(block=True, focus=worker)

    def _pump(self, block: bool, focus: Optional[_WorkerHandle] = None) -> bool:
        """Drain worker results; detect and recover crashed/hung workers.

        Returns ``True`` when at least one message was processed.  ``focus``
        names the worker a caller is actively awaiting: the blocking wait
        then happens on that worker's queue (instead of a plain sleep), so
        acknowledgements are consumed the moment they arrive.  The
        supervision watchdog ticks here — exactly when a caller is blocked
        on the pool, which is the only time detection latency matters.
        """
        progressed = self._drain_results()
        self._watchdog()
        # The wall-clock supervision tick also runs here: routing often
        # completes long before the workers do, so the time in which load
        # drift becomes observable is spent blocked in this loop, not in
        # route().  Guarded exactly like tick() — a pump reached from
        # inside a migration, grow/shrink or recovery must not fire a
        # rebalance into its own machinery (_in_maintenance).
        if (self._auto_rebalance is not None
                and time.monotonic() >= self._next_tick_at):
            self._next_tick_at = (
                time.monotonic() + self._auto_rebalance.interval
            )
            self._maybe_autorebalance()
        if progressed or not block:
            return progressed
        # Nothing queued: wait a beat, then re-drain BEFORE scanning for
        # deaths — a gracefully exiting worker flushes its final message
        # before terminating, so draining first keeps a finished worker
        # from being mistaken for a crash.  (Per-worker queues keep a
        # SIGKILL's possibly-truncated stream from poisoning other
        # workers' results.)
        target = focus if focus is not None and not focus.parked else None
        if target is None:
            target = next(
                (w for w in self._workers
                 if not w.parked and w.results is not None),
                None,
            )
        if target is None:
            # Every worker is parked: nothing will ever arrive.
            return False
        try:
            message = target.results.get(timeout=self.poll_interval)
        except (queue_module.Empty, OSError, EOFError):
            pass
        else:
            self._on_message(target, message)
            progressed = True
        if self._drain_results():
            return True
        if progressed:
            return True
        for worker in self._workers:
            if worker.parked:
                continue  # dead by design until repair()
            if worker.process is not None and not worker.process.is_alive() \
                    and worker.stopped_state is None:
                self._recover(worker)
                progressed = True
        return progressed

    def _drain_results(self) -> bool:
        progressed = False
        for worker in self._workers:
            if worker.results is None:
                continue
            while True:
                try:
                    message = worker.results.get_nowait()
                except (queue_module.Empty, OSError, EOFError):
                    break
                self._on_message(worker, message)
                progressed = True
        return progressed

    def _watchdog(self) -> None:
        """Classify live workers; escalate the ones that stopped progressing.

        A worker is *hung* when its oldest pending message has been
        outstanding — with no acknowledgement progress at all — for longer
        than ``hang_after``.  Progress is measured by acks, not heartbeats:
        a worker whose result pipe stalled (or that livelocks while idle
        beats flow) still gets caught, while a deep-but-draining queue does
        not (each ack refreshes the progress clock).
        """
        now = time.monotonic()
        for worker in self._workers:
            if (worker.parked or worker.process is None
                    or worker.stopped_state is not None
                    or not worker.process.is_alive()):
                continue  # dead workers go through _recover, not escalation
            oldest = (
                min(worker.pending_sent_at.values())
                if worker.pending_sent_at else worker.stop_requested_at
            )
            pending_age = None if oldest is None else now - oldest
            idle_age = now - worker.last_progress_at
            state = self._supervisor.assess(worker.index, pending_age, idle_age)
            if state == "hung":
                self._escalate(worker)

    def _escalate(self, worker: _WorkerHandle) -> None:
        """Kill a hung worker and push it through ordinary crash recovery."""
        self._supervisor.record_escalation(worker.index)
        worker.death_kind = "hang"
        process = worker.process
        timeout = self._supervision.escalation_timeout
        process.terminate()
        process.join(timeout)
        if process.is_alive():
            process.kill()
        self._recover(worker)

    def _on_message(self, worker: _WorkerHandle, message: Tuple) -> None:
        kind = message[0]
        if kind == "ack":
            _, _, seq, payload = message
            # Discard from inflight even for replay duplicates: _recover
            # re-adds every logged sequence, including already-acked ones,
            # and leaking them would wedge _send_op's backpressure loop.
            worker.inflight.discard(seq)
            worker.pending_sent_at.pop(seq, None)
            if seq <= worker.max_acked:
                return  # replay duplicate (or a stale ack from a dead life)
            worker.max_acked = seq
            # Fresh progress: the watchdog clock and the fruitless-restart
            # budget both reset (the worker is demonstrably getting work
            # done, so restarts so far were not wasted).
            worker.last_progress_at = time.monotonic()
            worker.restarts = 0
            self._supervisor.observe_progress(worker.index)
            if (worker.recovery_target_seq is not None
                    and seq >= worker.recovery_target_seq):
                self._supervisor.record_recovery(
                    worker.index,
                    time.monotonic() - worker.recovery_started_at,
                )
                worker.recovery_target_seq = None
                worker.recovery_started_at = None
            if seq == worker.pending_ckpt_seq:
                worker.last_checkpoint = payload
                worker.pending_ckpt_seq = None
                worker.log = [(s, op) for s, op in worker.log if s > seq]
                worker.ckpt_count += 1
                self._checkpoints_taken += 1
            elif payload is not None:
                worker.acks[seq] = payload
        elif kind == "hb":
            info = message[2]
            if info.get("phase") == "busy" and info.get("seq") is not None:
                worker.last_busy_seq = int(info["seq"])
            self._supervisor.observe_heartbeat(worker.index, info)
        elif kind == "nack":
            _, _, seq, reason = message
            worker.inflight.discard(seq)
            worker.pending_sent_at.pop(seq, None)
            # The worker is demonstrably alive (it answered, just
            # negatively) — count it as watchdog progress, not ack progress.
            worker.last_progress_at = time.monotonic()
            if seq == worker.pending_ckpt_seq:
                # Checkpoint write failed: keep the previous checkpoint (the
                # tail just stays longer), count the failure, and re-request
                # at the next dispatch.
                worker.pending_ckpt_seq = None
                worker.ops_since_ckpt = self.checkpoint_every
                self._supervisor.record_checkpoint_failure(worker.index)
            else:
                # A read-only query failed inside the worker; callers
                # transparently re-issue, exactly like a crash-lost query.
                worker.acks[seq] = _LOST
        elif kind == "stopped":
            worker.stopped_state = message[2]
            worker.stop_requested_at = None
        elif kind == "error":
            self._broken = True
            text = message[2]
            self.terminate()
            failure = WorkerCrashError(
                f"worker {worker.index} raised inside an operation "
                f"({_traceback_summary(text)})",
                worker_index=worker.index,
                op_seq=worker.max_acked,
                pending_ops=len(worker.log),
                traceback_summary=_traceback_summary(text),
            )
            self._failure = failure
            raise PoolError(
                f"worker {worker.index} raised inside an operation:\n{text}"
            ) from failure
        else:  # pragma: no cover - protocol violation
            raise PoolError(f"unknown worker response {kind!r}")

    def _culprit_op(self, worker: _WorkerHandle) -> Optional[Tuple[int, Tuple]]:
        """The logged operation the dead worker was most plausibly executing.

        Prefer the worker's own last ``busy`` heartbeat (emitted immediately
        before applying its operation, so it names the op that killed the
        process); fall back to the oldest unacknowledged logged operation.
        ``None`` when nothing unacknowledged is logged (the death cannot be
        blamed on any replayable op).
        """
        if (worker.last_busy_seq is not None
                and worker.last_busy_seq > worker.max_acked):
            for seq, op in worker.log:
                if seq == worker.last_busy_seq:
                    return seq, op
        for seq, op in worker.log:
            if seq > worker.max_acked:
                return seq, op
        return None

    def _op_streams(self, op: Tuple) -> List[str]:
        """Stream ids an operation touches (quarantine-record context)."""
        kind = op[0]
        if kind == "frames":
            seen: List[str] = []
            for stream_id, _ in op[1]:
                if stream_id not in seen:
                    seen.append(stream_id)
            return seen
        if kind == "expel":
            return [op[1]]
        return []

    def _quarantine(
        self, worker: _WorkerHandle, culprit: Tuple[int, Tuple], kind: str
    ) -> None:
        """Drop a poison operation from the replay log, with full context."""
        seq, op = culprit
        worker.log = [(s, o) for s, o in worker.log if s != seq]
        worker.inflight.discard(seq)
        worker.pending_sent_at.pop(seq, None)
        worker.quarantined_seqs.add(seq)
        record = {
            "worker": worker.index,
            "op_seq": seq,
            "op": op[0],
            "streams": self._op_streams(op),
            "frames": len(op[1]) if op[0] == "frames" else 0,
            "crashes": worker.culprit_streak,
            "kind": kind,
        }
        self._quarantined.append(record)
        self._poison_pending.append(record)
        self._supervisor.record_quarantine()
        # The poison is gone from the log: the worker's slate is clean.
        worker.restarts = 0
        worker.culprit_streak = 0
        worker.culprit_seq = None

    def _park(self, worker: _WorkerHandle, kind: str, exitcode) -> None:
        """Enter degraded mode for one irrecoverable worker.

        The worker's streams are tombstoned with a reason; operations for
        them keep being journaled (``_send_op`` logs without dispatching)
        so :meth:`repair` can replay the full history in order and resume
        byte-identically.  Every other worker keeps serving untouched.
        """
        streams = [
            stream_id for stream_id, index in self._assignment.items()
            if index == worker.index
        ]
        reason = (
            f"worker {worker.index} is irrecoverable ({kind}; exitcode "
            f"{exitcode}, last acked op seq {worker.max_acked}) and was "
            "parked; its streams resume after repair()"
        )
        for q in (worker.tasks, worker.results):
            if q is not None:
                q.close()
                q.cancel_join_thread()
        worker.tasks = None
        worker.results = None
        # Unacknowledged payload-bearing ops must not be replayed into the
        # void on repair: an undelivered drain would discard matches nobody
        # consumed, an undelivered expel would orphan shards.  Dropping
        # them keeps matches retained (drain) and ownership unchanged
        # (expel) — exactly the pre-park state the journal resumes from.
        worker.log = [
            (s, op) for s, op in worker.log
            if not (op[0] in ("drain", "expel") and s > worker.max_acked)
        ]
        worker.inflight.clear()
        worker.pending_sent_at.clear()
        worker.pending_ckpt_seq = None
        worker.stop_requested_at = None
        worker.recovery_started_at = None
        worker.recovery_target_seq = None
        worker.parked = True
        self._parked[worker.index] = {
            "kind": kind,
            "reason": reason,
            "exitcode": exitcode,
            "streams": streams,
            "frames_parked": 0,
        }
        self._supervisor.record_park(worker.index, kind)

    def repair(self) -> List[str]:
        """Respawn every parked worker and replay its journaled backlog.

        Returns the stream ids brought back into service (first-seen
        order).  The replacement processes read the *current* environment,
        so a fault plan uninstalled since the park does not re-arm, and the
        replay — checkpoint restore plus the full journal in order —
        reproduces byte-identical matches and stats for the parked streams.
        A no-op on a healthy pool.
        """
        self._require_running()
        revived: List[str] = []
        for index in sorted(self._parked):
            worker = self._workers[index]
            record = self._parked.pop(index)
            worker.parked = False
            worker.restarts = 0
            worker.culprit_streak = 0
            worker.culprit_seq = None
            self._spawn(worker)
            if worker.last_checkpoint is not None:
                worker.tasks.put(("restore", worker.last_checkpoint))
            now = time.monotonic()
            for seq, op in worker.log:
                worker.inflight.add(seq)
                worker.pending_sent_at[seq] = now
                worker.tasks.put(("op", seq, op))
            worker.ops_since_ckpt = len(worker.log)
            worker.recovery_started_at = now
            worker.recovery_target_seq = (
                worker.log[-1][0] if worker.log else None
            )
            if worker.log:
                self._request_checkpoint(worker)
            self._supervisor.record_repair(index)
            revived.extend(record["streams"])
        return revived

    def _recover(self, worker: _WorkerHandle) -> None:
        """Respawn a dead worker from its last checkpoint and replay the tail.

        The supervision layer hangs off this path: the death is attributed
        to a culprit operation (poison detection → quarantine), the
        consecutive-fruitless-restart budget is enforced (park or raise
        when exhausted, with a machine-readable kind), and the respawn
        waits a jittered exponential backoff.
        """
        kind = worker.death_kind or "crash"
        worker.death_kind = None
        exitcode = _reap_process(
            worker.process, timeout=self._supervision.escalation_timeout
        )
        self._total_restarts += 1
        self._supervisor.record_restart(worker.index, kind)
        # Poison attribution: consecutive deaths blamed on the same logged
        # operation build a streak; at poison_threshold the op is
        # quarantined instead of burning the whole restart budget.
        culprit = self._culprit_op(worker)
        if culprit is not None and culprit[0] == worker.culprit_seq:
            worker.culprit_streak += 1
        else:
            worker.culprit_seq = culprit[0] if culprit is not None else None
            worker.culprit_streak = 1 if culprit is not None else 0
        threshold = self._supervision.poison_threshold
        if (culprit is not None and threshold is not None
                and worker.culprit_streak >= threshold):
            self._quarantine(worker, culprit, kind)
        else:
            worker.restarts += 1
            # With quarantine disabled a poison op resets the fruitless
            # counter on every death (replayed fresh acks count as
            # progress), so the streak itself must also bound restarts.
            poison_blown = (
                threshold is None and worker.culprit_streak > self.max_restarts
            )
            if worker.restarts > self.max_restarts or poison_blown:
                failure_kind = "poison" if poison_blown else "restart-budget"
                if self._on_irrecoverable == "park":
                    self._park(worker, failure_kind, exitcode)
                    return
                self._broken = True
                streams = [
                    stream_id
                    for stream_id, index in self._assignment.items()
                    if index == worker.index
                ]
                self.terminate()
                failure = WorkerCrashError(
                    f"worker {worker.index} crashed more than "
                    f"{self.max_restarts} times without progress (kind "
                    f"{failure_kind!r}, exitcode {exitcode}, last acked op "
                    f"seq {worker.max_acked}, {len(worker.log)} logged ops "
                    "awaiting replay); giving up",
                    worker_index=worker.index,
                    exitcode=exitcode,
                    op_seq=worker.max_acked,
                    pending_ops=len(worker.log),
                    kind=failure_kind,
                    stream_ids=streams,
                )
                self._failure = failure
                raise failure
            delay = self._supervisor.backoff(worker.restarts)
            if delay > 0:
                time.sleep(delay)
        # Release the dead generation's queues (feeder threads, pipe fds,
        # buffered messages) before spawning replacements.
        for q in (worker.tasks, worker.results):
            if q is not None:
                q.close()
                q.cancel_join_thread()
        recovery_started = time.monotonic()
        self._spawn(worker)
        if worker.last_checkpoint is not None:
            worker.tasks.put(("restore", worker.last_checkpoint))
        lost_ckpt = worker.pending_ckpt_seq
        worker.pending_ckpt_seq = None
        logged = {seq for seq, _ in worker.log}
        for seq in sorted(worker.inflight):
            if seq in logged:
                continue
            worker.inflight.discard(seq)
            if seq != lost_ckpt:
                # A read-only query died with the worker; callers re-issue.
                # (A lost checkpoint request is handled via the cleared
                # pending marker — nobody awaits its ack directly.)
                worker.acks[seq] = _LOST
        now = time.monotonic()
        for seq, op in worker.log:
            worker.inflight.add(seq)
            worker.pending_sent_at[seq] = now
            worker.tasks.put(("op", seq, op))
        worker.ops_since_ckpt = len(worker.log)
        # Recovery-latency probe: fulfilled when the whole replayed tail is
        # re-acknowledged (trivially fulfilled for an empty tail).
        worker.recovery_started_at = recovery_started
        worker.recovery_target_seq = worker.log[-1][0] if worker.log else None
        if worker.recovery_target_seq is None:
            self._supervisor.record_recovery(worker.index, 0.0)
            worker.recovery_started_at = None
        if worker.log:
            # Re-checkpoint right after replay so the tail shrinks again.
            self._request_checkpoint(worker)

    def _close_queues(self) -> None:
        for worker in self._workers:
            for q in (worker.tasks, worker.results):
                if q is not None:
                    q.close()
                    q.cancel_join_thread()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "running" if self._started else ("stopped" if self._stopped else "new")
        return (
            f"ShardWorkerPool(workers={self.num_workers}, "
            f"streams={len(self._assignment)}, {state})"
        )


# ----------------------------------------------------------------------
# Comparison helpers (differential tests and benchmark verification)
# ----------------------------------------------------------------------
def deterministic_stats(stats: Dict) -> Dict:
    """Strip wall-clock (and pool-only) fields from a stats report.

    Everything that remains — counters, shard layout, report order — is a
    pure function of the event sequence, so two architectures serving the
    same workload must agree on it byte for byte.
    """
    def strip(value):
        if isinstance(value, dict):
            return {
                key: strip(item) for key, item in value.items()
                if key not in (
                    "processing_seconds", "frames_per_sec", "pool",
                    "parked", "quarantined",
                    # Evaluator counters restart with every rebuilt engine
                    # (a migration, a crash replay): they describe a
                    # process, not the event sequence.
                    "evaluator",
                )
            }
        if isinstance(value, list):
            return [strip(item) for item in value]
        return value

    return strip(stats)


def match_report(matches_by_stream: Dict[str, Sequence[QueryMatch]]) -> bytes:
    """Canonical bytes of per-stream match lists (order-preserving).

    Two equal reports mean: same streams, same order, and per stream the
    same matches in the same emission order — the byte-identity oracle the
    differential suite compares pool and router through.
    """
    return json.dumps(
        {
            "streams": [
                [stream_id, [match.to_record() for match in matches]]
                for stream_id, matches in matches_by_stream.items()
            ]
        },
        separators=(",", ":"),
        ensure_ascii=True,
    ).encode("ascii")
