"""Multiprocess shard worker pool with crash recovery.

A :class:`ShardWorkerPool` takes the shards of a
:class:`~repro.streaming.router.StreamRouter` out of the driving process and
spreads them over ``multiprocessing`` workers:

* **hand-off via one checkpoint** — :meth:`start` takes one
  :meth:`~repro.streaming.router.StreamRouter.checkpoint` document of the
  origin router and splits its shards by placement; each worker process
  starts from its slice, as versioned checkpoint bytes
  (:mod:`repro.streaming.checkpoint`), and runs an ordinary in-process
  router, so worker behaviour is *the* single-process behaviour, stream by
  stream;
* **batched dispatch over queues** — frames are buffered per worker and
  dispatched in batches; each stream is owned by exactly one worker, so
  per-stream frame order is preserved and results are independent of the
  worker count;
* **fixed placement** — the k-th stream the service has seen (its position
  in the router's first-seen ``stream_order``) lives on worker
  ``k mod num_workers`` for the pool's whole life.  The layout is derived,
  never persisted: a pool checkpoint is a plain router document, and a
  pool restored with any worker count re-derives it;
* **crash recovery** — the parent keeps, per worker, a recovery base (the
  worker's start slice, then the last periodic checkpoint it received)
  plus the log of state-changing operations sent after it (the *unacked
  tail*).  When a worker dies (e.g. SIGKILL), a fresh process is spawned
  from the recovery base and the tail is replayed in order.  Workers are
  deterministic functions of their operation log, so a recovered worker
  produces exactly the matches the dead one would have; duplicate
  acknowledgements from replay are discarded by sequence number;
* **graceful shutdown** — :meth:`stop` merges every worker's final
  checkpoint into one router document and returns the router restored from
  it, which resumes exactly where the pool left off;
* **one failure policy** — acknowledgement progress is the one liveness
  signal: a parent-side :class:`~repro.streaming.supervision.Supervisor`
  watchdog classifies workers healthy / hung from it, escalating hung
  workers ``terminate()`` → ``kill()`` into the ordinary recovery path,
  and a death is blamed on the oldest unacknowledged logged operation.
  Restarts wait an exponential backoff; an operation that kills a worker
  repeatedly is **quarantined** (skipped, recorded in
  ``stats()["quarantined"]``, surfaced as :class:`PoisonOpError` on the
  next drain) instead of burning the restart budget; and a worker whose
  consecutive fruitless restarts exceed :data:`MAX_RESTARTS` is
  **parked** — its streams' operations are journaled for a later
  :meth:`repair` while every other stream keeps serving byte-identical
  results.  Only a worker that raises inside an operation (a bug, not a
  fault) breaks the pool, with a :class:`WorkerCrashError` as the cause.
  The policy's numbers are module constants (here and in
  :mod:`repro.streaming.supervision`), not settings.  Scripted failures
  for all of this live in :mod:`repro.streaming.faultinject`.  A worker
  whose parent died exits on its own.

Exactly-once effects
--------------------
Every state-changing message carries a per-worker sequence number, and the
worker drains its router into that operation's acknowledgement: matches
travel back on the acks, which the parent buffers per stream until a
:meth:`ShardWorkerPool.drain_matches` delivers them.  The parent records
the highest acknowledged sequence per worker and ignores re-acknowledgements
at or below it, so the matches of a replayed operation are taken once.
Checkpoints cover exactly the operations sent before the checkpoint request,
and the parent adopts one only after the acks of all of them (queues are
FIFO), so a replayed tail is applied to a state that has seen none of it
and its matches have not yet arrived.  A drain sends no operation: it waits
only for the operations dispatched before the previous drain (and for the
replay of a worker that crashed), so the workers overlap the parent;
:meth:`ShardWorkerPool.flush` is the barrier after which a drain returns
everything.

Read-only queries (stats, checkpoint requests) are not logged; if a crash
swallows one, the caller transparently re-issues it.
"""

from __future__ import annotations

import json
import multiprocessing
import queue as queue_module
import time
import traceback
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.datamodel.observation import FrameObservation
from repro.query.evaluator import QueryMatch, pack_matches, unpack_matches
from repro.query.model import CNFQuery
from repro.streaming.checkpoint import from_bytes, to_bytes
from repro.streaming.faultinject import InjectedFault, load_injector
from repro.streaming.router import StreamRouter, zero_ingest_totals
from repro.streaming.supervision import Supervisor

#: Sentinel stored as the "ack" of a read-only query lost to a worker crash.
_LOST = object()

#: ``multiprocessing`` start method of the workers: ``fork`` where available
#: (cheapest), else ``None``, the platform default.
START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else None

#: Seconds one wait on a worker's result queue blocks before the parent
#: re-checks the worker's health.
POLL_INTERVAL = 0.02

#: Seconds one wait of a worker on its task queue blocks before the worker
#: checks that its parent is still alive (an orphaned worker exits).
PARENT_CHECK_INTERVAL = 0.5

#: Minimum seconds between the supervision ticks :meth:`ShardWorkerPool.route`
#: runs.
TICK_INTERVAL = 0.5

#: Unacknowledged messages per worker before :meth:`ShardWorkerPool.route`
#: waits (backpressure, and a bound on the parent's replay log between
#: checkpoints).
MAX_INFLIGHT = 64

#: Consecutive restarts without acknowledgement progress a worker may take;
#: one more parks its streams.
MAX_RESTARTS = 3

#: Seconds each stage of the ``terminate()`` → ``kill()`` escalation waits
#: for the process to exit before the next stage fires.
ESCALATION_TIMEOUT = 5.0


class PoolError(RuntimeError):
    """Raised when the pool is misused or a worker fails unrecoverably."""


class WorkerCrashError(PoolError):
    """A worker raised inside an operation and broke the pool.

    A deterministic raise would replay-crash forever, so the worker is not
    restarted: the pool is broken, and this error is the chained cause of
    every later :class:`PoolError` it raises.  It carries the context:

    * ``worker_index`` — which worker raised;
    * ``op_seq`` — the highest operation sequence the worker had
      acknowledged before it raised;
    * ``pending_ops`` — logged operations not yet covered by a checkpoint;
    * ``traceback_summary`` — last line of the worker's traceback.
    """

    def __init__(
        self,
        message: str,
        *,
        worker_index: int,
        op_seq: int,
        pending_ops: int,
        traceback_summary: str,
    ):
        super().__init__(message)
        self.worker_index = worker_index
        self.op_seq = op_seq
        self.pending_ops = pending_ops
        self.traceback_summary = traceback_summary


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


def _reap_process(process) -> Optional[int]:
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
    process.join(ESCALATION_TIMEOUT)
    if process.is_alive():
        process.terminate()
        process.join(ESCALATION_TIMEOUT)
    if process.is_alive():
        process.kill()
        process.join(ESCALATION_TIMEOUT)
    if process.is_alive():  # pragma: no cover - kernel-level failure
        raise PoolError(
            f"worker process {process.pid} survived SIGKILL and cannot be "
            "reaped; refusing to leak it"
        )
    return process.exitcode


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _apply_op(router: StreamRouter, op: Tuple) -> None:
    """Apply one state-changing operation to the worker's local router."""
    kind = op[0]
    if kind == "frames":
        for stream_id, record in op[1]:
            router.route(stream_id, FrameObservation.from_record(record))
    elif kind == "flush":
        router.flush()
    elif kind == "register":
        # The query arrives with its id pre-assigned by the origin router,
        # so every worker (and every crash-replay of this op) lands on the
        # identical registration.
        router.register_query(CNFQuery.from_dict(op[1]))
    elif kind == "cancel":
        router.cancel_query(int(op[1]))
    else:
        raise PoolError(f"unknown worker operation {kind!r}")


def _ship(router: StreamRouter) -> Optional[Dict[str, List]]:
    """Drain the worker's router into an ack payload: grouped match
    records per stream, or ``None`` when nothing was produced."""
    drained = router.drain_matches()
    if not drained:
        return None
    return {
        stream_id: pack_matches(matches)
        for stream_id, matches in drained.items()
    }


def _answer_query(router: StreamRouter, query: Tuple):
    """Answer one read-only query against the worker's local router."""
    kind = query[0]
    if kind == "stats":
        return router.stats()
    if kind == "ckpt":
        return router.to_bytes()
    raise PoolError(f"unknown worker query {kind!r}")


def _worker_main(index: int, tasks, results, checkpoint: bytes) -> None:
    """Worker loop: fold the parent's operation stream into a local router.

    The router starts from ``checkpoint`` (the worker's start slice, or
    after a crash its last periodic checkpoint).  State-changing operations
    are acknowledged (``ack``) with their sequence number and the matches
    the router produced since the previous ack, drained from it; read-only
    queries are answered (``answer``) with their sequence number; ``stop``
    answers with a final checkpoint and exits.
    Checkpoints are only ever taken between messages, which is the
    between-frames boundary the shard checkpoint contract requires.

    Nothing else travels back: the acks are the parent's liveness
    signal.  Every :data:`PARENT_CHECK_INTERVAL` seconds without a message
    it checks its parent, and exits once the parent is gone.  When a fault
    plan is installed in the environment
    (:mod:`repro.streaming.faultinject`), its injector hooks run at the
    op/query/ack boundaries; an injected checkpoint-write failure answers
    the query with a ``nack`` instead of dying.
    """
    injector = load_injector(index)
    parent = multiprocessing.parent_process()
    try:
        router = StreamRouter.from_bytes(checkpoint)
        while True:
            try:
                message = tasks.get(timeout=PARENT_CHECK_INTERVAL)
            except queue_module.Empty:
                if not parent.is_alive():
                    # Orphaned: nobody reads the results any more, so do
                    # not wait at exit for their feeder thread.
                    results.cancel_join_thread()
                    return
                continue
            kind = message[0]
            if kind == "op":
                _, seq, op = message
                if injector is not None:
                    injector.before_op(seq, op)
                _apply_op(router, op)
                if injector is not None and injector.suppress_ack(seq):
                    # The matches stay in the router and ride the next ack.
                    continue
                results.put(("ack", index, seq, _ship(router)))
            elif kind == "query":
                _, seq, query = message
                try:
                    if injector is not None:
                        injector.before_query(seq, query[0])
                    payload = _answer_query(router, query)
                except InjectedFault as fault:
                    results.put(("nack", index, seq, str(fault)))
                else:
                    results.put(("answer", index, seq, payload))
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
        "last_op_seq", "drain_mark", "last_checkpoint", "pending_ckpt_seq",
        "inflight", "max_acked", "acks", "buffer", "restarts",
        "ops_since_ckpt", "stopped_state", "ckpt_count", "parked", "death_kind",
        "last_progress_at", "stop_requested_at",
        "culprit_seq", "culprit_streak", "quarantined_seqs",
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
        #: Sequence of the last logged operation sent (-1 before any).
        self.last_op_seq = -1
        #: ``last_op_seq`` at the last drain that found new operations: the
        #: next such drain waits for the acks up to it.
        self.drain_mark = -1
        #: Recovery base: the worker's start slice until its first
        #: periodic checkpoint arrives, then the latest one.
        self.last_checkpoint: Optional[bytes] = None
        #: Sequence of the outstanding periodic checkpoint request, if any.
        self.pending_ckpt_seq: Optional[int] = None
        #: Send time (the parent's monotonic clock) of every sequence, op or
        #: query, sent and not yet acknowledged: the backpressure bound and
        #: the watchdog's oldest-pending-age signal.
        self.inflight: Dict[int, float] = {}
        #: Highest acknowledged sequence (replay duplicates fall below it).
        self.max_acked = -1
        #: Query answers not yet consumed by a caller.
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
        #: Wall-clock of the last acknowledgement progress (or spawn).
        self.last_progress_at = 0.0
        #: Wall-clock of the outstanding graceful-stop request, if any
        #: (``stop`` carries no sequence, so the watchdog tracks it here).
        self.stop_requested_at: Optional[float] = None
        #: Poison attribution: the operation blamed for the last death and
        #: how many consecutive deaths landed on it.
        self.culprit_seq: Optional[int] = None
        self.culprit_streak = 0
        #: Sequences quarantined as poison (their awaiters resolve to None).
        self.quarantined_seqs: set = set()
        #: Recovery-latency probe: death-detection time and the last
        #: replayed sequence; fulfilled when that sequence acks.
        self.recovery_started_at: Optional[float] = None
        self.recovery_target_seq: Optional[int] = None
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
        The origin :class:`StreamRouter`.  :meth:`start` hands its shards
        to the workers (it keeps the workload and refuses frames from then
        on); :meth:`stop` returns a new router holding them again, the
        pool's undrained matches retained in its shards.
    num_workers:
        Worker process count.  The k-th stream in first-seen order lives
        on worker ``k mod num_workers``; results are identical for any
        value ≥ 1.
    dispatch_batch:
        Frames buffered per worker before a ``frames`` operation is sent.
    checkpoint_every:
        Periodic checkpoint cadence, in state-changing operations per
        worker.  Smaller values shorten the replay tail after a crash at
        the cost of more snapshot traffic.

    Workers start with :data:`START_METHOD`, and the parent waits on them
    :data:`POLL_INTERVAL` seconds at a time.  The failure policy has no
    settings: at most :data:`MAX_INFLIGHT` unacknowledged messages per
    worker, and a worker whose consecutive fruitless restarts exceed
    :data:`MAX_RESTARTS` is parked (see :meth:`repair`).
    """

    def __init__(
        self,
        router: StreamRouter,
        num_workers: int = 2,
        dispatch_batch: int = 32,
        checkpoint_every: int = 8,
    ):
        if num_workers <= 0:
            raise PoolError("num_workers must be positive")
        if dispatch_batch <= 0 or checkpoint_every <= 0:
            raise PoolError(
                "dispatch_batch and checkpoint_every must be positive"
            )
        self.router = router
        self.num_workers = num_workers
        self.dispatch_batch = dispatch_batch
        self.checkpoint_every = checkpoint_every
        self._ctx = multiprocessing.get_context(START_METHOD)
        self._workers: List[_WorkerHandle] = []
        #: Stream ownership, in global first-seen order: the k-th stream
        #: lives on worker ``k mod num_workers``.
        self._assignment: Dict[str, int] = {}
        #: The worker raise that broke the pool, chained into every
        #: subsequent PoolError so the cause is never discarded.
        self._failure: Optional[WorkerCrashError] = None
        self._started = False
        self._stopped = False
        self._checkpoints_taken = 0
        self._matches_shipped = 0
        self._match_records_shipped = 0
        self._ops_dispatched = 0
        self._frames_dispatched = 0
        self._total_restarts = 0
        self._supervisor = Supervisor(num_workers)
        #: Next wall-clock at which route() runs a supervision tick.
        self._next_tick_at = 0.0
        #: Quarantined-operation records, in quarantine order (stats surface).
        self._quarantined: List[Dict] = []
        #: Quarantine records not yet surfaced as a PoisonOpError.
        self._poison_pending: List[Dict] = []
        #: Degraded mode: parked-worker records by worker index.
        self._parked: Dict[int, Dict] = {}
        #: Matches that arrived on the workers' acks and await a drain, per
        #: stream in arrival order: the pool's undrained matches.
        self._arrived: Dict[str, List[QueryMatch]] = {}

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
    def degraded(self) -> bool:
        """Whether any worker is parked (degraded mode; see :meth:`repair`)."""
        return bool(self._parked)

    @property
    def settled(self) -> bool:
        """Whether no match can still arrive: every routed frame was
        dispatched, every logged operation acked (a quarantined one left
        the log; parked workers aside) and every arrived match drained.
        A session skips the backend on an idle poll while this holds."""
        return not self._arrived and all(
            worker.parked or (
                not worker.buffer
                and (not worker.log or worker.log[-1][0] <= worker.max_acked)
            )
            for worker in self._workers
        )

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
        """Hand the origin router's shards to fresh workers.

        One :meth:`~repro.streaming.router.StreamRouter.checkpoint` document
        is split by placement, and each worker is spawned from its slice:
        its streams' shards and zeroed retired counters (the origin's
        pre-pool block is counted once, when documents merge).  The
        document's retained matches stay in the parent, undrained.  No
        operation is dispatched.  The origin then holds no shards; it keeps
        the workload and refuses frames.
        """
        if self._started:
            raise PoolError("the pool is already started")
        if self._stopped or self._failure is not None:
            raise PoolError("a stopped or broken pool cannot be restarted")
        document = self.router.checkpoint()
        for stream_id in document["stream_order"]:
            self._assign(stream_id)
        for entry in document["shards"]:
            if entry["retained"]:
                self._arrived[entry["stream_id"]] = unpack_matches(
                    entry["retained"]
                )
        self._workers = [_WorkerHandle(index) for index in range(self.num_workers)]
        try:
            for worker in self._workers:
                worker.last_checkpoint = to_bytes("router", dict(
                    document,
                    shards=[
                        dict(entry, retained=[])
                        for entry in document["shards"]
                        if self._assignment[entry["stream_id"]] == worker.index
                    ],
                    retired_totals=zero_ingest_totals(),
                    stream_order=[
                        stream_id
                        for stream_id, index in self._assignment.items()
                        if index == worker.index
                    ],
                ))
                self._spawn(worker)
        except BaseException:
            # A failed start must not leak the workers already spawned.
            self.terminate()
            raise
        self.router.hand_off()
        self._started = True
        return self

    def stop(self) -> StreamRouter:
        """Gracefully shut down: take every worker's final checkpoint.

        Returns the router restored from the merged documents
        (:meth:`checkpoint_router`'s layout), which owns every shard (new
        streams included) and resumes exactly where the workers left off.
        """
        self._require_running()
        if self._parked:
            raise PoolError(
                "cannot gracefully stop a degraded pool (streams parked on "
                f"workers {sorted(self._parked)}): repair() it first, or "
                "terminate() to abandon the parked state"
            )
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
                    # checkpoint; _pump recovered it (respawn + tail replay),
                    # so re-request the stop from the fresh process.
                    worker.tasks.put(("stop",))
                    worker.stop_requested_at = time.monotonic()
                    stop_sent_to[worker.index] = worker.process
        for worker in self._workers:
            worker.process.join()
        self._started = False
        self._stopped = True
        self._close_queues()
        return StreamRouter.from_checkpoint(self._merge([
            from_bytes(worker.stopped_state, expect_kind="router")
            for worker in self._workers
        ]))

    def terminate(self) -> None:
        """Abort, discarding the workers' state (used on errors and in tests)."""
        for worker in self._workers:
            process = worker.process
            if process is not None and process.is_alive():
                process.terminate()
        for worker in self._workers:
            # Escalates to kill() on a stuck worker and asserts the reap —
            # terminate() must never leak a zombie behind an ignored join.
            _reap_process(worker.process)
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
            # whose parked shards cannot be handed back gracefully.
            self.terminate()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, stream_id: str, frame: FrameObservation) -> None:
        """Buffer one frame for its owning worker (dispatched in batches).

        Unlike the in-process router, matches are not returned here — they
        come back on the workers' acks and are collected with
        :meth:`drain_matches` / :meth:`matches_for`.
        """
        self._require_running()
        worker = self._workers[self._assign(stream_id)]
        worker.buffer.append((stream_id, frame.to_record()))
        if len(worker.buffer) >= self.dispatch_batch:
            self._dispatch_buffer(worker)
        if time.monotonic() >= self._next_tick_at:
            self.tick()

    def route_many(self, events: Iterable[Tuple[str, FrameObservation]]) -> None:
        """Route a ``(stream_id, frame)`` event sequence."""
        for stream_id, frame in events:
            self.route(stream_id, frame)

    def flush(self) -> None:
        """Flush every worker shard's reorder buffer (end-of-stream point).

        The barrier of the pool: it returns once every worker acknowledged
        its flush, so every match produced so far has arrived and the next
        :meth:`drain_matches` returns exactly what the router's would.
        """
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
    def tick(self) -> None:
        """One supervision tick: drain results, recover dead workers, run
        the watchdog.

        This is the supervisor's own entry point — it does not require a
        caller to be blocked in ``_pump``.  The routing hot path invokes it
        time-gated, :meth:`drain_matches` on every call, and an idle parent
        (or an external scheduler) can call it directly: a dead worker is
        recovered and a hung worker escalated even when nobody is awaiting
        an acknowledgement.
        """
        self._require_running()
        self._next_tick_at = time.monotonic() + TICK_INTERVAL
        # Found dead before the results are drained, so the messages it
        # wrote before dying are read first and it is not taken for a
        # worker that exited gracefully.
        dead = self._dead_workers()
        self._drain_results()
        for worker in dead:
            self._recover(worker)
        self._watchdog()

    # ------------------------------------------------------------------
    # Live query lifecycle
    # ------------------------------------------------------------------
    def register_query(self, query: CNFQuery) -> CNFQuery:
        """Register a query on every worker of a live pool.

        The origin router assigns the id (it is the single source of truth
        for the workload, and the documents :meth:`stop` merges take their
        workload from it), then the registration ships to every worker as a
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

        Applied to the origin router first (the workload's bookkeeping),
        then shipped to every worker as a logged operation; workers drop
        the query's evaluator entries and undrained matches, and retire
        whole shards when the cancellation empties the workload (their
        frozen ingest counters surface in ``stats()["retired"]`` and in the
        router :meth:`stop` returns).  The query's undrained matches in the
        parent go too: the call waits for every worker's cancel ack, which
        follows the acks of every earlier operation, so all of the query's
        matches have arrived by then.  Like the router, the pool delivers
        nothing of a query after cancelling it; a parked worker's share is
        dropped by :meth:`repair`.
        """
        self._require_running()
        self._flush_buffers()
        removed = self.router.cancel_query(query_id)
        seqs = [
            (worker, self._send_op(worker, ("cancel", query_id)))
            for worker in self._workers
        ]
        for worker, seq in seqs:
            self._await(worker, seq)
        self._drop_matches({query_id})
        return removed

    def _drop_matches(self, query_ids: Set[int]) -> None:
        """Drop the arrived, undrained matches of cancelled queries."""
        for stream_id, matches in list(self._arrived.items()):
            kept = [m for m in matches if m.query_id not in query_ids]
            if kept:
                self._arrived[stream_id] = kept
            else:
                del self._arrived[stream_id]

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def matches_for(self, stream_id: str) -> List[QueryMatch]:
        """A stream's undrained matches, ordered exactly as the router's.

        Waits for the owning worker to acknowledge every operation sent to
        it.  A parked stream answers with the matches that arrived before
        its worker parked; the rest follow :meth:`repair` (see
        :meth:`stream_health` to tell the cases apart).
        """
        self._require_running()
        index = self._assignment.get(stream_id)
        if index is None:
            return []
        worker = self._workers[index]
        self._dispatch_buffer(worker)
        self._await(worker, worker.last_op_seq)
        return list(self._arrived.get(stream_id, ()))

    def drain_matches(self) -> Dict[str, List[QueryMatch]]:
        """Deliver the matches that have arrived, grouped by stream.

        Sends no operation: buffered frames are dispatched, and the drain
        waits only for the acks of the operations each worker had been
        sent by the previous drain that found new ones — the workers run
        ahead by at most one drain.  A worker that died since the last
        call is respawned, and the drain also waits for its replay to
        finish, so a death after the drain returns is never blamed on an
        operation the crashed worker was replaying.  Matches of later
        frames arrive on later acks and go out with a later drain, each
        exactly once.
        After :meth:`flush`, the barrier, a drain returns everything,
        byte-identical to what the single-process router would drain.
        Stream order is global first-seen order and per-stream match order
        is the router's.  Parked workers are not waited for; their
        journaled operations deliver after :meth:`repair`.

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
        self.tick()
        for worker in self._workers:
            if worker.last_op_seq != worker.drain_mark:
                previous = worker.drain_mark
                worker.drain_mark = worker.last_op_seq
                self._await(worker, previous)
            if worker.recovery_target_seq is not None:
                self._await(worker, worker.recovery_target_seq)
        self._drain_results()
        arrived = self._arrived
        self._arrived = {}
        return {
            stream_id: arrived[stream_id]
            for stream_id in self._assignment if stream_id in arrived
        }

    def _absorb(self, shipped: Mapping[str, List]) -> None:
        """Buffer the grouped match records of one ack, counting both sides."""
        for stream_id, records in shipped.items():
            matches = unpack_matches(records)
            self._match_records_shipped += len(records)
            self._matches_shipped += len(matches)
            if matches:
                self._arrived.setdefault(stream_id, []).extend(matches)

    def stats(self) -> Dict:
        """Aggregate + per-shard statistics across all workers.

        The layout mirrors :meth:`StreamRouter.stats` (plus a ``pool``
        block), and ``per_shard`` is rebuilt in the router's canonical
        order — stream first-seen order — so reports are comparable byte for byte
        after stripping the pool-only fields (:func:`deterministic_stats`).
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
            "duplicates": 0, "reordered": 0, "queue_depth": 0,
        }
        # Retirements (the whole workload cancelled) happen inside workers,
        # so their frozen retired counters sum on top of the origin's
        # pre-pool block (the origin holds no shards, so it never retires
        # one after start()).
        origin = self.router.stats()
        retired = origin["retired"]
        evaluation = origin["evaluator"]
        shards = 0
        per_shard_raw: Dict[str, Dict] = {}
        for stats in worker_stats:
            shards += stats["shards"]
            for key in totals:
                totals[key] += stats["totals"][key]
            per_shard_raw.update(stats["per_shard"])
            for key, value in stats["retired"].items():
                retired[key] += value
            for key, value in stats["evaluator"].items():
                evaluation[key] += value
        per_shard: Dict[str, Dict] = {
            stream_id: per_shard_raw[stream_id]
            for stream_id in self._assignment
            if stream_id in per_shard_raw
        }
        return {
            "streams": len(self._assignment),
            "window_groups": len(self.router.group_keys),
            "shards": shards,
            "totals": totals,
            "retired": retired,
            "per_shard": per_shard,
            "evaluator": evaluation,
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
                "degraded": self.degraded,
                "supervision": self._supervisor.stats(),
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
        pool keeps serving), and the documents merge as :meth:`stop`
        merges them, the pool's undrained matches included.
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
        return self._merge(worker_payloads)

    def _merge(self, worker_payloads: Sequence[Dict]) -> Dict:
        """One router document from the workers' documents.

        The origin router supplies the workload and its pre-pool retired
        counters; the workers' retired counters add on top, and their shard
        entries come in stream first-seen order — the layout an
        uninterrupted single-process router would produce.  Each entry's
        retained matches are the stream's undrained matches in the parent
        followed by those still in the worker's router (produced after its
        last ack).  Key order is the router's own (the codec is canonical,
        insertion order is state), so the restored router re-exports the
        document byte for byte.
        """
        document = self.router.checkpoint()
        retired = document["retired_totals"]
        by_stream: Dict[str, Dict] = {}
        for payload in worker_payloads:
            for key, value in payload["retired_totals"].items():
                retired[key] += value
            for entry in payload["shards"]:
                arrived = self._arrived.get(entry["stream_id"])
                if arrived:
                    entry = dict(
                        entry,
                        retained=pack_matches(arrived) + entry["retained"],
                    )
                by_stream[entry["stream_id"]] = entry
        document["shards"] = [
            by_stream[stream_id]
            for stream_id in self._assignment
            if stream_id in by_stream
        ]
        document["stream_order"] = list(self._assignment)
        return document

    # ------------------------------------------------------------------
    # Internals: dispatch, acknowledgements, recovery
    # ------------------------------------------------------------------
    def _require_running(self) -> None:
        if self._failure is not None:
            # Chain the recorded failure instead of discarding it: callers
            # see worker index, op sequence and traceback summary in the
            # cause.
            raise PoolError(
                f"the pool is broken (a worker failed): {self._failure}"
            ) from self._failure
        if not self._started:
            raise PoolError(
                "the pool is not running (start() it first; a stopped pool "
                "cannot be reused)"
            )

    def _assign(self, stream_id: str) -> int:
        index = self._assignment.get(stream_id)
        if index is None:
            index = len(self._assignment) % self.num_workers
            self._assignment[stream_id] = index
        return index

    def _spawn(self, worker: _WorkerHandle) -> None:
        worker.tasks = self._ctx.Queue()
        worker.results = self._ctx.Queue()
        worker.process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker.index, worker.tasks, worker.results,
                worker.last_checkpoint,
            ),
            daemon=True,
            name=f"shard-worker-{worker.index}",
        )
        worker.process.start()
        # A fresh generation starts with a clean watchdog slate; replayed
        # operations are re-stamped as they are re-sent.
        worker.inflight.clear()
        worker.last_progress_at = time.monotonic()

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
        worker.last_op_seq = seq
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
        worker.inflight[seq] = time.monotonic()
        worker.tasks.put(("op", seq, op))
        worker.ops_since_ckpt += 1
        if (worker.ops_since_ckpt >= self.checkpoint_every
                and worker.pending_ckpt_seq is None):
            self._request_checkpoint(worker)
        while len(worker.inflight) > MAX_INFLIGHT:
            self._pump(block=True, focus=worker)
        return seq

    def _send_query(self, worker: _WorkerHandle, query: Tuple) -> int:
        seq = worker.next_seq
        worker.next_seq += 1
        worker.inflight[seq] = time.monotonic()
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
        """Block until ``seq`` is acknowledged; returns a query's answer.

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
            message = target.results.get(timeout=POLL_INTERVAL)
        except (queue_module.Empty, OSError, EOFError):
            pass
        else:
            self._on_message(target, message)
            progressed = True
        if self._drain_results():
            return True
        if progressed:
            return True
        dead = self._dead_workers()
        for worker in dead:
            self._recover(worker)
        return bool(dead)

    def _dead_workers(self) -> List[_WorkerHandle]:
        """Workers whose process died without being asked to stop (parked
        workers are dead by design until :meth:`repair`)."""
        return [
            worker for worker in self._workers
            if not worker.parked and worker.process is not None
            and worker.stopped_state is None and not worker.process.is_alive()
        ]

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
        than :data:`~repro.streaming.supervision.HANG_AFTER`.  Progress is
        measured by acks: a worker whose result pipe stalled (or that
        livelocks) gets caught, while a deep-but-draining queue does not
        (each ack refreshes the progress clock).
        """
        now = time.monotonic()
        for worker in self._workers:
            if (worker.parked or worker.process is None
                    or worker.stopped_state is not None
                    or not worker.process.is_alive()):
                continue  # dead workers go through _recover, not escalation
            oldest = (
                min(worker.inflight.values())
                if worker.inflight else worker.stop_requested_at
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
        process.terminate()
        process.join(ESCALATION_TIMEOUT)
        if process.is_alive():
            process.kill()
        self._recover(worker)

    def _on_message(self, worker: _WorkerHandle, message: Tuple) -> None:
        kind = message[0]
        if kind in ("ack", "answer"):
            _, _, seq, payload = message
            # Discard from inflight even for replay duplicates: _recover
            # re-adds every logged sequence, including already-acked ones,
            # and leaking them would wedge _send_op's backpressure loop.
            worker.inflight.pop(seq, None)
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
            if kind == "ack":
                if payload is not None:
                    self._absorb(payload)
            elif seq == worker.pending_ckpt_seq:
                worker.last_checkpoint = payload
                worker.pending_ckpt_seq = None
                worker.log = [(s, op) for s, op in worker.log if s > seq]
                worker.ckpt_count += 1
                self._checkpoints_taken += 1
            elif payload is not None:
                worker.acks[seq] = payload
        elif kind == "nack":
            _, _, seq, reason = message
            worker.inflight.pop(seq, None)
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
            text = message[2]
            summary = _traceback_summary(text)
            self._failure = WorkerCrashError(
                f"worker {worker.index} raised inside an operation "
                f"({summary})",
                worker_index=worker.index,
                op_seq=worker.max_acked,
                pending_ops=len(worker.log),
                traceback_summary=summary,
            )
            self.terminate()
            raise PoolError(
                f"worker {worker.index} raised inside an operation:\n{text}"
            ) from self._failure
        else:  # pragma: no cover - protocol violation
            raise PoolError(f"unknown worker response {kind!r}")

    def _culprit_op(self, worker: _WorkerHandle) -> Optional[Tuple[int, Tuple]]:
        """The logged operation the dead worker was most plausibly executing:
        the oldest unacknowledged one.

        A worker applies its operations in order and acknowledges each on
        one FIFO queue before taking the next, so the oldest unacknowledged
        operation is the one it was applying when it died.  The exception is
        an ack that fault injection's ``stall`` swallowed: when the worker
        dies before a later ack covers it, the stalled operation is blamed
        first, and the real culprit is quarantined one restart later.
        ``None`` when nothing unacknowledged is logged (the death cannot be
        blamed on any replayable op).
        """
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
        return []

    def _quarantine(
        self, worker: _WorkerHandle, culprit: Tuple[int, Tuple], kind: str
    ) -> None:
        """Drop a poison operation from the replay log, with full context."""
        seq, op = culprit
        worker.log = [(s, o) for s, o in worker.log if s != seq]
        worker.inflight.pop(seq, None)
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

    def _park(self, worker: _WorkerHandle, exitcode) -> None:
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
        kind = "restart-budget"
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
        worker.inflight.clear()
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
        self._supervisor.record_park(worker.index)

    def repair(self) -> List[str]:
        """Respawn every parked worker and replay its journaled backlog.

        Returns the stream ids brought back into service (first-seen
        order).  The replacement processes read the *current* environment,
        so a fault plan uninstalled since the park does not re-arm, and the
        replay — a respawn from the recovery base plus the full journal in
        order — reproduces byte-identical matches and stats for the parked
        streams.
        Matches of a query cancelled while the worker was parked, produced
        by the journaled frames before the cancellation, are dropped: the
        call waits for the replay to pass the last such cancellation.
        A no-op on a healthy pool.
        """
        self._require_running()
        revived: List[str] = []
        for index in sorted(self._parked):
            worker = self._workers[index]
            record = self._parked.pop(index)
            cancels = [
                (seq, op[1]) for seq, op in worker.log
                if op[0] == "cancel" and seq > worker.max_acked
            ]
            worker.parked = False
            worker.restarts = 0
            worker.culprit_streak = 0
            worker.culprit_seq = None
            self._spawn(worker)
            now = time.monotonic()
            for seq, op in worker.log:
                worker.inflight[seq] = now
                worker.tasks.put(("op", seq, op))
            worker.ops_since_ckpt = len(worker.log)
            worker.recovery_started_at = now
            worker.recovery_target_seq = (
                worker.log[-1][0] if worker.log else None
            )
            if worker.log:
                self._request_checkpoint(worker)
            self._supervisor.record_repair(index)
            if cancels:
                self._await(worker, cancels[-1][0])
                self._drop_matches({query_id for _, query_id in cancels})
            revived.extend(record["streams"])
        return revived

    def _recover(self, worker: _WorkerHandle) -> None:
        """Respawn a dead worker from its last checkpoint and replay the tail.

        The supervision layer hangs off this path: the death is attributed
        to a culprit operation (poison detection → quarantine), a worker
        whose consecutive fruitless restarts exceed :data:`MAX_RESTARTS`
        is parked, and the respawn waits an exponential backoff.
        """
        kind = worker.death_kind or "crash"
        worker.death_kind = None
        exitcode = _reap_process(worker.process)
        self._total_restarts += 1
        self._supervisor.record_restart(worker.index, kind)
        # Poison attribution: consecutive deaths blamed on the same logged
        # operation build a streak; a poison streak quarantines the op
        # instead of burning the whole restart budget.
        culprit = self._culprit_op(worker)
        if culprit is not None and culprit[0] == worker.culprit_seq:
            worker.culprit_streak += 1
        else:
            worker.culprit_seq = culprit[0] if culprit is not None else None
            worker.culprit_streak = 1 if culprit is not None else 0
        if culprit is not None and self._supervisor.poisoned(
            worker.culprit_streak
        ):
            self._quarantine(worker, culprit, kind)
        else:
            worker.restarts += 1
            if worker.restarts > MAX_RESTARTS:
                self._park(worker, exitcode)
                return
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
        unacked = sorted(worker.inflight)
        self._spawn(worker)
        lost_ckpt = worker.pending_ckpt_seq
        worker.pending_ckpt_seq = None
        logged = {seq for seq, _ in worker.log}
        for seq in unacked:
            if seq not in logged and seq != lost_ckpt:
                # A read-only query died with the worker; callers re-issue.
                # (A lost checkpoint request is handled via the cleared
                # pending marker — nobody awaits its ack directly.)
                worker.acks[seq] = _LOST
        now = time.monotonic()
        for seq, op in worker.log:
            worker.inflight[seq] = now
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
    """Strip the pool-only fields from a stats report.

    Everything that remains — counters, shard layout, report order — is a
    pure function of the event sequence, so two architectures serving the
    same workload must agree on it byte for byte.
    """
    def strip(value):
        if isinstance(value, dict):
            return {
                key: strip(item) for key, item in value.items()
                if key not in (
                    "pool", "parked", "quarantined",
                    # Evaluator counters restart with every rebuilt router
                    # (a crash replay, a restore) and its memo is shared by
                    # the router's streams, one router per pool worker:
                    # they describe processes, not the event sequence.
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
