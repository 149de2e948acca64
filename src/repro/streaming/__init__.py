"""Sharded multi-stream streaming runtime with checkpoint/restore.

Serves many concurrent video feeds on top of the single-relation engine:
a :class:`~repro.streaming.router.StreamRouter` auto-groups queries by their
``(window, duration)`` parameters into one query evaluator per group and
partitions incoming frames across per-stream
:class:`~repro.streaming.shard.StreamShard`\\ s, each wrapping one
:class:`~repro.engine.engine.TemporalVideoQueryEngine` that answers every
window group of the stream from one generator per label projection,
evaluating against the router's evaluators.
Shards ingest in batches, tolerate late/out-of-order frames up to a
watermark, expose ingest statistics, and snapshot/restore their full state
through the versioned checkpoint format of
:mod:`repro.streaming.checkpoint` (compact binary version 10, the only
version written or read).

A :class:`~repro.streaming.pool.ShardWorkerPool` moves the shards into
``multiprocessing`` workers — each started from its slice of one router
checkpoint, fed batched frames over queues, periodically snapshotted, and
respawned-plus-replayed when it crashes — while producing results
byte-identical to the in-process router.  A supervision layer
(:mod:`repro.streaming.supervision`) watches the workers — a hung-worker
watchdog driven by acknowledgement progress, exponential-backoff restarts,
poison-operation quarantine, and a degraded mode that parks an
irrecoverable worker's streams while the rest keep serving — and a
deterministic fault-injection harness (:mod:`repro.streaming.faultinject`)
scripts the failures that exercise it.
"""

from repro.streaming.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    SUPPORTED_VERSIONS,
    CheckpointError,
)
from repro.streaming.faultinject import (
    FAULT_KINDS,
    RECOVERABLE_KINDS,
    Fault,
    FaultPlan,
    InjectedFault,
)
from repro.streaming.pool import (
    PoisonOpError,
    PoolError,
    ShardWorkerPool,
    WorkerCrashError,
    deterministic_stats,
    match_report,
)
from repro.streaming.router import StreamRouter
from repro.streaming.shard import ShardStats, StreamShard, group_queries_by_window
from repro.streaming.supervision import (
    FAILURE_KINDS,
    SupervisionConfig,
    Supervisor,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "FAILURE_KINDS",
    "FAULT_KINDS",
    "RECOVERABLE_KINDS",
    "SUPPORTED_VERSIONS",
    "CheckpointError",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "PoisonOpError",
    "PoolError",
    "ShardStats",
    "ShardWorkerPool",
    "StreamShard",
    "StreamRouter",
    "SupervisionConfig",
    "Supervisor",
    "WorkerCrashError",
    "deterministic_stats",
    "group_queries_by_window",
    "match_report",
]
