"""Backend adapters of the session facade.

A :class:`~repro.session.session.Session` talks to one serving architecture
through the small :class:`Backend` protocol; the two runtimes adapt to it
here:

* :class:`RouterBackend` — a :class:`~repro.streaming.router.StreamRouter`
  with batched ingest, watermark reordering and shard checkpoints.  The
  ``"inline"`` selector is this backend with one-frame batches and no
  reorder window, so every frame is evaluated synchronously at ingest.
* :class:`PoolBackend` — a
  :class:`~repro.streaming.pool.ShardWorkerPool` over a router: shards run
  in worker processes with crash recovery.

Both deliver matches through the same retained-until-drained contract and
report them in the same canonical order (stream first-seen order; within
a stream, frame by frame, group by group in registration order), so a workload
driven through any backend produces byte-identical reports — pinned by the
differential suite.  Both checkpoint to the same router-layout document,
so a snapshot taken on either restores onto the other unchanged.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional

from repro.datamodel.observation import FrameObservation
from repro.engine.config import MCOSMethod
from repro.query.evaluator import QueryMatch
from repro.query.model import CNFQuery
from repro.streaming.pool import ShardWorkerPool
from repro.streaming.router import StreamRouter


class Backend(abc.ABC):
    """What a serving architecture must provide to sit under a Session.

    Queries arrive with their session-assigned ids; matches are retained
    inside the backend until :meth:`drain` collects them.  ``flush`` forces
    buffered-but-unprocessed frames through (end-of-stream or barrier
    point); with one-frame batches and no reorder window nothing is ever
    buffered, so it finds nothing to do.
    """

    @abc.abstractmethod
    def register(self, query: CNFQuery) -> None:
        """Thread a (possibly mid-stream) registration down the stack."""

    @abc.abstractmethod
    def cancel(self, query: CNFQuery) -> None:
        """Thread a cancellation down the stack (id is tombstoned above)."""

    @abc.abstractmethod
    def queries(self) -> List[CNFQuery]:
        """The registered (not cancelled) queries, with their ids."""

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

    def close(self) -> None:
        """Release resources (worker processes, window state)."""


class RouterBackend(Backend):
    """The in-process sharded streaming runtime behind the session API
    (``"router"``, and ``"inline"`` with one-frame batches)."""

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

    def queries(self) -> List[CNFQuery]:
        return self.router.queries

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
    gracefully on :meth:`close`, merging the workers' final checkpoints
    into one router.  Checkpoints are taken live through
    :meth:`ShardWorkerPool.checkpoint_router` — the pool keeps serving.
    """

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
        supervision: Optional[Dict] = None,
        degraded_mode: bool = True,
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
            supervision=supervision,
            # Sessions prefer staying up: an irrecoverable worker parks its
            # streams (per-stream health) instead of breaking the session.
            on_irrecoverable="park" if degraded_mode else "raise",
        )
        self.pool.start()

    def register(self, query: CNFQuery) -> None:
        self.pool.register_query(query)

    def cancel(self, query: CNFQuery) -> None:
        self.pool.cancel_query(query.query_id)

    def queries(self) -> List[CNFQuery]:
        return self.pool.router.queries

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

    def checkpoint_payload(self) -> Dict:
        return self.pool.checkpoint_router()

    @classmethod
    def restore(cls, payload: Dict, **config) -> "PoolBackend":
        # The layout is re-derived from the document's stream order for
        # this pool's worker count; nothing about it is persisted.
        return cls(router=StreamRouter.from_checkpoint(payload), **config)

    def close(self) -> None:
        """Release worker processes, whatever state the pool is in.

        A healthy pool stops gracefully (the workers' final checkpoints
        merge into one router); a degraded pool cannot — its parked journal has no
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
#: ``"inline"`` is the router; the session builds it with one-frame
#: batches and no reorder window.
BACKENDS = {
    "inline": RouterBackend,
    "router": RouterBackend,
    "pool": PoolBackend,
}
