"""Parent-side supervision of pool workers: watchdog, backoff, ledger.

The pool's crash recovery (restore last checkpoint, replay the unacked
tail) answers *how* to bring a worker back; this module answers the
questions around it:

* **is the worker alive in the useful sense?**  Acknowledgement progress
  is the one liveness signal: every logged operation is acknowledged once,
  on the worker's FIFO result queue.  The :class:`Supervisor` classifies
  each worker from the parent's own clock: *healthy*, or *hung* when the
  oldest pending message has been outstanding longer than
  :data:`HANG_AFTER` with no acknowledgement progress for as long —
  deadlock, stuck queue, livelock or a stalled result pipe, which the
  parent cannot tell apart and need not;
* **when is it safe to restart?**  Hung workers are escalated
  ``terminate()`` → ``kill()`` and reaped, then go through the ordinary
  crash-recovery path; every restart waits an exponential backoff,
  ``min(BACKOFF_CAP, BACKOFF_BASE * 2**(n-1))`` before the nth
  consecutive fruitless restart, instead of hot-looping against a
  persistent failure, and an operation blamed for
  :data:`POISON_THRESHOLD` consecutive deaths is poison;
* **what happened?**  Escalations, restarts by failure kind, quarantined
  operations, parked workers and per-restart recovery latencies (death
  detected → replay tail fully re-acknowledged) accumulate here and
  surface under ``stats()["pool"]["supervision"]``.

The supervisor holds no queues and spawns no threads: the pool ticks it
from :meth:`~repro.streaming.pool.ShardWorkerPool.tick` — its own
entry point, invoked time-gated from the routing hot path and callable
directly on an idle pool — as well as from the pump loop while a caller
is blocked, so detection does not depend on anyone blocking.

The policy has no settings: its numbers are the module constants below,
read when they are used, so a test shortens them with
``monkeypatch.setattr`` instead of a configuration object.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Failure kinds a worker restart or park is attributed to (machine-readable).
FAILURE_KINDS = ("crash", "hang", "restart-budget")

#: Seconds a worker may go with a pending message and no acknowledgement
#: progress before it is declared *hung* and escalated.  Must comfortably
#: exceed the cost of one dispatched batch: a legitimately busy worker that
#: cannot ack faster than this is killed and recovered (safe and
#: byte-identical, but wasted work).
HANG_AFTER = 30.0

#: Restart delay before the nth consecutive fruitless restart:
#: ``min(BACKOFF_CAP, BACKOFF_BASE * 2**(n-1))`` seconds.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 5.0

#: Consecutive deaths blamed on the same logged operation before it is
#: quarantined.
POISON_THRESHOLD = 2


class _WorkerView:
    """What the supervisor knows about one worker."""

    __slots__ = ("state", "escalations", "restarts_by_kind", "recovery_seconds")

    def __init__(self):
        self.state = "healthy"
        self.escalations = 0
        self.restarts_by_kind: Dict[str, int] = {}
        self.recovery_seconds: List[float] = []


class Supervisor:
    """Classification, backoff and incident ledger over a pool's workers."""

    def __init__(self, num_workers: int):
        self._views = [_WorkerView() for _ in range(num_workers)]
        self._checkpoint_failures = 0
        self._quarantines = 0
        self._backoff_total = 0.0

    # -- observations ---------------------------------------------------
    def observe_progress(self, index: int) -> None:
        """An acknowledgement advanced — the worker is demonstrably live."""
        self._views[index].state = "healthy"

    # -- classification -------------------------------------------------
    def assess(
        self, index: int, pending_age: Optional[float], idle_age: float
    ) -> str:
        """Classify one live worker from the parent's clock.

        ``pending_age`` is the age of the oldest unacknowledged operation
        (``None`` when nothing is pending — trivially healthy);
        ``idle_age`` the time since the last acknowledgement progress.
        Hung requires *both* to exceed :data:`HANG_AFTER`: an old pending
        op alone just means a deep queue that is still draining.
        """
        view = self._views[index]
        hung = (
            pending_age is not None
            and pending_age > HANG_AFTER and idle_age > HANG_AFTER
        )
        view.state = "hung" if hung else "healthy"
        return view.state

    # -- restart pacing -------------------------------------------------
    def backoff(self, consecutive_restarts: int) -> float:
        """Exponential delay before the Nth fruitless restart."""
        delay = min(
            BACKOFF_CAP, BACKOFF_BASE * 2 ** max(0, consecutive_restarts - 1)
        )
        self._backoff_total += delay
        return delay

    @staticmethod
    def poisoned(streak: int) -> bool:
        """Whether ``streak`` consecutive deaths on one operation make it
        poison, to be quarantined."""
        return streak >= POISON_THRESHOLD

    # -- ledger ---------------------------------------------------------
    def record_escalation(self, index: int) -> None:
        self._views[index].escalations += 1

    def record_restart(self, index: int, kind: str) -> None:
        by_kind = self._views[index].restarts_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1

    def record_recovery(self, index: int, seconds: float) -> None:
        self._views[index].recovery_seconds.append(seconds)

    def record_checkpoint_failure(self, index: int) -> None:
        self._checkpoint_failures += 1

    def record_quarantine(self) -> None:
        self._quarantines += 1

    def record_park(self, index: int) -> None:
        self._views[index].state = "parked"

    def record_repair(self, index: int) -> None:
        self._views[index].state = "healthy"

    def stats(self) -> Dict:
        """The supervision ledger, JSON-friendly (lands in pool stats)."""
        recoveries = [
            seconds
            for view in self._views
            for seconds in view.recovery_seconds
        ]
        return {
            "workers": [
                {
                    "index": index,
                    "state": view.state,
                    "escalations": view.escalations,
                    "restarts": dict(view.restarts_by_kind),
                }
                for index, view in enumerate(self._views)
            ],
            "checkpoint_failures": self._checkpoint_failures,
            "quarantines": self._quarantines,
            "backoff_seconds_total": round(self._backoff_total, 6),
            "recovery": {
                "count": len(recoveries),
                "max_seconds": round(max(recoveries), 6) if recoveries else 0.0,
                "mean_seconds": round(
                    sum(recoveries) / len(recoveries), 6
                ) if recoveries else 0.0,
            },
        }
