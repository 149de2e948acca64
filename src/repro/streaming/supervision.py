"""Parent-side supervision of pool workers: watchdog, backoff, ledger.

The pool's crash recovery (restore last checkpoint, replay the unacked
tail) answers *how* to bring a worker back; this module answers the
questions around it:

* **is the worker alive in the useful sense?**  Acknowledgement progress
  is the one liveness signal: every logged operation is acknowledged once,
  on the worker's FIFO result queue.  The :class:`Supervisor` classifies
  each worker from the parent's own clock: *healthy*, or *hung* when the
  oldest pending message has been outstanding longer than ``hang_after``
  with no acknowledgement progress for as long — deadlock, stuck queue,
  livelock or a stalled result pipe, which the parent cannot tell apart
  and need not;
* **when is it safe to restart?**  Hung workers are escalated
  ``terminate()`` → ``kill()`` and reaped, then go through the ordinary
  crash-recovery path; every restart waits an exponential backoff,
  ``min(backoff_cap, backoff_base * 2**(n-1))`` before the nth
  consecutive fruitless restart, instead of hot-looping against a
  persistent failure;
* **what happened?**  Escalations, restarts by failure kind, quarantined
  operations, parked workers and per-restart recovery latencies (death
  detected → replay tail fully re-acknowledged) accumulate here and
  surface under ``stats()["pool"]["supervision"]``.

The supervisor holds no queues and spawns no threads: the pool ticks it
from :meth:`~repro.streaming.pool.ShardWorkerPool.tick` — its own
entry point, invoked time-gated from the routing hot path and callable
directly on an idle pool — as well as from the pump loop while a caller
is blocked, so detection does not depend on anyone blocking.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Union

#: Failure kinds a worker death/park is attributed to (machine-readable,
#: mirrored by :attr:`WorkerCrashError.kind`).
FAILURE_KINDS = ("crash", "hang", "poison", "restart-budget")


class SupervisionConfig:
    """Knobs of the supervision layer (all durations in seconds).

    Parameters
    ----------
    hang_after:
        Age past which a worker with no acknowledgement progress is
        declared *hung* and escalated.  Must comfortably exceed the cost
        of one dispatched batch — a legitimately busy worker that cannot
        ack faster than this will be killed and recovered (safe,
        byte-identical, but wasted work).
    backoff_base / backoff_cap:
        Restart delay: ``base * 2**(restart-1)`` capped at ``cap``.
    poison_threshold:
        Consecutive deaths attributed to the *same* logged operation
        before it is quarantined.  ``None`` disables quarantine (the
        streak then counts against the restart budget and parks or
        breaks the pool with kind ``"poison"``).
    """

    __slots__ = ("hang_after", "backoff_base", "backoff_cap", "poison_threshold")

    def __init__(
        self,
        hang_after: float = 30.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 5.0,
        poison_threshold: Optional[int] = 2,
    ):
        if hang_after <= 0:
            raise ValueError("hang_after must be positive")
        if backoff_base < 0 or backoff_cap < 0:
            raise ValueError("backoff knobs must be non-negative")
        if poison_threshold is not None and poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1 (or None)")
        self.hang_after = float(hang_after)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.poison_threshold = (
            int(poison_threshold) if poison_threshold is not None else None
        )

    def to_dict(self) -> Dict:
        """JSON-friendly form (session checkpoints embed this)."""
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SupervisionConfig":
        known = {
            key: value for key, value in payload.items()
            if key in cls.__slots__
        }
        return cls(**known)

    @classmethod
    def coerce(
        cls, value: Union["SupervisionConfig", Mapping, None]
    ) -> "SupervisionConfig":
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise TypeError(
            f"supervision must be a SupervisionConfig or a mapping, got "
            f"{type(value).__name__}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SupervisionConfig(hang={self.hang_after}, "
            f"poison={self.poison_threshold})"
        )


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

    def __init__(self, config: SupervisionConfig, num_workers: int):
        self.config = config
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
        Hung requires *both* to exceed ``hang_after``: an old pending op
        alone just means a deep queue that is still draining.
        """
        view = self._views[index]
        hang_after = self.config.hang_after
        hung = (
            pending_age is not None
            and pending_age > hang_after and idle_age > hang_after
        )
        view.state = "hung" if hung else "healthy"
        return view.state

    # -- restart pacing -------------------------------------------------
    def backoff(self, consecutive_restarts: int) -> float:
        """Exponential delay before the Nth fruitless restart."""
        config = self.config
        delay = min(
            config.backoff_cap,
            config.backoff_base * 2 ** max(0, consecutive_restarts - 1),
        )
        self._backoff_total += delay
        return delay

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

    def state_of(self, index: int) -> str:
        return self._views[index].state

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
