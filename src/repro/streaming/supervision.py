"""Parent-side supervision of pool workers: watchdog, backoff, ledger.

The pool's crash recovery (restore last checkpoint, replay the unacked
tail) answers *how* to bring a worker back; this module answers the
questions around it:

* **is the worker alive in the useful sense?**  Workers emit heartbeats —
  one before every operation, one per idle interval — carrying the
  sequence number, current operation kind and frames processed since the
  last beat.  The :class:`Supervisor` classifies each worker from the
  parent's own clock: *healthy* (acknowledgements flowing), *slow* (the
  oldest pending operation has been outstanding longer than
  ``slow_after``), *hung* (longer than ``hang_after`` with no
  acknowledgement progress — deadlock, stuck queue, livelock, or a
  stalled result pipe, which heartbeats alone cannot distinguish from
  useful work, so progress is measured by acks, not beats);
* **when is it safe to restart?**  Hung workers are escalated
  ``terminate()`` → ``kill()`` and reaped, then go through the ordinary
  crash-recovery path; every restart waits a jittered exponential backoff
  (seeded, so fault runs stay reproducible) instead of hot-looping
  against a persistent failure;
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

import random
from typing import Dict, List, Mapping, Optional, Union

#: Failure kinds a worker death/park is attributed to (machine-readable,
#: mirrored by :attr:`WorkerCrashError.kind`).
FAILURE_KINDS = ("crash", "hang", "poison", "restart-budget")


class SupervisionConfig:
    """Knobs of the supervision layer (all durations in seconds).

    Parameters
    ----------
    heartbeat_interval:
        Idle-worker heartbeat cadence (busy workers beat per operation).
    slow_after:
        Oldest-pending-operation age past which a worker is classified
        *slow* (recorded, never acted on).
    hang_after:
        Age past which a worker with no acknowledgement progress is
        declared *hung* and escalated.  Must comfortably exceed the cost
        of one dispatched batch — a legitimately busy worker that beats
        but cannot ack faster than this will be killed and recovered
        (safe, byte-identical, but wasted work).
    escalation_timeout:
        Grace given to ``terminate()`` (then ``kill()``) during
        escalation and reaping before the next stage fires.
    backoff_base / backoff_factor / backoff_cap / backoff_jitter:
        Restart delay: ``base * factor**(restart-1)`` capped at ``cap``,
        stretched by up to ``jitter`` (fraction, seeded RNG).
    poison_threshold:
        Consecutive deaths attributed to the *same* logged operation
        before it is quarantined.  ``None`` disables quarantine (the
        streak then counts against the restart budget and parks or
        breaks the pool with kind ``"poison"``).
    seed:
        Seed of the jitter RNG — fault runs reproduce byte-for-byte.
    """

    __slots__ = (
        "heartbeat_interval", "slow_after", "hang_after",
        "escalation_timeout", "backoff_base", "backoff_factor",
        "backoff_cap", "backoff_jitter", "poison_threshold", "seed",
    )

    def __init__(
        self,
        heartbeat_interval: float = 0.5,
        slow_after: float = 1.0,
        hang_after: float = 30.0,
        escalation_timeout: float = 5.0,
        backoff_base: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_cap: float = 5.0,
        backoff_jitter: float = 0.25,
        poison_threshold: Optional[int] = 2,
        seed: int = 0,
    ):
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if slow_after <= 0 or hang_after <= 0:
            raise ValueError("slow_after and hang_after must be positive")
        if slow_after > hang_after:
            raise ValueError(
                f"slow_after ({slow_after}) must not exceed hang_after "
                f"({hang_after}): slow is the pre-hung warning tier"
            )
        if backoff_base < 0 or backoff_cap < 0 or backoff_jitter < 0:
            raise ValueError("backoff knobs must be non-negative")
        if backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if poison_threshold is not None and poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1 (or None)")
        self.heartbeat_interval = float(heartbeat_interval)
        self.slow_after = float(slow_after)
        self.hang_after = float(hang_after)
        self.escalation_timeout = float(escalation_timeout)
        self.backoff_base = float(backoff_base)
        self.backoff_factor = float(backoff_factor)
        self.backoff_cap = float(backoff_cap)
        self.backoff_jitter = float(backoff_jitter)
        self.poison_threshold = (
            int(poison_threshold) if poison_threshold is not None else None
        )
        self.seed = int(seed)

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
            f"SupervisionConfig(hb={self.heartbeat_interval}, "
            f"slow={self.slow_after}, hang={self.hang_after}, "
            f"poison={self.poison_threshold})"
        )


class _WorkerView:
    """What the supervisor knows about one worker."""

    __slots__ = (
        "heartbeats", "last_heartbeat", "state", "slow_ops", "escalations",
        "restarts_by_kind", "recovery_seconds", "parked_kind",
    )

    def __init__(self):
        self.heartbeats = 0
        #: Last heartbeat payload (phase, op kind, seq, frames_since).
        self.last_heartbeat: Optional[Dict] = None
        self.state = "healthy"
        #: Sequences already reported slow (one incident per op).
        self.slow_ops: set = set()
        self.escalations = 0
        self.restarts_by_kind: Dict[str, int] = {}
        self.recovery_seconds: List[float] = []
        self.parked_kind: Optional[str] = None


class Supervisor:
    """Classification, backoff and incident ledger over a pool's workers."""

    def __init__(self, config: SupervisionConfig, num_workers: int):
        self.config = config
        self._views = [_WorkerView() for _ in range(num_workers)]
        self._rng = random.Random(config.seed)
        self._slow_incidents = 0
        self._checkpoint_failures = 0
        self._quarantines = 0
        self._backoff_total = 0.0

    # -- observations ---------------------------------------------------
    def observe_heartbeat(self, index: int, info: Dict) -> None:
        view = self._views[index]
        view.heartbeats += 1
        view.last_heartbeat = info

    def observe_progress(self, index: int) -> None:
        """An acknowledgement advanced — the worker is demonstrably live."""
        view = self._views[index]
        view.state = "healthy"
        view.slow_ops.clear()

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
        if pending_age is None:
            view.state = "healthy"
            return view.state
        config = self.config
        if pending_age > config.hang_after and idle_age > config.hang_after:
            view.state = "hung"
        elif pending_age > config.slow_after and idle_age > config.slow_after:
            if view.state != "slow":
                self._slow_incidents += 1
            view.state = "slow"
        else:
            view.state = "healthy"
        return view.state

    # -- restart pacing -------------------------------------------------
    def backoff(self, consecutive_restarts: int) -> float:
        """Jittered exponential delay before the Nth fruitless restart."""
        config = self.config
        if config.backoff_base <= 0:
            return 0.0
        exponent = max(0, consecutive_restarts - 1)
        delay = min(
            config.backoff_cap,
            config.backoff_base * config.backoff_factor ** exponent,
        )
        delay *= 1.0 + config.backoff_jitter * self._rng.random()
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

    def record_park(self, index: int, kind: str) -> None:
        view = self._views[index]
        view.state = "parked"
        view.parked_kind = kind

    def record_repair(self, index: int) -> None:
        view = self._views[index]
        view.state = "healthy"
        view.parked_kind = None
        view.slow_ops.clear()

    @property
    def checkpoint_failures(self) -> int:
        return self._checkpoint_failures

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
                    "heartbeats": view.heartbeats,
                    "escalations": view.escalations,
                    "restarts": dict(view.restarts_by_kind),
                    "last_heartbeat": view.last_heartbeat,
                }
                for index, view in enumerate(self._views)
            ],
            "slow_incidents": self._slow_incidents,
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
