"""Deterministic, seeded fault injection for the shard worker pool.

A :class:`FaultPlan` scripts worker failures — SIGKILL at a given
operation, hang mid-ingest, slow consumption, checkpoint-write failure,
result-queue stall — and installs itself through one env-keyed hook
(:data:`ENV_PLAN`) that the worker loop consults.  The plan is plain JSON,
so it crosses the ``multiprocessing`` boundary with no code in between,
and every trigger is a pure function of the operation stream, which keeps
fault runs reproducible: the same plan against the same workload fails at
the same points, every time.

Fire counting survives worker restarts.  A recovered worker *replays* the
operations the dead one never acknowledged, so a per-process counter would
re-fire the fault that killed it and crash-loop forever.  Each fault
therefore appends one line to a marker file in the plan's ``token_dir``
(``fsync``'d before the fault executes, so even a SIGKILL cannot lose the
record) and skips itself once its ``fires`` budget is spent.  ``fires=0``
means unlimited — the deterministic *poison* regime the pool's quarantine
logic exists for.

Used by the consumers that must agree on failure semantics: the fault and
supervision test suites, the pool differential harness, and the gateway's
fault-containment test.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import tempfile
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Environment variable the worker loop reads the serialized plan from.
ENV_PLAN = "REPRO_FAULT_PLAN"

#: Fault kinds a plan may script (see :class:`Fault`).
FAULT_KINDS = (
    "sigkill", "hang", "slow", "stall", "ckpt-fail", "hang-ingest",
)

#: Seconds a worker sleeps before executing a process-killing fault, so
#: the heartbeat it just queued clears the feeder thread and the parent
#: can attribute the death to the right operation.
_KILL_GRACE = 0.02


class InjectedFault(RuntimeError):
    """Raised inside a worker by a scripted non-fatal fault (ckpt-fail)."""


class Fault:
    """One scripted fault.

    Parameters
    ----------
    kind:
        ``"sigkill"`` (die hard mid-operation), ``"hang"`` (stop
        consuming, forever), ``"slow"`` (sleep ``delay`` before the
        operation), ``"stall"`` (process the operation but swallow its
        acknowledgement — the result-queue-wedged regime), ``"ckpt-fail"``
        (checkpoint queries raise :class:`InjectedFault`; the worker
        answers with a nack and keeps serving) or ``"hang-ingest"`` (hang
        inside shard ingest once ``after_frames`` frames have been
        processed).
    worker:
        Worker index the fault applies to; ``None`` matches any worker.
    op_kind:
        Restrict to one operation kind (``"frames"``, ``"flush"``,
        ``"expel"``, ...); ``None`` matches any state-changing operation.
    at_seq:
        Fire exactly at this operation sequence number.  Sequence numbers
        travel with replayed operations, so this pin is stable across
        restarts — the deterministic-poison trigger.
    after_ops:
        Fire on the Nth matching operation *seen by the current worker
        process* (replay included), counting from 1.
    frame:
        ``(stream_id, frame_id)``: fire when a ``frames`` operation
        carries that exact frame — a poison *input*, wherever batching
        happens to put it.
    after_frames:
        For ``hang-ingest``: trigger once the worker's shards have
        ingested this many frames (cumulative, per process).
    delay:
        Sleep length of ``slow`` faults, seconds.
    fires:
        Total times the fault may execute across all worker generations
        (tracked in ``token_dir``).  ``0`` = unlimited.
    """

    __slots__ = (
        "kind", "worker", "op_kind", "at_seq", "after_ops", "frame",
        "after_frames", "delay", "fires",
    )

    def __init__(
        self,
        kind: str,
        worker: Optional[int] = None,
        *,
        op_kind: Optional[str] = None,
        at_seq: Optional[int] = None,
        after_ops: Optional[int] = None,
        frame: Optional[Tuple[str, int]] = None,
        after_frames: Optional[int] = None,
        delay: float = 0.0,
        fires: int = 1,
    ):
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; choose one of {FAULT_KINDS}"
            )
        if fires < 0:
            raise ValueError("fires must be >= 0 (0 = unlimited)")
        if kind == "hang-ingest" and after_frames is None:
            raise ValueError("hang-ingest faults need after_frames")
        self.kind = kind
        self.worker = worker
        self.op_kind = op_kind
        self.at_seq = at_seq
        self.after_ops = after_ops
        self.frame = (str(frame[0]), int(frame[1])) if frame else None
        self.after_frames = after_frames
        self.delay = float(delay)
        self.fires = int(fires)

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "worker": self.worker,
            "op_kind": self.op_kind,
            "at_seq": self.at_seq,
            "after_ops": self.after_ops,
            "frame": list(self.frame) if self.frame else None,
            "after_frames": self.after_frames,
            "delay": self.delay,
            "fires": self.fires,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "Fault":
        frame = payload.get("frame")
        return cls(
            str(payload["kind"]),
            payload.get("worker"),
            op_kind=payload.get("op_kind"),
            at_seq=payload.get("at_seq"),
            after_ops=payload.get("after_ops"),
            frame=(frame[0], frame[1]) if frame else None,
            after_frames=payload.get("after_frames"),
            delay=float(payload.get("delay", 0.0)),
            fires=int(payload.get("fires", 1)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        parts = [self.kind]
        if self.worker is not None:
            parts.append(f"worker={self.worker}")
        for name in ("op_kind", "at_seq", "after_ops", "frame", "after_frames"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value!r}")
        if self.fires != 1:
            parts.append(f"fires={self.fires}")
        return f"Fault({', '.join(parts)})"


#: Fault kinds a crash-recovering pool absorbs without losing a byte.
#: ``hang-ingest`` belongs here too — the watchdog escalates it to a kill
#: and the replay (with the fault's budget spent) completes cleanly.
RECOVERABLE_KINDS = ("sigkill", "hang", "slow", "stall", "ckpt-fail")


class FaultPlan:
    """An ordered set of scripted faults plus the shared fire ledger."""

    def __init__(
        self,
        faults: Sequence[Fault],
        seed: int = 0,
        token_dir: Optional[str] = None,
    ):
        self.faults = list(faults)
        self.seed = int(seed)
        self.token_dir = token_dir
        self._previous_env: Optional[str] = None

    # -- serialisation --------------------------------------------------
    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "token_dir": self.token_dir,
            "faults": [fault.to_dict() for fault in self.faults],
        })

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        return cls(
            [Fault.from_dict(entry) for entry in payload.get("faults", [])],
            seed=int(payload.get("seed", 0)),
            token_dir=payload.get("token_dir"),
        )

    @classmethod
    def random(
        cls,
        seed: int,
        workers: int,
        max_faults: int = 4,
        max_op: int = 14,
    ) -> "FaultPlan":
        """A random *recoverable-only* plan — the differential-test fuzzer.

        Draws 1..``max_faults`` faults from the recoverable kinds with
        seeded triggers spread over the first ``max_op`` operations of
        random workers.  By the differential guarantee, any plan this
        returns must leave final matches/stats byte-identical to the
        fault-free run.
        """
        import random as random_module

        rng = random_module.Random(f"faultplan/{seed}")
        faults: List[Fault] = []
        for _ in range(rng.randint(1, max_faults)):
            kind = rng.choice(RECOVERABLE_KINDS)
            worker = rng.randrange(workers)
            after_ops = rng.randint(2, max_op)
            if kind == "sigkill":
                faults.append(Fault(kind, worker, after_ops=after_ops))
            elif kind == "hang":
                faults.append(Fault(kind, worker, after_ops=after_ops))
            elif kind == "slow":
                faults.append(Fault(
                    kind, worker, after_ops=after_ops,
                    delay=rng.uniform(0.01, 0.05), fires=rng.randint(1, 3),
                ))
            elif kind == "stall":
                faults.append(Fault(kind, worker, after_ops=after_ops))
            else:  # ckpt-fail
                faults.append(Fault(kind, worker))
        return cls(faults, seed=seed)

    # -- lifecycle ------------------------------------------------------
    @contextlib.contextmanager
    def install(self) -> Iterator["FaultPlan"]:
        """Arm the plan for every worker spawned inside the context.

        Creates the fire-ledger directory, exports the plan through
        :data:`ENV_PLAN` (inherited by forked/spawned workers), and
        restores the previous environment on exit — workers spawned
        *after* the context (e.g. by :meth:`ShardWorkerPool.repair`) run
        fault-free, which is how "the operator cleared the cause" is
        modelled in tests.
        """
        if self.token_dir is None:
            self.token_dir = tempfile.mkdtemp(prefix="repro-faults-")
        previous = os.environ.get(ENV_PLAN)
        os.environ[ENV_PLAN] = self.to_json()
        try:
            yield self
        finally:
            if previous is None:
                os.environ.pop(ENV_PLAN, None)
            else:
                os.environ[ENV_PLAN] = previous

    def fire_counts(self) -> Dict[int, int]:
        """Times each fault has executed, by index into :attr:`faults`."""
        counts = {index: 0 for index in range(len(self.faults))}
        if self.token_dir is None or not os.path.isdir(self.token_dir):
            return counts
        for index in counts:
            path = os.path.join(self.token_dir, f"fault-{index}.fired")
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    counts[index] = sum(1 for _ in handle)
        return counts


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
class FaultInjector:
    """Executes one worker's slice of a fault plan inside its process."""

    def __init__(self, plan: FaultPlan, worker_index: int):
        self._plan = plan
        self._index = worker_index
        #: (plan position, fault) pairs that can apply to this worker.
        self._faults: List[Tuple[int, Fault]] = [
            (position, fault)
            for position, fault in enumerate(plan.faults)
            if fault.worker is None or fault.worker == worker_index
        ]
        #: Matching-operation count per fault, local to this process.
        self._seen = {position: 0 for position, _ in self._faults}
        self._frames_ingested = 0
        self._stall_seq: Optional[int] = None

    @property
    def active(self) -> bool:
        return bool(self._faults)

    # -- hook points the worker loop calls ------------------------------
    def before_op(self, seq: int, op: Tuple) -> None:
        """Consulted before each state-changing operation is applied."""
        for position, fault in self._faults:
            if fault.kind in ("ckpt-fail", "hang-ingest"):
                continue
            if not self._matches_op(fault, position, seq, op):
                continue
            if not self._consume(position, fault):
                continue
            if fault.kind == "slow":
                time.sleep(fault.delay)
            elif fault.kind == "stall":
                self._stall_seq = seq
            elif fault.kind == "hang":
                self._hang()
            elif fault.kind == "sigkill":
                time.sleep(_KILL_GRACE)
                os.kill(os.getpid(), signal.SIGKILL)

    def suppress_ack(self, seq: int) -> bool:
        """True when a stall fault swallows this operation's ack."""
        if self._stall_seq == seq:
            self._stall_seq = None
            return True
        return False

    def before_query(self, seq: int, query_kind: str) -> None:
        """Consulted before each read-only query is answered."""
        if query_kind != "ckpt":
            return
        for position, fault in self._faults:
            if fault.kind != "ckpt-fail":
                continue
            if self._consume(position, fault):
                raise InjectedFault(
                    f"injected checkpoint-write failure (fault {position})"
                )

    def on_ingest(self, shard_key: str, frames: int) -> None:
        """Shard ingest probe: cumulative frame counting for hang-ingest."""
        self._frames_ingested += frames
        for position, fault in self._faults:
            if fault.kind != "hang-ingest":
                continue
            if self._frames_ingested < fault.after_frames:
                continue
            if self._consume(position, fault):
                self._hang()

    # -- internals ------------------------------------------------------
    def _matches_op(
        self, fault: Fault, position: int, seq: int, op: Tuple
    ) -> bool:
        if fault.op_kind is not None and op[0] != fault.op_kind:
            return False
        if fault.at_seq is not None and seq != fault.at_seq:
            return False
        if fault.frame is not None:
            if op[0] != "frames":
                return False
            stream_id, frame_id = fault.frame
            if not any(
                sid == stream_id and int(record[0]) == frame_id
                for sid, record in op[1]
            ):
                return False
        self._seen[position] += 1
        if fault.after_ops is not None:
            return self._seen[position] == fault.after_ops
        return True

    def _consume(self, position: int, fault: Fault) -> bool:
        """Check the cross-restart fire budget; record the fire if allowed.

        The marker line is written and fsync'd *before* the fault runs, so
        a SIGKILL a microsecond later still counts — the invariant that
        keeps one-shot faults one-shot across replay.
        """
        token_dir = self._plan.token_dir
        if token_dir is None:
            return True  # no ledger: every match fires (tests only)
        path = os.path.join(token_dir, f"fault-{position}.fired")
        if fault.fires > 0:
            fired = 0
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    fired = sum(1 for _ in handle)
            if fired >= fault.fires:
                return False
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, b"x\n")
            os.fsync(fd)
        finally:
            os.close(fd)
        return True

    @staticmethod
    def _hang() -> None:
        while True:  # until the watchdog escalates terminate() -> kill()
            time.sleep(3600)


def load_injector(worker_index: int) -> Optional[FaultInjector]:
    """Build this worker's injector from the env-keyed plan, if armed.

    Called once at worker start.  Returns ``None`` (the common case: no
    plan, or no fault can apply to this worker) so the worker loop's hot
    path stays hook-free.  When the plan scripts ``hang-ingest`` faults,
    the shard-level ingest probe is installed too.
    """
    text = os.environ.get(ENV_PLAN)
    if not text:
        return None
    try:
        plan = FaultPlan.from_json(text)
    except (ValueError, KeyError, TypeError):
        return None  # a malformed plan must not take real workers down
    injector = FaultInjector(plan, worker_index)
    if not injector.active:
        return None
    if any(fault.kind == "hang-ingest" for _, fault in injector._faults):
        from repro.streaming import shard as shard_module

        shard_module.INGEST_PROBE = injector.on_ingest
    return injector
