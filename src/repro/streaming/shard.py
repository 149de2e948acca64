"""A single streaming shard: one stream's reorder buffer and engine.

A :class:`StreamShard` serves every window group of one stream.  It wraps
a :class:`~repro.engine.engine.TemporalVideoQueryEngine`, which runs one
MCOS generator per label projection at the largest window of its groups
and answers each group from it (see :mod:`repro.engine.engine`), with the
machinery a long-running feed needs and the bare engine does not have.
Under a router the engine evaluates against the router's evaluators, one
per window group for all streams; the router changes them once per query
change and then has each shard's engine follow.

* **batched ingest** — frames are buffered and handed to the engine in
  configurable batches, so the per-frame bookkeeping above the engine is
  amortised;
* **late/out-of-order tolerance** — one reorder buffer per stream holds
  frames until the watermark passes.  A frame is released once frames
  ``watermark`` positions ahead of it have been seen, so any frame delayed
  by at most ``watermark`` arrivals is slotted back into order; frames
  arriving after their slot was emitted are counted and dropped (the
  engine's frame-order invariant is never violated).  Every window group sees the same frames from the same
  emission frontier, so a frame is dropped as late for all of them or for
  none;
* **per-shard stats** — queue depth, dropped-late/duplicate counts, batch
  counts (frames processed is the engine's counter);
* **checkpoint/restore** — the shard's entry in a router document: the
  engine's per-stream snapshot, reorder buffer, counters and retained
  matches.  It holds no query, group key or setting; the router document
  states those once, and a fresh process resumes the entry on a shard the
  router built from them, byte-identically (see
  :mod:`repro.streaming.checkpoint`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass, fields
from typing import Dict, Iterable, List, Mapping, Optional, Union

from repro.datamodel.observation import FrameObservation
from repro.engine.config import EngineConfig, MCOSMethod
from repro.engine.engine import GroupKey, TemporalVideoQueryEngine
from repro.query.evaluator import (
    QueryEvaluator,
    QueryMatch,
    pack_matches,
    unpack_matches,
)
from repro.query.model import CNFQuery
from repro.streaming.checkpoint import CheckpointError, reading

#: Optional per-batch ingest probe ``(stream_id: str, frames: int) -> None``,
#: called as a batch enters the engine.  ``None`` (the default) keeps the
#: hot path hook-free; the pool's fault-injection harness installs one
#: inside worker processes to observe/perturb ingest (e.g. hang-in-ingest
#: faults), and a deployment could point it at a metrics sink.
INGEST_PROBE = None


def group_queries_by_window(
    queries: Iterable[CNFQuery],
) -> Dict[GroupKey, List[CNFQuery]]:
    """Partition queries into window groups, preserving registration order.

    Group order follows the first query of each group, and queries keep their
    relative order within a group, so shard engines assign ids and report
    matches deterministically.
    """
    groups: Dict[GroupKey, List[CNFQuery]] = {}
    for query in queries:
        groups.setdefault((query.window, query.duration), []).append(query)
    return groups


@dataclass
class ShardStats:
    """Ingest-side counters of one shard (engine counters, frames processed
    among them, live on the engine)."""

    frames_ingested: int = 0
    dropped_late: int = 0
    duplicates: int = 0
    reordered: int = 0
    batches: int = 0
    max_queue_depth: int = 0

    def as_dict(self) -> Dict:
        """The counters, JSON-friendly."""
        return asdict(self)


class StreamShard:
    """One engine instance serving one stream's frames for every window
    group of its queries: grouped by their ``(window, duration)``, in order
    of first appearance, or given as the router's mapping of window groups
    to their shared evaluators."""

    def __init__(
        self,
        stream_id: str,
        queries: Union[Iterable[CNFQuery], Mapping[GroupKey, QueryEvaluator]],
        method: MCOSMethod = MCOSMethod.SSG,
        batch_size: int = 8,
        watermark: int = 0,
        enable_pruning: bool = False,
        restrict_labels: bool = True,
    ):
        groups = (
            queries if isinstance(queries, Mapping)
            else group_queries_by_window(queries)
        )
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if watermark < 0:
            raise ValueError("watermark must be non-negative")
        self.stream_id = stream_id
        self.batch_size = batch_size
        self.watermark = watermark
        self.stats = ShardStats()
        self.engine = TemporalVideoQueryEngine(
            groups,
            EngineConfig(
                method=method,
                enable_pruning=enable_pruning,
                restrict_labels=restrict_labels,
            ),
        )
        #: Reorder buffer: frames waiting for their watermark, sorted by id.
        self._pending_ids: List[int] = []
        self._pending: List[FrameObservation] = []
        #: Highest frame id ever offered (watermark reference point).
        self._max_seen: Optional[int] = None
        #: Highest frame id handed to the engine; older arrivals are late.
        self._last_emitted: Optional[int] = None
        self._matches: List[QueryMatch] = []

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Number of frames currently held in the reorder buffer."""
        return len(self._pending)

    @property
    def matches(self) -> List[QueryMatch]:
        """Retained matches in emission order (see :meth:`drain_matches`)."""
        return list(self._matches)

    def drain_matches(self) -> List[QueryMatch]:
        """Return the retained matches and clear the retention buffer.

        The bound on shard memory is the stream's window *plus* whatever the
        consumer lets accumulate here; long-running consumers should drain
        periodically.
        """
        drained = self._matches
        self._matches = []
        return drained

    def offer(self, frame: FrameObservation) -> List[QueryMatch]:
        """Ingest one frame; returns the matches produced by this call.

        Frames may arrive out of order by up to ``watermark`` positions.  A
        frame whose slot has already been emitted is dropped (counted in
        ``stats.dropped_late``); a duplicate of a buffered frame or an
        immediate redelivery of the frame just emitted is dropped and counted
        in ``stats.duplicates`` instead.  (A redelivery of an *older* emitted
        frame is indistinguishable from genuine lateness — the shard does not
        remember the full emission history — and lands in ``dropped_late``.)
        Matches are produced whenever a full batch of frames clears the
        watermark.
        """
        stats = self.stats
        stats.frames_ingested += 1
        frame_id = frame.frame_id
        if self._last_emitted is not None and frame_id <= self._last_emitted:
            if frame_id == self._last_emitted:
                stats.duplicates += 1
            else:
                stats.dropped_late += 1
            return []
        ids = self._pending_ids
        index = bisect_left(ids, frame_id)
        if index < len(ids) and ids[index] == frame_id:
            stats.duplicates += 1
            return []
        if index < len(ids):
            stats.reordered += 1
        ids.insert(index, frame_id)
        self._pending.insert(index, frame)
        if self._max_seen is None or frame_id > self._max_seen:
            self._max_seen = frame_id
        if len(ids) > stats.max_queue_depth:
            stats.max_queue_depth = len(ids)
        ready = bisect_left(ids, self._max_seen - self.watermark + 1)
        if ready >= self.batch_size:
            return self._process(ready)
        return []

    def offer_many(self, frames: Iterable[FrameObservation]) -> List[QueryMatch]:
        """Ingest a sequence of frames; returns all matches produced."""
        matches: List[QueryMatch] = []
        for frame in frames:
            matches.extend(self.offer(frame))
        return matches

    def flush(self) -> List[QueryMatch]:
        """Process every buffered frame regardless of watermark or batch size."""
        if not self._pending:
            return []
        return self._process(len(self._pending))

    def _process(self, count: int) -> List[QueryMatch]:
        """Hand the first ``count`` buffered frames to the engine, in order."""
        probe = INGEST_PROBE
        if probe is not None:
            probe(self.stream_id, count)
        frames = self._pending[:count]
        del self._pending[:count]
        del self._pending_ids[:count]
        stats = self.stats
        engine = self.engine
        produced: List[QueryMatch] = []
        stream_id = self.stream_id
        for frame in frames:
            produced.extend(engine.process_frame(frame, stream_id))
        stats.batches += 1
        self._last_emitted = frames[-1].frame_id
        self._matches.extend(produced)
        return produced

    # ------------------------------------------------------------------
    # Live query lifecycle
    # ------------------------------------------------------------------
    def forget_query(self, query_id: int) -> None:
        """Discard the produced-but-undrained matches of a cancelled query
        from the retention buffer: a cancelled query must not deliver
        results after the cancellation point; matches already drained are
        the consumer's.  (The router has the engine follow the
        cancellation itself.)"""
        if self._matches:
            self._matches = [
                match for match in self._matches if match.query_id != query_id
            ]

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint_entry(self) -> Dict:
        """Snapshot the shard as its entry in a router document: the
        engine's per-stream snapshot, reorder buffer, counters and any
        retained (produced-but-not-yet-drained) matches.  The router
        document holds the queries, window groups and settings once for
        all its shards.

        Matches already consumed through :meth:`drain_matches` are gone
        from the retention buffer and therefore never replayed — only
        unconsumed results survive a restore, so nothing is lost and
        nothing double-delivers.  Snapshots must be taken between ``offer``
        calls.
        """
        return {
            "stream_id": self.stream_id,
            "max_seen": self._max_seen,
            "last_emitted": self._last_emitted,
            "pending": [frame.to_record() for frame in self._pending],
            "retained": pack_matches(self._matches),
            "stats": self.stats.as_dict(),
            "engine": self.engine.snapshot(),
        }

    @reading("shard checkpoint")
    def resume(self, payload: Dict) -> None:
        """Resume a :meth:`checkpoint_entry` on this fresh shard, which the
        router built for the entry's stream from its own workload and
        settings."""
        self.engine.resume(payload["engine"])
        max_seen = payload["max_seen"]
        self._max_seen = int(max_seen) if max_seen is not None else None
        last = payload["last_emitted"]
        self._last_emitted = int(last) if last is not None else None
        for record in payload["pending"]:
            frame = FrameObservation.from_record(record)
            self._pending_ids.append(frame.frame_id)
            self._pending.append(frame)
        if self._pending_ids != sorted(set(self._pending_ids)):
            raise CheckpointError(
                "shard checkpoint reorder buffer is not sorted/unique"
            )
        if (self._last_emitted is not None and self._pending_ids
                and self._pending_ids[0] <= self._last_emitted):
            # Replaying an already-emitted frame would violate the strict
            # frame-order invariant the shard exists to protect.
            raise CheckpointError(
                f"shard checkpoint pending frame {self._pending_ids[0]} is "
                f"at or before the emission frontier {self._last_emitted}"
            )
        self._matches = unpack_matches(payload["retained"])
        stats = payload["stats"]
        self.stats = ShardStats(**{
            field.name: int(stats[field.name]) for field in fields(ShardStats)
        })

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"StreamShard({self.stream_id}, queue={self.queue_depth}, "
            f"processed={self.engine.frames_processed})"
        )
