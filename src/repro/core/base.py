"""Common interface and instrumentation for MCOS generators.

Every generator consumes a stream of :class:`~repro.datamodel.observation.FrameObservation`
objects, maintains states over a sliding window of ``window_size`` frames and,
after each frame, reports the :class:`~repro.core.result.ResultStateSet` of
satisfied, valid states (those with at least ``duration`` frames).

Generators optionally apply two query-driven optimisations described in the
paper:

* *label projection* (Section 3) -- objects whose class is not requested by
  any query are dropped on entry;
* *result-driven pruning* (Section 5.3) -- a ``state_filter`` callback, given
  the per-class counts of a freshly created state, can mark it as terminated
  when its MCOS cannot satisfy any registered >=-only query.  A filter must
  refuse every subset of a set it refuses (Proposition 1): MFS and SSG skip
  the work below a refused set.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.core.interning import ObjectInterner, ObjectLabels
from repro.core.result import ResultStateSet
from repro.datamodel.observation import FrameObservation
from repro.datamodel.relation import VideoRelation

#: Callback deciding whether a freshly created state should be terminated.
#: Receives the per-class counts of the new state's objects and returns
#: ``True`` to keep it, ``False`` to terminate it (Proposition 1).
StateFilter = Callable[[Dict[str, int]], bool]


@dataclass
class GeneratorStats:
    """Work counters collected during state maintenance.

    Wall-clock time in Python is noisy; these counters provide a deterministic
    measure of the amount of work each approach performs and are reported by
    the benchmark harness alongside the timings.

    ``state_visits`` counts full visits (an intersection each);
    ``replayed_visits`` counts the SSG states a frame only re-extended
    because they miss the objects that entered or left since the previous
    frame (see :mod:`repro.core.ssg`).  ``settled_frames`` counts the SSG
    frames that repeat their predecessor's object set and whose root step
    changes nothing, which on an unchanged graph they skip (same module).
    """

    frames_processed: int = 0
    states_created: int = 0
    states_removed: int = 0
    states_terminated: int = 0
    state_visits: int = 0
    intersections: int = 0
    frames_appended: int = 0
    max_live_states: int = 0
    result_states_emitted: int = 0
    edges_added: int = 0
    edges_removed: int = 0
    replayed_visits: int = 0
    settled_frames: int = 0

    def merge(self, other: "GeneratorStats") -> "GeneratorStats":
        """Return the field-wise sum of two counter sets."""
        merged = GeneratorStats()
        for name in self.__dataclass_fields__:
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        merged.max_live_states = max(self.max_live_states, other.max_live_states)
        return merged

    def as_dict(self) -> Dict[str, int]:
        """Return the counters as a plain dictionary."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass
class GeneratorConfig:
    """Configuration shared by all MCOS generators.

    Attributes
    ----------
    window_size:
        Sliding window size ``w`` in frames.
    duration:
        Duration threshold ``d`` in frames; a state is *satisfied* when its
        frame set holds at least ``d`` frames.  Must satisfy ``0 <= d <= w``.
    labels_of_interest:
        Optional set of class labels requested by the query workload.  Objects
        of other classes are dropped before state maintenance.
    """

    window_size: int
    duration: int
    labels_of_interest: Optional[Set[str]] = field(default=None)

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise ValueError("window_size must be positive")
        if not 0 <= self.duration <= self.window_size:
            raise ValueError("duration must satisfy 0 <= d <= window_size")


class MCOSGenerator(abc.ABC):
    """Abstract base class of the MCOS generation strategies."""

    #: Short name used by the experiment harness (e.g. ``"MFS"``).
    name: str = "abstract"

    def __init__(
        self,
        window_size: int,
        duration: int,
        labels_of_interest: Optional[Iterable[str]] = None,
        state_filter: Optional[StateFilter] = None,
    ):
        labels = set(labels_of_interest) if labels_of_interest is not None else None
        self.config = GeneratorConfig(window_size, duration, labels)
        self.stats = GeneratorStats()
        #: Object-id interner: every object set the generator touches is an
        #: ``int`` bitmask over this interner's bit positions.
        self.interner = ObjectInterner()
        self._state_filter = state_filter  # repro-lint: disable=CKPT-DRIFT -- caller-supplied callable; restoring code re-installs it (documented in import_state)
        #: Class labels of the interned objects, recorded only when a state
        #: filter is installed (the filter receives per-class counts).
        self._labels = ObjectLabels(self.interner)
        self._last_frame_id: Optional[int] = None
        #: Recycle interner bit positions every this many frames, so masks
        #: stay as narrow as the window population instead of growing with
        #: the total number of objects ever seen (every mask operation is a
        #: Python big-int op whose cost scales with mask width).  A few
        #: windows amortise the compaction scan while keeping mask width
        #: bounded by the recent population.
        self._compact_every: int = 4 * window_size  # repro-lint: disable=CKPT-DRIFT -- derived from window_size, which round-trips via the config
        #: The last frame that was projected and interned, with its mask: a
        #: frame repeating its id -> label map reuses the mask (see
        #: :meth:`_frame_bits`).
        self._frame_cache: Optional[Tuple[FrameObservation, int]] = None  # repro-lint: disable=CKPT-DRIFT -- a memo of the last frame's mask; import clears it and the next frame recomputes it
        #: The duration satisfied states are collected at, at most
        #: ``duration``: a generator answering several window groups
        #: collects at the smallest ``d`` among them, so that every group's
        #: :meth:`cut_result` finds its states (see :meth:`cut_result`).
        self.collect_duration: int = duration

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def window_size(self) -> int:
        """The sliding window size ``w``."""
        return self.config.window_size

    @property
    def duration(self) -> int:
        """The duration threshold ``d``."""
        return self.config.duration

    def process_frame(self, frame: FrameObservation) -> ResultStateSet:
        """Advance the window by one frame and return the result state set."""
        if self._last_frame_id is not None and frame.frame_id <= self._last_frame_id:
            raise ValueError(
                f"frames must arrive in increasing order; got {frame.frame_id} "
                f"after {self._last_frame_id}"
            )
        frame_id = self._last_frame_id = frame.frame_id
        self.stats.frames_processed += 1
        if self.stats.frames_processed % self._compact_every == 0:
            # Before this frame's labels are recorded: compaction drops the
            # labels of objects not yet interned, which would include the
            # ones this frame introduces.
            self.compact_interner()
        result = self._process(frame_id, self._frame_bits(frame))
        result.sort()
        self.stats.result_states_emitted += len(result)
        return result

    def cut_result(self, window: int, duration: int) -> ResultStateSet:
        """The result set a ``(window, duration)`` generator fed the same
        frames would have reported for the last frame.

        By Theorems 1 and 4 a state is valid iff a marked frame remains in
        the window, and its frame set is the set of window frames that
        contain it; so a ``w``-window generator's states at frame ``i`` are
        this generator's states cut at ``lo = i - w + 1``: the ones that
        keep a mark ``>= lo``, with their frames ``>= lo``.  Each strategy
        applies its own report rule to the cut (:meth:`_cut`).  Valid for
        ``window <= window_size`` and ``duration >= collect_duration``, once
        the generator has seen the last ``window`` frames.  The states come
        in the canonical order of :meth:`ResultStateSet.sort`.
        """
        if window > self.config.window_size or duration < self.collect_duration:
            raise ValueError(
                f"cannot cut a ({window}, {duration}) result from a "
                f"({self.config.window_size}, {self.collect_duration}) generator"
            )
        frame_id = self._last_frame_id
        result = ResultStateSet(frame_id if frame_id is not None else -1)
        if frame_id is not None:
            self._cut(result, frame_id - window + 1, duration)
            result.sort()
        return result

    def set_collect_duration(self, duration: int) -> None:
        """Collect satisfied states at ``duration`` from now on (between
        frames).  Only raising it is allowed once a frame was processed:
        the states a higher threshold left out are gone."""
        if not 0 <= duration <= self.config.duration:
            raise ValueError(
                f"collect duration {duration} outside 0..{self.config.duration}"
            )
        if duration < self.collect_duration and self._last_frame_id is not None:
            raise ValueError(
                f"cannot lower the collect duration from "
                f"{self.collect_duration} to {duration} mid-stream"
            )
        self.collect_duration = duration

    def _frame_bits(self, frame: FrameObservation) -> int:
        """Project ``frame`` onto the labels of interest, record the labels
        the state filter needs and intern the object set.

        A frame whose id -> label map equals the previous frame's has the
        previous frame's projection, records no new label and interns to
        the same mask, so it reuses that mask.  The cache is dropped
        whenever one of those three could change: compaction freeing bits
        (which also prunes the label lookup), a new label projection, a
        reset and an import.
        """
        cached = self._frame_cache
        if cached is not None and frame.same_labels(cached[0]):
            return cached[1]
        projected = frame.restricted_to_labels(self.config.labels_of_interest)
        frame_bits = self.interner.intern_ids(projected.object_ids)
        if self._state_filter is not None:
            self._labels.record(projected.object_ids, projected.label_of)
        self._frame_cache = (frame, frame_bits)
        return frame_bits

    def process_relation(self, relation: VideoRelation) -> Iterator[ResultStateSet]:
        """Process every frame of a relation, yielding one result per frame."""
        for frame in relation.frames():
            yield self.process_frame(frame)

    def run(self, relation: VideoRelation) -> "GeneratorRun":
        """Process an entire relation and return an aggregated run summary."""
        per_frame = []
        total_results = 0
        for result in self.process_relation(relation):
            per_frame.append(result)
            total_results += len(result)
        return GeneratorRun(self.name, per_frame, total_results, self.stats)

    def reset(self) -> None:
        """Discard all maintained states and counters.

        The interner is retained (and compacted) rather than replaced: masks
        produced before and after a reset stay mutually compatible, which is
        what lets an engine reuse one interner across many runs.
        """
        self.stats = GeneratorStats()
        self._last_frame_id = None
        self._labels = ObjectLabels(self.interner)
        self._frame_cache = None
        self._reset_impl()
        self.compact_interner()

    def set_labels_of_interest(self, labels: Optional[Iterable[str]]) -> None:
        """Re-target the label projection mid-stream (live query lifecycle).

        Label projection is applied per frame at ingest, so changing the set
        only affects frames processed *after* this call: states already in
        the window were built from the old projection and converge to the
        new one as the window slides past the change point (one full window,
        the warm-up watermark documented by the session layer).
        """
        self.config.labels_of_interest = (
            set(labels) if labels is not None else None
        )
        self._frame_cache = None

    def forget_terminated(self) -> None:
        """Drop every Proposition-1 terminated marker (between frames).

        A marker stands for a set the state filter refused, so that the
        check is not repeated per frame; it never gains frames.  Once the
        filter loosens (a query registered mid-stream), a set it now keeps
        must be judged again the next time a frame creates it, or it would
        keep missing frames until the marker expires, past the warm-up
        watermark.  Each forgotten marker counts as a removed state.
        """
        states = self._states
        for state in states.states():
            if state.terminated:
                states.remove(state)
                self.stats.states_removed += 1

    def compact_interner(self) -> int:
        """Recycle interner bit positions not referenced by any live state.

        Safe to call between frames on a long-running stream; returns the
        number of bit positions freed.  See
        :meth:`repro.core.interning.ObjectInterner.compact`.

        The recorded labels are pruned alongside: labels are only ever
        consulted for objects of live states (all interned), so entries for
        departed ids are dead weight that would otherwise grow with the
        total number of objects the stream ever produced, and their bits
        must leave the per-label masks before the positions are reused.
        """
        freed = self.interner.compact(self._live_mask())
        if freed:
            self._frame_cache = None
        if freed and self._labels:
            self._labels.prune()
        return freed

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def export_checkpoint(self) -> Dict:
        """Snapshot the full generator state between frames.

        The snapshot is a plain dict (strings, numbers, lists) that, imported
        into a freshly constructed generator of the same class and
        configuration (:meth:`import_checkpoint`), resumes the stream with
        byte-identical results.  Its ``state`` block is the columnar layout
        of :meth:`repro.core.state.StateTable.export_states` — a handful of
        flat int lists, which the checkpoint codec stores as int columns.
        Frames and marks are written as bitsets over the start of the window
        ending at ``last_frame_id``; decoded-result caches and the table's
        window base are deliberately excluded: they rebuild on the fly and
        never influence results.  Must only be called between frames (never
        from a ``state_filter`` callback mid-maintenance).
        """
        labels = self.config.labels_of_interest
        return {
            "method": self.name,
            "window_size": self.config.window_size,
            "duration": self.config.duration,
            "collect_duration": self.collect_duration,
            "labels_of_interest": sorted(labels) if labels is not None else None,
            "last_frame_id": self._last_frame_id,
            "label_lookup": [
                [oid, label] for oid, label in self._labels.items()
            ],
            "stats": self.stats.as_dict(),
            "interner": self.interner.export_table(),
            "state": self._export_impl(),
        }

    def import_checkpoint(self, payload: Dict) -> None:
        """Restore the generator (in place) from an :meth:`export_checkpoint` dict.

        The receiving generator must have the same method name, window size,
        duration and label projection as the checkpointed one; anything else
        would silently change semantics, so a mismatch raises ``ValueError``.
        (A ``state_filter`` callback cannot be compared and remains the
        caller's responsibility — the engine layer pins it via its own
        ``enable_pruning`` config check.)  Every frame and mark a state
        holds must lie in the window ending at ``last_frame_id``, and there
        can be no state before the first frame: after every frame, each
        live state's frames lie in its window.
        """
        if payload.get("method") != self.name:
            raise ValueError(
                f"checkpoint was taken from method {payload.get('method')!r}, "
                f"cannot import into {self.name!r}"
            )
        if (payload.get("window_size") != self.config.window_size
                or payload.get("duration") != self.config.duration):
            raise ValueError(
                "checkpoint window/duration "
                f"({payload.get('window_size')}, {payload.get('duration')}) do "
                f"not match the generator's "
                f"({self.config.window_size}, {self.config.duration})"
            )
        labels = self.config.labels_of_interest
        own_labels = sorted(labels) if labels is not None else None
        ckpt_labels = payload["labels_of_interest"]
        ckpt_labels = sorted(ckpt_labels) if ckpt_labels is not None else None
        if ckpt_labels != own_labels:
            raise ValueError(
                f"checkpoint label projection {ckpt_labels} does not match "
                f"the generator's {own_labels}; resuming would project frames "
                "onto the wrong class set"
            )
        collect = int(payload["collect_duration"])
        if not 0 <= collect <= self.config.duration:
            raise ValueError(
                f"checkpoint collect duration {collect} outside "
                f"0..{self.config.duration}"
            )
        self.collect_duration = collect
        self._reset_impl()
        self._frame_cache = None
        self.interner.restore_table(payload["interner"])
        stats = payload["stats"]
        if len(stats) != len(GeneratorStats.__dataclass_fields__):
            raise ValueError("checkpoint stats do not name every counter")
        self.stats = GeneratorStats(**stats)
        last = payload["last_frame_id"]
        self._last_frame_id = int(last) if last is not None else None
        self._labels = ObjectLabels(self.interner, {
            int(oid): label for oid, label in payload["label_lookup"]
        })
        self._import_impl(payload["state"])

    def export_state(self) -> bytes:
        """The :meth:`export_checkpoint` snapshot as compact checkpoint bytes.

        Written as checkpoint version 10, the only version the codec writes
        and reads (:mod:`repro.streaming.checkpoint`).
        """
        # Imported lazily: repro.streaming.checkpoint has no dependencies on
        # repro.core, but importing it at module scope here would pull the
        # streaming package (and through it the engine) into every core
        # import, creating a cycle.
        from repro.streaming.checkpoint import to_bytes

        return to_bytes("generator", self.export_checkpoint())

    def import_state(self, data: bytes) -> None:
        """Restore the generator from :meth:`export_state` bytes; any
        malformed document raises :class:`CheckpointError`."""
        from repro.streaming.checkpoint import from_bytes, reading

        payload = from_bytes(data, expect_kind="generator")
        with reading("generator checkpoint"):
            self.import_checkpoint(payload)

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _process(self, frame_id: int, frame_bits: int) -> ResultStateSet:
        """Strategy-specific maintenance for one frame.

        ``frame_bits`` is the frame's projected object set interned through
        :attr:`interner` (the representation the hot path works on).
        """

    @abc.abstractmethod
    def _reset_impl(self) -> None:
        """Strategy-specific reset."""

    @abc.abstractmethod
    def live_state_count(self) -> int:
        """Number of states currently maintained (for diagnostics/tests)."""

    @abc.abstractmethod
    def _export_impl(self) -> Dict:
        """Strategy-specific checkpoint payload (tables, graphs, windows)."""

    @abc.abstractmethod
    def _import_impl(self, payload: Dict) -> None:
        """Restore the strategy-specific state from ``_export_impl`` output."""

    def _live_mask(self) -> int:
        """Union of every retained mask (overridden by stateful generators)."""
        return 0

    @abc.abstractmethod
    def _cut(self, result: ResultStateSet, lo: int, duration: int) -> None:
        """Add to ``result`` the states a window starting at ``lo`` reports
        at ``duration`` (see :meth:`cut_result`)."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _oldest_valid_frame(self, current_frame_id: int) -> int:
        """First frame id that is still inside the window ending at ``current_frame_id``."""
        return current_frame_id - self.config.window_size + 1

    def _keep_new_state(self, bits: int) -> bool:
        """Apply the Proposition-1 state filter to a freshly created state,
        given the per-class counts of its objects (only when a filter is
        installed)."""
        if self._state_filter is None:
            return True
        keep = self._state_filter(self._labels.counts(bits))
        if not keep:
            self.stats.states_terminated += 1
        return keep

    def _track_live_states(self, count: int) -> None:
        """Update the maximum-live-states counter."""
        if count > self.stats.max_live_states:
            self.stats.max_live_states = count


@dataclass
class GeneratorRun:
    """Aggregated outcome of processing a full relation with one generator."""

    generator_name: str
    per_frame_results: list
    total_result_states: int
    stats: GeneratorStats
    _result_index: Optional[Dict[int, ResultStateSet]] = field(
        default=None, repr=False, compare=False
    )

    def result_at(self, frame_id: int) -> ResultStateSet:
        """Result state set reported after processing frame ``frame_id``.

        Results are looked up by the frame id each result was reported for,
        so relations whose frame ids start at a nonzero offset (or skip ids)
        resolve correctly.
        """
        index = self._result_index
        if index is None or len(index) != len(self.per_frame_results):
            index = {
                result.current_frame_id: result
                for result in self.per_frame_results
            }
            self._result_index = index
        try:
            return index[frame_id]
        except KeyError:
            raise KeyError(
                f"no result was reported for frame {frame_id}"
            ) from None
