"""Query evaluation over the result state sets of the MCOS generation layer.

Implements the procedure of Section 5.2: for every satisfied, valid state in
the Result State Set, the MCOS is aggregated into per-class counts, the counts
are probed against the CNFEvalE condition index, and the frame sets of states
satisfying a query become that query's answer for the current window.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass, field, replace
from itertools import chain
from operator import sub
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.result import ResultState, ResultStateSet
from repro.query.inequality import CNFEvalEIndex
from repro.query.model import CNFQuery


@dataclass(slots=True, unsafe_hash=True)
class QueryMatch:
    """One query answer: a query satisfied by an MCOS over a frame set.

    ``stream_id`` attributes the match to the feed it was produced on.  The
    bare engine evaluates one relation and knows no stream — it leaves the
    field empty; every streaming surface (shards, the router, the worker
    pool, all session backends) stamps it.  The field is excluded from
    equality and hashing so that engine-level results remain comparable to
    stream-level ones: the *identity* of a match is what matched, not where
    the frames came from.

    Slotted and not frozen: matches are the objects whose number grows
    with the output, and a frozen dataclass pays an ``object.__setattr__``
    call per field at construction (about four times the cost of plain
    slot stores).  Nothing assigns a field after construction; the hash
    covers the compared fields, as a frozen one would.
    """

    query_id: int
    frame_id: int
    object_ids: FrozenSet[int]
    frame_ids: Tuple[int, ...]
    class_counts: Tuple[Tuple[str, int], ...]
    stream_id: str = field(default="", compare=False)

    def counts(self) -> Dict[str, int]:
        """Per-class counts of the matching MCOS as a dictionary."""
        return dict(self.class_counts)

    def for_stream(self, stream_id: str) -> "QueryMatch":
        """A copy of this match attributed to ``stream_id``."""
        if self.stream_id == stream_id:
            return self
        return replace(self, stream_id=stream_id)

    def to_record(self) -> list:
        """Serialise the match as a deterministic JSON-friendly list.

        The per-match form the match-report oracle of the differential
        tests compares; checkpoints hold :func:`pack_matches` records, one
        per result state.  Round-trips through :meth:`from_record`.
        """
        return [
            self.query_id,
            self.frame_id,
            sorted(self.object_ids),
            list(self.frame_ids),
            [[label, count] for label, count in self.class_counts],
            self.stream_id,
        ]

    @classmethod
    def from_record(cls, record: list) -> "QueryMatch":
        """Rebuild a match from a :meth:`to_record` payload."""
        try:
            (query_id, frame_id, object_ids, frame_ids, class_counts,
             stream_id) = record
            return cls(
                query_id=int(query_id),
                frame_id=int(frame_id),
                object_ids=frozenset(int(oid) for oid in object_ids),
                frame_ids=tuple(int(fid) for fid in frame_ids),
                class_counts=tuple(
                    (str(label), int(count)) for label, count in class_counts
                ),
                stream_id=str(stream_id),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed match record: {record!r}") from exc


#: Most frames one grouped record may expand to.  Frame sets live inside a
#: sliding window, so real records stay orders of magnitude below it; a
#: crafted pair of run bounds must not be able to ask for memory.
MAX_RECORD_FRAMES = 1 << 20


def _frame_runs(frame_ids: Tuple[int, ...]) -> List[int]:
    """Half-open ``[start, stop, start, stop, ...]`` bounds of the runs of
    consecutive ids in ``frame_ids``, in the order they occur."""
    if not frame_ids:
        return []
    first, last = frame_ids[0], frame_ids[-1]
    if last - first + 1 == len(frame_ids) \
            and frame_ids == tuple(range(first, last + 1)):
        return [first, last + 1]  # one run: nearly every result state
    bounds = [first]
    previous = first
    for frame_id in frame_ids[1:]:
        if frame_id != previous + 1:
            bounds += (previous + 1, frame_id)
        previous = frame_id
    bounds.append(previous + 1)
    return bounds


def pack_matches(matches: Iterable[QueryMatch]) -> List[list]:
    """Serialise a match sequence, one record per result state.

    A run of *adjacent* matches built from one result state — the same
    ``frame_id`` and ``stream_id`` and the very same ``object_ids`` /
    ``frame_ids`` / ``class_counts`` objects, which is how
    :meth:`QueryEvaluator.evaluate_result_set` builds them — becomes one
    record ``[query_ids, frame_id, object_ids, frame_runs, class_counts,
    stream_id]``: the shared fields once, the ids of the run's queries, and
    the frame ids as the run bounds of :func:`_frame_runs`.  Only adjacent
    matches merge, so :func:`unpack_matches` returns the sequence in its
    original order; a run the identity test misses costs bytes, nothing
    else.  The records are JSON-friendly and a pure function of the
    sequence.
    """
    records: List[list] = []
    object_ids = frame_ids = class_counts = frame_id = stream_id = None
    query_ids: List[int] = []
    for match in matches:
        if (match.object_ids is object_ids and match.frame_ids is frame_ids
                and match.class_counts is class_counts
                and match.frame_id == frame_id
                and match.stream_id == stream_id):
            query_ids.append(match.query_id)
            continue
        object_ids, frame_ids = match.object_ids, match.frame_ids
        class_counts = match.class_counts
        frame_id, stream_id = match.frame_id, match.stream_id
        query_ids = [match.query_id]
        records.append([
            query_ids,
            frame_id,
            sorted(object_ids),
            _frame_runs(frame_ids),
            [[label, count] for label, count in class_counts],
            stream_id,
        ])
    return records


def unpack_matches(records: Iterable[Sequence]) -> List[QueryMatch]:
    """Rebuild the match sequence of a :func:`pack_matches` payload.

    The frozenset and tuples of a record are built once and shared by its
    matches, so packing the result again finds the same runs.
    """
    matches: List[QueryMatch] = []
    for record in records:
        try:
            query_ids, frame_id, object_ids, runs, class_counts, stream_id = record
            starts, stops = runs[0::2], runs[1::2]
            if len(starts) != len(stops) \
                    or min(map(sub, stops, starts), default=1) <= 0 \
                    or sum(stops) - sum(starts) > MAX_RECORD_FRAMES:
                raise ValueError("frame runs are not well-formed")
            shared = (
                int(frame_id),
                frozenset(map(int, object_ids)),
                tuple(chain.from_iterable(map(range, starts, stops))),
                tuple([(str(label), int(count)) for label, count in class_counts]),
                str(stream_id),
            )
            matches += [
                QueryMatch(query_id, *shared) for query_id in map(int, query_ids)
            ]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed match record: {record!r}") from exc
    return matches


@dataclass
class EvaluationStats:
    """Work counters of the query evaluation module.

    ``signature_hits`` / ``signature_misses`` split the count-signature
    lookups into those answered from the memo and those that fell through to
    the CNFEvalE index (the cold evaluations).
    """

    states_evaluated: int = 0
    matches_produced: int = 0
    signature_hits: int = 0
    signature_misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters, JSON-friendly (the ``stats()`` surfaces embed this)."""
        return asdict(self)


#: A canonical count signature: ``(label, clamped count)`` pairs of the
#: indexed labels with a non-zero count, sorted by label.
_Signature = Tuple[Tuple[str, int], ...]


class ResultReuse:
    """One stream's previous result set under one evaluator.

    Per object set of that result set, its class counts and matched ids,
    so a state that stays in the result costs one lookup instead of a count
    and a signature.  The entries hold for one label map object, whose
    labels the caller extends but never changes (the engine's map only
    gains entries until pruning replaces it), and for one registry epoch
    of the evaluator (registration, cancellation and
    :meth:`QueryEvaluator.forget_signatures` start a new one).  The engine
    keeps one per window group: it is per-stream state, the evaluator is
    shared by every stream.
    """

    __slots__ = ("labels", "epoch", "entries")

    def __init__(self) -> None:
        self.labels: Optional[Mapping[int, str]] = None
        self.epoch = -1
        self.entries: Dict[FrozenSet[int], Tuple[_Signature, Tuple[int, ...]]] = {}


class QueryEvaluator:
    """Evaluates a set of CNF count queries against result state sets.

    Which queries an MCOS satisfies depends only on its per-class counts,
    and a feed produces a handful of distinct count vectors, so the answer
    is resolved once per *count signature* and memoised.  The signature
    keeps only indexed labels and clamps each count at that label's largest
    registered threshold + 1 (every condition on the label reads all larger
    counts alike), which bounds the memo by the query set.  Registration and
    cancellation patch the cached answers instead of discarding them.  The
    memo is derived state — a pure function of the registered queries and
    the counts — so it is never checkpointed, and one evaluator serves
    every stream of a window group whatever their label maps (the router
    holds one per group).  What depends on a stream's labels, the reuse of
    its previous result set, lives in that stream's :class:`ResultReuse`.
    """

    def __init__(self, queries: Iterable[CNFQuery] = ()):
        self._index = CNFEvalEIndex()
        self.stats = EvaluationStats()
        #: label -> clamp of its counts: the largest threshold registered on
        #: the label so far, plus one.  Grows only; growth empties the memo.
        self._caps: Dict[str, int] = {}
        #: signature -> ascending ids of the queries it satisfies.
        self._memo: Dict[_Signature, Tuple[int, ...]] = {}
        #: Bumped whenever an answer may change: a :class:`ResultReuse` of
        #: an older epoch is stale.
        self._epoch = 0
        for query in queries:
            self.add_query(query)

    # ------------------------------------------------------------------
    # Query registry
    # ------------------------------------------------------------------
    def add_query(self, query: CNFQuery) -> CNFQuery:
        """Register a query; returns the copy carrying its assigned id.

        Cached signatures are patched by evaluating only the new query
        against each of them.  They are dropped only when the query raises
        a label's clamp or indexes a new label: the cached keys were then
        built under a coarser signature than the query needs.
        """
        registered = self._index.add_query(query)
        query_id = registered.query_id
        caps = self._caps
        coarser = False
        for condition in registered.conditions():
            if caps.get(condition.label, 0) <= condition.threshold:
                caps[condition.label] = condition.threshold + 1
                coarser = True
        memo = self._memo
        self._epoch += 1
        if coarser:
            memo.clear()
        else:
            for signature, matched in memo.items():
                if registered.evaluate(dict(signature)):
                    at = bisect_left(matched, query_id)
                    memo[signature] = matched[:at] + (query_id,) + matched[at:]
        return registered

    def remove_query(self, query_id: int) -> CNFQuery:
        """Unregister a query by id (live cancellation path).

        The query's clause bits are cleared from the condition index,
        its id is dropped from every cached signature, and the id stays
        tombstoned inside the index's id counter, so a later registration
        can never reuse it (matches drained after the cancellation stay
        unambiguous).
        """
        removed = self._index.remove_query(query_id)
        self._epoch += 1
        memo = self._memo
        for signature, matched in memo.items():
            if query_id in matched:
                memo[signature] = tuple([q for q in matched if q != query_id])
        return removed

    def forget_signatures(self) -> None:
        """Empty the memo (the engine does on ``reset`` / ``restore``)."""
        self._memo.clear()
        self._epoch += 1

    @property
    def queries(self) -> List[CNFQuery]:
        """All registered queries, in registration order."""
        return list(self._index.queries.values())

    @property
    def index(self) -> CNFEvalEIndex:
        """The underlying CNFEvalE condition index."""
        return self._index

    def labels_of_interest(self) -> Set[str]:
        """Union of the class labels referenced by the registered queries.

        The MCOS generation layer uses this to drop objects of classes no
        query asks about (Section 3).
        """
        return self._index.labels()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _matching(self, class_counts: Iterable[Tuple[str, int]]) -> Tuple[int, ...]:
        """Resolve label-sorted ``(label, count)`` pairs through the memo."""
        caps = self._caps
        signature = tuple([
            (label, count if count < caps[label] else caps[label])
            for label, count in class_counts
            if count and label in caps
        ])
        matched = self._memo.get(signature)
        if matched is None:
            self.stats.signature_misses += 1
            matched = self._memo[signature] = tuple(
                sorted(self._index.matching_queries(dict(signature)))
            )
        else:
            self.stats.signature_hits += 1
        return matched

    def evaluate_counts(self, counts: Mapping[str, int]) -> Tuple[int, ...]:
        """Return the ascending ids of queries satisfied by per-class counts."""
        return self._matching(sorted(counts.items()))

    def evaluate_state(
        self,
        state: ResultState,
        labels: Mapping[int, str],
        frame_id: int,
        stream_id: str = "",
    ) -> List[QueryMatch]:
        """Evaluate all queries against a single result state.

        It reuses no previous result set, so the tests use it as the
        reference of :meth:`evaluate_result_set`'s reuse.
        """
        class_counts = tuple(sorted(state.class_counts(labels).items()))
        matched = self._matching(class_counts)
        stats = self.stats
        stats.states_evaluated += 1
        stats.matches_produced += len(matched)
        object_ids = state.object_ids
        frame_ids = state.frame_ids
        return [
            QueryMatch(query_id, frame_id, object_ids, frame_ids, class_counts, stream_id)
            for query_id in matched
        ]

    def evaluate_result_set(
        self,
        results: ResultStateSet,
        labels: Mapping[int, str],
        stream_id: str = "",
        reuse: Optional[ResultReuse] = None,
    ) -> List[QueryMatch]:
        """Evaluate all queries against every state of a result state set.

        ``stream_id`` is stamped on every match at construction.  With
        ``reuse``, the stream's previous result set under this evaluator, a
        state whose object set was in it, evaluated under the same
        ``labels`` object, reuses that evaluation; it counts as a signature
        hit, which is what its signature lookup would have been.
        """
        matches: List[QueryMatch] = []
        frame_id = results.current_frame_id
        previous: Dict = {}
        if reuse is not None:
            if reuse.labels is labels and reuse.epoch == self._epoch:
                previous = reuse.entries
            else:
                reuse.labels, reuse.epoch = labels, self._epoch
        current: Dict = {}
        stats = self.stats
        hits = produced = 0
        for state in results:
            object_ids = state.object_ids
            entry = previous.get(object_ids)
            if entry is None:
                class_counts = tuple(sorted(state.class_counts(labels).items()))
                entry = (class_counts, self._matching(class_counts))
            else:
                hits += 1
            current[object_ids] = entry
            class_counts, matched = entry
            produced += len(matched)
            frame_ids = state.frame_ids
            matches += [
                QueryMatch(query_id, frame_id, object_ids, frame_ids,
                           class_counts, stream_id)
                for query_id in matched
            ]
        if reuse is not None:
            reuse.entries = current
        stats.signature_hits += hits
        stats.states_evaluated += len(results)
        stats.matches_produced += produced
        return matches

    def brute_force_matching(self, counts: Mapping[str, int]) -> Set[int]:
        """Index-free evaluation used as an oracle in tests."""
        return {
            query_id
            for query_id, query in self._index.queries.items()
            if query.evaluate(counts)
        }
