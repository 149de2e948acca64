"""Versioned checkpoint envelope and compact codec for the streaming runtime.

A checkpoint wraps one component snapshot::

    {
      "format": "repro-streaming-checkpoint",
      "version": 10,
      "kind": "router" | "engine" | "generator" | "session",
      "payload": { ... }
    }

The payload is produced by the component's own ``checkpoint()`` /
``export_checkpoint()`` method (routers here; engines in
:mod:`repro.engine.engine`; generators in :mod:`repro.core.base`).

**Version 10 is the only version written and the only one read.**  Any
other version — the version-1 JSON form, the version-2 to version-9
binary forms, or a future one — is refused with a
:class:`CheckpointError` that names it.  Version 10 is version 9 with
every list of queries written as one query table
(:func:`~repro.query.model.pack_queries`: int columns over a dictionary
of distinct conditions) instead of one dict tree per query, and with the
session registry written as columns, one row per handle.  Version 9 was
version 8 with a generator's states carrying their frames and marks as
two bitsets over the window start (see
:meth:`repro.core.state.StateTable.export_states`), SSG's edge memo
written per state (``memo_counts`` / ``memo_children``), and tag ``10``,
the wide int column.  Version 8 had the version-4 encoding;
its layout was version 7's without wall-clock timings and with
no fact stated twice: shard entries lose ``stats.processing_seconds``,
``stats.frames_per_sec`` and ``stats.frames_processed`` (the engine's
counter holds it), their engine snapshots the ``mcos_seconds`` and
``evaluation_seconds`` counters; router documents lose
``retain_matches`` (shards always retain until drained) and
``retired_totals.processing_seconds``; the session ``config`` loses
``method``, ``batch_size``, ``watermark``, ``enable_pruning`` and
``restrict_labels``, which the router document holds.  So a session
document holds no float, and a snapshot is a pure function of the calls
and frames that built it.

  ============  =====================================================
  section       contents
  ============  =====================================================
  magic         ``b"RSCK10\\x00"``
  body          zlib-compressed stream of:
  · strings     interned string table (varint count, then varint
                length + UTF-8 bytes per string, first-use order)
  · tree        tag-prefixed value tree; every string (dict keys
                included) is a varint reference into the table
  ============  =====================================================

  Value tags: ``0`` None, ``1`` False, ``2`` True, ``3`` int (zigzag
  varint, arbitrary precision — object-set bitmasks encode exactly),
  ``4`` float (IEEE-754 big-endian double), ``5`` string reference,
  ``6`` list, ``7`` dict (string keys only), ``8`` short or wide
  homogeneous int list, **delta-coded** as zigzag varints, ``9`` **int
  column**: a homogeneous list of at least :data:`COLUMN_MIN_VALUES` ints
  that all fit 64 bits, stored as one fixed-width little-endian array —

  ========  =========================================================
  field     contents
  ========  =========================================================
  kind      one byte: item size ``1 | 2 | 4 | 8``, plus ``0x10`` when
            the items are deltas
  count     varint number of values
  base      deltas only: the first value, a zigzag varint
  items     signed little-endian integers of that size: the ``count``
            values, or the ``count - 1`` differences between neighbours
  ========  =========================================================

  The writer stores the values or their deltas, whichever is narrower
  (values on a tie), so the bytes are a pure function of the list.
  Encoding and decoding a column is a fixed number of C-level passes
  (``array``, ``map``, ``itertools.accumulate``): its cost is per column,
  not per value.  ``10`` **wide int column**: a list of at least
  :data:`COLUMN_MIN_VALUES` non-negative ints, one of them beyond 64 bits
  (wide object-set bitmasks, the frame bitsets of long windows) — a
  varint byte width (the widest value's), a varint count, then the
  values as unsigned little-endian integers of that width, written with
  one ``b"".join`` of ``int.to_bytes`` and read back by slicing.  A wide
  list holding a negative int takes tag ``8``.

Layout: each workload fact is written once
------------------------------------------
A document holds every query, window group and setting exactly once.
Queries travel as a **query table**
(:func:`~repro.query.model.pack_queries`), one row per query:

  ===============  ==================================================
  column           one entry per
  ===============  ==================================================
  ``ids``,         query: its id, window, duration, name and number
  ``windows``,     of clauses (disjunctions)
  ``durations``,
  ``names``,
  ``clauses``
  ``sizes``        clause, in query order: its number of conditions
  ``conditions``   condition slot, in clause order: a position in the
                   dictionary below
  ``labels``,      distinct ``(label, operator, threshold)`` triple,
  ``operators``,   in first-use order; operator codes ``<=`` 0,
  ``thresholds``   ``=`` 1, ``>=`` 2
  ===============  ==================================================

A restore builds one condition per dictionary entry and each query once;
a table whose columns do not fit together is refused naming the column.

* a **router** document holds the settings (``method``, ``batch_size``,
  ``watermark``, ``enable_pruning``, ``restrict_labels``), the
  ``queries`` table, the ``cancelled`` ids and the
  ``group_order``; its ``shards`` hold one entry per stream with
  per-stream state only — reorder buffer, counters, retained matches and
  the engine's snapshot: for each window group, in group order, the
  position of the generator block it reads (``sources``), the label map,
  the counters and one block per generator (``generators``: its
  :meth:`~repro.core.base.MCOSGenerator.export_checkpoint` state).  A
  group that joined mid-stream reads a generator block of its own;
* a **session** document holds its config (backend, pool sizing,
  supervision) and registry.  The registry is columns, one row per
  handle: ``ids``, ``delivered``, ``matches`` and ``registered_at``, the
  frontiers of the first streams of ``streams`` when it registered.  An active handle's id resolves against the
  restored router; the cancelled handles' queries, which no router holds
  any more, are the registry's ``cancelled`` query table.  The router
  assigns the next id and orders the window groups;
* an **engine** document stays self-contained: its ``config``, its
  ``groups`` as columns (``windows``, ``durations``, ``sizes`` — the
  number of table rows each group takes, in order — and
  ``next_query_ids``, the id floors), one ``queries`` table and the
  engine snapshot beside them.

Loading rejects foreign formats, other versions, truncated or trailing
bytes, and column headers that promise more items than the body holds,
instead of guessing; no checkpoint can execute code when loaded.  A
well-formed envelope whose payload is malformed is refused by the
component reading it, again as a :class:`CheckpointError`
(:func:`reading`).

Determinism
-----------
Serialisation preserves every insertion order the runtime depends on (state
tables, SSG adjacency, principal lists), and ``to_bytes`` is canonical — the
same component state always produces the same bytes — so checkpoints can be
content-addressed and compared directly in tests.  No clock reaches a
snapshot: two sessions fed the same calls write the same bytes.
"""

from __future__ import annotations

import gc
import re
import struct
import sys
import zlib
from array import array
from contextlib import contextmanager
from itertools import accumulate, repeat
from operator import sub
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

PathLike = Union[str, Path]

#: Identifies the envelope; never changes.
CHECKPOINT_FORMAT = "repro-streaming-checkpoint"

#: The version :func:`to_bytes` writes.
CHECKPOINT_VERSION = 10

#: Every version :func:`from_bytes` reads.
SUPPORTED_VERSIONS = (CHECKPOINT_VERSION,)

#: Magic prefix of the written encoding.
MAGIC = b"RSCK10\x00"

#: Any version's magic: ``RSCK``, the version number, a NUL byte.
_ANY_MAGIC = re.compile(rb"RSCK(\d+)\x00")

#: What a component's reader may raise on a malformed payload; :func:`reading`
#: turns these into :class:`CheckpointError`.
_MALFORMED_ERRORS = (
    KeyError, TypeError, ValueError, AttributeError, IndexError, OverflowError,
)

#: Ceiling on a binary body's decompressed size (decompression-bomb
#: guard; far above any real router snapshot).
MAX_DECOMPRESSED_BYTES = 1 << 28

#: Component kinds a checkpoint may wrap.
KNOWN_KINDS = ("router", "engine", "generator", "session")

#: Value tags of the binary tree encoding.
_T_NONE, _T_FALSE, _T_TRUE, _T_INT, _T_FLOAT = 0, 1, 2, 3, 4
_T_STR, _T_LIST, _T_DICT, _T_INTLIST, _T_INTCOLUMN = 5, 6, 7, 8, 9
_T_WIDECOLUMN = 10

#: Shortest int list written as a column: below it the two header bytes
#: and fixed-width items lose to varints.
COLUMN_MIN_VALUES = 8

#: Flag in a column's kind byte: the items are deltas.
_DELTA = 0x10

#: ``array`` typecode per signed item size in bytes, narrowest first.
#: Looked up by size because the C types behind the codes differ between
#: platforms.
_CODE_BY_WIDTH = {
    width: code
    for width in (1, 2, 4, 8)
    for code in "bhilq" if array(code).itemsize == width
}

_DOUBLE = struct.Struct(">d")


class CheckpointError(ValueError):
    """Raised when a checkpoint cannot be parsed, validated or applied."""


@contextmanager
def collector_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector from starting inside the block.

    For code that builds or rebuilds a whole snapshot: everything it
    allocates is alive until it returns, so a collection in there frees
    nothing, and a generation-2 pass over a large session takes longer than
    the snapshot itself (measured: it doubles the median restore).
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@contextmanager
def reading(what: str) -> Iterator[None]:
    """Raise whatever a malformed payload provokes inside the block (or
    the decorated function) as a :class:`CheckpointError` naming ``what``.

    A payload that passed :func:`unwrap` can still hold a ``None``, a
    string or a list where the reader expects something else; the reader
    may then fail anywhere, with any of ``_MALFORMED_ERRORS``.  Callers
    of ``from_checkpoint``/``restore`` get one error type for all of them.
    """
    try:
        yield
    except CheckpointError:
        raise
    except _MALFORMED_ERRORS as exc:
        raise CheckpointError(f"malformed {what}: {exc!r}") from exc


def wrap(kind: str, payload: Dict) -> Dict:
    """Wrap a component snapshot in the envelope of the written version."""
    if kind not in KNOWN_KINDS:
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": kind,
        "payload": payload,
    }


def unwrap(document: Dict, expect_kind: Optional[str] = None) -> Dict:
    """Validate the envelope and return the inner payload.

    Rejects foreign documents, unsupported versions, and — when
    ``expect_kind`` is given — snapshots of the wrong component kind.
    """
    if not isinstance(document, dict):
        raise CheckpointError(
            f"checkpoint must be a JSON object, got {type(document).__name__}"
        )
    if document.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"not a streaming checkpoint (format={document.get('format')!r})"
        )
    version = document.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} "
            f"(this runtime reads versions {SUPPORTED_VERSIONS})"
        )
    kind = document.get("kind")
    if kind not in KNOWN_KINDS:
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise CheckpointError(
            f"expected a {expect_kind!r} checkpoint, got {kind!r}"
        )
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise CheckpointError("checkpoint payload must be a JSON object")
    return payload


# ----------------------------------------------------------------------
# Binary codec
# ----------------------------------------------------------------------
def _write_varint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint (arbitrary precision)."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _zigzag(value: int) -> int:
    """Map signed to unsigned so small magnitudes stay small (any precision)."""
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _narrowest_array(values: Sequence[int]) -> Optional[array]:
    """``values`` in the narrowest signed ``array`` holding them all, or
    ``None`` past 64 bits.  A width that is too narrow fails at its first
    overflowing value, so the passes that fail are short."""
    for code in _CODE_BY_WIDTH.values():
        try:
            return array(code, values)
        except OverflowError:
            continue
    return None


def _encode_column(values: Sequence[int], out: bytearray) -> bool:
    """Write ``values`` as a tag-9 int column; ``False`` when one is too wide."""
    column = _narrowest_array(values)
    if column is None:
        return False
    kind = column.itemsize
    base = None
    if kind > 1:
        deltas = _narrowest_array(list(map(sub, values[1:], values)))
        if deltas is not None and deltas.itemsize < kind:
            column, kind, base = deltas, _DELTA | deltas.itemsize, values[0]
    if sys.byteorder == "big":
        column.byteswap()
    out.append(_T_INTCOLUMN)
    out.append(kind)
    _write_varint(out, len(values))
    if base is not None:
        _write_varint(out, _zigzag(base))
    out += column
    return True


def _encode_wide_column(values: Sequence[int], out: bytearray) -> bool:
    """Write ``values`` as a tag-10 wide column; ``False`` when one is
    negative.  The byte width is the widest value's, so it is canonical."""
    if min(values) < 0:
        return False
    width = (max(values).bit_length() + 7) // 8
    out.append(_T_WIDECOLUMN)
    _write_varint(out, width)
    _write_varint(out, len(values))
    out += b"".join(map(int.to_bytes, values, repeat(width), repeat("little")))
    return True


def _encode_value(value, out: bytearray, strings: Dict[str, int]) -> None:
    """Encode one JSON-tree value; interns strings on first encounter.

    A varint below ``0x80`` is the byte itself; those — most lengths,
    string references and small ints — are appended without a call.
    """
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif type(value) is int:
        out.append(_T_INT)
        if 0 <= value < 0x40:
            out.append(value << 1)
        else:
            _write_varint(out, _zigzag(value))
    elif type(value) is float:
        out.append(_T_FLOAT)
        out += _DOUBLE.pack(value)
    elif type(value) is str:
        out.append(_T_STR)
        index = strings.get(value)
        if index is None:
            index = strings[value] = len(strings)
        if index < 0x80:
            out.append(index)
        else:
            _write_varint(out, index)
    elif type(value) in (list, tuple):
        # ``set(map(type, ...))`` is one C-level pass; bools are not ints
        # here (``type(True) is bool``) and keep their own tags.
        if value and type(value[0]) is int and set(map(type, value)) == {int}:
            if len(value) >= COLUMN_MIN_VALUES and (
                _encode_column(value, out) or _encode_wide_column(value, out)
            ):
                return
            # Delta-coded varints: short lists, and wide lists holding a
            # negative int.
            out.append(_T_INTLIST)
            _write_varint(out, len(value))
            previous = 0
            for item in value:
                _write_varint(out, _zigzag(item - previous))
                previous = item
        else:
            out.append(_T_LIST)
            if len(value) < 0x80:
                out.append(len(value))
            else:
                _write_varint(out, len(value))
            for item in value:
                _encode_value(item, out, strings)
    elif type(value) is dict:
        out.append(_T_DICT)
        _write_varint(out, len(value))
        for key, item in value.items():
            if type(key) is not str:
                raise CheckpointError(
                    f"checkpoint dict keys must be strings, got {key!r}"
                )
            index = strings.get(key)
            if index is None:
                index = strings[key] = len(strings)
            if index < 0x80:
                out.append(index)
            else:
                _write_varint(out, index)
            _encode_value(item, out, strings)
    else:
        raise CheckpointError(
            f"value of type {type(value).__name__} is not checkpointable"
        )


class _Reader:
    """Cursor over a decompressed binary body; strict about bounds."""

    __slots__ = ("data", "pos", "strings")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.strings: List[str] = []

    def read_varint(self) -> int:
        data, pos, end = self.data, self.pos, len(self.data)
        if pos < end and data[pos] < 0x80:  # one byte: most varints
            self.pos = pos + 1
            return data[pos]
        value = 0
        shift = 0
        while True:
            if pos >= end:
                raise CheckpointError("truncated checkpoint: varint runs past the end")
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self.pos = pos
                return value
            shift += 7

    def read_bytes(self, count: int) -> bytes:
        chunk = self.data[self.pos:self.pos + count]
        if len(chunk) != count:
            raise CheckpointError("truncated checkpoint: body ends mid-value")
        self.pos += count
        return chunk

    def read_string_table(self) -> None:
        count = self.read_varint()
        strings = self.strings
        for _ in range(count):
            length = self.read_varint()
            try:
                strings.append(self.read_bytes(length).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"malformed string in checkpoint: {exc}") from exc

    def read_column(self) -> List[int]:
        kind = self.read_bytes(1)[0]
        width = kind & ~_DELTA
        code = _CODE_BY_WIDTH.get(width)
        if code is None:
            raise CheckpointError(
                f"unknown int-column kind 0x{kind:02x} in checkpoint body"
            )
        count = items = self.read_varint()
        base = None
        if kind & _DELTA:
            if not count:
                raise CheckpointError("delta-coded int column without a first value")
            base = _unzigzag(self.read_varint())
            items = count - 1
        # Checked against the bytes that are there before anything is
        # allocated: a hostile count cannot ask for memory.
        if items * width > len(self.data) - self.pos:
            raise CheckpointError(
                f"truncated checkpoint: int column of {count} values runs "
                "past the end"
            )
        column = array(code)
        column.frombytes(self.read_bytes(items * width))
        if sys.byteorder == "big":
            column.byteswap()
        if base is None:
            return column.tolist()
        return list(accumulate(column, initial=base))

    def read_wide_column(self) -> List[int]:
        width = self.read_varint()
        count = self.read_varint()
        if not width:
            raise CheckpointError("wide int column of width 0 in checkpoint body")
        # Checked before anything is allocated, as for read_column.
        size = width * count
        if size > len(self.data) - self.pos:
            raise CheckpointError(
                f"truncated checkpoint: wide int column of {count} values "
                "runs past the end"
            )
        start = self.pos
        self.pos = start + size
        items = map(
            self.data.__getitem__,
            map(slice, range(start, self.pos, width),
                range(start + width, self.pos + width, width)),
        )
        return list(map(int.from_bytes, items, repeat("little")))

    def read_value(self):
        pos = self.pos
        if pos >= len(self.data):
            raise CheckpointError("truncated checkpoint: body ends mid-value")
        tag = self.data[pos]
        self.pos = pos + 1
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            return _unzigzag(self.read_varint())
        if tag == _T_FLOAT:
            return _DOUBLE.unpack(self.read_bytes(8))[0]
        if tag == _T_STR:
            return self._string_at(self.read_varint())
        if tag == _T_INTCOLUMN:
            return self.read_column()
        if tag == _T_WIDECOLUMN:
            return self.read_wide_column()
        if tag == _T_INTLIST:
            count = self.read_varint()
            values: List[int] = []
            previous = 0
            for _ in range(count):
                previous += _unzigzag(self.read_varint())
                values.append(previous)
            return values
        if tag == _T_LIST:
            return [self.read_value() for _ in range(self.read_varint())]
        if tag == _T_DICT:
            return {
                self._string_at(self.read_varint()): self.read_value()
                for _ in range(self.read_varint())
            }
        raise CheckpointError(f"unknown value tag {tag} in checkpoint body")

    def _string_at(self, index: int) -> str:
        try:
            return self.strings[index]
        except IndexError:
            raise CheckpointError(
                f"checkpoint string reference {index} is out of range"
            ) from None


def _encode_binary(document: Dict) -> bytes:
    strings: Dict[str, int] = {}
    tree = bytearray()
    _encode_value(document, tree, strings)
    body = bytearray()
    _write_varint(body, len(strings))
    for text in strings:  # dict preserves first-use order
        encoded = text.encode("utf-8")
        _write_varint(body, len(encoded))
        body += encoded
    body += tree
    return MAGIC + zlib.compress(bytes(body), 6)


def _decode_binary(data: bytes) -> Dict:
    decompressor = zlib.decompressobj()
    try:
        # Bounded: a corrupt or crafted body at zlib's ~1000:1 limit must
        # fail as a CheckpointError, not exhaust memory before validation.
        body = decompressor.decompress(
            data[len(MAGIC):], MAX_DECOMPRESSED_BYTES
        )
        if decompressor.unconsumed_tail:
            raise CheckpointError(
                "checkpoint body exceeds the decompressed size limit "
                f"({MAX_DECOMPRESSED_BYTES} bytes)"
            )
        body += decompressor.flush()
    except zlib.error as exc:
        raise CheckpointError(f"corrupt checkpoint body: {exc}") from exc
    if not decompressor.eof:
        raise CheckpointError("truncated checkpoint: compressed body is incomplete")
    if decompressor.unused_data:
        raise CheckpointError(
            f"checkpoint has {len(decompressor.unused_data)} trailing bytes "
            "after the compressed body"
        )
    reader = _Reader(body)
    reader.read_string_table()
    document = reader.read_value()
    if reader.pos != len(body):
        raise CheckpointError(
            f"checkpoint has {len(body) - reader.pos} trailing bytes"
        )
    return document


# ----------------------------------------------------------------------
# Public byte-level API
# ----------------------------------------------------------------------
def to_bytes(kind: str, payload: Dict) -> bytes:
    """Serialise a snapshot to canonical version-10 checkpoint bytes.

    Insertion order *is* part of the state (see the module docstring), so
    the bytes are a pure function of the component state.
    """
    return _encode_binary(wrap(kind, payload))


def from_bytes(data: bytes, expect_kind: Optional[str] = None) -> Dict:
    """Parse version-10 checkpoint bytes into the inner payload."""
    if not isinstance(data, (bytes, bytearray)):
        raise CheckpointError(
            f"checkpoint must be bytes, got {type(data).__name__}"
        )
    data = bytes(data)
    if not data.startswith(MAGIC):
        announced = _ANY_MAGIC.match(data)
        if announced is not None:
            version = int(announced.group(1))
        elif data[:1] == b"{":
            version = 1  # the only version written as plain JSON
        else:
            raise CheckpointError("not a streaming checkpoint (unknown magic)")
        raise CheckpointError(
            f"unsupported checkpoint version {version} "
            f"(this runtime reads versions {SUPPORTED_VERSIONS})"
        )
    document = _decode_binary(data)
    if not isinstance(document, dict) or document.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"binary checkpoint body does not declare version {CHECKPOINT_VERSION}"
        )
    return unwrap(document, expect_kind)


def save(path: PathLike, kind: str, payload: Dict) -> None:
    """Write a checkpoint file (canonical bytes, see :func:`to_bytes`)."""
    Path(path).write_bytes(to_bytes(kind, payload))


def load(path: PathLike, expect_kind: Optional[str] = None) -> Dict:
    """Read and validate a checkpoint file."""
    return from_bytes(Path(path).read_bytes(), expect_kind)
