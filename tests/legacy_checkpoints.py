"""Writers of the checkpoint forms the runtime reads but no longer writes.

The runtime writes checkpoint version 3 only: the binary codec with int
columns, generator state in flat columns addressed by table position, and
one match record per result state.  Versions 1 (JSON) and 2 (binary without
columns) carried one dict per state, an SSG graph addressed by object-set
bitmask, and one record per match.  Tests that need such a blob build it
here, from a payload the current code exported:

* :func:`rowwise` rewrites a payload tree into the old layout;
* :func:`v1_bytes` / :func:`v2_bytes` serialise an envelope the old way.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, List

from repro.query.evaluator import unpack_matches
from repro.streaming.checkpoint import CHECKPOINT_FORMAT, MAGIC_V2


# ----------------------------------------------------------------------
# Layout: columns -> rows
# ----------------------------------------------------------------------
def _rowwise_state(state: Dict) -> Dict:
    """A generator ``state`` block in the layout of versions 1 and 2."""
    columns = state["states"]
    bits = columns["bits"]
    rows = []
    run_at = mark_at = 0
    for index, mask in enumerate(bits):
        run_end = run_at + columns["run_counts"][index]
        mark_end = mark_at + columns["mark_counts"][index]
        rows.append({
            "bits": mask,
            "span": [
                columns["starts"][run_at:run_end],
                columns["ends"][run_at:run_end],
                columns["marks"][mark_at:mark_end],
            ],
            "terminated": bool(columns["terminated"][index]),
        })
        run_at, mark_at = run_end, mark_end
    if "graph" not in state:
        return {"states": rows}
    graph = state["graph"]

    def masks(positions: List[int]) -> List[int]:
        return [bits[position] for position in positions]

    adjacency = []
    at = {"children": 0, "parents": 0}
    for child_count, parent_count in zip(
        graph["child_counts"], graph["parent_counts"]
    ):
        sides = []
        for name, count in (("children", child_count), ("parents", parent_count)):
            if count < 0:
                sides.append(None)
            else:
                sides.append(masks(graph[name][at[name]:at[name] + count]))
                at[name] += count
        adjacency.append(sides)
    principals = []
    frame_at = 0
    for position, count in zip(graph["principals"], graph["principal_counts"]):
        principals.append(
            [bits[position], graph["principal_frames"][frame_at:frame_at + count]]
        )
        frame_at += count
    return {
        "states": rows,
        "graph": adjacency,
        "roots": masks(graph["roots"]),
        "principals": principals,
        "previous_results": masks(graph["previous_results"]),
        "edge_memo": sorted(
            [bits[parent], bits[child]]
            for parent, child in zip(graph["memo_parents"], graph["memo_children"])
        ),
        "replay": masks(
            [p for p in graph["replay_principal"] if p >= 0] + graph["replay"]
        ),
    }


def _per_match(records: List) -> List:
    return [match.to_record() for match in unpack_matches(records)]


def rowwise(tree):
    """``tree`` (any checkpoint payload) rewritten into the old layout:
    every generator's state row-wise, every retained-match list per match."""
    if isinstance(tree, list):
        return [rowwise(item) for item in tree]
    if not isinstance(tree, dict):
        return tree
    out = {}
    for key, value in tree.items():
        if key == "state" and "method" in tree \
                and isinstance(value.get("states"), dict):
            out[key] = _rowwise_state(value)
        elif key in ("retained", "matches"):
            out[key] = _per_match(value)
        elif key == "engines":  # the inline backend's positional entries
            out[key] = [
                [stream_id, group, rowwise(engine), _per_match(retained)]
                for stream_id, group, engine, retained in value
            ]
        else:
            out[key] = rowwise(value)
    return out


# ----------------------------------------------------------------------
# Bytes: the version-1 and version-2 writers
# ----------------------------------------------------------------------
def _envelope(kind: str, payload: Dict, version: int) -> Dict:
    return {
        "format": CHECKPOINT_FORMAT, "version": version,
        "kind": kind, "payload": payload,
    }


def v1_bytes(kind: str, payload: Dict) -> bytes:
    """The envelope as version 1 wrote it: canonical JSON."""
    return json.dumps(
        _envelope(kind, payload, 1), separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def varint(value: int) -> bytes:
    """``value`` as an unsigned LEB128 varint."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        out.append(byte | 0x80 if value else byte)
        if not value:
            return bytes(out)


def _zigzag(value: int) -> int:
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _v2_value(value, strings: Dict[str, int]) -> bytes:
    """One value in the version-2 tree encoding (tags 0-8, no columns)."""
    def ref(text: str) -> bytes:
        return varint(strings.setdefault(text, len(strings)))

    if value is None:
        return b"\x00"
    if value is False:
        return b"\x01"
    if value is True:
        return b"\x02"
    if type(value) is int:
        return b"\x03" + varint(_zigzag(value))
    if type(value) is float:
        return b"\x04" + struct.pack(">d", value)
    if type(value) is str:
        return b"\x05" + ref(value)
    if type(value) in (list, tuple):
        if value and all(type(item) is int for item in value):
            deltas = [b - a for a, b in zip([0] + list(value), value)]
            return b"\x08" + varint(len(value)) + b"".join(
                varint(_zigzag(delta)) for delta in deltas
            )
        return b"\x06" + varint(len(value)) + b"".join(
            _v2_value(item, strings) for item in value
        )
    if type(value) is dict:
        return b"\x07" + varint(len(value)) + b"".join(
            ref(key) + _v2_value(item, strings) for key, item in value.items()
        )
    raise TypeError(type(value).__name__)


def v2_bytes(kind: str, payload: Dict) -> bytes:
    """The envelope as version 2 wrote it: interned strings, tagged tree,
    zlib — and no int-column tag."""
    strings: Dict[str, int] = {}
    tree = _v2_value(_envelope(kind, payload, 2), strings)
    table = varint(len(strings)) + b"".join(
        varint(len(text.encode("utf-8"))) + text.encode("utf-8")
        for text in strings
    )
    return MAGIC_V2 + zlib.compress(table + tree, 6)
