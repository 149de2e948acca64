"""Per-path rule configuration of the invariant linter.

Every rule carries a :class:`RuleScope`: which files (relative to the
linted root, posix-style) it runs on, plus rule-specific options.  The
defaults below encode this repository's invariant contract — the
determinism rules police the kernel/query/codec paths, the concurrency
rules police the service tier and the worker pool.  A JSON file passed
via ``--config`` overrides individual scopes without replacing the
battery.

Glob semantics are :func:`fnmatch.fnmatch`'s, where ``*`` crosses path
separators — ``core/*`` therefore covers the entire ``core/`` subtree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Tuple

from repro.lint.engine import match_path

#: Function names whose bodies feed serialized or reported output.  The
#: determinism rules treat these as in-scope in *every* scanned file, on
#: top of their path scope: a nondeterministic value inside any of them
#: lands in checkpoint bytes, drained stats or a bench report.
SERIALIZER_FUNCTIONS: Tuple[str, ...] = (
    "export_state",
    "import_state",
    "export_checkpoint",
    "import_checkpoint",
    "_export_impl",
    "_import_impl",
    "export_states",
    "import_states",
    "export_table",
    "to_dict",
    "as_dict",
    "to_record",
    "to_bytes",
    "checkpoint",
    "checkpoint_router",
    "stats",
    "usage",
    "__getstate__",
)


@dataclass(frozen=True)
class RuleScope:
    """Where a rule applies and with which options."""

    include: Tuple[str, ...] = ("*",)
    exclude: Tuple[str, ...] = ()
    options: Dict[str, object] = field(default_factory=dict)

    def applies_to(self, relpath: str) -> bool:
        """True when the rule should run on ``relpath``."""
        if not match_path(relpath, self.include):
            return False
        return not match_path(relpath, self.exclude)


#: The repository's invariant contract, rule by rule.
DEFAULT_SCOPES: Dict[str, RuleScope] = {
    # Determinism: the kernel, the query layer and the checkpoint codec
    # must be pure functions of their inputs; serializer bodies anywhere
    # must be too (options extend the path scope with function scope).
    # No clock or entropy reaches per-stream state either: the engine, the
    # shard and the router feed snapshots.  (The pool's supervision reads
    # the clock and stays out.)
    "DET-ENTROPY": RuleScope(
        include=("*",),
        options={
            "deterministic_paths": (
                "core/*", "query/*", "engine/*", "streaming/checkpoint.py",
                "streaming/shard.py", "streaming/router.py",
            ),
            "serializer_functions": SERIALIZER_FUNCTIONS,
        },
    ),
    "DET-ID-ORDER": RuleScope(
        include=("*",),
        options={
            "deterministic_paths": ("core/*", "query/*", "streaming/checkpoint.py"),
            "serializer_functions": SERIALIZER_FUNCTIONS,
        },
    ),
    "DET-SET-ORDER": RuleScope(
        include=("*",),
        options={"serializer_functions": SERIALIZER_FUNCTIONS},
    ),
    "DET-FLOAT-FRAME": RuleScope(
        include=("core/*", "datamodel/*", "streaming/*", "query/*"),
    ),
    # Checkpoint drift: serializer pairs must be complete, and every
    # __init__ attribute either round-trips or carries a reasoned
    # suppression.
    "CKPT-PAIR": RuleScope(include=("*",)),
    "CKPT-DRIFT": RuleScope(include=("*",)),
    # Concurrency contracts.
    "CONC-SESSION-DISPATCH": RuleScope(include=("serve/*",)),
    "CONC-BARE-EXCEPT": RuleScope(include=("*",)),
    "CONC-THREAD-JOIN": RuleScope(include=("*",)),
    "CONC-QUEUE-TIMEOUT": RuleScope(include=("streaming/pool.py",)),
}


def load_config(path) -> Dict[str, RuleScope]:
    """Merge a JSON override file over :data:`DEFAULT_SCOPES`.

    Shape::

        {"rules": {"RULE-ID": {"include": [...], "exclude": [...],
                               "options": {...}}}}

    Unknown rule ids raise ``ValueError`` (a typo silently disabling a
    rule would be the exact failure mode this linter exists to prevent).
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    scopes = dict(DEFAULT_SCOPES)
    for rule_id, override in payload.get("rules", {}).items():
        if rule_id not in scopes:
            raise ValueError(f"--config names unknown rule {rule_id!r}")
        base = scopes[rule_id]
        scopes[rule_id] = RuleScope(
            include=tuple(override.get("include", base.include)),
            exclude=tuple(override.get("exclude", base.exclude)),
            options={**base.options, **override.get("options", {})},
        )
    return scopes
