"""Rule engine of the invariant linter.

Design notes
------------

* **Pure stdlib.**  Everything is built on :mod:`ast`; the linter must
  run on the no-numpy CI leg and inside minimal containers.
* **File- and scope-aware.**  Each file is parsed once into a
  :class:`FileContext` carrying a parent map and scope helpers; rules
  receive the context and walk whatever subset of the tree they need.
  Per-path applicability (which rules run on which files) lives in
  :mod:`repro.lint.config`, not in the rules.
* **Suppressions require a reason.**  ``# repro-lint: disable=RULE``
  without ``-- reason`` is itself a violation, and a suppression that
  matches no violation on its line is flagged as stale — baselines can
  neither be silent nor rot.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: Suppression comment grammar.  The reason (after ``--``) is mandatory;
#: the engine enforces that, not the regex, so a reason-less disable can
#: be reported precisely instead of being silently ignored.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Z0-9\-, ]+?)\s*(?:--\s*(.*\S))?\s*$"
)

#: Engine-level findings (parse failures, malformed/stale suppressions).
#: They cannot themselves be suppressed — that would reopen the silent-
#: baseline hole the reason requirement closes.
PARSE_RULE = "LINT-PARSE"
SUPPRESS_REASON_RULE = "LINT-SUPPRESS-REASON"
STALE_SUPPRESS_RULE = "LINT-STALE-SUPPRESS"
META_RULES = (PARSE_RULE, SUPPRESS_REASON_RULE, STALE_SUPPRESS_RULE)


@dataclass(frozen=True)
class Violation:
    """One finding: rule, location, message (and suppression state)."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    reason: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-report form of the finding."""
        payload: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.suppressed:
            payload["suppressed"] = True
            payload["reason"] = self.reason
        return payload


@dataclass
class _Suppression:
    """A parsed ``# repro-lint: disable=...`` comment on one line."""

    line: int
    rules: Tuple[str, ...]
    reason: Optional[str]
    used: Set[str] = field(default_factory=set)


class FileContext:
    """One parsed file plus the structural helpers rules lean on."""

    def __init__(self, path: Path, relpath: str, source: str, tree: ast.AST):
        self.path = path
        #: Posix-style path relative to the linted root — the string the
        #: per-rule include/exclude globs match against.
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    # -- structure -----------------------------------------------------
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of ``node`` (None for the module)."""
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module node."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_functions(self, node: ast.AST) -> List[ast.AST]:
        """Enclosing function/lambda nodes, innermost first."""
        return [
            anc for anc in self.ancestors(node)
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        ]

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        """The nearest enclosing class definition, if any."""
        for anc in self.ancestors(node):
            if isinstance(anc, ast.ClassDef):
                return anc
        return None

    # -- names ---------------------------------------------------------
    @staticmethod
    def dotted_name(node: ast.AST) -> Optional[str]:
        """Best-effort dotted name of an expression (``a.b.c``)."""
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            parts.append(current.id)
            return ".".join(reversed(parts))
        return None

    @staticmethod
    def terminal_name(node: ast.AST) -> Optional[str]:
        """Last path component of a name/attribute expression."""
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None


class Rule:
    """Base class of all lint rules.

    Subclasses set :attr:`rule_id` / :attr:`title` / :attr:`rationale`
    and implement :meth:`check`, yielding :class:`Violation`\\ s.  The
    engine decides *which files* a rule sees (per-path configuration);
    the rule decides *what* inside a file violates the invariant.
    """

    rule_id: str = "RULE"
    title: str = ""
    rationale: str = ""

    def check(self, ctx: FileContext, options: Dict) -> Iterator[Violation]:
        """Yield every violation of this rule in the file."""
        raise NotImplementedError

    def violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        """Construct a finding anchored at ``node``."""
        return Violation(
            rule=self.rule_id,
            path=ctx.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


@dataclass
class LintReport:
    """Outcome of one lint run."""

    root: str
    files_scanned: int
    rules: Tuple[str, ...]
    violations: List[Violation]
    suppressed: List[Violation]

    @property
    def ok(self) -> bool:
        """True when the tree is clean (suppressed findings don't count)."""
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        """The ``--format json`` payload (stable key order, version tag)."""
        return {
            "tool": "repro-lint",
            "version": 1,
            "root": self.root,
            "files_scanned": self.files_scanned,
            "rules": list(self.rules),
            "violations": [v.to_dict() for v in self.violations],
            "suppressed": [v.to_dict() for v in self.suppressed],
            "summary": {
                "violations": len(self.violations),
                "suppressed": len(self.suppressed),
                "ok": self.ok,
            },
        }

    def render(self) -> str:
        """Human-readable report (one ``path:line:col`` finding per line)."""
        lines = [
            f"{v.path}:{v.line}:{v.col} {v.rule} {v.message}"
            for v in self.violations
        ]
        lines.append(
            f"repro-lint: {self.files_scanned} files, "
            f"{len(self.violations)} violation(s), "
            f"{len(self.suppressed)} suppressed"
        )
        return "\n".join(lines)


def match_path(relpath: str, patterns: Sequence[str]) -> bool:
    """fnmatch-style path matching (``*`` crosses ``/``, so ``core/*``
    covers the whole subtree)."""
    return any(fnmatch(relpath, pattern) for pattern in patterns)


class LintRunner:
    """Applies a rule battery to a package tree under a root directory."""

    def __init__(
        self,
        rules: Sequence[Rule],
        scopes: Dict[str, "RuleScope"],
        skipped: Iterable[str] = (),
    ):
        from repro.lint.config import RuleScope  # circular-free at runtime

        self.rules = list(rules)
        self.scopes: Dict[str, RuleScope] = dict(scopes)
        #: Ids of known rules left out of this run (--select / --ignore).
        self.skipped: Set[str] = set(skipped)

    # -- discovery -----------------------------------------------------
    @staticmethod
    def _iter_files(root: Path) -> Iterator[Path]:
        if root.is_file():
            yield root
            return
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            yield path

    # -- suppressions --------------------------------------------------
    @staticmethod
    def _parse_suppressions(source: str) -> List[_Suppression]:
        suppressions = []
        for lineno, line in enumerate(source.splitlines(), start=1):
            found = _SUPPRESS_RE.search(line)
            if not found:
                continue
            rules = tuple(
                token.strip() for token in found.group(1).split(",")
                if token.strip()
            )
            suppressions.append(
                _Suppression(line=lineno, rules=rules, reason=found.group(2))
            )
        return suppressions

    # -- the run -------------------------------------------------------
    def run(self, root) -> LintReport:
        """Lint every ``.py`` file under ``root`` and return the report."""
        root = Path(root)
        base = root if root.is_dir() else root.parent
        violations: List[Violation] = []
        suppressed: List[Violation] = []
        files = 0
        for path in self._iter_files(root):
            files += 1
            relpath = path.relative_to(base).as_posix()
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:
                violations.append(Violation(
                    rule=PARSE_RULE,
                    path=relpath,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"file does not parse: {exc.msg}",
                ))
                continue
            ctx = FileContext(path, relpath, source, tree)
            marks = self._parse_suppressions(source)
            by_line: Dict[int, _Suppression] = {m.line: m for m in marks}

            raw: List[Violation] = []
            for rule in self.rules:
                scope = self.scopes.get(rule.rule_id)
                if scope is not None and not scope.applies_to(relpath):
                    continue
                options = dict(scope.options) if scope is not None else {}
                raw.extend(rule.check(ctx, options))

            for finding in raw:
                mark = by_line.get(finding.line)
                if mark is not None and finding.rule in mark.rules:
                    mark.used.add(finding.rule)
                    if mark.reason is None:
                        # Counted below, at the comment itself.
                        continue
                    suppressed.append(Violation(
                        rule=finding.rule,
                        path=finding.path,
                        line=finding.line,
                        col=finding.col,
                        message=finding.message,
                        suppressed=True,
                        reason=mark.reason,
                    ))
                else:
                    violations.append(finding)

            for mark in marks:
                if mark.reason is None:
                    violations.append(Violation(
                        rule=SUPPRESS_REASON_RULE,
                        path=relpath,
                        line=mark.line,
                        col=1,
                        message=(
                            "suppression is missing its justification; write "
                            "'# repro-lint: disable="
                            f"{','.join(mark.rules)} -- <reason>'"
                        ),
                    ))
                # A rule left out of this run found nothing because it did
                # not look, so its suppression is not judged; an id that is
                # no rule at all is always stale.
                stale = [
                    r for r in mark.rules
                    if r not in mark.used and r not in self.skipped
                ]
                if stale:
                    violations.append(Violation(
                        rule=STALE_SUPPRESS_RULE,
                        path=relpath,
                        line=mark.line,
                        col=1,
                        message=(
                            f"suppression for {', '.join(stale)} matches no "
                            "finding on this line; remove it so baselines "
                            "cannot rot"
                        ),
                    ))

        order = {rule.rule_id: i for i, rule in enumerate(self.rules)}
        violations.sort(key=lambda v: (v.path, v.line, order.get(v.rule, 99), v.col))
        suppressed.sort(key=lambda v: (v.path, v.line, order.get(v.rule, 99), v.col))
        return LintReport(
            root=str(root),
            files_scanned=files,
            rules=tuple(rule.rule_id for rule in self.rules),
            violations=violations,
            suppressed=suppressed,
        )
