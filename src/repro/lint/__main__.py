"""``python -m repro.lint`` — the invariant linter CLI.

Exit codes are stable and scripted against by CI:

* ``0`` — tree is clean (suppressed findings don't fail the run),
* ``1`` — violations found,
* ``2`` — usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint import DEFAULT_SCOPES, load_config, run_lint
from repro.lint.rules import default_rules


def _default_root() -> Path:
    """``src/repro`` when run from a checkout, else the installed package."""
    checkout = Path("src/repro")
    if checkout.is_dir():
        return checkout
    return Path(__file__).resolve().parent.parent


def _list_rules() -> str:
    lines = []
    for rule in default_rules():
        scope = DEFAULT_SCOPES.get(rule.rule_id)
        where = ", ".join(scope.include) if scope else "*"
        lines.append(f"{rule.rule_id:24s} {rule.title}  [{where}]")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Repo-specific invariant linter (determinism, "
                    "checkpoint drift, concurrency contracts).",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: src/repro); path "
             "globs in the rule configuration are relative to each root",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="output format (json is the CI artifact shape)",
    )
    parser.add_argument(
        "--select", action="append", metavar="RULE-ID",
        help="run only these rules (repeatable)",
    )
    parser.add_argument(
        "--ignore", action="append", metavar="RULE-ID",
        help="skip these rules (repeatable)",
    )
    parser.add_argument(
        "--config", type=Path,
        help="JSON file overriding per-rule include/exclude/options",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule battery and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    known = {rule.rule_id for rule in default_rules()}
    for picked in (args.select or []) + (args.ignore or []):
        if picked not in known:
            print(f"repro-lint: unknown rule {picked!r}", file=sys.stderr)
            return 2

    scopes = DEFAULT_SCOPES
    if args.config is not None:
        try:
            scopes = load_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"repro-lint: bad --config: {exc}", file=sys.stderr)
            return 2

    roots = args.paths or [_default_root()]
    for root in roots:
        if not root.exists():
            print(f"repro-lint: no such path: {root}", file=sys.stderr)
            return 2

    reports = [
        run_lint(root, config=scopes, select=args.select, ignore=args.ignore)
        for root in roots
    ]
    ok = all(report.ok for report in reports)

    if args.format == "json":
        if len(reports) == 1:
            payload = reports[0].to_dict()
        else:
            payload = {
                "tool": "repro-lint",
                "version": 1,
                "reports": [report.to_dict() for report in reports],
                "summary": {"ok": ok},
            }
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        for report in reports:
            print(report.render())

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
