"""Repo-specific static analysis: the invariant linter.

The system's headline guarantees — byte-identical checkpoint/restore
across backends, deterministic crash replay, the ``Session``
single-caller contract — are runtime-tested elsewhere, but runtime tests
only catch a violation after someone writes one and only on the inputs
they happen to exercise.  This package shifts that enforcement left: a
stdlib-``ast`` rule engine (:mod:`repro.lint.engine`) plus a battery of
repo-specific rules that prove entire violation classes absent from the
source tree.

Run it as a module::

    python -m repro.lint                 # lints src/repro, human output
    python -m repro.lint --format json   # machine-readable report
    python -m repro.lint --list-rules    # the rule battery

Intentional violations are baselined inline — a reason is mandatory::

    thing = risky()  # repro-lint: disable=<RULE-ID> -- one-line justification

(with the actual rule id in place of ``<RULE-ID>``).

Exit codes are stable: 0 clean, 1 violations found, 2 usage/config
error.  See the README's "Static analysis" section for the rule table.
"""

from repro.lint.config import DEFAULT_SCOPES, RuleScope, load_config
from repro.lint.engine import (
    FileContext,
    LintReport,
    LintRunner,
    Rule,
    Violation,
)
from repro.lint.rules import default_rules

__all__ = [
    "DEFAULT_SCOPES",
    "FileContext",
    "LintReport",
    "LintRunner",
    "Rule",
    "RuleScope",
    "Violation",
    "default_rules",
    "load_config",
    "run_lint",
]


def run_lint(root, config=None, select=None, ignore=None) -> LintReport:
    """Lint the package tree rooted at ``root`` and return the report.

    ``root`` is the directory whose *relative* paths the per-rule path
    configuration matches against (for this repo: ``src/repro``).  This
    is the programmatic twin of the CLI and what the self-check test and
    the fixture suite call.
    """
    rules = default_rules()
    known = {rule.rule_id for rule in rules}
    if select:
        wanted = set(select)
        rules = [rule for rule in rules if rule.rule_id in wanted]
    if ignore:
        dropped = set(ignore)
        rules = [rule for rule in rules if rule.rule_id not in dropped]
    skipped = known - {rule.rule_id for rule in rules}
    runner = LintRunner(rules, config or DEFAULT_SCOPES, skipped)
    return runner.run(root)
