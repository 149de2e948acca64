"""The default rule battery, in report order."""

from __future__ import annotations

from typing import List

from repro.lint.engine import Rule
from repro.lint.rules_checkpoint import CHECKPOINT_RULES
from repro.lint.rules_concurrency import CONCURRENCY_RULES
from repro.lint.rules_determinism import DETERMINISM_RULES


def default_rules() -> List[Rule]:
    """Every shipped rule (determinism, checkpoint drift, concurrency
    contracts — in that order).  Rules are stateless, so the shared
    instances are safe to reuse across runs."""
    return [
        *DETERMINISM_RULES,
        *CHECKPOINT_RULES,
        *CONCURRENCY_RULES,
    ]
