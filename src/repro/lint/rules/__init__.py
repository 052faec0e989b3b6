"""Rule registry: every architecture invariant the linter enforces.

A rule is a function ``check(project) -> Iterable[Finding]`` registered
with the :func:`rule` decorator.  Rules receive the whole parsed
:class:`~repro.lint.symbols.Project` so cross-module checks (call-graph
expansion) are plain dictionary lookups; they must never import or
execute the code under analysis.

The shipped pack mirrors the ROADMAP's architecture invariants one to
one — the standing policy (docs/lint.md, ROADMAP.md) is that every new
prose invariant lands together with a rule here and a seeded-mutation
test in ``tests/test_lint.py`` proving the rule actually fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List

from repro.exceptions import InvalidParameterError
from repro.lint.findings import Finding
from repro.lint.suppressions import SUPPRESSION_RULE
from repro.lint.symbols import Project

CheckFn = Callable[[Project], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered invariant check."""

    id: str
    summary: str
    check: CheckFn


_REGISTRY: Dict[str, Rule] = {}


def rule(rule_id: str, summary: str) -> Callable[[CheckFn], CheckFn]:
    """Register ``check`` under ``rule_id`` (decorator)."""

    def decorate(check: CheckFn) -> CheckFn:
        if rule_id in _REGISTRY:
            raise InvalidParameterError(f"duplicate lint rule id {rule_id}")
        _REGISTRY[rule_id] = Rule(id=rule_id, summary=summary, check=check)
        return check

    return decorate


def all_rules() -> List[Rule]:
    """Every registered rule, id-sorted (imports the rule modules once)."""
    # Imported here, not at module top, so the registry populates exactly
    # once and `rules/__init__` stays importable from the rule modules.
    from repro.lint.rules import (  # noqa: F401
        chaos,
        contexts,
        determinism,
        dualsubstrate,
        errors,
    )

    return [(_REGISTRY[rule_id]) for rule_id in sorted(_REGISTRY)]


def known_rule_ids() -> List[str]:
    """All rule ids, including the suppression meta-rule REPRO000."""
    return sorted({SUPPRESSION_RULE, *(r.id for r in all_rules())})
