"""repro.lint — AST-based invariant linter for the architecture contracts.

The reproduction's guarantees (byte-identical checkpoint resume, inf
re-canonicalisation at pickle boundaries, typed correct-or-loud errors,
frozen phase contexts, non-vacuous chaos tests, no numpy in the
product) are documented in ROADMAP.md and docs/ — this package
enforces them mechanically with stdlib ``ast`` so a PR that erodes one
fails CI instead of failing review.  Rule catalogue: ``docs/lint.md``.

Programmatic use::

    from repro.lint import run_lint
    report = run_lint(["src", "tests"])
    assert report.clean, report.findings
"""

from repro.lint.engine import LintReport, build_project, run_lint
from repro.lint.findings import Finding
from repro.lint.reporters import JSON_SCHEMA_VERSION, REPORTERS
from repro.lint.rules import Rule, all_rules, known_rule_ids
from repro.lint.suppressions import SUPPRESSION_RULE, parse_suppressions

__all__ = [
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintReport",
    "REPORTERS",
    "Rule",
    "SUPPRESSION_RULE",
    "all_rules",
    "build_project",
    "known_rule_ids",
    "parse_suppressions",
    "run_lint",
]
