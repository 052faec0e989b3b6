"""``repro-lint`` — the command-line surface of the invariant linter.

Usage::

    python -m repro.lint src tests                # text report, exit 0/1
    python -m repro.lint src tests --format github
    python -m repro.lint --list-rules

Exit codes: 0 = no unsuppressed findings, 1 = findings, 2 = usage or
environment error (bad path, unknown rule id).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.exceptions import ReproError
from repro.lint.engine import run_lint
from repro.lint.reporters import REPORTERS
from repro.lint.rules import all_rules
from repro.lint.suppressions import SUPPRESSION_RULE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant linter enforcing this repository's "
            "architecture contracts (rule catalogue: docs/lint.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(REPORTERS),
        default="text",
        help="report format (default text; 'github' emits CI annotations)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        default=None,
        help="comma-separated rule ids to run (default: all rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _list_rules() -> int:
    print(
        f"{SUPPRESSION_RULE}  malformed suppression directive / unparsable "
        f"file (the meta-rule; cannot be suppressed)"
    )
    for rule in all_rules():
        print(f"{rule.id}  {rule.summary}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Run one lint invocation; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()
    select = (
        [part.strip() for part in args.select.split(",") if part.strip()]
        if args.select
        else None
    )
    try:
        report = run_lint(args.paths, select=select)
    except ReproError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2
    REPORTERS[args.format](report, sys.stdout)
    return 0 if report.clean else 1
