"""The lint engine: walk, parse, check, filter, report.

One :func:`run_lint` call is one lint run: it walks the given paths for
Python files, parses them into a :class:`~repro.lint.symbols.Project`,
runs every registered rule, then filters the raw findings through the
one sanctioned escape hatch: suppression comments
(``# repro-lint: disable=REPROxxx -- reason``), which require a written
justification and are themselves linted (REPRO000).  Every other
finding fails the run.

Unparsable files surface as REPRO000 findings rather than crashing the
run — a linter that dies on the file it should be flagging is worse
than useless in CI.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.exceptions import InvalidParameterError
from repro.lint.findings import Finding
from repro.lint.rules import all_rules, known_rule_ids
from repro.lint.suppressions import (
    SUPPRESSION_RULE,
    FileSuppressions,
    parse_suppressions,
)
from repro.lint.symbols import Module, Project, enclosing_symbols, parse_module

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed_count: int = 0
    files_scanned: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def _walk_python_files(paths: Sequence[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                files.append(path)
            continue
        if not os.path.isdir(path):
            raise InvalidParameterError(
                f"lint path {path!r} is neither a file nor a directory"
            )
        for root, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames if d not in _SKIP_DIRS and not d.startswith(".")
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    files.append(os.path.join(root, name))
    # De-duplicate while preserving order (overlapping path arguments).
    seen = set()
    unique = []
    for path in files:
        key = os.path.abspath(path)
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def _display_path(path: str) -> str:
    relative = os.path.relpath(path)
    return path if relative.startswith("..") else relative


def build_project(paths: Sequence[str]) -> "tuple[Project, List[Finding]]":
    """Parse every file under ``paths``; syntax errors become findings."""
    modules: List[Module] = []
    problems: List[Finding] = []
    for path in _walk_python_files(paths):
        display = _display_path(path)
        try:
            modules.append(parse_module(path, display_path=display))
        except SyntaxError as exc:
            problems.append(
                Finding(
                    path=display,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule=SUPPRESSION_RULE,
                    message=f"file does not parse: {exc.msg}",
                )
            )
        except UnicodeDecodeError as exc:
            problems.append(
                Finding(
                    path=display,
                    line=1,
                    col=0,
                    rule=SUPPRESSION_RULE,
                    message=f"file is not valid UTF-8: {exc}",
                )
            )
    return Project(modules), problems


def _attach_symbols(module: Module, findings: List[Finding]) -> List[Finding]:
    if not findings:
        return findings
    spans = enclosing_symbols(module.tree)
    return [
        replace(finding, symbol=spans.get(finding.line, ""))
        if not finding.symbol
        else finding
        for finding in findings
    ]


def run_lint(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
) -> LintReport:
    """Run every (selected) rule over ``paths`` and return the report.

    ``select`` narrows to the given rule ids (REPRO000 problems are
    always reported).
    """
    known = set(known_rule_ids())
    if select:
        unknown = sorted(set(select) - known)
        if unknown:
            raise InvalidParameterError(
                f"unknown rule id(s) {unknown}; known rules: {sorted(known)}"
            )

    project, parse_problems = build_project(paths)

    raw: List[Finding] = list(parse_problems)
    for rule in all_rules():
        if select and rule.id not in select:
            continue
        raw.extend(rule.check(project))

    by_path: Dict[str, List[Finding]] = {}
    for finding in raw:
        by_path.setdefault(finding.path, []).append(finding)

    modules_by_path: Dict[str, Module] = {m.path: m for m in project.modules}
    suppressions: Dict[str, FileSuppressions] = {}
    for path, module in modules_by_path.items():
        parsed = parse_suppressions(path, module.source, known)
        suppressions[path] = parsed
        by_path.setdefault(path, []).extend(parsed.problems)

    report = LintReport(files_scanned=len(modules_by_path) or len(by_path))

    survivors: List[Finding] = []
    for path, findings in by_path.items():
        module = modules_by_path.get(path)
        if module is not None:
            findings = _attach_symbols(module, findings)
        file_suppressions = suppressions.get(path)
        for finding in findings:
            if file_suppressions and file_suppressions.covers(
                finding.rule, finding.line
            ):
                report.suppressed_count += 1
                continue
            survivors.append(finding)

    report.findings = sorted(survivors)
    return report
