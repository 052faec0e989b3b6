"""Finding reporters: text for humans, JSON for tools, GitHub for CI.

Every reporter consumes the same :class:`~repro.lint.engine.LintReport`
and writes to a stream; none of them change the exit-code semantics
(that is the engine's job).  The JSON schema is part of the tool's
contract and pinned by ``tests/test_lint.py`` — bump
``JSON_SCHEMA_VERSION`` when it changes shape.
"""

from __future__ import annotations

import json
from typing import TextIO

JSON_SCHEMA_VERSION = 2


def report_text(report, stream: TextIO) -> None:
    for finding in report.findings:
        stream.write(
            f"{finding.location()}: {finding.rule} {finding.message}\n"
        )
    stream.write(
        f"repro-lint: {len(report.findings)} finding(s) "
        f"({report.suppressed_count} suppressed) "
        f"across {report.files_scanned} file(s)\n"
    )


def report_json(report, stream: TextIO) -> None:
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "tool": "repro-lint",
        "files_scanned": report.files_scanned,
        "counts": {
            "findings": len(report.findings),
            "suppressed": report.suppressed_count,
        },
        "findings": [
            {
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "symbol": finding.symbol,
                "message": finding.message,
            }
            for finding in report.findings
        ],
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def report_github(report, stream: TextIO) -> None:
    """GitHub Actions workflow annotations (``::error`` lines).

    The runner turns each line into an inline annotation on the PR diff;
    a job step that prints these and exits non-zero both blocks the
    merge and points at the offending lines.
    """
    for finding in report.findings:
        message = finding.message.replace("%", "%25").replace(
            "\r", "%0D"
        ).replace("\n", "%0A")
        stream.write(
            f"::error file={finding.path},line={finding.line},"
            f"col={finding.col},title={finding.rule}::{message}\n"
        )
    stream.write(
        f"repro-lint: {len(report.findings)} finding(s) "
        f"({report.suppressed_count} suppressed)\n"
    )


REPORTERS = {
    "text": report_text,
    "json": report_json,
    "github": report_github,
}
