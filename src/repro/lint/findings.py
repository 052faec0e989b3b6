"""The finding record shared by every lint rule and reporter.

A finding is one violation of one rule at one source location.  Findings
are value objects: rules yield them, the engine filters them through
suppressions, reporters render them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    #: Qualified name of the enclosing function/class ("" = module level).
    symbol: str = field(default="", compare=False)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"
