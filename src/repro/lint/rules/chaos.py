"""REPRO005 — chaos tests must prove their fault actually fired.

A fault-injection test that never checks
:func:`repro.faults.fired_count` can pass vacuously: rename a hook,
misspell a checkpoint name, or change a connection index and the "fault"
silently stops firing while the test keeps asserting the happy path.
The harness grew ``fired_count`` exactly to close that hole (the
dynamic anti-vacuity check); this rule is its static mirror — it flags
any test function that constructs a :class:`~repro.faults.FaultPlan`
but never references ``fired_count``, directly or through one level of
same-module helpers (a shared ``_chaos_round``-style helper that both
injects and asserts satisfies the rule for its callers).

Asserting ``fired_count(...) == 0`` also satisfies the rule — a test
may legitimately pin that a fault must *not* fire, which is still an
explicit statement about firing rather than silence.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.rules import rule
from repro.lint.symbols import Module, Project


def _fn_facts(fn: ast.AST) -> Tuple[Optional[int], bool, Set[str]]:
    """(first FaultPlan construction line, references fired_count, callees)."""
    plan_line: Optional[int] = None
    fired = False
    callees: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name == "FaultPlan" and plan_line is None:
                plan_line = node.lineno
            elif name:
                callees.add(name)
        if isinstance(node, ast.Name) and node.id == "fired_count":
            fired = True
        elif isinstance(node, ast.Attribute) and node.attr == "fired_count":
            fired = True
    return plan_line, fired, callees


@rule(
    "REPRO005",
    "chaos test injects a FaultPlan but never asserts fired_count",
)
def check_chaos_antivacuity(project: Project) -> Iterable[Finding]:
    for module in project.test_modules():
        facts: Dict[str, Tuple[Optional[int], bool, Set[str]]] = {
            qualname: _fn_facts(fn) for qualname, fn in module.iter_functions()
        }
        # Helper lookup is by bare name: tests call module-level helpers
        # unqualified, and one level of resolution is the contract.
        by_bare = {q.rsplit(".", 1)[-1]: f for q, f in facts.items()}
        for qualname, (plan_line, fired, callees) in facts.items():
            bare = qualname.rsplit(".", 1)[-1]
            if not bare.startswith("test_"):
                continue
            helper_facts = [
                by_bare[c] for c in callees if c in by_bare and c != bare
            ]
            injects = plan_line is not None or any(
                h[0] is not None for h in helper_facts
            )
            checks = fired or any(h[1] for h in helper_facts)
            if injects and not checks:
                line = plan_line
                if line is None:
                    # The plan comes from a helper; anchor at the test def.
                    line = module.functions[qualname].lineno
                yield _finding(module, qualname, line)


def _finding(module: Module, qualname: str, line: int) -> Finding:
    return Finding(
        path=module.path,
        line=line,
        col=0,
        rule="REPRO005",
        message=(
            f"{qualname} injects a FaultPlan but never checks fired_count; "
            f"without it the test passes vacuously when the fault stops "
            f"firing — assert fired_count(plan_path) (== 0 for must-not-fire "
            f"scenarios)"
        ),
    )
