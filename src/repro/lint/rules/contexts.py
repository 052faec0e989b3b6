"""REPRO004 — installed phase contexts stay frozen.

The executor contract (docs/executors.md) freezes a phase context — and
every component inside it — the moment it is installed: every key of
the phase reads the same context, so a mutation by one key's task would
make later keys depend on earlier ones.  A resumed solve recomputes only
the keys the checkpoint journal lacks, so such a result would differ
from an uninterrupted run's.  Task code must treat
:func:`repro.parallel.executor.worker_context` as read-only.

The rule flags, anywhere under ``src/repro``, mutations of a value
obtained from ``worker_context()``: subscript stores and deletes,
augmented subscript assignment, and calls to the dict-mutating methods
(``update``/``pop``/``popitem``/``clear``/``setdefault``) — both through
a variable bound to the call and directly on the call result.  Deeper
aliasing (``alias = ctx; alias[...] = ...``) and component-level
mutation are out of mechanical reach; the crash-resume battery's
byte-identity assertions remain the backstop for those.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from repro.lint.findings import Finding
from repro.lint.rules import rule
from repro.lint.symbols import Project

_DICT_MUTATORS = frozenset({"update", "pop", "popitem", "clear", "setdefault"})


def _is_worker_context_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "worker_context"
    return isinstance(func, ast.Attribute) and func.attr == "worker_context"


def _context_names(fn: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and _is_worker_context_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _refers_to_context(node: ast.expr, names: Set[str]) -> bool:
    return (isinstance(node, ast.Name) and node.id in names) or (
        _is_worker_context_call(node)
    )


@rule(
    "REPRO004",
    "mutation of a frozen phase context after install",
)
def check_frozen_contexts(project: Project) -> Iterable[Finding]:
    for module in project.repro_modules():
        for qualname, fn in module.iter_functions():
            names = _context_names(fn)
            uses_direct = any(
                _is_worker_context_call(n) for n in ast.walk(fn)
            )
            if not names and not uses_direct:
                continue
            for node in ast.walk(fn):
                target = None
                what = ""
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for tgt in targets:
                        if isinstance(tgt, ast.Subscript) and _refers_to_context(
                            tgt.value, names
                        ):
                            target, what = tgt, "subscript assignment into"
                elif isinstance(node, ast.Delete):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Subscript) and _refers_to_context(
                            tgt.value, names
                        ):
                            target, what = tgt, "subscript delete from"
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DICT_MUTATORS
                    and _refers_to_context(node.func.value, names)
                ):
                    target, what = node, f".{node.func.attr}() on"
                if target is not None:
                    yield Finding(
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule="REPRO004",
                        message=(
                            f"{what} a frozen phase context in {qualname}; "
                            f"contexts are installed once per phase and "
                            f"shared read-only by its keys — mutating one "
                            f"makes a resumed solve differ from an "
                            f"uninterrupted one"
                        ),
                    )
