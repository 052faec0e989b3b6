"""REPRO006 — no module under ``src/repro`` imports numpy.

The dual-substrate invariant (ROADMAP) ends in one mechanical clause:
every kernel is pure Python, so no ``repro`` module may load numpy,
which would only grow each process's resident set and start-up time.
The rule flags every ``import numpy``, ``import numpy.<sub>`` and
``from numpy… import …`` statement in a ``repro.*`` module,
function-local imports included; test modules are exempt.
``tests/test_product_imports.py`` is the run-time twin: it imports every
``repro`` module in a fresh interpreter and asserts that numpy never
enters ``sys.modules``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.rules import rule
from repro.lint.symbols import Project


def _is_numpy(name: str) -> bool:
    return name == "numpy" or name.startswith("numpy.")


@rule("REPRO006", "a repro module imports numpy")
def check_no_numpy(project: Project) -> Iterable[Finding]:
    for module in project.repro_modules():
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(_is_numpy(name) for name in names):
                yield Finding(
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="REPRO006",
                    message=(
                        f"module {module.name} imports numpy; every kernel "
                        f"is pure Python and no repro module may load numpy "
                        f"(see docs/lint.md)"
                    ),
                )
