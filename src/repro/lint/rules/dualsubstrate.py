"""REPRO006 — every fast path keeps a registered reference twin.

The dual-substrate invariant (ROADMAP): every optimised kernel has a
readable pure-Python twin kept as the equivalence oracle, pinned by the
differential batteries.  A module is a *fast-path module* when it
branches on the numpy tier (calls
:func:`repro.npsupport.numpy_enabled` / ``require_numpy``); such a
module must make its reference coverage mechanically discoverable in one
of three ways:

* define an in-module ``*_reference`` twin
  (``compute_..._tables_reference`` style);
* follow the inline-twin naming convention — a ``foo_np`` function or
  method whose twin ``foo`` lives in the same scope
  (``_compile_np``/``_compile`` style);
* declare a module-level registration::

      __reference_twin__ = {
          "_SegmentReader._read_view": "repro.store.format._SegmentReader.read",
      }

  mapping each fast symbol defined here to the dotted path of its pure
  twin.  The rule validates both ends: every key must exist in this
  module and every value must resolve to a symbol in a module of this
  project — a registration pointing at nothing is itself a finding, so
  the registry cannot rot into documentation.

A registration in a module that no longer branches on the tier is a
finding too: the module lost its fast path, so the registration is left
over and must be deleted.  ``repro.npsupport`` itself (the gate) is
exempt.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from repro.lint.findings import Finding
from repro.lint.rules import rule
from repro.lint.symbols import Module, Project

REGISTRATION_NAME = "__reference_twin__"
_GATES = ("numpy_enabled", "require_numpy")


def _gate_call_line(module: Module) -> Optional[int]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name in _GATES:
                return node.lineno
    return None


def _has_reference_def(module: Module) -> bool:
    return any(
        qualname.rsplit(".", 1)[-1].endswith("_reference")
        for qualname in module.functions
    )


def _has_inline_np_twin(module: Module) -> bool:
    for qualname in module.functions:
        scope, _, bare = qualname.rpartition(".")
        if bare.endswith("_np"):
            twin = bare[: -len("_np")]
            twin_qual = f"{scope}.{twin}" if scope else twin
            if twin and twin_qual in module.functions:
                return True
    return False


def _validate_registration(
    project: Project, module: Module, node: ast.expr
) -> Iterator[Finding]:
    """Yield findings for broken registration entries; empty = valid."""
    if not isinstance(node, ast.Dict):
        yield Finding(
            path=module.path,
            line=node.lineno,
            col=node.col_offset,
            rule="REPRO006",
            message=(
                f"{REGISTRATION_NAME} must be a literal dict mapping fast "
                f"symbols defined in this module to the dotted path of "
                f"their pure reference twin"
            ),
        )
        return
    if not node.keys:
        yield Finding(
            path=module.path,
            line=node.lineno,
            col=node.col_offset,
            rule="REPRO006",
            message=f"{REGISTRATION_NAME} is empty; register at least one twin",
        )
        return
    for key, value in zip(node.keys, node.values):
        if not (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            yield Finding(
                path=module.path,
                line=node.lineno,
                col=node.col_offset,
                rule="REPRO006",
                message=f"{REGISTRATION_NAME} entries must be string literals",
            )
            continue
        fast, twin = key.value, value.value
        if fast not in module.functions and fast not in module.classes:
            yield Finding(
                path=module.path,
                line=key.lineno,
                col=key.col_offset,
                rule="REPRO006",
                message=(
                    f"{REGISTRATION_NAME} registers {fast!r}, which is not "
                    f"defined in this module — stale registration"
                ),
            )
        split = project.split_dotted(twin)
        if split is None:
            yield Finding(
                path=module.path,
                line=value.lineno,
                col=value.col_offset,
                rule="REPRO006",
                message=(
                    f"{REGISTRATION_NAME} points {fast!r} at {twin!r}, whose "
                    f"module is not part of this project — the reference "
                    f"twin must exist and stay linted"
                ),
            )
        else:
            home, attr = split
            if attr and attr not in home.functions and attr not in home.classes:
                yield Finding(
                    path=module.path,
                    line=value.lineno,
                    col=value.col_offset,
                    rule="REPRO006",
                    message=(
                        f"{REGISTRATION_NAME} points {fast!r} at {twin!r}, "
                        f"but {home.name} defines no {attr!r} — stale "
                        f"registration"
                    ),
                )


@rule(
    "REPRO006",
    "numpy-gated fast-path module lacks a valid reference-twin registration",
)
def check_dual_substrate(project: Project) -> Iterable[Finding]:
    for module in project.repro_modules():
        if module.name == "repro.npsupport":
            continue
        gate_line = _gate_call_line(module)
        registration = module.module_assigns.get(REGISTRATION_NAME)
        if gate_line is None:
            if registration is not None:
                yield Finding(
                    path=module.path,
                    line=registration.lineno,
                    col=registration.col_offset,
                    rule="REPRO006",
                    message=(
                        f"module {module.name} declares {REGISTRATION_NAME} "
                        f"but has no numpy branch left; delete the "
                        f"registration"
                    ),
                )
            continue
        if registration is not None:
            yield from _validate_registration(project, module, registration)
            continue
        if _has_reference_def(module) or _has_inline_np_twin(module):
            continue
        yield Finding(
            path=module.path,
            line=gate_line,
            col=0,
            rule="REPRO006",
            message=(
                f"module {module.name} branches on the numpy tier but "
                f"registers no reference twin: add a *_reference "
                f"implementation, an inline foo_np/foo twin pair, or a "
                f"{REGISTRATION_NAME} mapping to where the pure twin lives "
                f"(dual-substrate invariant, see docs/lint.md)"
            ),
        )
