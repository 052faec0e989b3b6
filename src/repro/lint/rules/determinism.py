"""REPRO001 / REPRO002 — the byte-identical-resume invariants.

REPRO001 guards the task layer: every function in
``repro.parallel.tasks`` is contractually a *pure function of (context,
keys)* — that is what makes a resumed solve byte-identical to an
uninterrupted one, because the checkpoint journal replays some keys'
results from an earlier process and recomputes the rest in this one.
The rule scans each task function plus one level of calls it makes into
this package (call-graph-lite, resolved through the per-module symbol
tables) for the three nondeterminism sources that have actually bitten
such pipelines:

* wall-clock reads whose value can enter results (``time.time``,
  ``datetime.now``, ``os.urandom``, ``uuid.uuid4``, ``secrets``);
  ``time.perf_counter``/``process_time`` are exempt by contract — phase
  timings are observability, never part of the fingerprinted output;
* randomness that bypasses the seeded tagged-child derivation
  (module-level ``random.*`` uses the process-global RNG; an *unseeded*
  ``random.Random()`` differs per process) — route through
  :func:`repro.parallel.seeding.child_rng` instead;
* iteration over ``set``s (hash order varies across processes under
  ``PYTHONHASHSEED``) and ``for`` loops over ``dict.values()``/``keys()``
  that write into an accumulated mapping — the ordered-merge contract
  requires iterating explicit ordered collections (or ``sorted(...)``).

REPRO002 guards the pickle boundary: any ``__setstate__`` that restores
float-carrying fields must re-canonicalise infinities onto the
``math.inf`` singleton (or route through ``__init__``), because hot
paths test unreachability with ``is math.inf`` and unpickling
materialises fresh float objects.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.rules import rule
from repro.lint.symbols import Module, Project

#: The module whose functions anchor the REPRO001 scan.
TASKS_MODULE = "repro.parallel.tasks"

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: self-attributes a ``__setstate__`` may assign that look float-carrying.
_FLOATISH_FIELD = re.compile(r"(dist|weight|length|cost|seconds|delay)|(^|_)ws?$")

#: idioms that count as inf re-canonicalisation inside ``__setstate__``.
_CANONICAL_CALL = re.compile(r"canonical", re.IGNORECASE)


def _dotted_callable(module: Module, func: ast.expr) -> Optional[str]:
    """Best-effort dotted name of a call target (``time.time``, ...)."""
    if isinstance(func, ast.Name):
        return module.imports.get(func.id, func.id)
    if isinstance(func, ast.Attribute):
        parts = []
        node: ast.expr = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            base = module.imports.get(node.id, node.id)
            parts.append(base)
            return ".".join(reversed(parts))
    return None


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _set_typed_names(fn: ast.AST) -> Set[str]:
    """Names assigned a set literal/constructor anywhere in ``fn``."""
    names: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if _is_set_expr(node.value) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


_MUTATING_METHODS = frozenset(
    {"append", "add", "setdefault", "update", "extend", "insert"}
)


def _has_merge_write(loop: ast.For) -> bool:
    """Does the loop body write into an accumulated container?"""
    for node in ast.walk(loop):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Subscript) for t in node.targets
        ):
            return True
        if isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Subscript
        ):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
        ):
            return True
    return False


def _scan_task_function(
    module: Module, qualname: str, fn: ast.AST, reached_from: str
) -> Iterator[Finding]:
    where = (
        f"{qualname}" if qualname == reached_from else f"{qualname} (reached from task {reached_from})"
    )
    set_names = _set_typed_names(fn)
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            dotted = _dotted_callable(module, node.func)
            if dotted is None:
                continue
            if dotted in _WALL_CLOCK or dotted.startswith("secrets."):
                yield Finding(
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="REPRO001",
                    message=(
                        f"nondeterministic call {dotted}() in task "
                        f"path {where}; task functions must be pure "
                        f"functions of (context, keys)"
                    ),
                )
            elif dotted.startswith("random.") and not dotted.endswith(".Random"):
                yield Finding(
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="REPRO001",
                    message=(
                        f"{dotted}() uses the process-global RNG in "
                        f"task path {where}; derive a seeded child via "
                        f"repro.parallel.seeding.child_rng instead"
                    ),
                )
            elif dotted in ("random.Random", "random.SystemRandom") and not (
                node.args or node.keywords
            ):
                yield Finding(
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="REPRO001",
                    message=(
                        f"unseeded {dotted}() in task path {where}; "
                        f"pass an explicit derived seed (child_rng) so a "
                        f"resumed solve replays the same stream"
                    ),
                )
        elif isinstance(node, ast.For):
            it = node.iter
            if _is_set_expr(it) or (
                isinstance(it, ast.Name) and it.id in set_names
            ):
                yield Finding(
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="REPRO001",
                    message=(
                        f"iteration over a set in task path {where}; "
                        f"set order varies across processes "
                        f"(PYTHONHASHSEED) — iterate sorted(...) or an "
                        f"ordered collection"
                    ),
                )
            elif (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Attribute)
                and it.func.attr in ("values", "keys")
                and not it.args
                and not it.keywords
                and _has_merge_write(node)
            ):
                yield Finding(
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="REPRO001",
                    message=(
                        f"loop over .{it.func.attr}() feeds an ordered merge "
                        f"in task path {where}; iterate a sorted or "
                        f"explicitly ordered view so the merge order is "
                        f"the same in every process"
                    ),
                )
        elif isinstance(node, (ast.ListComp, ast.DictComp)):
            for generator in node.generators:
                it = generator.iter
                if _is_set_expr(it) or (
                    isinstance(it, ast.Name) and it.id in set_names
                ):
                    yield Finding(
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule="REPRO001",
                        message=(
                            f"comprehension over a set builds an ordered "
                            f"result in task path {where}; wrap the "
                            f"iterable in sorted(...)"
                        ),
                    )


@rule(
    "REPRO001",
    "nondeterminism sources inside task functions",
)
def check_task_determinism(project: Project) -> Iterable[Finding]:
    tasks = project.by_name.get(TASKS_MODULE)
    if tasks is None:
        return
    scanned: Dict[Tuple[str, str], Tuple[Module, ast.AST, str]] = {}
    for name, node in tasks.functions.items():
        if "." in name:
            continue  # tasks are module-level functions
        scanned.setdefault((tasks.name, name), (tasks, node, name))
        # One level of intra-package call resolution: the helpers a task
        # body calls feed its results too.
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            resolved = project.resolve_call(tasks, call)
            if resolved is not None and resolved.module.in_repro:
                key = (resolved.module.name, resolved.qualname)
                scanned.setdefault(key, (resolved.module, resolved.node, name))
    for (_, qualname), (module, fn, root) in sorted(scanned.items()):
        yield from _scan_task_function(module, qualname, fn, root)


def _routes_through_init(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__init__"
        ):
            return True
    return False


def _has_canonicalisation(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and node.attr == "inf":
            if isinstance(node.value, ast.Name) and node.value.id == "math":
                return True
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else ""
            )
            if name == "isinf" or _CANONICAL_CALL.search(name):
                return True
    return False


@rule(
    "REPRO002",
    "__setstate__ restores float fields without inf re-canonicalisation",
)
def check_setstate_canonicalisation(project: Project) -> Iterable[Finding]:
    for module in project.repro_modules():
        for qualname, fn in module.iter_functions():
            if not qualname.endswith(".__setstate__"):
                continue
            if _routes_through_init(fn) or _has_canonicalisation(fn):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Assign):
                    continue
                if isinstance(node.value, ast.Constant) and node.value.value is None:
                    continue  # cache reset, not a float restore
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and _FLOATISH_FIELD.search(target.attr)
                    ):
                        yield Finding(
                            path=module.path,
                            line=node.lineno,
                            col=node.col_offset,
                            rule="REPRO002",
                            message=(
                                f"{qualname} assigns float-carrying field "
                                f"{target.attr!r} without routing through "
                                f"inf re-canonicalisation (compare against "
                                f"math.inf, call a *canonical* helper, or "
                                f"restore via __init__); unpickled floats "
                                f"break `is math.inf` identity checks"
                            ),
                        )
