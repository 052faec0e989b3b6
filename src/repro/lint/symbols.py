"""Per-module symbol tables and call-graph-lite resolution.

The lint rules need just enough name resolution to follow *one* level of
calls inside this repository — e.g. REPRO001 scans the bodies of the
functions a task function calls.  Full type inference would be overkill
(and fragile); a per-module table of

* top-level functions and classes (methods keyed ``Class.method``),
* import aliases (``alias -> dotted target``),

plus a project-wide index by dotted module name covers everything the
rules ask.  Dotted names are derived structurally by walking up from
each file while ``__init__.py`` chains hold, so ``src/repro/graph/csr.py``
is ``repro.graph.csr`` no matter which path the CLI was given, and test
files (no package chain) keep their bare stem.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


def module_name_for(path: str) -> str:
    """Dotted module name derived from the ``__init__.py`` package chain."""
    path = os.path.abspath(path)
    base = os.path.basename(path)
    stem = base[:-3] if base.endswith(".py") else base
    parts: List[str] = [] if stem == "__init__" else [stem]
    directory = os.path.dirname(path)
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        parts.insert(0, os.path.basename(directory))
        directory = os.path.dirname(directory)
    return ".".join(parts)


@dataclass
class Module:
    """One parsed source file plus its symbol table."""

    path: str  # path as reported in findings (relative when possible)
    name: str  # dotted module name ("" only for pathological layouts)
    source: str
    tree: ast.Module
    #: "fn" and "Class.method" -> def node.
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    classes: Dict[str, ast.ClassDef] = field(default_factory=dict)
    #: local alias -> dotted target ("pkg.mod" or "pkg.mod.symbol").
    imports: Dict[str, str] = field(default_factory=dict)

    @property
    def in_repro(self) -> bool:
        return self.name == "repro" or self.name.startswith("repro.")

    @property
    def is_test_module(self) -> bool:
        last = self.name.rsplit(".", 1)[-1]
        return not self.in_repro and (
            last.startswith("test_") or last == "conftest"
        )

    def iter_functions(self) -> Iterator[Tuple[str, ast.FunctionDef]]:
        yield from self.functions.items()


def _collect_imports(module: Module) -> None:
    package = module.name.rsplit(".", 1)[0] if "." in module.name else ""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                module.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: resolve against the enclosing package.
                anchor_parts = module.name.split(".")
                drop = node.level if module.name.endswith("__init__") else node.level
                anchor = ".".join(anchor_parts[: len(anchor_parts) - drop])
                base = f"{anchor}.{node.module}" if node.module else anchor
            else:
                base = node.module or package
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                module.imports[local] = f"{base}.{alias.name}" if base else alias.name


def _collect_symbols(module: Module) -> None:
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            module.classes[node.name] = node
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    module.functions[f"{node.name}.{item.name}"] = item


def parse_module(path: str, display_path: Optional[str] = None) -> Module:
    """Parse one file into a :class:`Module` (raises ``SyntaxError``)."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source, filename=path)
    module = Module(
        path=display_path or path,
        name=module_name_for(path),
        source=source,
        tree=tree,
    )
    _collect_symbols(module)
    _collect_imports(module)
    return module


@dataclass
class Resolved:
    """A call resolved one level deep: the target function and its home."""

    module: Module
    qualname: str
    node: ast.FunctionDef


class Project:
    """Every parsed module of one lint run, indexed for resolution."""

    def __init__(self, modules: List[Module]):
        self.modules = modules
        self.by_name: Dict[str, Module] = {m.name: m for m in modules if m.name}

    def repro_modules(self) -> Iterator[Module]:
        for module in self.modules:
            if module.in_repro:
                yield module

    def test_modules(self) -> Iterator[Module]:
        for module in self.modules:
            if module.is_test_module:
                yield module

    def split_dotted(self, dotted: str) -> Optional[Tuple[Module, str]]:
        """Split ``pkg.mod.attr...`` into (module, remainder) by longest
        module prefix known to the project; ``None`` when no prefix is."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            module = self.by_name.get(prefix)
            if module is not None:
                return module, ".".join(parts[cut:])
        return None

    def resolve_call(
        self,
        module: Module,
        call: ast.Call,
        enclosing_class: Optional[str] = None,
    ) -> Optional[Resolved]:
        """Resolve a call one level deep, or ``None`` when out of reach.

        Handles: calls to module-level names (local or imported with
        ``from x import y``), ``alias.fn(...)`` where ``alias`` imports a
        project module, and ``self.method(...)`` within a known class.
        Anything else — methods on arbitrary objects, builtins, stdlib —
        is deliberately unresolved; the rules treat that as a scan
        boundary, not an error.
        """
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            node = module.functions.get(name)
            if node is not None:
                return Resolved(module, name, node)
            dotted = module.imports.get(name)
            if dotted:
                split = self.split_dotted(dotted)
                if split:
                    home, attr = split
                    target = home.functions.get(attr)
                    if target is not None:
                        return Resolved(home, attr, target)
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner, attr = func.value.id, func.attr
            if owner == "self" and enclosing_class:
                target = module.functions.get(f"{enclosing_class}.{attr}")
                if target is not None:
                    return Resolved(module, f"{enclosing_class}.{attr}", target)
                return None
            dotted = module.imports.get(owner)
            if dotted:
                home = self.by_name.get(dotted)
                if home is not None:
                    target = home.functions.get(attr)
                    if target is not None:
                        return Resolved(home, attr, target)
        return None


def enclosing_symbols(tree: ast.Module) -> Dict[int, str]:
    """Map every line to the qualname of its innermost def/class.

    Used to attach a ``symbol`` to findings.  Later (inner) definitions
    overwrite outer ones per line, which is exactly the innermost-wins
    behaviour wanted.
    """
    spans: Dict[int, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                end = getattr(child, "end_lineno", child.lineno) or child.lineno
                for line in range(child.lineno, end + 1):
                    spans[line] = qual
                visit(child, qual)

    visit(tree, "")
    return spans
