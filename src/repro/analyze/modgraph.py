"""Module discovery and import binding resolution.

Loads every ``.py`` file under a source tree into a :class:`Program`:
parsed ASTs plus, per module, a *binding table* mapping local names to
what they denote — a program module, an attribute of a program module,
or something external (stdlib, third-party) the analyzer treats as
opaque except for the leaf-seed tables.

Binding resolution is flow-insensitive within a scope: every
``import`` outside function bodies contributes to the module's table,
and every ``import`` inside a function body (the runners import heavy
dependencies lazily) to that function's own table
(:func:`bind_import`, called by the call-graph linker).  A name a
function imports therefore resolves to what *that* import names, never
to a module-level binding of the same name.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from .effects import PragmaTable, parse_pragmas


@dataclass(frozen=True)
class Binding:
    """What one local name denotes after imports resolve.

    ``module`` is the dotted module the name points *into*; ``attr``
    is the attribute there (None means the name is the module itself).
    ``external`` marks targets outside the analyzed program.
    """

    module: str
    attr: Optional[str] = None
    external: bool = False


@dataclass
class Module:
    """One parsed source module."""

    name: str                     # dotted, e.g. "repro.runtime.runners"
    path: Path
    source: str
    tree: ast.Module
    bindings: Dict[str, Binding] = field(default_factory=dict)
    pragmas: PragmaTable = field(default_factory=PragmaTable)
    #: Program modules whose import executes when this module loads.
    static_imports: List[str] = field(default_factory=list)

    @property
    def package(self) -> str:
        """The package containing this module (itself, if a package)."""
        if self.path.name == "__init__.py":
            return self.name
        return self.name.rpartition(".")[0]


class Program:
    """Every module of one source tree, keyed by dotted name."""

    def __init__(self, root: Path, package: Optional[str] = None) -> None:
        self.root = root
        self.package = package or root.name
        self.modules: Dict[str, Module] = {}

    def module(self, name: str) -> Optional[Module]:
        return self.modules.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.modules

    def sorted_modules(self) -> List[Module]:
        return [self.modules[name] for name in sorted(self.modules)]


def _module_name(root: Path, path: Path, prefix: str) -> str:
    """Dotted module name of *path* relative to the tree root."""
    relative = path.relative_to(root).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([prefix] + parts) if parts else prefix


def iter_python_files(root: Path) -> Iterator[Path]:
    """Every ``.py`` file under *root*, sorted for stable output."""
    yield from sorted(root.rglob("*.py"))


def load_program(root: Path, package: Optional[str] = None) -> Program:
    """Parse the tree rooted at *root* (a package directory).

    *package* is the dotted name of the root package; defaults to the
    directory name (``src/repro`` → ``repro``).
    """
    root = root.resolve()
    prefix = package or root.name
    program = Program(root, prefix)
    for path in iter_python_files(root):
        source = path.read_text()
        module = Module(
            name=_module_name(root, path, prefix),
            path=path,
            source=source,
            tree=ast.parse(source, filename=str(path)),
            pragmas=parse_pragmas(source),
        )
        program.modules[module.name] = module
    for module in program.modules.values():
        _bind_imports(program, module)
    return program


def _relative_base(module: Module, level: int) -> Optional[str]:
    """The absolute package a ``from ...`` of *level* dots names."""
    parts = module.package.split(".") if module.package else []
    if level - 1 > len(parts):
        return None
    kept = parts[:len(parts) - (level - 1)]
    return ".".join(kept) if kept else None


def _bind_imports(program: Program, module: Module) -> None:
    """Fill *module*'s binding table from every import statement
    outside a function body (in :func:`ast.walk` order)."""
    todo = deque([module.tree])
    while todo:
        node = todo.popleft()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bind_import(program, module, node, module.bindings)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def bind_import(program: Program, module: Module, node: ast.stmt,
                table: Dict[str, Binding]) -> None:
    """Record in *table* what one ``import`` statement of *module*
    binds (the module's own table, or a function's)."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            target = alias.name
            internal = target in program
            if alias.asname:
                table[alias.asname] = Binding(target, external=not internal)
            else:
                # ``import a.b.c`` binds ``a``; attribute chains on
                # it are resolved against the full dotted path.
                head = target.split(".")[0]
                table.setdefault(
                    head, Binding(head, external=head not in program))
            if internal and node.col_offset == 0:
                module.static_imports.append(target)
        return
    if not isinstance(node, ast.ImportFrom):
        return
    if node.level:
        base = _relative_base(module, node.level)
        if base is None:
            return
        source = f"{base}.{node.module}" if node.module else base
    else:
        source = node.module or ""
    if not source:
        return
    internal = (source in program
                or any(name.startswith(source + ".")
                       for name in program.modules))
    for alias in node.names:
        if alias.name == "*":
            continue
        bound = alias.asname or alias.name
        submodule = f"{source}.{alias.name}"
        if submodule in program:
            # ``from pkg import mod`` where mod is a module.
            table[bound] = Binding(submodule)
            if node.col_offset == 0:
                module.static_imports.append(submodule)
        else:
            table[bound] = Binding(source, alias.name,
                                   external=not internal)
    if internal and source in program and node.col_offset == 0:
        module.static_imports.append(source)


def resolve_attr_chain(program: Program, module: Module,
                       parts: List[str],
                       head: Optional[Binding] = None) -> Optional[Binding]:
    """Resolve a dotted name chain (``quality.certificates_cdf``)
    against *module*'s bindings to a program-level binding.

    *head*, when given, is what the chain's first name denotes in the
    calling scope (a function-body import); otherwise the module's
    table is asked.  Returns None when the chain starts from a local
    name or anything else the binding table does not know.
    """
    if not parts:
        return None
    binding = head if head is not None else module.bindings.get(parts[0])
    if binding is None or binding.external:
        return None
    current = binding
    for part in parts[1:]:
        if current.attr is not None:
            # Attribute of an attribute: chase the re-export first.
            target = chase_reexport(program, current)
            if target is None or target.attr is not None:
                return None
            current = target
        candidate = f"{current.module}.{part}"
        if candidate in program:
            current = Binding(candidate)
        else:
            current = Binding(current.module, part)
    return current


def chase_reexport(program: Program, binding: Binding,
                   _depth: int = 0) -> Optional[Binding]:
    """Follow ``from x import y`` re-export chains to the defining
    module.

    Given a binding ``(module=pkg, attr=name)``, looks *inside* pkg:
    if pkg itself binds ``name`` by importing it from elsewhere, chase
    until the module that actually defines the name.  Cycles and
    external hops return the last internal binding reached.
    """
    if binding.external or binding.attr is None or _depth > 16:
        return binding
    target = program.module(binding.module)
    if target is None:
        return binding
    # Defined right here?  (def / class / assignment at module level.)
    for node in target.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name == binding.attr:
            return binding
        if isinstance(node, ast.Assign):
            for dest in node.targets:
                if isinstance(dest, ast.Name) and dest.id == binding.attr:
                    return binding
        if isinstance(node, ast.AnnAssign):
            if (isinstance(node.target, ast.Name)
                    and node.target.id == binding.attr):
                return binding
    inner = target.bindings.get(binding.attr)
    if inner is None:
        return binding
    if inner.attr is None:
        return inner
    return chase_reexport(program, inner, _depth + 1)
