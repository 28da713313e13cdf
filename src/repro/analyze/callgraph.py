"""Function nodes, leaf-effect scanning, and call-edge resolution.

Pass 1 collects every function, method, and class in the program
(including nested functions and a ``<module>`` pseudo-node per module
for import-time code).  Pass 2 links call edges and scans each node's
*own* statements for leaf effects against the seed tables in
:mod:`repro.analyze.effects`.

Resolution strategy — optimistic on the genuinely dynamic:

* names and attribute chains resolve through import bindings,
  re-export chains, module-level aliases, and local assignments; a
  name imported inside a function body resolves through that import
  (and, for closures, through their definer's);
* ``self.method`` / ``cls.method`` / ``ClassName.method`` resolve
  through an MRO walk of program classes;
* local variables are typed from parameter/return annotations and
  direct ``ClassName(...)`` assignments, so ``world.snapshot()``
  resolves when ``world`` came from an annotated constructor/factory;
* a method call on a module-level ``BoundedMemo`` is a global mutation
  allowed under :data:`~repro.analyze.effects.MEMO_GRANT`; any other
  write to it, or to a plain module-level container, is a finding —
  whether the function's own module assigns the name or imports it
  from the module that does;
* a function or method passed as a call *argument* conservatively
  creates a call edge (covers ``functools.partial``, ``map``, and
  registry dicts of callables);
* nested functions are conservatively assumed to run when their
  definer runs (covers decorator wrappers and returned closures);
* everything else — ``getattr`` dispatch, calls on untyped values
  such as ``ctx.run_shards(...)`` — stays unresolved and contributes
  nothing.  That last rule is the deliberate contract boundary: shard
  *content* functions must prove themselves effect-free, while the
  executor infrastructure behind ``ctx`` is certified by the
  serial-vs-parallel identity tests instead.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .effects import (
    ATTR_CALL_INDEX,
    GLOBAL_MUTATION_MESSAGE,
    GLOBAL_RNG_FUNCS,
    GLOBAL_RNG_MESSAGE,
    HASH_MESSAGE,
    MEMO_GRANT,
    METHOD_TAIL_RULES,
    MUTATOR_METHODS,
    NAME_CALL_RULES,
    OPEN_READ_MESSAGE,
    OPEN_WRITE_MESSAGE,
    SECRETS_MESSAGE,
    UNSEEDED_RANDOM_MESSAGE,
    UTCNOW_MESSAGE,
    Effect,
    Pragma,
)
from .modgraph import (
    Binding,
    Module,
    Program,
    bind_import,
    chase_reexport,
    resolve_attr_chain,
)


@dataclass(frozen=True)
class EffectSite:
    """One leaf effect occurrence."""

    effect: Effect
    line: int
    code: str
    message: str


@dataclass(frozen=True)
class CallEdge:
    """One resolved call (or conservative may-call) edge."""

    line: int
    callee: str


@dataclass
class ClassInfo:
    """One program class: methods plus resolvable internal bases."""

    qualname: str                 # "module:Cls"
    module: str
    name: str
    line: int = 0
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)


@dataclass
class FunctionInfo:
    """One function, method, nested function, or module pseudo-node."""

    qualname: str
    module: str
    name: str
    line: int
    node: Optional[ast.AST]       # None for the <module> pseudo-node
    class_name: Optional[str] = None
    parent: Optional[str] = None  # enclosing function qualname
    statements: List[ast.stmt] = field(default_factory=list)
    effects: List[EffectSite] = field(default_factory=list)
    allowed: List[Tuple[EffectSite, Pragma]] = field(default_factory=list)
    calls: List[CallEdge] = field(default_factory=list)
    broad_excepts: List[int] = field(default_factory=list)
    returns_class: Optional[str] = None
    locals: Set[str] = field(default_factory=set)
    #: What the ``import`` statements in this function's body bind.
    imports: Dict[str, Binding] = field(default_factory=dict)

    @property
    def is_module_node(self) -> bool:
        return self.name == "<module>"


Resolved = Tuple[str, str]        # ("func" | "class", qualname)


class CallGraph:
    """The program's functions, classes, and resolved call edges."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._assigned: Dict[str, Dict[str, Optional[ast.expr]]] = {}

    # -- lookup helpers ------------------------------------------------------

    def method_on(self, class_qual: str, name: str,
                  _seen: Optional[Set[str]] = None) -> Optional[str]:
        """MRO-ish lookup of *name* on a class and its internal bases."""
        seen = _seen if _seen is not None else set()
        if class_qual in seen:
            return None
        seen.add(class_qual)
        info = self.classes.get(class_qual)
        if info is None:
            return None
        if name in info.methods:
            return info.methods[name]
        for base in info.bases:
            found = self.method_on(base, name, seen)
            if found is not None:
                return found
        return None

    def class_methods(self, class_qual: str) -> List[str]:
        """Every method qualname of a class including inherited ones."""
        out: Dict[str, str] = {}
        stack = [class_qual]
        seen: Set[str] = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            for name, qual in info.methods.items():
                out.setdefault(name, qual)
            stack.extend(info.bases)
        return sorted(out.values())

    def assigned_names(self, module: Module
                       ) -> Dict[str, Optional[ast.expr]]:
        """*module*'s module-level assigned names -> the value last
        assigned."""
        names = self._assigned.get(module.name)
        if names is None:
            names = {}
            for child in module.tree.body:
                if isinstance(child, ast.Assign):
                    for target in child.targets:
                        if isinstance(target, ast.Name):
                            names[target.id] = child.value
                elif isinstance(child, ast.AnnAssign) and \
                        isinstance(child.target, ast.Name):
                    names[child.target.id] = child.value
            self._assigned[module.name] = names
        return names

    def resolve_entry(self, ref: str) -> Optional[Resolved]:
        """Resolve a ``module:name`` entrypoint ref to a program node.

        Chases re-exports and module-level aliases, exactly mirroring
        what :func:`repro.refs.resolve_ref` would import at runtime.
        """
        module_name, _, attr = ref.partition(":")
        module = self.program.module(module_name)
        if module is None:
            return None
        return self._resolve_module_attr(module, attr)

    def _resolve_module_attr(self, module: Module,
                             attr: str, _depth: int = 0) -> Optional[Resolved]:
        if _depth > 16:
            return None
        func = self.functions.get(f"{module.name}:{attr}")
        if func is not None:
            return ("func", func.qualname)
        cls = self.classes.get(f"{module.name}:{attr}")
        if cls is not None:
            return ("class", cls.qualname)
        binding = module.bindings.get(attr)
        if binding is not None and not binding.external:
            if binding.attr is None:
                return None          # the name is a module, not a callable
            resolved = chase_reexport(self.program, binding)
            if resolved is None or resolved.external or resolved.attr is None:
                return None
            target = self.program.module(resolved.module)
            if target is None:
                return None
            if target.name == module.name and resolved.attr == attr:
                return None          # self-referential; avoid loops
            return self._resolve_module_attr(target, resolved.attr,
                                             _depth + 1)
        alias = _module_alias_target(module, attr)
        if alias is not None:
            linker = _Linker(self, module,
                             self.functions[f"{module.name}:<module>"])
            return linker.resolve_callable(alias)
        return None


def _module_alias_target(module: Module, name: str) -> Optional[ast.expr]:
    """The RHS of a module-level ``name = <expr>`` alias, if any."""
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.value
    return None


def _dotted(node: ast.AST) -> Optional[List[str]]:
    """Flatten ``a.b.c`` into ``["a", "b", "c"]`` (None if not names)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def _own_nodes(statements: List[ast.stmt]) -> Iterator[ast.AST]:
    """Every AST node in *statements*, stopping at def/class bounds."""
    for statement in statements:
        stack: List[ast.AST] = [statement]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _inner_defs(statements: List[ast.stmt]) -> Iterator[ast.AST]:
    """Def/class statements anywhere in *statements* (one level deep:
    recursion stops at each found def, whose own body is its scope)."""
    for statement in statements:
        stack: List[ast.AST] = [statement]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield node
                continue
            stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# pass 1: collect functions / classes / module nodes
# ---------------------------------------------------------------------------

def build_callgraph(program: Program) -> CallGraph:
    """Collect all nodes, then link call edges and leaf effects."""
    graph = CallGraph(program)
    for module in program.sorted_modules():
        _collect_module(graph, module)
    _resolve_bases(graph)
    for module in program.sorted_modules():
        members = [f for f in graph.functions.values()
                   if f.module == module.name]
        # Parents before children so enclosing locals are final.
        for info in sorted(members, key=lambda f: f.qualname.count(".")):
            _Linker(graph, module, info).link()
    return graph


def _collect_module(graph: CallGraph, module: Module) -> None:
    module_node = FunctionInfo(
        qualname=f"{module.name}:<module>", module=module.name,
        name="<module>", line=1, node=None)
    graph.functions[module_node.qualname] = module_node

    def definition_time_exprs(node) -> None:
        """Decorators and defaults execute at definition time."""
        for dec in node.decorator_list:
            module_node.statements.append(ast.Expr(value=dec))
        if hasattr(node, "args"):
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                module_node.statements.append(ast.Expr(value=default))

    def handle_def(node, parent: Optional[str],
                   class_name: Optional[str]) -> None:
        if parent is None:
            qualname = f"{module.name}:{node.name}"
        elif class_name is not None and parent.endswith(
                f":{class_name}"):
            qualname = f"{parent}.{node.name}"
        else:
            qualname = f"{parent}.<locals>.{node.name}"
        info = FunctionInfo(
            qualname=qualname, module=module.name, name=node.name,
            line=node.lineno, node=node,
            class_name=class_name,
            parent=None if class_name and parent and
            parent.endswith(f":{class_name}") else parent,
            statements=list(node.body))
        graph.functions[qualname] = info
        definition_time_exprs(node)
        if class_name is not None and parent and \
                parent.endswith(f":{class_name}"):
            graph.classes[parent].methods[node.name] = qualname
        collect(node.body, qualname, None)

    def handle_class(node) -> None:
        class_qual = f"{module.name}:{node.name}"
        graph.classes[class_qual] = ClassInfo(
            qualname=class_qual, module=module.name, name=node.name,
            line=node.lineno)
        definition_time_exprs(node)
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                handle_def(member, class_qual, node.name)
            else:
                # Class-body statements run at import time.
                module_node.statements.append(member)

    def collect(body: List[ast.stmt], parent: Optional[str],
                class_name: Optional[str]) -> None:
        for child in body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if parent is not None and ":" in parent:
                    handle_def(child, parent, None)
                else:
                    handle_def(child, None, None)
            elif isinstance(child, ast.ClassDef):
                if parent is None:
                    handle_class(child)
                # Classes inside functions: rare, treated as opaque.
            else:
                if parent is None:
                    module_node.statements.append(child)
                # Defs hiding inside compound statements (if/try/...).
                for nested in _inner_defs(
                        [s for s in ast.iter_child_nodes(child)
                         if isinstance(s, ast.stmt)]):
                    if isinstance(nested, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                        handle_def(nested, parent, None)
                    elif parent is None:
                        handle_class(nested)

    collect(module.tree.body, None, None)


def _resolve_bases(graph: CallGraph) -> None:
    """Resolve class base names to program class qualnames."""
    for module in graph.program.sorted_modules():
        module_node = graph.functions[f"{module.name}:<module>"]
        for child in module.tree.body:
            if not isinstance(child, ast.ClassDef):
                continue
            info = graph.classes.get(f"{module.name}:{child.name}")
            if info is None:
                continue
            linker = _Linker(graph, module, module_node)
            for base in child.bases:
                resolved = linker.resolve_callable(base)
                if resolved is not None and resolved[0] == "class":
                    info.bases.append(resolved[1])


# ---------------------------------------------------------------------------
# pass 2: link one function
# ---------------------------------------------------------------------------

class _Linker:
    """Resolves calls and scans leaf effects for one function node."""

    def __init__(self, graph: CallGraph, module: Module,
                 info: FunctionInfo) -> None:
        self.graph = graph
        self.module = module
        self.info = info
        self.env: Dict[str, str] = {}   # local name -> class qualname
        self._shadowed: Optional[Set[str]] = None

    # -- name resolution -----------------------------------------------------

    def resolve_callable(self, expr: ast.AST) -> Optional[Resolved]:
        """Resolve a call-target expression to a program node."""
        if isinstance(expr, ast.Name):
            return self._resolve_name(expr.id)
        if isinstance(expr, ast.Attribute):
            return self._resolve_attribute(expr)
        if isinstance(expr, ast.Call):
            # ``Factory()(...)`` — calling whatever a call returned.
            inner = self.resolve_callable(expr.func)
            if inner is not None and inner[0] == "func":
                target = self.graph.functions.get(inner[1])
                if target is not None and target.returns_class:
                    return ("class", target.returns_class)
            return None
        return None

    def _scoped_import(self, name: str) -> Optional[Binding]:
        """What a function-body ``import`` binds *name* to here: this
        function's own import, else an enclosing function's (closures
        see their definer's names) — None once a plain local shadows
        it, or when no function in the chain imports it."""
        info: Optional[FunctionInfo] = self.info
        while info is not None and not info.is_module_node:
            binding = info.imports.get(name)
            if binding is not None:
                return binding
            if name in info.locals:
                return None
            info = self.graph.functions.get(info.parent) \
                if info.parent else None
        return None

    def _resolve_binding(self, binding: Binding) -> Optional[Resolved]:
        """The program node an import binding names, if any."""
        if binding.external or binding.attr is None:
            return None
        resolved = chase_reexport(self.graph.program, binding)
        if resolved is None or resolved.external or resolved.attr is None:
            return None
        target = self.graph.program.module(resolved.module)
        if target is None:
            return None
        return self.graph._resolve_module_attr(target, resolved.attr)

    def _import_binding(self, name: str) -> Optional[Binding]:
        """The import binding *name* denotes here: a function-body
        import in scope, else (unless a plain local shadows it) the
        module's."""
        binding = self._scoped_import(name)
        if binding is None and name not in self.info.locals:
            binding = self.module.bindings.get(name)
        return binding

    def _program_module(self, name: str) -> Optional[Module]:
        """The program module *name* is bound to here (``from . import
        corpus`` makes ``corpus.classify_mutant`` resolvable)."""
        binding = self._import_binding(name)
        if binding is None or binding.external or binding.attr is not None:
            return None
        return self.graph.program.module(binding.module)

    def _resolve_name(self, name: str) -> Optional[Resolved]:
        imported = self._scoped_import(name)
        if imported is not None:
            return self._resolve_binding(imported)
        if name in self.info.locals:
            if name in self.env:
                return ("class", self.env[name])
            return None
        func = self.graph.functions.get(f"{self.module.name}:{name}")
        if func is not None:
            return ("func", func.qualname)
        cls = self.graph.classes.get(f"{self.module.name}:{name}")
        if cls is not None:
            return ("class", cls.qualname)
        binding = self.module.bindings.get(name)
        if binding is not None and not binding.external:
            return self._resolve_binding(binding)
        alias = _module_alias_target(self.module, name)
        if isinstance(alias, ast.Name):
            if alias.id != name:
                return self._resolve_name(alias.id)
            return None
        if alias is not None:
            return self.resolve_callable(alias)
        return None

    def _resolve_attribute(self, expr: ast.Attribute) -> Optional[Resolved]:
        value = expr.value
        if isinstance(value, ast.Name):
            if value.id in ("self", "cls") and self.info.class_name:
                own = f"{self.module.name}:{self.info.class_name}"
                method = self.graph.method_on(own, expr.attr)
                return ("func", method) if method else None
            if value.id in self.env and value.id in self.info.locals:
                method = self.graph.method_on(self.env[value.id], expr.attr)
                return ("func", method) if method else None
            base = self._resolve_name(value.id)
            if base is not None and base[0] == "class":
                method = self.graph.method_on(base[1], expr.attr)
                return ("func", method) if method else None
            module = self._program_module(value.id)
            if module is not None:
                return self.graph._resolve_module_attr(module, expr.attr)
        if isinstance(value, ast.Call):
            # ``Scanner().probe()`` — resolve what the receiver call
            # constructs or returns, then look the method up on it.
            inner = self.resolve_callable(value.func)
            target_class: Optional[str] = None
            if inner is not None and inner[0] == "class":
                target_class = inner[1]
            elif inner is not None:
                target = self.graph.functions.get(inner[1])
                if target is not None:
                    target_class = target.returns_class
            if target_class is not None:
                method = self.graph.method_on(target_class, expr.attr)
                return ("func", method) if method else None
            return None
        parts = _dotted(expr)
        if parts and len(parts) >= 3:
            binding = resolve_attr_chain(self.graph.program, self.module,
                                         parts[:-1],
                                         self._scoped_import(parts[0]))
            if binding is not None and not binding.external:
                if binding.attr is None:
                    target = self.graph.program.module(binding.module)
                    if target is not None:
                        return self.graph._resolve_module_attr(
                            target, parts[-1])
                resolved = chase_reexport(self.graph.program, binding)
                if resolved and not resolved.external and resolved.attr:
                    cls = self.graph.classes.get(
                        f"{resolved.module}:{resolved.attr}")
                    if cls is not None:
                        method = self.graph.method_on(cls.qualname,
                                                      parts[-1])
                        return ("func", method) if method else None
        return None

    def _class_from_annotation(self, annotation: Optional[ast.AST]
                               ) -> Optional[str]:
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and \
                isinstance(annotation.value, str):
            name = annotation.value.strip().strip("\"'")
            if name.isidentifier():
                resolved = self._resolve_name(name)
                if resolved is not None and resolved[0] == "class":
                    return resolved[1]
            return None
        if isinstance(annotation, (ast.Name, ast.Attribute)):
            resolved = self.resolve_callable(annotation)
            if resolved is not None and resolved[0] == "class":
                return resolved[1]
        return None

    # -- linking -------------------------------------------------------------

    def link(self) -> None:
        info = self.info
        self._collect_locals()
        self._type_parameters()
        self._type_local_assignments()
        self._infer_return_class()
        for node in _own_nodes(info.statements):
            if isinstance(node, ast.Call):
                self._link_call(node)
            elif isinstance(node, ast.ExceptHandler):
                self._check_broad_except(node)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                self._check_environ_read(node)
            if not info.is_module_node:
                self._check_global_mutation(node)
        # Closures conservatively run when their definer runs.
        for other in self.graph.functions.values():
            if other.parent == info.qualname:
                info.calls.append(CallEdge(other.line, other.qualname))

    def _collect_locals(self) -> None:
        info = self.info
        if info.is_module_node or info.node is None:
            return
        args = info.node.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else [])):
            info.locals.add(arg.arg)
        declared_global: Set[str] = set()
        for child in _own_nodes(info.statements):
            if isinstance(child, ast.Global):
                declared_global.update(child.names)
            elif isinstance(child, ast.Name) and \
                    isinstance(child.ctx, ast.Store):
                info.locals.add(child.id)
            elif isinstance(child, ast.ExceptHandler) and child.name:
                info.locals.add(child.name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                bind_import(self.graph.program, self.module, child,
                            info.imports)
                for alias in child.names:
                    info.locals.add(
                        alias.asname or alias.name.split(".")[0])
        for nested in _inner_defs(info.statements):
            info.locals.add(nested.name)
        info.locals -= declared_global

    def _type_parameters(self) -> None:
        if self.info.is_module_node:
            return
        args = self.info.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            cls = self._class_from_annotation(arg.annotation)
            if cls is not None:
                self.env[arg.arg] = cls

    def _infer_return_class(self) -> None:
        info = self.info
        if info.is_module_node:
            return
        cls = self._class_from_annotation(info.node.returns)
        if cls is None:
            for node in _own_nodes(info.statements):
                if isinstance(node, ast.Return) and \
                        isinstance(node.value, ast.Call):
                    resolved = self.resolve_callable(node.value.func)
                    if resolved is not None and resolved[0] == "class":
                        cls = resolved[1]
                        break
        info.returns_class = cls

    def _type_local_assignments(self) -> None:
        for node in _own_nodes(self.info.statements):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                cls = self._class_from_annotation(node.annotation)
                if cls and isinstance(node.target, ast.Name):
                    self.env.setdefault(node.target.id, cls)
                continue
            if value is None or not isinstance(value, ast.Call):
                continue
            resolved = self.resolve_callable(value.func)
            cls = None
            if resolved is not None and resolved[0] == "class":
                cls = resolved[1]
            elif resolved is not None:
                target = self.graph.functions.get(resolved[1])
                if target is not None:
                    cls = target.returns_class
            if cls is None:
                continue
            for target_node in targets:
                if isinstance(target_node, ast.Name):
                    self.env.setdefault(target_node.id, cls)

    # -- per-node checks -----------------------------------------------------

    def _add_effect(self, effect: Effect, line: int, code: str,
                    message: str) -> None:
        info = self.info
        def_line = None if info.is_module_node else info.line
        site = EffectSite(effect, line, code, message)
        pragma = self.module.pragmas.grant(line, def_line, effect)
        if pragma is not None:
            info.allowed.append((site, pragma))
        else:
            info.effects.append(site)

    def _add_call(self, line: int, callee: str) -> None:
        self.info.calls.append(CallEdge(line, callee))

    def _link_call(self, node: ast.Call) -> None:
        resolved = self.resolve_callable(node.func)
        if resolved is not None:
            kind, qualname = resolved
            if kind == "func":
                self._add_call(node.lineno, qualname)
            else:
                for method in ("__init__", "__post_init__", "__call__"):
                    target = self.graph.method_on(qualname, method)
                    if target is not None:
                        self._add_call(node.lineno, target)
        else:
            self._scan_leaf_call(node)
        # Function/method references passed as arguments may be called
        # later (functools.partial, sort keys, registry tables).
        for value in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(value, (ast.Name, ast.Attribute)):
                callback = self.resolve_callable(value)
                if callback is not None and callback[0] == "func":
                    self._add_call(node.lineno, callback[1])

    def _is_module_ref(self, name: str) -> bool:
        """Is *name* an imported external module (not shadowed)?"""
        binding = self._import_binding(name)
        return binding is not None and binding.external and \
            binding.attr is None

    _OPEN_LIKE = (("os", "fdopen"), ("io", "open"), ("gzip", "open"),
                  ("tarfile", "open"), ("lzma", "open"), ("bz2", "open"))

    def _scan_leaf_call(self, node: ast.Call) -> None:
        parts = _dotted(node.func)
        if parts is None:
            return
        head, tail = parts[0], parts[-1]
        code = ".".join(parts) + "()"
        line = node.lineno
        pair = (parts[-2], tail) if len(parts) >= 2 else None
        # open-family calls: effect depends on the mode argument.
        if (parts == ["open"] and "open" not in self.info.locals) or \
                (pair in self._OPEN_LIKE):
            effect, message = _open_effect(node)
            self._add_effect(effect, line, code, message)
            return
        rule = ATTR_CALL_INDEX.get(pair) if pair else None
        if rule is not None:
            self._add_effect(rule.effect, line, code, rule.message)
            return
        if tail == "utcnow":
            self._add_effect(Effect.WALL_CLOCK, line, code, UTCNOW_MESSAGE)
            return
        if tail == "Random" and not node.args and not node.keywords:
            self._add_effect(Effect.AMBIENT_RNG, line, code,
                             UNSEEDED_RANDOM_MESSAGE)
            return
        if len(parts) == 2 and head == "random" and \
                self._is_module_ref(head) and tail in GLOBAL_RNG_FUNCS:
            self._add_effect(Effect.AMBIENT_RNG, line, code,
                             GLOBAL_RNG_MESSAGE)
            return
        if head == "secrets" and self._is_module_ref(head):
            self._add_effect(Effect.OS_ENTROPY, line, code, SECRETS_MESSAGE)
            return
        if parts == ["hash"] and not self._inside_hash_method():
            self._add_effect(Effect.HASH_ORDER, line, "hash()", HASH_MESSAGE)
            return
        if len(parts) == 1 and parts[0] in NAME_CALL_RULES and \
                parts[0] not in self.info.locals:
            effect, message = NAME_CALL_RULES[parts[0]]
            self._add_effect(effect, line, code, message)
            return
        if len(parts) >= 2 and tail in METHOD_TAIL_RULES:
            effect, message = METHOD_TAIL_RULES[tail]
            self._add_effect(effect, line, code, message)

    def _inside_hash_method(self) -> bool:
        info: Optional[FunctionInfo] = self.info
        while info is not None:
            if info.name == "__hash__":
                return True
            info = self.graph.functions.get(info.parent) \
                if info.parent else None
        return False

    def _check_environ_read(self, node: ast.Attribute) -> None:
        parts = _dotted(node)
        if parts == ["os", "environ"] and self._is_module_ref("os"):
            self._add_effect(Effect.ENV, node.lineno, "os.environ",
                             "environment read; pass configuration "
                             "explicitly")

    def _check_broad_except(self, node: ast.ExceptHandler) -> None:
        if not _is_broad_except(node):
            return
        info = self.info
        def_line = None if info.is_module_node else info.line
        pragma = self.module.pragmas.grant_broad_except(node.lineno,
                                                        def_line)
        if pragma is None:
            info.broad_excepts.append(node.lineno)

    # -- global mutation -----------------------------------------------------

    def _enclosing_locals(self) -> Set[str]:
        if self._shadowed is None:
            names: Set[str] = set(self.info.locals)
            parent = self.info.parent
            while parent is not None:
                outer = self.graph.functions.get(parent)
                if outer is None:
                    break
                names |= outer.locals
                parent = outer.parent
            self._shadowed = names
        return self._shadowed

    def _global_source(self, name: str) -> Optional[Tuple[Module, str]]:
        """The module-level assignment *name* denotes here, as (defining
        module, name there): this module's own, or the one an import
        binds through any re-export chain."""
        binding = self._scoped_import(name)
        if binding is None:
            if name in self._enclosing_locals():
                return None
            if name in self.graph.assigned_names(self.module):
                return self.module, name
            binding = self.module.bindings.get(name)
        if binding is None or binding.external or binding.attr is None:
            return None
        resolved = chase_reexport(self.graph.program, binding)
        if resolved is None or resolved.attr is None:
            return None
        target = self.graph.program.module(resolved.module)
        if target is None or \
                resolved.attr not in self.graph.assigned_names(target):
            return None
        return target, resolved.attr

    def _is_memo(self, module: Module, name: str) -> bool:
        """Is *module*'s module-level *name* bound to a
        ``BoundedMemo(...)`` call?"""
        value = self.graph.assigned_names(module)[name]
        if not isinstance(value, ast.Call):
            return False
        linker = _Linker(self.graph, module,
                         self.graph.functions[f"{module.name}:<module>"])
        return linker.resolve_callable(value.func) == (
            "class", f"{self.graph.program.package}.memo:BoundedMemo")

    def _check_global_mutation(self, node: ast.AST) -> None:
        def is_global_base(expr: ast.AST) -> Optional[str]:
            while isinstance(expr, (ast.Subscript, ast.Attribute)):
                expr = expr.value
            if isinstance(expr, ast.Name) and \
                    self._global_source(expr.id) is not None:
                return expr.id
            return None

        if isinstance(node, ast.Global):
            self._add_effect(
                Effect.GLOBAL_MUTATION, node.lineno,
                f"global {', '.join(node.names)}", GLOBAL_MUTATION_MESSAGE)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    name = is_global_base(target)
                    if name is not None:
                        self._add_effect(
                            Effect.GLOBAL_MUTATION, node.lineno,
                            f"{name}[...] =", GLOBAL_MUTATION_MESSAGE)
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute):
            name = is_global_base(node.func.value)
            if name is None:
                return
            code = f"{name}.{node.func.attr}()"
            if isinstance(node.func.value, ast.Name) and \
                    self._is_memo(*self._global_source(name)):
                self.info.allowed.append((EffectSite(
                    Effect.GLOBAL_MUTATION, node.lineno, code,
                    GLOBAL_MUTATION_MESSAGE), MEMO_GRANT))
            elif node.func.attr in MUTATOR_METHODS:
                self._add_effect(Effect.GLOBAL_MUTATION, node.lineno, code,
                                 GLOBAL_MUTATION_MESSAGE)


def _open_effect(node: ast.Call) -> Tuple[Effect, str]:
    """FS_READ or FS_WRITE depending on an open-call's mode argument."""
    mode: Optional[str] = None
    if len(node.args) >= 2:
        if isinstance(node.args[1], ast.Constant) and \
                isinstance(node.args[1].value, str):
            mode = node.args[1].value
        else:
            return (Effect.FS_WRITE, OPEN_WRITE_MESSAGE)  # unknown mode
    for keyword in node.keywords:
        if keyword.arg == "mode":
            if isinstance(keyword.value, ast.Constant) and \
                    isinstance(keyword.value.value, str):
                mode = keyword.value.value
            else:
                return (Effect.FS_WRITE, OPEN_WRITE_MESSAGE)
    if mode is None:
        return (Effect.FS_READ, OPEN_READ_MESSAGE)
    if any(flag in mode for flag in "wax+"):
        return (Effect.FS_WRITE, OPEN_WRITE_MESSAGE)
    return (Effect.FS_READ, OPEN_READ_MESSAGE)


def _is_broad_except(node: ast.ExceptHandler) -> bool:
    if node.type is None:
        return True
    types = node.type.elts if isinstance(node.type, ast.Tuple) \
        else [node.type]
    for entry in types:
        if isinstance(entry, ast.Name) and \
                entry.id in ("Exception", "BaseException"):
            return True
    return False
