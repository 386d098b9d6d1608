"""Whole-program model: import/call graph + per-class attribute ownership.

The single-file AST rules in :mod:`repro.analysis.rules` can prove local
properties ("this statement reads the wall clock") but not architectural
ones ("this object never escapes its shard's event loop").  This module
builds the cross-module model the :mod:`repro.analysis.deepcheck` passes
reason over:

* every module of the ``repro`` package parsed once, with its import map;
* a class table: resolved base classes, methods, and an **attribute
  ownership model** — for each ``self.x`` the best-effort type it holds,
  inferred from annotations, constructor calls, annotated parameters and
  functions with return annotations;
* a call graph: for every function, the program functions and external
  dotted names it calls, resolved through imports, ``self`` methods,
  typed attributes and typed locals.

Resolution is deliberately *best effort and conservative*: an expression
whose type cannot be pinned produces no edge and no finding — deepcheck
rules only fire on accesses the model actually proves.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["TypeRef", "CallSite", "FunctionInfo", "ClassInfo", "ProgramGraph"]


#: Builtin names the annotation resolver maps to ``builtins.<name>``.
_BUILTIN_TYPES = {
    "list", "dict", "set", "tuple", "frozenset",
    "int", "float", "str", "bytes", "bool", "bytearray", "object",
}

#: ``typing`` aliases normalized onto their builtin container.
_TYPING_ALIASES = {
    "List": "builtins.list", "Dict": "builtins.dict", "Set": "builtins.set",
    "Tuple": "builtins.tuple", "FrozenSet": "builtins.frozenset",
    "Deque": "collections.deque",
}

#: Containers whose subscript yields their element type.
_ELEM_CONTAINERS = {
    "builtins.list", "builtins.set", "builtins.frozenset",
    "builtins.tuple", "collections.deque",
}


@dataclass(frozen=True)
class TypeRef:
    """A resolved type: dotted base name plus element type for containers.

    ``list[_ShardWorker]`` becomes ``TypeRef("builtins.list",
    "repro.runtime.shard._ShardWorker")``; ``X | None`` resolves to ``X``
    (deepcheck reasons about the object when it is there).
    """

    base: str
    elem: str | None = None


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    callee: str          # resolved dotted name (program or external)
    node: ast.Call
    in_program: bool     # True when callee is a function in the graph


@dataclass
class FunctionInfo:
    """One function or method of the program."""

    qualname: str                 # repro.runtime.shard._ShardWorker._main
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_async: bool
    cls: str | None = None        # owning class qualname, None for module level
    returns: TypeRef | None = None

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ClassInfo:
    """One class of the program, with its attribute ownership model."""

    qualname: str
    module: str
    path: str
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    #: attribute name -> inferred type (``self.x`` assignments, class-level
    #: annotations).  Only attributes the model could type appear here.
    attr_types: dict[str, TypeRef] = field(default_factory=dict)
    #: method name -> function qualname
    methods: dict[str, str] = field(default_factory=dict)


@dataclass
class _Module:
    name: str
    path: str
    source: str
    tree: ast.Module
    imports: dict[str, str]


def _module_name(path: Path) -> str:
    parts = list(path.parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = [path.name]
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _import_map(tree: ast.Module, module: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            base = node.module
            if node.level:  # relative import: anchor inside the package
                parts = module.split(".")
                anchor = parts[: max(len(parts) - node.level, 0)]
                base = ".".join(anchor + [node.module])
            for alias in node.names:
                mapping[alias.asname or alias.name] = f"{base}.{alias.name}"
    return mapping


def _dotted(node: ast.expr, imports: dict[str, str]) -> str | None:
    """Dotted name for a ``Name``/``Attribute`` chain, import-resolved."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = imports.get(node.id)
    if base is None:
        if parts:
            return None
        base = node.id
    parts.append(base)
    return ".".join(reversed(parts))


class ProgramGraph:
    """Parsed program: modules, classes, functions, call edges."""

    def __init__(self) -> None:
        self.modules: dict[str, _Module] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.calls: dict[str, list[CallSite]] = {}
        self._envs: dict[str, dict[str, TypeRef]] = {}
        self._short_classes: dict[tuple[str, str], str] = {}

    # -- construction ----------------------------------------------------

    @classmethod
    def load(cls, root: str | Path) -> "ProgramGraph":
        """Parse every ``.py`` under *root* (a package or source dir)."""
        graph = cls()
        root = Path(root)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            if any(part.startswith(".") for part in file.parts):
                continue
            try:
                source = file.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError):
                continue
            graph._add_module(file.as_posix(), source)
        graph._finish()
        return graph

    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> "ProgramGraph":
        """Build a graph from in-memory ``{path: source}`` (tests)."""
        graph = cls()
        for path in sorted(sources):
            graph._add_module(path, sources[path])
        graph._finish()
        return graph

    def _add_module(self, path: str, source: str) -> None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return
        name = _module_name(Path(path))
        self.modules[name] = _Module(
            name=name, path=path, source=source, tree=tree,
            imports=_import_map(tree, name),
        )

    def _finish(self) -> None:
        for mod in self.modules.values():
            self._collect_defs(mod)
        # return annotations resolve before attribute inference so that
        # ``self.x = some_function(...)`` can type through them even when
        # the callee lives in a module processed later
        for fn in self.functions.values():
            if fn.node.returns is not None:
                fn.returns = self._resolve_annotation(
                    fn.node.returns, self.modules[fn.module]
                )
        for mod in self.modules.values():
            self._collect_attrs(mod)
        for fn in self.functions.values():
            self.calls[fn.qualname] = self._collect_calls(fn)

    # -- pass 1: definitions ---------------------------------------------

    def _collect_defs(self, mod: _Module) -> None:
        for node in mod.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                qual = f"{mod.name}.{node.name}"
                info = ClassInfo(
                    qualname=qual, module=mod.name, path=mod.path, node=node
                )
                self.classes[qual] = info
                self._short_classes[(mod.name, node.name)] = qual
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn = self._add_function(mod, child, cls=qual)
                        info.methods[child.name] = fn.qualname

    def _add_function(
        self,
        mod: _Module,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: str | None,
    ) -> FunctionInfo:
        owner = f"{cls}." if cls else f"{mod.name}."
        fn = FunctionInfo(
            qualname=f"{owner}{node.name}",
            module=mod.name,
            path=mod.path,
            node=node,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            cls=cls,
        )
        self.functions[fn.qualname] = fn
        return fn

    # -- pass 2: bases, attribute ownership, return types ----------------

    def _collect_attrs(self, mod: _Module) -> None:
        for node in mod.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            info = self.classes[f"{mod.name}.{node.name}"]
            for base in node.bases:
                resolved = self._resolve_class_expr(base, mod)
                if resolved is not None:
                    info.bases.append(resolved)
            for child in node.body:
                if isinstance(child, ast.AnnAssign) and isinstance(
                    child.target, ast.Name
                ):
                    ref = self._resolve_annotation(child.annotation, mod)
                    if ref is not None:
                        info.attr_types[child.target.id] = ref
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._collect_method_attrs(info, child, mod)

    def _collect_method_attrs(
        self,
        info: ClassInfo,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        mod: _Module,
    ) -> None:
        params = {
            arg.arg: self._resolve_annotation(arg.annotation, mod)
            for arg in method.args.args
            if arg.annotation is not None
        }
        for node in ast.walk(method):
            target: ast.expr | None = None
            value: ast.expr | None = None
            ann: ast.expr | None = None
            if isinstance(node, ast.AnnAssign):
                target, value, ann = node.target, node.value, node.annotation
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            if (
                target is None
                or not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            attr = target.attr
            ref: TypeRef | None = None
            if ann is not None:
                ref = self._resolve_annotation(ann, mod)
            if ref is None and value is not None:
                ref = self._infer_value_type(value, mod, params)
            if ref is not None and attr not in info.attr_types:
                info.attr_types[attr] = ref

    def _infer_value_type(
        self,
        value: ast.expr,
        mod: _Module,
        params: dict[str, TypeRef | None],
    ) -> TypeRef | None:
        """Type of a ``self.x = <value>`` right-hand side, best effort."""
        if isinstance(value, (ast.List, ast.ListComp)):
            return TypeRef("builtins.list")
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return TypeRef("builtins.dict")
        if isinstance(value, (ast.Set, ast.SetComp)):
            return TypeRef("builtins.set")
        if isinstance(value, ast.Tuple):
            return TypeRef("builtins.tuple")
        if isinstance(value, ast.Constant):
            kind = type(value.value).__name__
            return TypeRef(f"builtins.{kind}") if value.value is not None else None
        if isinstance(value, ast.Name):
            return params.get(value.id)
        if isinstance(value, ast.Call):
            qual = self._resolve_class_expr(value.func, mod)
            if qual is None:
                return None
            if qual in self.classes:
                return TypeRef(qual)  # program-class constructor
            fn = self.functions.get(qual) or self.functions.get(
                f"{mod.name}.{qual}"
            )
            if fn is not None:
                return fn.returns  # function with a return annotation
            if qual.startswith("builtins."):
                return TypeRef(qual)
            if "." in qual:
                # external constructor-ish call (threading.Thread(),
                # asyncio.Queue()); the dotted name stands for the type
                return TypeRef(qual)
        return None

    # -- annotation / class-name resolution ------------------------------

    def _resolve_class_expr(self, node: ast.expr, mod: _Module) -> str | None:
        """Resolve a Name/Attribute to a dotted class-ish name."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Name):
            local = self._short_classes.get((mod.name, node.id))
            if local is not None:
                return local
            mapped = mod.imports.get(node.id)
            if mapped is not None:
                return mapped
            if node.id in _BUILTIN_TYPES:
                return f"builtins.{node.id}"
            return _TYPING_ALIASES.get(node.id)
        if isinstance(node, ast.Attribute):
            return _dotted(node, mod.imports)
        return None

    def _resolve_annotation(
        self, node: ast.expr | None, mod: _Module
    ) -> TypeRef | None:
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            left = self._resolve_annotation(node.left, mod)
            right = self._resolve_annotation(node.right, mod)
            return left or right
        if isinstance(node, ast.Constant) and node.value is None:
            return None
        if isinstance(node, ast.Subscript):
            base = self._resolve_class_expr(node.value, mod)
            if base is None:
                return None
            if base in ("typing.Optional", "typing.Union"):
                inner = node.slice
                elts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
                for elt in elts:
                    ref = self._resolve_annotation(elt, mod)
                    if ref is not None:
                        return ref
                return None
            elem: str | None = None
            if base in _ELEM_CONTAINERS:
                inner = node.slice
                if isinstance(inner, ast.Tuple) and inner.elts:
                    inner = inner.elts[0]
                elem_ref = self._resolve_annotation(inner, mod)
                elem = elem_ref.base if elem_ref is not None else None
            return TypeRef(base, elem)
        resolved = self._resolve_class_expr(node, mod)
        return TypeRef(resolved) if resolved is not None else None

    # -- class hierarchy --------------------------------------------------

    def mro(self, qualname: str) -> list[str]:
        """DFS linearization of *qualname* and its in-program bases."""
        out: list[str] = []
        stack = [qualname]
        seen: set[str] = set()
        while stack:
            cls = stack.pop(0)
            if cls in seen:
                continue
            seen.add(cls)
            out.append(cls)
            info = self.classes.get(cls)
            if info is not None:
                stack.extend(info.bases)
        return out

    def subclasses(self, qualname: str) -> list[str]:
        """Every program class with *qualname* in its mro (itself included)."""
        return sorted(
            cls for cls in self.classes if qualname in self.mro(cls)
        )

    def class_attr_type(self, cls: str, attr: str) -> TypeRef | None:
        for base in self.mro(cls):
            info = self.classes.get(base)
            if info is not None and attr in info.attr_types:
                return info.attr_types[attr]
        return None

    def find_method(self, cls: str, name: str) -> str | None:
        for base in self.mro(cls):
            info = self.classes.get(base)
            if info is not None and name in info.methods:
                return info.methods[name]
        return None

    # -- local environments and expression typing -------------------------

    def local_env(self, fn: FunctionInfo) -> dict[str, TypeRef]:
        """Best-effort ``local name -> type`` for one function body."""
        cached = self._envs.get(fn.qualname)
        if cached is not None:
            return cached
        mod = self.modules[fn.module]
        env: dict[str, TypeRef] = {}
        # cache the (mutable) env up front: resolving assignment values
        # below re-enters local_env via resolve_call, and the partially
        # built env is the correct approximation at that point
        self._envs[fn.qualname] = env
        if fn.cls is not None:
            env["self"] = TypeRef(fn.cls)
        for arg in fn.node.args.args + fn.node.args.kwonlyargs:
            ref = self._resolve_annotation(arg.annotation, mod)
            if ref is not None:
                env[arg.arg] = ref
        for node in ast.walk(fn.node):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                ref = self._resolve_annotation(node.annotation, mod)
                if ref is not None:
                    env.setdefault(node.target.id, ref)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    ref = self._expr_type_in(env, fn, node.value)
                    if ref is not None:
                        env.setdefault(target.id, ref)
            elif isinstance(node, (ast.For, ast.comprehension)) and isinstance(
                node.target, ast.Name
            ):
                iter_ref = self._expr_type_in(env, fn, node.iter)
                if iter_ref is not None and iter_ref.elem is not None:
                    env.setdefault(node.target.id, TypeRef(iter_ref.elem))
        return env

    def expr_type(self, fn: FunctionInfo, node: ast.expr) -> TypeRef | None:
        """Resolved type of *node* inside *fn*, or None when unknown."""
        return self._expr_type_in(self.local_env(fn), fn, node)

    def _expr_type_in(
        self, env: dict[str, TypeRef], fn: FunctionInfo, node: ast.expr
    ) -> TypeRef | None:
        mod = self.modules[fn.module]
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._expr_type_in(env, fn, node.value)
            if base is None:
                return None
            return self.class_attr_type(base.base, node.attr)
        if isinstance(node, ast.Subscript):
            base = self._expr_type_in(env, fn, node.value)
            if base is not None and base.elem is not None:
                return TypeRef(base.elem)
            return None
        if isinstance(node, ast.Call):
            callee = self.resolve_call(fn, node)
            if callee is None:
                return None
            if callee in self.classes:
                return TypeRef(callee)
            target = self.functions.get(callee)
            if target is not None:
                return target.returns
            return None
        return None

    # -- pass 3: call resolution ------------------------------------------

    def resolve_call(self, fn: FunctionInfo, call: ast.Call) -> str | None:
        """Dotted callee of *call*: a program function/class qualname, or
        an external dotted name, or None when unresolvable."""
        return self.resolve_callable(fn, call.func)

    def resolve_callable(self, fn: FunctionInfo, func: ast.expr) -> str | None:
        """What :meth:`resolve_call` answers, for a callable that is only
        named (``loop.call_soon(self._flush)``), not called."""
        mod = self.modules[fn.module]
        # method call on a typed expression (self.x.m(), local.m(), ...)
        if isinstance(func, ast.Attribute):
            recv = self._expr_type_in(self.local_env(fn), fn, func.value)
            if recv is not None:
                method = self.find_method(recv.base, func.attr)
                if method is not None:
                    return method
        dotted = _dotted(func, mod.imports)
        if dotted is None:
            return None
        # local class constructor / module-level function / short name
        local_cls = self._short_classes.get((mod.name, dotted))
        if local_cls is not None:
            return local_cls
        if dotted in self.classes or dotted in self.functions:
            return dotted
        scoped = f"{mod.name}.{dotted}"
        if scoped in self.functions or scoped in self.classes:
            return scoped
        return dotted

    def _collect_calls(self, fn: FunctionInfo) -> list[CallSite]:
        sites: list[CallSite] = []
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            callee = self.resolve_call(fn, node)
            if callee is None:
                continue
            in_program = callee in self.functions or callee in self.classes
            if callee in self.classes:
                init = self.find_method(callee, "__init__")
                if init is not None:
                    callee = init
            sites.append(CallSite(callee=callee, node=node, in_program=in_program))
        return sites

    # -- reachability ------------------------------------------------------

    def callees(self, qualname: str) -> list[CallSite]:
        return self.calls.get(qualname, [])
