"""The whole-program semantic model behind the ``verify`` and ``det``
packs.

PR 1's linter reasons one file at a time; the rules in
:mod:`repro.analysis.verify.rules` need facts that cross function and
module boundaries: *does this loop body eventually reach the event
queue?*, *is this constant a time or a rate?*, *does the exception
handler release what the try block reserved?*  This module extracts a
per-file **module summary** (pure local facts, plain dicts and lists)
from each once-parsed :class:`~repro.analysis.lint.core.FileContext`
— one scope walk scans every function — and assembles the summaries
into a :class:`Program`:

* a **module symbol table** — imports, module-level constants with
  inferred dimensions, functions by qualified name;
* an **intra-package call graph** — call sites recorded as best-effort
  dotted names, resolved by receiver class when a local constructor
  pins it (``controller = AdmissionController(...)``) and by method
  name otherwise (a deliberate over-approximation: for reachability
  questions, more edges err toward reporting);
* a **dimension-inference pass** — expressions are tagged time / size /
  rate / dimensionless from ``repro.units`` constructors, identifier
  conventions shared with the lint layer's keyword tables, and
  annotated ``Set``/``Dict`` signatures; unknown stays unknown, so a
  mismatch is only ever reported between two *known* dimensions.

Dimensions form a tiny exponent algebra ``(time_exp, size_exp)``:
``time=(1,0)``, ``size=(0,1)``, ``rate=size/time=(-1,1)``,
``dimensionless=(0,0)``.  Multiplication adds exponents, division
subtracts, and addition/comparison require equal dimensions — exactly
the checks a units-aware type system would make.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.analysis.lint.core import FileContext, Violation
from repro.analysis.lint.rules import (
    _LENGTH_KEYWORDS,
    _RATE_KEYWORDS,
    _TIME_KEYWORDS,
    _TIME_STEMS,
)

__all__ = [
    "DIMENSIONLESS",
    "RATE",
    "SIZE",
    "TIME",
    "Program",
    "call_name",
    "dim_name",
    "module_name_for",
    "summarize",
]

# ----------------------------------------------------------------------
# The dimension algebra
# ----------------------------------------------------------------------
#: A concrete dimension: (time exponent, size exponent).
Dim = Tuple[int, int]
#: What extraction knows about an expression: a concrete dimension, a
#: symbolic reference to a module-level constant (``{"ref": dotted}``,
#: resolved once the whole program is assembled), or None = unknown.
DimSpec = Union[None, Dim, Dict[str, str]]

TIME: Dim = (1, 0)
SIZE: Dim = (0, 1)
RATE: Dim = (-1, 1)
DIMENSIONLESS: Dim = (0, 0)

_DIM_NAMES = {TIME: "time", SIZE: "size", RATE: "rate",
              DIMENSIONLESS: "dimensionless"}

#: ``repro.units`` constructors and the dimension of their result.
_UNIT_CONSTRUCTORS: Dict[str, Dim] = {
    "repro.units.seconds": TIME,
    "repro.units.ms": TIME,
    "repro.units.us": TIME,
    "repro.units.to_ms": TIME,
    "repro.units.kbit": SIZE,
    "repro.units.Mbit": SIZE,
    "repro.units.kbps": RATE,
    "repro.units.Mbps": RATE,
}

#: Builtins that pass their arguments' dimension through.
_PASSTHROUGH_CALLS = ("min", "max", "abs", "float", "round", "sum")

#: Method names that put an event on a queue: the kernel's schedule
#: calls plus ``DeadlineScheduler._push``, the deadline-heap enqueue
#: every deadline discipline funnels through.  Reaching one of these
#: via the call graph is what makes an iteration order observable in
#: dispatch order.
SINK_NAMES = ("schedule", "schedule_at", "_push")

#: Method names that create a reservation / release one.
RESERVE_NAMES = ("admit", "reserve")
RELEASE_NAME = "release"


def dim_name(dim: Dim) -> str:
    """Human name of a concrete dimension for messages."""
    known = _DIM_NAMES.get(dim)
    if known is not None:
        return known
    return f"time^{dim[0]}*size^{dim[1]}"


#: Identifier segments that mark a *timestamp or duration* value.  A
#: deliberately tighter set than the keyword-argument table: keyword
#: names are chosen by this codebase's APIs, identifiers are free-form,
#: so only unambiguous spellings infer a dimension.
_TIME_SEGMENTS = frozenset((
    "now", "time", "delay", "duration", "until", "horizon", "warmup",
    "propagation", "holding", "interval", "spacing", "jitter",
))


def _ident_dim(name: str) -> Optional[Dim]:
    """Dimension implied by an identifier (parameter/attribute) name."""
    base = name.lstrip("_")
    if _RATE_KEYWORDS.match(base):
        return RATE
    if _LENGTH_KEYWORDS.match(base):
        return SIZE
    for segment in base.lower().split("_"):
        if not segment:
            continue
        if segment in _TIME_SEGMENTS or segment.startswith(_TIME_STEMS):
            return TIME
    return None


def _kwarg_dim(name: str) -> Optional[Dim]:
    """Dimension a keyword argument's *name* promises (lint's tables)."""
    if _TIME_KEYWORDS.match(name):
        return TIME
    if _RATE_KEYWORDS.match(name):
        return RATE
    if _LENGTH_KEYWORDS.match(name):
        return SIZE
    return None


def _concrete(spec: DimSpec) -> Optional[Dim]:
    """``spec`` when it is a dimension; None for a reference or unknown."""
    return spec if isinstance(spec, tuple) else None


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def call_name(func: ast.AST) -> str:
    """Best-effort dotted name of a call target.

    Unlike :func:`repro.analysis.lint.core.dotted_name` this tolerates
    subscripts and intermediate calls (``self.procedures[n].release``,
    ``self.procedure_at(n).admit``): interior links it cannot name are
    skipped, keeping the segments that identify the method.
    """
    parts: List[str] = []
    node = func
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            break
        else:
            break
    return ".".join(reversed(parts))


def _last_segment(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _numeric_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.USub, ast.UAdd)):
        return _numeric_literal(node.operand)
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def _annotation_kind(annotation: Optional[ast.AST]) -> Optional[str]:
    """``"set"``/``"dict"`` for a ``Set[...]``/``Dict[...]`` annotation."""
    if annotation is None:
        return None
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return None
    if name in ("Set", "FrozenSet", "set", "frozenset", "AbstractSet",
                "MutableSet"):
        return "set"
    if name in ("Dict", "dict", "Mapping", "MutableMapping",
                "DefaultDict", "defaultdict", "Counter", "OrderedDict"):
        return "dict"
    return None


def _value_kind(node: ast.AST) -> Optional[str]:
    """``"set"``/``"dict"`` when an expression builds one, else None."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, ast.Call):
        last = _last_segment(call_name(node.func))
        if last in ("set", "frozenset"):
            return "set"
        if last in ("dict", "defaultdict", "OrderedDict", "Counter"):
            return "dict"
    return None


def module_name_for(path: Path) -> str:
    """Dotted module name, climbing parents while they are packages."""
    resolved = Path(path)
    parts = [resolved.stem] if resolved.stem != "__init__" else []
    parent = resolved.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) or resolved.stem


# ----------------------------------------------------------------------
# Extraction: one file -> one summary
# ----------------------------------------------------------------------
class _ModuleContext:
    """Shared per-module state while scanning one file."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.imports: Dict[str, str] = {}
        self.constants: Dict[str, DimSpec] = {}
        self.name_kinds: Dict[str, str] = {}
        self.attr_kinds: Dict[str, str] = {}
        self.class_names: Set[str] = set()

    def resolve(self, dotted: str) -> Optional[str]:
        """Fully qualified target of a dotted use, via the import map."""
        head, _, rest = dotted.partition(".")
        target = self.imports.get(head)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target


def _record_import(ctx: _ModuleContext, node: ast.AST) -> None:
    if isinstance(node, ast.Import):
        for alias in node.names:
            bound = alias.asname or alias.name.partition(".")[0]
            target = alias.name if alias.asname else bound
            ctx.imports[bound] = target
    elif isinstance(node, ast.ImportFrom):
        base = node.module or ""
        if node.level:
            # Relative import: resolve against this module's package.
            package_parts = ctx.module.split(".")
            package_parts = package_parts[:len(package_parts) - node.level]
            base = ".".join(package_parts + ([node.module]
                                            if node.module else []))
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            ctx.imports[bound] = f"{base}.{alias.name}" if base \
                else alias.name


class _FunctionScanner:
    """One pass over a function body collecting every per-rule fact."""

    def __init__(self, ctx: _ModuleContext, qualname: str,
                 node: Optional[ast.AST],
                 params: Optional[ast.arguments]) -> None:
        self.ctx = ctx
        self.qualname = qualname
        self.lineno = getattr(node, "lineno", 0)
        self.col = getattr(node, "col_offset", 0)
        self.env: Dict[str, DimSpec] = {}
        self.env_kinds: Dict[str, Optional[str]] = {}
        self.local_classes: Dict[str, str] = {}
        self.calls: List[Dict[str, Any]] = []
        self.schedule_sites: List[Dict[str, Any]] = []
        self.loops: List[Dict[str, Any]] = []
        self.reserve_calls: List[Dict[str, Any]] = []
        self.handler_calls: List[Dict[str, Any]] = []
        self.dim_checks: List[Dict[str, Any]] = []
        self.has_try = False
        self._loop_stack: List[Dict[str, Any]] = []
        self._active_loop_records: List[Dict[str, Any]] = []
        self._in_handler = 0
        if params is not None:
            self._seed_params(params)

    def _seed_params(self, args: ast.arguments) -> None:
        every = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for arg in every:
            dim = _ident_dim(arg.arg)
            if dim is not None:
                self.env[arg.arg] = dim
            kind = _annotation_kind(arg.annotation)
            if kind is not None:
                self.env_kinds[arg.arg] = kind

    # -- statements ----------------------------------------------------
    def scan_body(self, body: Iterable[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # scanned separately with their own scope
        if isinstance(node, ast.For):
            self._for(node)
        elif isinstance(node, (ast.While,)):
            self._expr(node.test)
            self._loop_stack.append({})
            self.scan_body(node.body)
            self._loop_stack.pop()
            self.scan_body(node.orelse)
        elif isinstance(node, ast.If):
            self._expr(node.test)
            self.scan_body(node.body)
            self.scan_body(node.orelse)
        elif isinstance(node, ast.Try):
            self.has_try = True
            self.scan_body(node.body)
            self.scan_body(node.orelse)
            self._in_handler += 1
            for handler in node.handlers:
                self.scan_body(handler.body)
            self.scan_body(node.finalbody)
            self._in_handler -= 1
        elif isinstance(node, ast.With):
            for item in node.items:
                self._expr(item.context_expr)
            self.scan_body(node.body)
        elif isinstance(node, ast.Assign):
            self._assign(node.targets, node.value)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign([node.target], node.value)
            elif isinstance(node.target, ast.Name):
                kind = _annotation_kind(node.annotation)
                if kind is not None:
                    self.env_kinds[node.target.id] = kind
        elif isinstance(node, ast.AugAssign):
            value = self._expr(node.value)
            target = self._target_dim(node.target)
            if isinstance(node.op, (ast.Add, ast.Sub)):
                self._check("augmented assignment", node, target, value)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self._expr(node.value)
        elif isinstance(node, (ast.Expr, ast.Raise, ast.Assert,
                               ast.Delete)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._expr(child)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._expr(child)
                elif isinstance(child, ast.stmt):
                    self._stmt(child)

    def _for(self, node: ast.For) -> None:
        kind, attr, desc = self._iter_info(node.iter)
        self._expr(node.iter)
        record: Optional[Dict[str, Any]] = None
        if kind is not None or attr is not None:
            record = {
                "lineno": node.iter.lineno,
                "col": node.iter.col_offset,
                "kind": kind,
                "attr": attr,
                "desc": desc,
                "body_calls": [],
                "body_schedules": False,
            }
            self.loops.append(record)
            self._active_loop_records.append(record)
        # Loop variables shadow whatever was inferred before.
        for target in ast.walk(node.target):
            if isinstance(target, ast.Name):
                self.env.pop(target.id, None)
                self.env_kinds.pop(target.id, None)
        self._loop_stack.append({})
        self.scan_body(node.body)
        self._loop_stack.pop()
        if record is not None:
            self._active_loop_records.pop()
        self.scan_body(node.orelse)

    def _iter_info(self, node: ast.AST) -> Tuple[Optional[str],
                                                 Optional[str], str]:
        """(kind, attribute-to-resolve, description) of a loop iterable."""
        desc = ast.unparse(node) if hasattr(ast, "unparse") else ""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set", None, desc
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return "dict", None, desc
        if isinstance(node, ast.Call):
            last = _last_segment(call_name(node.func))
            if last in ("set", "frozenset"):
                return "set", None, desc
            if last == "dict":
                return "dict", None, desc
            if last in ("sorted", "list", "tuple", "enumerate", "zip",
                        "reversed", "range", "filter", "map", "min",
                        "max"):
                return None, None, desc
            if last in ("values", "items", "keys") \
                    and isinstance(node.func, ast.Attribute):
                kind, attr, _ = self._iter_info(node.func.value)
                return kind, attr, desc
            return None, None, desc
        if isinstance(node, ast.Name):
            kind = self.env_kinds.get(node.id)
            if kind is not None:
                return kind, None, desc
            module_kind = self.ctx.name_kinds.get(node.id)
            if module_kind is not None:
                return module_kind, None, desc
            return None, None, desc
        if isinstance(node, ast.Attribute):
            return None, node.attr, desc
        return None, None, desc

    def _assign(self, targets: List[ast.expr], value: ast.expr) -> None:
        dim = self._expr(value)
        kind = _value_kind(value)
        constructed = ""
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            constructed = value.func.id
        for target in targets:
            if isinstance(target, ast.Name):
                self.env[target.id] = dim
                if kind is not None:
                    self.env_kinds[target.id] = kind
                else:
                    self.env_kinds.pop(target.id, None)
                if constructed and (constructed in self.ctx.class_names
                                    or constructed[:1].isupper()):
                    self.local_classes[target.id] = constructed
                else:
                    self.local_classes.pop(target.id, None)
                expected = _ident_dim(target.id)
                if expected is not None:
                    self._check(f"assignment to {target.id!r}", target,
                                expected, dim)
            elif isinstance(target, ast.Attribute):
                expected = _ident_dim(target.attr)
                if expected is not None:
                    self._check(f"assignment to .{target.attr}", target,
                                expected, dim)
                if kind is not None and isinstance(target.value, ast.Name) \
                        and target.value.id == "self":
                    existing = self.ctx.attr_kinds.get(target.attr)
                    if existing is not None and existing != kind:
                        self.ctx.attr_kinds[target.attr] = "conflict"
                    else:
                        self.ctx.attr_kinds[target.attr] = kind
            else:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        self.env.pop(sub.id, None)
                        self.env_kinds.pop(sub.id, None)

    def _target_dim(self, target: ast.expr) -> DimSpec:
        if isinstance(target, ast.Name):
            return self.env.get(target.id) or _ident_dim(target.id)
        if isinstance(target, ast.Attribute):
            return _ident_dim(target.attr)
        return None

    # -- expressions ---------------------------------------------------
    def _check(self, detail: str, node: ast.AST, left: DimSpec,
               right: DimSpec) -> None:
        """Record a dimension check when both sides might be known."""
        if left is None or right is None:
            return
        left_dim = _concrete(left)
        right_dim = _concrete(right)
        if left_dim is not None and right_dim is not None \
                and left_dim == right_dim:
            return
        self.dim_checks.append({
            "lineno": getattr(node, "lineno", self.lineno),
            "col": getattr(node, "col_offset", self.col),
            "detail": detail,
            "left": left,
            "right": right,
        })

    def _expr(self, node: Optional[ast.AST]) -> DimSpec:
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            return None
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            if node.id in self.ctx.constants:
                return {"ref": f"{self.ctx.module}.{node.id}"}
            resolved = self.ctx.resolve(node.id)
            if resolved is not None:
                return {"ref": resolved}
            return None
        if isinstance(node, ast.Attribute):
            dotted = call_name(node)
            if dotted:
                resolved = self.ctx.resolve(dotted)
                if resolved is not None:
                    return {"ref": resolved}
            self._expr(node.value)
            return _ident_dim(node.attr)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.UnaryOp):
            return self._expr(node.operand)
        if isinstance(node, ast.Compare):
            self._compare(node)
            return None
        if isinstance(node, ast.IfExp):
            self._expr(node.test)
            body = self._expr(node.body)
            orelse = self._expr(node.orelse)
            if body is None:
                return orelse
            if orelse is None or body == orelse:
                return body
            return None
        if isinstance(node, ast.Lambda):
            return None  # deferred body, different scope
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            # An order-*preserving* comprehension over an unordered
            # container bakes iteration order into its result, exactly
            # like a for-loop; set/dict comprehensions rebuild an
            # unordered container and are deliberately not recorded.
            return self._comprehension(node)
        # Anything else: walk children for their side effects (calls,
        # nested comparisons) but infer nothing about the result.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, ast.comprehension):
                self._expr(child.iter)
                for cond in child.ifs:
                    self._expr(cond)
        return None

    def _comprehension(self, node: Union[ast.ListComp,
                                         ast.GeneratorExp]) -> DimSpec:
        records: List[Dict[str, Any]] = []
        for comp in node.generators:
            kind, attr, desc = self._iter_info(comp.iter)
            self._expr(comp.iter)
            for cond in comp.ifs:
                self._expr(cond)
            if kind is not None or attr is not None:
                record = {
                    "lineno": comp.iter.lineno,
                    "col": comp.iter.col_offset,
                    "kind": kind,
                    "attr": attr,
                    "desc": desc,
                    "body_calls": [],
                    "body_schedules": False,
                    "comp": True,
                }
                self.loops.append(record)
                records.append(record)
                self._active_loop_records.append(record)
        self._expr(node.elt)
        for _ in records:
            self._active_loop_records.pop()
        return None

    def _binop(self, node: ast.BinOp) -> DimSpec:
        left = self._expr(node.left)
        right = self._expr(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            op = "+" if isinstance(node.op, ast.Add) else "-"
            self._check(f"'{op}' between operands", node, left, right)
            left_dim = _concrete(left)
            right_dim = _concrete(right)
            if left_dim is not None and right_dim is not None:
                return left if left_dim == right_dim else None
            return left if left_dim is not None else (
                right if right_dim is not None else None)
        if isinstance(node.op, (ast.Mult, ast.Div)):
            left_dim = _concrete(left)
            right_dim = _concrete(right)
            # A bare numeric literal scales without changing dimension.
            if left_dim is None and _numeric_literal(node.left):
                left_dim = DIMENSIONLESS
            if right_dim is None and _numeric_literal(node.right):
                right_dim = DIMENSIONLESS
            if left_dim is None or right_dim is None:
                return None
            if isinstance(node.op, ast.Mult):
                return (left_dim[0] + right_dim[0],
                        left_dim[1] + right_dim[1])
            return (left_dim[0] - right_dim[0],
                    left_dim[1] - right_dim[1])
        return None

    def _compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        specs = [self._expr(operand) for operand in operands]
        for op, left, right in zip(node.ops, specs, specs[1:]):
            if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE,
                               ast.Eq, ast.NotEq)):
                self._check("comparison", node, left, right)

    def _call(self, node: ast.Call) -> DimSpec:
        name = call_name(node.func)
        last = _last_segment(name)
        receiver_class: Optional[str] = None
        if "." in name:
            head = name.split(".", 1)[0]
            receiver_class = self.local_classes.get(head)
        record = {"name": name, "lineno": node.lineno}
        if receiver_class is not None:
            record["recv_class"] = receiver_class
        # Function-valued arguments (callbacks, Cell(fn=...) refs) are
        # potential calls for reachability purposes: record their
        # dotted names so the determinism analyzer can follow them.
        arg_names = [call_name(arg)
                     for arg in [*node.args,
                                 *(kw.value for kw in node.keywords)]
                     if isinstance(arg, (ast.Name, ast.Attribute))]
        arg_names = [ref for ref in arg_names if ref]
        if arg_names:
            record["arg_names"] = arg_names
        self.calls.append(record)
        if self._in_handler:
            self.handler_calls.append(record)
        for loop in self._active_loop_records:
            loop["body_calls"].append(record)
            if last in SINK_NAMES:
                loop["body_schedules"] = True

        has_priority = any(kw.arg == "priority" for kw in node.keywords)
        if last in ("schedule", "schedule_at") \
                and isinstance(node.func, ast.Attribute):
            callback = ""
            if len(node.args) >= 2 and isinstance(
                    node.args[1], (ast.Name, ast.Attribute)):
                callback = call_name(node.args[1])
            self.schedule_sites.append({
                "lineno": node.lineno,
                "col": node.col_offset,
                "func": last,
                "has_priority": has_priority,
                "callback": callback,
            })
        if last in RESERVE_NAMES:
            entry = {"lineno": node.lineno, "col": node.col_offset,
                     "name": name, "in_loop": bool(self._loop_stack)}
            if receiver_class is not None:
                entry["recv_class"] = receiver_class
            self.reserve_calls.append(entry)

        # Argument dimensions (and their side effects).
        arg_specs = [self._expr(arg) for arg in node.args]
        for keyword in node.keywords:
            value = self._expr(keyword.value)
            if keyword.arg is None:
                continue
            expected = _kwarg_dim(keyword.arg)
            if expected is not None:
                self._check(f"keyword {keyword.arg}=", keyword.value,
                            expected, value)
        if last in ("schedule", "schedule_at") and arg_specs:
            self._check(f"first argument of {last}()", node.args[0],
                        TIME, arg_specs[0])

        # Result dimension: units constructors and pass-through builtins.
        resolved = self.ctx.resolve(name) or name
        unit_dim = _UNIT_CONSTRUCTORS.get(resolved)
        if unit_dim is not None:
            return unit_dim
        if last in _PASSTHROUGH_CALLS:
            known = [_concrete(spec) for spec in arg_specs
                     if _concrete(spec) is not None]
            if known and all(dim == known[0] for dim in known):
                return known[0]
        # A session-table column declared via ColumnGroup.add("name",
        # fill), whose first argument is the column-name string, holds
        # the fill value's dimension in every element: propagating it
        # keeps the dimension algebra connected across the store.
        if last == "add" and isinstance(node.func, ast.Attribute) \
                and len(node.args) >= 2 \
                and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            return arg_specs[1]
        return None

    # -- result --------------------------------------------------------
    def summary(self, name: str) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "name": name,
            "lineno": self.lineno,
            "col": self.col,
            "calls": self.calls,
            "schedule_sites": self.schedule_sites,
            "loops": self.loops,
            "reserve_calls": self.reserve_calls,
            "handler_calls": self.handler_calls,
            "has_try": self.has_try,
            "dim_checks": self.dim_checks,
        }


def summarize(context: FileContext) -> Dict[str, Any]:
    """Extract one parsed file's summary: the facts of every function,
    from one walk over its scopes."""
    tree = context.tree
    module_name = module_name_for(context.path)
    ctx = _ModuleContext(module_name)

    # Pass 1: imports, class names, module constants, name kinds.
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            _record_import(ctx, node)
        elif isinstance(node, ast.ClassDef):
            ctx.class_names.add(node.name)
    constant_scanner = _FunctionScanner(ctx, "<constants>", None, None)
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        spec = constant_scanner._expr(value)
        kind = _value_kind(value)
        for target in targets:
            if isinstance(target, ast.Name):
                ctx.constants[target.id] = spec
                if kind is not None:
                    ctx.name_kinds[target.id] = kind

    # Pass 2: every function (methods and nested defs included), plus
    # module-level statements as the pseudo-function "<module>".
    functions: List[Dict[str, Any]] = []

    def scan_def(node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
                 prefix: str) -> None:
        qualname = f"{prefix}{node.name}"
        scanner = _FunctionScanner(ctx, qualname, node, node.args)
        scanner.scan_body(node.body)
        functions.append(scanner.summary(node.name))
        walk_scope(node.body, f"{qualname}.")

    def walk_scope(body: Iterable[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan_def(node, prefix)
            elif isinstance(node, ast.ClassDef):
                walk_scope(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For,
                                   ast.While)):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.stmt):
                        walk_scope([child], prefix)

    walk_scope(tree.body, "")
    module_scanner = _FunctionScanner(ctx, "<module>", tree, None)
    module_scanner.scan_body(
        [stmt for stmt in tree.body
         if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))])
    functions.append(module_scanner.summary("<module>"))

    return {
        "module": module_name,
        "path": str(context.path),
        "imports": ctx.imports,
        "constants": ctx.constants,
        "name_kinds": ctx.name_kinds,
        "attr_kinds": ctx.attr_kinds,
        "functions": functions,
        "suppressions": context.suppressions,
    }


# ----------------------------------------------------------------------
# Program assembly
# ----------------------------------------------------------------------
class Program:
    """Module summaries joined into symbol table + call graph."""

    def __init__(self, files: Iterable[FileContext]) -> None:
        self.summaries: List[Dict[str, Any]] = [
            summarize(context) for context in files]
        #: ``"module:qualname"`` -> (module summary, function summary).
        self.functions: Dict[str, Tuple[Dict[str, Any],
                                        Dict[str, Any]]] = {}
        self._by_name: Dict[str, List[str]] = {}
        self._by_method: Dict[Tuple[str, str], List[str]] = {}
        self.attr_kinds: Dict[str, Optional[str]] = {}
        self.constants: Dict[str, Optional[Dim]] = {}
        self._suppressions: Dict[str, Dict[int, FrozenSet[str]]] = {}
        for summary in self.summaries:
            module = summary["module"]
            self._suppressions[summary["path"]] = summary["suppressions"]
            for attr, kind in summary.get("attr_kinds", {}).items():
                existing = self.attr_kinds.get(attr)
                if existing is not None and existing != kind:
                    self.attr_kinds[attr] = None  # conflicting evidence
                else:
                    self.attr_kinds[attr] = None \
                        if kind == "conflict" else kind
            for function in summary["functions"]:
                key = f"{module}:{function['qualname']}"
                self.functions[key] = (summary, function)
                self._by_name.setdefault(function["name"], []).append(key)
                qualparts = function["qualname"].rsplit(".", 1)
                if len(qualparts) == 2:
                    self._by_method.setdefault(
                        (qualparts[0], qualparts[1]), []).append(key)
        self._resolve_constants()
        self._reaches_sink = self._reachability(self._direct_sink)
        self._reaches_release = self._reachability(self._direct_release)
        self._callers = self._build_callers()
        self._callees: Optional[Dict[str, Set[str]]] = None

    # -- constants -----------------------------------------------------
    def _resolve_constants(self) -> None:
        specs: Dict[str, DimSpec] = {}
        for summary in self.summaries:
            module = summary["module"]
            for name, spec in summary.get("constants", {}).items():
                specs[f"{module}.{name}"] = spec
        resolved: Dict[str, Optional[Dim]] = {}
        for _ in range(8):  # constant chains are short; cap the fixpoint
            changed = False
            for dotted, spec in specs.items():
                if dotted in resolved:
                    continue
                if isinstance(spec, dict):
                    ref = spec.get("ref", "")
                    if ref in resolved:
                        resolved[dotted] = resolved[ref]
                        changed = True
                    elif ref in specs:
                        continue  # wait for the chain to resolve
                    else:
                        unit = _UNIT_CONSTRUCTORS.get(ref)
                        resolved[dotted] = unit
                        changed = True
                else:
                    resolved[dotted] = _concrete(spec)
                    changed = True
            if not changed:
                break
        for dotted in specs:
            resolved.setdefault(dotted, None)
        self.constants = resolved

    def resolve_dimspec(self, spec: DimSpec) -> Optional[Dim]:
        """Concrete dimension of a (possibly symbolic) extraction spec."""
        if isinstance(spec, dict):
            ref = spec.get("ref", "")
            if ref in self.constants:
                return self.constants[ref]
            return _UNIT_CONSTRUCTORS.get(ref)
        return _concrete(spec)

    # -- call resolution -----------------------------------------------
    def resolve_call(self, module: str,
                     call: Dict[str, Any]) -> List[str]:
        """Candidate function keys a recorded call site may target."""
        name = call.get("name", "")
        if not name:
            return []
        last = _last_segment(name)
        recv_class = call.get("recv_class")
        if recv_class is not None:
            narrowed = self._by_method.get((recv_class, last))
            if narrowed:
                return narrowed
        if "." not in name:
            same_module = f"{module}:{name}"
            if same_module in self.functions:
                return [same_module]
            summary = self._summary_for(module)
            if summary is not None:
                target = summary.get("imports", {}).get(name)
                if target is not None:
                    target_module, _, target_name = target.rpartition(".")
                    imported = f"{target_module}:{target_name}"
                    if imported in self.functions:
                        return [imported]
            return []
        # Attribute call: every known function/method with that name.
        return self._by_name.get(last, [])

    def _summary_for(self, module: str) -> Optional[Dict[str, Any]]:
        for summary in self.summaries:
            if summary["module"] == module:
                return summary
        return None

    # -- reachability --------------------------------------------------
    @staticmethod
    def _direct_sink(function: Dict[str, Any]) -> bool:
        if function["schedule_sites"]:
            return True
        return any(_last_segment(call["name"]) in SINK_NAMES
                   for call in function["calls"])

    @staticmethod
    def _direct_release(function: Dict[str, Any]) -> bool:
        return any(_last_segment(call["name"]) == RELEASE_NAME
                   for call in function["calls"])

    def _reachability(self, direct: Any) -> Set[str]:
        reached = {key for key, (_, function) in self.functions.items()
                   if direct(function)}
        reverse: Dict[str, Set[str]] = {}
        for key, (summary, function) in self.functions.items():
            for call in function["calls"]:
                for callee in self.resolve_call(summary["module"], call):
                    reverse.setdefault(callee, set()).add(key)
        worklist = list(reached)
        while worklist:
            callee = worklist.pop()
            for caller in reverse.get(callee, ()):
                if caller not in reached:
                    reached.add(caller)
                    worklist.append(caller)
        return reached

    def _build_callers(self) -> Dict[str, Set[str]]:
        callers: Dict[str, Set[str]] = {}
        for key, (summary, function) in self.functions.items():
            for call in function["calls"]:
                for callee in self.resolve_call(summary["module"], call):
                    callers.setdefault(callee, set()).add(key)
        return callers

    def call_reaches_sink(self, module: str,
                          call: Dict[str, Any]) -> bool:
        """Does a recorded call site (transitively) enqueue an event?"""
        if _last_segment(call.get("name", "")) in SINK_NAMES:
            return True
        return any(callee in self._reaches_sink
                   for callee in self.resolve_call(module, call))

    def call_reaches_release(self, module: str,
                             call: Dict[str, Any]) -> bool:
        if _last_segment(call.get("name", "")) == RELEASE_NAME:
            return True
        return any(callee in self._reaches_release
                   for callee in self.resolve_call(module, call))

    def callers_of(self, key: str) -> Set[str]:
        """Direct callers (by resolved call graph) of a function key."""
        return self._callers.get(key, set())

    # -- forward reachability (determinism analyzer) -------------------
    def _build_callees(self) -> Dict[str, Set[str]]:
        """Forward call edges, including *reference* edges.

        A function passed as an argument (``sim.schedule(delay, cb)``,
        ``Cell(fn=_cell)``) runs later without a syntactic call, so a
        Name/Attribute argument recorded in ``arg_names`` counts as an
        edge too — over-approximating, which for the determinism rules
        errs toward reporting.
        """
        callees: Dict[str, Set[str]] = {}
        for key, (summary, function) in self.functions.items():
            module = summary["module"]
            out = callees.setdefault(key, set())
            for call in function["calls"]:
                out.update(self.resolve_call(module, call))
                for ref in call.get("arg_names", ()):
                    out.update(self.resolve_call(module, {"name": ref}))
        return callees

    def callees_of(self, key: str) -> Set[str]:
        """Resolved callees (call + reference edges) of a function key."""
        if self._callees is None:
            self._callees = self._build_callees()
        return self._callees.get(key, set())

    def forward_closure(self, roots: Iterable[str]) -> Set[str]:
        """Every function reachable from ``roots`` via callees_of."""
        reached: Set[str] = set()
        worklist = [key for key in roots if key in self.functions]
        while worklist:
            key = worklist.pop()
            if key in reached:
                continue
            reached.add(key)
            worklist.extend(self.callees_of(key) - reached)
        return reached

    def attr_kind(self, attr: Optional[str]) -> Optional[str]:
        if attr is None:
            return None
        return self.attr_kinds.get(attr)

    def suppressed(self, violation: Violation) -> bool:
        return violation.rule in self._suppressions.get(
            violation.path, {}).get(violation.line, ())
