"""Translate the kernel bodies of ``_fastcore_kernels`` into C.

:func:`translate` emits every module-level function of the kernel module as
C, in source order: the ``k_*`` entry points are exported, the cores are
``static``.  It accepts only the small subset the kernel bodies use (they
compile under ``@njit`` too) and spells it so C evaluates exactly what
Python evaluates:

* every binary operation is parenthesised, so C groups as Python parsed;
* ``max(a, b)`` is ``(b > a) ? b : a`` and ``min(a, b)`` is
  ``(b < a) ? b : a`` -- Python's tie and NaN behaviour, not ``fmax``;
* ``**`` is ``pow``; ``ceil``/``floor`` are ``(long)ceil``/``(long)floor``;
  ``int``/``float`` are casts; ``/`` between two integers casts to double;
* ``range`` bounds are evaluated once;
* parameters take their C type from :data:`PARAM_TYPES` by name, 2-D arrays
  their row width from :data:`ROW_WIDTHS`; an index or slice of a 2-D array
  is pointer arithmetic, and ``X.shape[0]`` becomes an ``X_cap`` parameter
  of the kernels that read it (or pass ``X`` on to one that does).

Anything else raises :class:`TranslationError` naming the kernel and line.
The provider self-check (``fastcore.self_check``) pins the compiled result
bit for bit against the Python bodies.  The exported prototypes are also
emitted as the string ``fastcore_signatures``, from which the ctypes binding
takes its argument types.
"""

from __future__ import annotations

import ast
import math

#: C type of every kernel parameter, by name.
PARAM_TYPES: dict[str, str] = {
    **dict.fromkeys(
        """st pp rp desc descs cache variates out8 out cpu_starts cpu_ends
        seg ev smp exec_rows seqs caches""".split(),
        "double *",
    ),
    "lens": "int64_t *",
    **dict.fromkeys("state resident record cold executions has_rv".split(), "long"),
    **dict.fromkeys(
        """now freq power dt duration time_factor run_factor execution_cv
        latency_mean latency_jitter error_std gap_s""".split(),
        "double",
    ),
}

#: Row width of every 2-D array parameter.
ROW_WIDTHS = {"seg": "5", "ev": "4", "smp": "5", "exec_rows": "8", "seqs": "Q_LEN", "caches": "2"}

_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_UNARYOPS = {ast.USub: "-", ast.UAdd: "+", ast.Not: "!"}
_CMPOPS = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}
#: One-argument builtin and math calls: C spelling and result type.
_CALLS = {
    "int": ("(long)", "long"),
    "float": ("(double)", "double"),
    "exp": ("exp", "double"),
    "ceil": ("(long)ceil", "long"),
    "floor": ("(long)floor", "long"),
    "rint": ("rint", "double"),
}
_ELEMENT = {"double *": "double", "int64_t *": "long"}
_SCALARS = ("long", "double")


class TranslationError(ValueError):
    """A kernel uses a construct outside the translatable subset."""


def _widest(*kinds: str) -> str:
    return "double" if "double" in kinds else "long"


class _Function:
    """One kernel function: its C types, declarations and body."""

    def __init__(self, node: ast.FunctionDef, module: _Module) -> None:
        self.node = node
        self.module = module
        if node.args.vararg or node.args.kwarg or node.args.kwonlyargs:
            self.fail(node, "only positional parameters are supported")
        self.params: dict[str, str] = {}
        for arg in node.args.args:
            if arg.arg not in PARAM_TYPES:
                self.fail(arg, f"parameter {arg.arg!r} has no C type")
            self.params[arg.arg] = PARAM_TYPES[arg.arg]
        self.locals: dict[str, str] = {}
        self._infer_locals()

    def fail(self, node: ast.AST, message: str):
        line = getattr(node, "lineno", self.node.lineno)
        raise TranslationError(f"{self.node.name}() line {line}: {message}")

    def prototype(self, exported: bool) -> str:
        params = []
        for name, ctype in self.params.items():
            params.append(f"{ctype}{name}" if ctype.endswith("*") else f"{ctype} {name}")
            if name in self.module.caps[self.node.name]:
                params.append(f"long {name}_cap")
        storage = "" if exported else "static "
        return f"{storage}long {self.node.name}({', '.join(params)})"

    def _infer_locals(self) -> None:
        """Every assigned name is a ``long`` until a value widens it."""
        assigned: list[tuple[str, ast.expr | None]] = []
        for node in ast.walk(self.node):
            if isinstance(node, ast.Assign):
                assigned += [(t.id, node.value) for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                widened = ast.BinOp(node.target, node.op, node.value, lineno=node.lineno)
                assigned.append((node.target.id, widened))
            elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
                assigned += [(node.target.id, None), (f"{node.target.id}__end", None)]
        for name, _ in assigned:
            if name not in self.params:
                self.locals.setdefault(name, "long")
        changed = True
        while changed:
            changed = False
            for name, value in assigned:
                if name in self.locals and value is not None:
                    if self.scalar(value)[1] == "double" != self.locals[name]:
                        self.locals[name] = "double"
                        changed = True

    # -- expressions: (C spelling, C type) -------------------------------- #
    def scalar(self, node: ast.expr) -> tuple[str, str]:
        text, kind = self.expr(node)
        if kind not in _SCALARS:
            self.fail(node, "an array is used as a number")
        return text, kind

    def index(self, node: ast.expr) -> str:
        text, kind = self.expr(node)
        if kind != "long":
            self.fail(node, "array indices must be integers")
        return text

    def expr(self, node: ast.expr) -> tuple[str, str]:
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            if not math.isfinite(node.value):
                self.fail(node, "non-finite constant")
            return repr(node.value), "long" if type(node.value) is int else "double"
        if isinstance(node, ast.Name):
            kind = self.params.get(node.id) or self.locals.get(node.id)
            if kind is None and node.id not in self.module.constants:
                self.fail(node, f"unknown name {node.id!r}")
            return node.id, kind or "long"
        if isinstance(node, ast.BinOp):
            (left, left_kind), (right, right_kind) = self.scalar(node.left), self.scalar(node.right)
            kind = _widest(left_kind, right_kind)
            if isinstance(node.op, ast.Pow) and kind == "double":
                return f"pow({left}, {right})", kind
            if type(node.op) not in _BINOPS:
                self.fail(node, f"unsupported operator {type(node.op).__name__}")
            if isinstance(node.op, ast.Div) and kind == "long":
                left, right, kind = f"(double){left}", f"(double){right}", "double"
            return f"({left} {_BINOPS[type(node.op)]} {right})", kind
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARYOPS:
            text, kind = self.scalar(node.operand)
            kind = "long" if isinstance(node.op, ast.Not) else kind
            return f"({_UNARYOPS[type(node.op)]}{text})", kind
        if isinstance(node, ast.BoolOp):
            op = " && " if isinstance(node.op, ast.And) else " || "
            return f"({op.join(self.scalar(value)[0] for value in node.values)})", "long"
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1 or type(node.ops[0]) not in _CMPOPS:
                self.fail(node, "only single comparisons are supported")
            left, right = self.scalar(node.left)[0], self.scalar(node.comparators[0])[0]
            return f"({left} {_CMPOPS[type(node.ops[0])]} {right})", "long"
        if isinstance(node, ast.IfExp):
            test = self.scalar(node.test)[0]
            (body, body_kind), (orelse, orelse_kind) = self.scalar(node.body), self.scalar(node.orelse)
            return f"({test} ? {body} : {orelse})", _widest(body_kind, orelse_kind)
        if isinstance(node, ast.Call):
            return self.call(node)
        if isinstance(node, ast.Subscript):
            return self.subscript(node)
        self.fail(node, f"unsupported expression {type(node).__name__}")

    def call(self, node: ast.Call) -> tuple[str, str]:
        func = node.func
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in ("math", "np"):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        else:
            self.fail(node, "unsupported call")
        if node.keywords:
            self.fail(node, f"{name}() with keyword arguments")
        params = self.module.signatures.get(name)
        if params is not None:
            if len(node.args) != len(params):
                self.fail(node, f"{name}() takes {len(params)} arguments")
            spelled = []
            for param, arg in zip(params, node.args):
                spelled.append(self.expr(arg)[0])
                if param in self.module.caps[name]:
                    if not (isinstance(arg, ast.Name) and arg.id in self.params):
                        self.fail(node, f"{name}() needs a whole array for {param!r}")
                    spelled.append(f"{arg.id}_cap")
            return f"{name}({', '.join(spelled)})", "long"  # a return code
        arity = 2 if name in ("min", "max") else 1
        if (arity == 1 and name not in _CALLS) or len(node.args) != arity:
            self.fail(node, f"unsupported call {name}() with {len(node.args)} argument(s)")
        args = [self.scalar(arg) for arg in node.args]
        if name in _CALLS:
            spelling, kind = _CALLS[name]
            return f"{spelling}({args[0][0]})", kind
        # Both operands are spelled twice, so neither may call a kernel.
        if any(
            isinstance(inner, ast.Call) and getattr(inner.func, "id", None) in self.module.signatures
            for arg in node.args
            for inner in ast.walk(arg)
        ):
            self.fail(node, f"{name}() of a kernel call")
        (a, a_kind), (b, b_kind) = args
        compare = ">" if name == "max" else "<"
        return f"(({b} {compare} {a}) ? {b} : {a})", _widest(a_kind, b_kind)

    def subscript(self, node: ast.Subscript) -> tuple[str, str]:
        value, index = node.value, node.slice
        if isinstance(value, ast.Attribute) and value.attr == "shape":
            array = getattr(value.value, "id", None)
            if array not in self.params or not (isinstance(index, ast.Constant) and index.value == 0):
                self.fail(node, "only X.shape[0] of an array parameter is supported")
            return f"{array}_cap", "long"
        if not (isinstance(value, ast.Name) and self.params.get(value.id) in _ELEMENT):
            self.fail(node, "only array parameters can be indexed")
        array, kind = value.id, self.params[value.id]
        width = ROW_WIDTHS.get(array)
        if isinstance(index, ast.Slice):
            if index.lower is None or index.upper is not None or index.step is not None:
                self.fail(node, "only X[start:] slices are supported")
            start = self.index(index.lower)
            return (f"({array} + {start} * {width})" if width else f"({array} + {start})"), kind
        if isinstance(index, ast.Tuple):
            if width is None or len(index.elts) != 2:
                self.fail(node, f"{array!r} is not a 2-D array parameter")
            row, col = (self.index(elt) for elt in index.elts)
            return f"{array}[({row} * {width}) + {col}]", _ELEMENT[kind]
        if width is not None:
            return f"({array} + {self.index(index)} * {width})", kind
        return f"{array}[{self.index(index)}]", _ELEMENT[kind]

    # -- statements ------------------------------------------------------- #
    def emit(self, exported: bool) -> list[str]:
        lines = [self.prototype(exported) + " {"]
        for ctype in _SCALARS:
            names = [name for name, kind in self.locals.items() if kind == ctype]
            if names:
                lines.append(f"    {ctype} {', '.join(names)};")
        return lines + self.body(self.node.body, 1) + ["}", ""]

    def body(self, statements: list[ast.stmt], depth: int) -> list[str]:
        return [line for node in statements for line in self.statement(node, depth)]

    def statement(self, node: ast.stmt, depth: int) -> list[str]:
        pad = "    " * depth
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            if isinstance(node.value.value, str):
                return []  # a docstring
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            return [f"{pad}{self.call(node.value)[0]};"]
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            return [f"{pad}{self.target(node.targets[0])} = {self.scalar(node.value)[0]};"]
        if isinstance(node, ast.AugAssign) and type(node.op) in _BINOPS:
            op = _BINOPS[type(node.op)]
            return [f"{pad}{self.target(node.target)} {op}= {self.scalar(node.value)[0]};"]
        if isinstance(node, ast.If):
            lines = [f"{pad}if ({self.scalar(node.test)[0]}) {{", *self.body(node.body, depth + 1)]
            if node.orelse:
                lines += [f"{pad}}} else {{", *self.body(node.orelse, depth + 1)]
            return [*lines, f"{pad}}}"]
        if isinstance(node, ast.While) and not node.orelse:
            head = f"{pad}while ({self.scalar(node.test)[0]}) {{"
            return [head, *self.body(node.body, depth + 1), f"{pad}}}"]
        if isinstance(node, ast.For) and not node.orelse:
            return self.for_range(node, depth)
        if isinstance(node, ast.Return) and node.value is not None:
            return [f"{pad}return {self.scalar(node.value)[0]};"]
        if isinstance(node, (ast.Break, ast.Continue)):
            return [f"{pad}{type(node).__name__.lower()};"]
        self.fail(node, f"unsupported statement {type(node).__name__}")

    def target(self, node: ast.expr) -> str:
        if isinstance(node, ast.Name) and node.id in self.locals:
            return node.id
        if isinstance(node, ast.Subscript):
            text, kind = self.subscript(node)
            if kind in _SCALARS:
                return text
        self.fail(node, "only locals and array elements can be assigned")

    def for_range(self, node: ast.For, depth: int) -> list[str]:
        call = node.iter
        if not (
            isinstance(node.target, ast.Name)
            and isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "range"
            and len(call.args) in (1, 2)
            and not call.keywords
        ):
            self.fail(node, "only `for name in range(...)` loops with 1 or 2 bounds")
        var = node.target.id
        for inner in ast.walk(ast.Module(node.body)):
            targets = getattr(inner, "targets", [getattr(inner, "target", None)])
            if any(getattr(target, "id", None) == var for target in targets):
                self.fail(inner, f"the loop variable {var!r} is reassigned")
        start, stop = (["0"] + [self.index(arg) for arg in call.args])[-2:]
        pad = "    " * depth
        head = f"{pad}for ({var} = {start}, {var}__end = {stop}; {var} < {var}__end; {var}++) {{"
        return [head, *self.body(node.body, depth + 1), f"{pad}}}"]


class _Module:
    """The kernel module: its integer constants and functions."""

    def __init__(self, tree: ast.Module) -> None:
        self.constants = {
            node.targets[0].id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and type(node.value.value) is int
        }
        defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        #: Parameter names of every kernel, known before any body is read.
        self.signatures = {node.name: [arg.arg for arg in node.args.args] for node in defs}
        #: Per kernel, the array parameters that take an ``X_cap``: those whose
        #: capacity it reads (``X.shape[0]``) or passes on to a kernel that
        #: needs it.
        self.caps = {
            node.name: {
                inner.value.value.id
                for inner in ast.walk(node)
                if isinstance(inner, ast.Subscript)
                and isinstance(inner.value, ast.Attribute)
                and inner.value.attr == "shape"
                and isinstance(inner.value.value, ast.Name)
            }
            for node in defs
        }
        calls = [
            (node.name, call.func.id, call.args)
            for node in defs
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) in self.signatures
        ]
        changed = True
        while changed:
            changed = False
            for caller, callee, args in calls:
                for param, arg in zip(self.signatures[callee], args):
                    if (
                        param in self.caps[callee]
                        and isinstance(arg, ast.Name)
                        and arg.id not in self.caps[caller]
                    ):
                        self.caps[caller].add(arg.id)
                        changed = True
        self.functions = {node.name: _Function(node, self) for node in defs}


def translate(source: str) -> str:
    """The C source of every module-level function of the kernel ``source``."""
    module = _Module(ast.parse(source))
    exported = {name: name.startswith("k_") for name in module.functions}
    lines = ["#include <math.h>", "#include <stdint.h>", ""]
    lines += [f"#define {name} {value}" for name, value in module.constants.items()]
    lines.append("")
    for name, function in module.functions.items():
        lines.append(function.prototype(exported[name]) + ";")
    lines.append("")
    for name, function in module.functions.items():
        lines += function.emit(exported[name])
    signatures = "\\n".join(
        function.prototype(True) for name, function in module.functions.items() if exported[name]
    )
    lines.append(f'const char *fastcore_signatures = "{signatures}";')
    return "\n".join(lines) + "\n"


__all__ = ["PARAM_TYPES", "ROW_WIDTHS", "TranslationError", "translate"]
