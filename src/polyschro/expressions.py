"""Tiny closed-form expression language for potentials.

Potentials enter the package as expression strings rather than arbitrary
callables so that time and parameter partial derivatives stay available in
closed form.  The grammar is Python expression syntax limited to the
operators, functions and names below, with ``^`` for ``**`` and ``<v>`` for
sqrt(1 + v^2), the Japanese bracket of a coordinate.  ``parse`` rewrites
both and collapses whitespace (so newlines and tabs may split an
expression) before ``ast.parse``.

Operators: + - * / ^ with Python's precedence, unary + and -; exponents
must fold to a constant.  Functions: sin, cos, exp, sqrt, of one argument.
Variables are free names (typically t, x, r, rho); evaluation
broadcasts numpy arrays bound to them.  Numerals are decimal (``2``,
``0.5``, ``.5``, ``1e-3``).  Anything else raises ExpressionError: other
syntax, comments, non-ASCII text, keywords as names, and Python-only
numerals (``0x10``, ``0o7``, ``1_0``, ``1j``, ``007``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExpressionError

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
}

_BRACKET_RE = re.compile(r"<\s*([A-Za-z_][A-Za-z_0-9]*)\s*>")
_DECIMAL = frozenset("0123456789.eE+-")


class Expr:
    """Base node.  Subclasses are immutable and hashable by structure."""

    def __call__(self, **env):
        return self.eval(env)

    def eval(self, env):
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def free_vars(self) -> frozenset:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self})"


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def eval(self, env):
        return self.value

    def diff(self, var):
        return ZERO

    def free_vars(self):
        return frozenset()

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def eval(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise ExpressionError(f"unbound variable {self.name!r}") from None

    def diff(self, var):
        return ONE if var == self.name else ZERO

    def free_vars(self):
        return frozenset({self.name})

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr

    def eval(self, env):
        a = self.left.eval(env)
        b = self.right.eval(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        raise ExpressionError(f"unknown operator {self.op!r}")

    def diff(self, var):
        a, b = self.left, self.right
        da, db = a.diff(var), b.diff(var)
        if self.op == "+":
            return add(da, db)
        if self.op == "-":
            return sub(da, db)
        if self.op == "*":
            return add(mul(da, b), mul(a, db))
        if self.op == "/":
            # (a/b)' = a'/b - a b'/b^2
            return sub(div(da, b), div(mul(a, db), mul(b, b)))
        raise ExpressionError(f"unknown operator {self.op!r}")

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: float  # constant exponents only; keeps differentiation closed

    def eval(self, env):
        return self.base.eval(env) ** self.exponent

    def diff(self, var):
        db = self.base.diff(var)
        if self.exponent == 0:
            return ZERO
        return mul(mul(Const(self.exponent), Power(self.base, self.exponent - 1)), db)

    def free_vars(self):
        return self.base.free_vars()

    def __str__(self):
        return f"({self.base} ^ {self.exponent!r})"


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr

    def eval(self, env):
        return _FUNCTIONS[self.fn](self.arg.eval(env))

    def diff(self, var):
        da = self.arg.diff(var)
        a = self.arg
        if self.fn == "sin":
            outer = Call("cos", a)
        elif self.fn == "cos":
            outer = mul(Const(-1.0), Call("sin", a))
        elif self.fn == "exp":
            outer = self
        elif self.fn == "sqrt":
            outer = div(Const(0.5), Call("sqrt", a))
        else:
            raise ExpressionError(f"unknown function {self.fn!r}")
        return mul(outer, da)

    def free_vars(self):
        return self.arg.free_vars()

    def __str__(self):
        return f"{self.fn}({self.arg})"


ZERO = Const(0.0)
ONE = Const(1.0)


def _const_value(e: Expr):
    return e.value if isinstance(e, Const) else None


def add(a: Expr, b: Expr) -> Expr:
    va, vb = _const_value(a), _const_value(b)
    if va == 0.0:
        return b
    if vb == 0.0:
        return a
    if va is not None and vb is not None:
        return Const(va + vb)
    return Binary("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    va, vb = _const_value(a), _const_value(b)
    if vb == 0.0:
        return a
    if va is not None and vb is not None:
        return Const(va - vb)
    if va == 0.0:
        return mul(Const(-1.0), b)
    return Binary("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    va, vb = _const_value(a), _const_value(b)
    if va == 0.0 or vb == 0.0:
        return ZERO
    if va == 1.0:
        return b
    if vb == 1.0:
        return a
    if va is not None and vb is not None:
        return Const(va * vb)
    return Binary("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    va, vb = _const_value(a), _const_value(b)
    if va == 0.0:
        return ZERO
    if vb == 1.0:
        return a
    if va is not None and vb is not None:
        if vb == 0.0:
            raise ExpressionError("division by constant zero")
        return Const(va / vb)
    return Binary("/", a, b)


_BINARY = {ast.Add: add, ast.Sub: sub, ast.Mult: mul, ast.Div: div}


def _convert(node: ast.expr, src: str) -> Expr:
    """The Expr of one node of ``ast.parse(src)``, built by the simplifying
    constructors; a node outside the grammar raises ExpressionError."""
    match node:
        case ast.BinOp(left, ast.Pow(), right):
            base, exponent = _convert(left, src), _convert(right, src)
            if exponent.free_vars():
                raise ExpressionError("exponents must be constant")
            return Power(base, float(exponent.eval({})))
        case ast.BinOp(left, op, right) if type(op) in _BINARY:
            return _BINARY[type(op)](_convert(left, src), _convert(right, src))
        case ast.UnaryOp(ast.UAdd(), operand):
            return _convert(operand, src)
        case ast.UnaryOp(ast.USub(), operand):
            return sub(ZERO, _convert(operand, src))
        case ast.Constant(int() | float()):
            digits = src[node.col_offset:node.end_col_offset]  # src is one ASCII line
            if set(digits) <= _DECIMAL:
                return Const(float(digits))
        case ast.Name(name):
            return Var(name)
        case ast.Call(ast.Name(fn), [arg], []) if fn in _FUNCTIONS:
            return Call(fn, _convert(arg, src))
    raise ExpressionError(f"unsupported syntax {src[node.col_offset:node.end_col_offset]!r}")


def parse(text: str) -> Expr:
    """Parse an expression string into an Expr tree."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    src = _BRACKET_RE.sub(r"sqrt(1 + \1**2)", " ".join(text.split())).replace("^", "**")
    if "#" in src or not src.isascii():
        raise ExpressionError(f"unsupported character in {text!r}")
    try:
        tree = ast.parse(src, mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc}") from None
    return _convert(tree.body, src)


def evaluate(expr: Expr, out_shape=None, **env):
    """Evaluate with numpy broadcasting; optionally broadcast to out_shape.

    Raises ExpressionError when the result is not finite everywhere.
    """
    with np.errstate(all="ignore"):
        val = expr.eval(env)
    arr = np.asarray(val, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ExpressionError(f"expression {expr} evaluated to a non-finite value")
    if out_shape is not None:
        arr = np.broadcast_to(arr, out_shape).copy() if arr.shape != tuple(out_shape) else arr
    return arr


__all__ = [
    "Expr",
    "Const",
    "Var",
    "Binary",
    "Power",
    "Call",
    "parse",
    "evaluate",
]
