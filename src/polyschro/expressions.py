"""Tiny closed-form expression language for potentials.

Potentials enter the package as expression strings rather than arbitrary
callables so that time and parameter partial derivatives stay available in
closed form.  The grammar is deliberately small:

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := ("-" | "+") factor | power
    power   := atom ("^" factor)?          (exponent must fold to a constant)
    atom    := NUMBER | NAME | NAME "(" expr ")" | "(" expr ")" | "<" NAME ">"

Functions: sin, cos, exp, sqrt.  ``<v>`` is sugar for sqrt(1 + v^2), the
Japanese bracket of a coordinate.  Variables are free names (typically t,
x or x1/x2, r, rho); evaluation broadcasts numpy arrays bound to them.
"""

from __future__ import annotations

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

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()<>]))"
)


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


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            tail = text[pos:].strip()
            if not tail:
                break
            raise ExpressionError(f"cannot tokenize {tail[:12]!r}")
        pos = m.end()
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num"))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op))
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r}, got {val!r}")

    def parse(self) -> Expr:
        e = self.expr()
        kind, val = self.peek()
        if kind != "end":
            raise ExpressionError(f"trailing input at {val!r}")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = add(e, rhs) if val == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                e = mul(e, rhs) if val == "*" else div(e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            inner = self.factor()
            return inner if val == "+" else sub(ZERO, inner)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.next()
            exponent = self.factor()  # right-associative, e.g. x^-2
            if exponent.free_vars():
                raise ExpressionError("exponents must be constant")
            return Power(base, float(exponent.eval({})))
        return base

    def atom(self) -> Expr:
        kind, val = self.next()
        if kind == "num":
            return Const(val)
        if kind == "name":
            k2, v2 = self.peek()
            if k2 == "op" and v2 == "(":
                if val not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {val!r}")
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            return Var(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "op" and val == "<":
            k2, v2 = self.next()
            if k2 != "name":
                raise ExpressionError("expected a variable inside <...>")
            self.expect_op(">")
            # Japanese bracket sugar: <v> = sqrt(1 + v^2)
            return Call("sqrt", add(ONE, Power(Var(v2), 2.0)))
        raise ExpressionError(f"unexpected token {val!r}")


def parse(text: str) -> Expr:
    """Parse an expression string into an AST."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    return _Parser(_tokenize(text)).parse()


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


def differentiate(expr: Expr, var: str) -> Expr:
    return expr.diff(var)


def is_zero(expr: Expr) -> bool:
    return isinstance(expr, Const) and expr.value == 0.0


__all__ = [
    "Expr",
    "Const",
    "Var",
    "Binary",
    "Power",
    "Call",
    "parse",
    "evaluate",
    "differentiate",
    "is_zero",
]
