"""Expression grammar: parsing, evaluation, and symbolic differentiation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyschro import expressions as ex
from polyschro.errors import ExpressionError


def test_parse_arithmetic_evaluates():
    e = ex.parse("x^2/2 + 3*x - 1")
    x = np.linspace(-2.0, 2.0, 9)
    np.testing.assert_allclose(ex.evaluate(e, x=x), x**2 / 2 + 3 * x - 1, rtol=1e-14)


def test_double_star_is_caret_alias():
    a = ex.parse("x**4/4")
    b = ex.parse("x^4/4")
    x = np.linspace(-3.0, 3.0, 11)
    np.testing.assert_array_equal(ex.evaluate(a, x=x), ex.evaluate(b, x=x))


def test_angle_bracket_sugar_is_japanese_bracket():
    e = ex.parse("<x>^2")
    x = np.linspace(-5.0, 5.0, 21)
    np.testing.assert_allclose(ex.evaluate(e, x=x), 1.0 + x**2, rtol=1e-14)


def test_known_functions_evaluate():
    x = np.linspace(0.1, 2.0, 7)
    cases = {
        "sin(x)": np.sin(x),
        "cos(x)": np.cos(x),
        "exp(-x^2)": np.exp(-(x**2)),
        "sqrt(1+x^2)": np.sqrt(1 + x**2),
    }
    for text, want in cases.items():
        np.testing.assert_allclose(ex.evaluate(ex.parse(text), x=x), want, rtol=1e-14)


def test_unary_minus_and_precedence():
    e = ex.parse("-x^2")
    assert ex.evaluate(e, x=2.0) == pytest.approx(-4.0)
    e2 = ex.parse("2*x + 3*x^2")
    assert ex.evaluate(e2, x=1.0) == pytest.approx(5.0)


def test_multiple_variables():
    e = ex.parse("(2 + sin(t)) * (1 + x^2)^2")
    t, x = 0.3, 1.5
    assert ex.evaluate(e, t=t, x=x) == pytest.approx((2 + np.sin(t)) * (1 + x**2) ** 2)


@pytest.mark.parametrize(
    "text",
    ["tan(x)", "x +", "(x", "x $ y", "", "1/0"],
)
def test_malformed_expressions_rejected(text):
    with pytest.raises(ExpressionError):
        ex.parse(text)


def test_unbound_variable_rejected():
    e = ex.parse("x + rho")
    with pytest.raises(ExpressionError):
        ex.evaluate(e, x=1.0)


def test_non_finite_evaluation_rejected():
    e = ex.parse("sqrt(x)")
    with pytest.raises(ExpressionError):
        ex.evaluate(e, x=-1.0)


def test_differentiate_polynomial_exact():
    e = ex.parse("x^2/2 + rho*x^4/4")
    d = e.diff("rho")
    x = np.linspace(-3.0, 3.0, 13)
    np.testing.assert_allclose(ex.evaluate(d, x=x, rho=0.7), x**4 / 4, rtol=1e-14)


def test_differentiate_composition_matches_finite_difference():
    e = ex.parse("sin(<x>^2) * exp(-x^2/4)")
    d = e.diff("x")
    x = np.linspace(-2.0, 2.0, 9)
    h = 1e-6
    fd = (ex.evaluate(e, x=x + h) - ex.evaluate(e, x=x - h)) / (2 * h)
    np.testing.assert_allclose(ex.evaluate(d, x=x), fd, atol=1e-8)


def test_differentiate_constant_is_zero():
    d = ex.parse("3/2").diff("x")
    assert d == ex.Const(0.0)


def test_derivative_of_unrelated_variable_is_zero():
    d = ex.parse("sin(t)*7").diff("x")
    assert d == ex.Const(0.0)


@given(
    coeffs=st.lists(
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False), min_size=1, max_size=5
    )
)
@settings(max_examples=50, deadline=None)
def test_polynomial_round_trip(coeffs):
    """Printing a parsed polynomial and re-parsing evaluates identically."""
    text = " + ".join(f"{c!r}*x^{k}" for k, c in enumerate(coeffs))
    e = ex.parse(text)
    x = np.linspace(-1.5, 1.5, 7)
    want = sum(c * x**k for k, c in enumerate(coeffs))
    np.testing.assert_allclose(ex.evaluate(e, x=x), want, rtol=1e-12, atol=1e-12)
    reparsed = ex.parse(str(e))
    np.testing.assert_allclose(ex.evaluate(reparsed, x=x), want, rtol=1e-12, atol=1e-12)


@given(
    k=st.integers(min_value=1, max_value=4),
    x0=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_power_rule(k, x0):
    d = ex.parse(f"x^{k}").diff("x")
    assert ex.evaluate(d, x=x0) == pytest.approx(k * x0 ** (k - 1), abs=1e-10)


# str(e), str(de/dt), str(de/drho) of every builtin expression
PINNED_BUILTINS = {
    ("harmonic", "V"): ("((x ^ 2.0) / 2.0)", "0.0", "0.0"),
    ("harmonic", "A1"): ("0.0", "0.0", "0.0"),
    ("confined_quartic", "V"): (
        "((2.0 + sin(t)) * ((1.0 + (x ^ 2.0)) ^ 2.0))",
        "(cos(t) * ((1.0 + (x ^ 2.0)) ^ 2.0))",
        "0.0",
    ),
    ("confined_quartic", "A1"): (
        "(cos(t) * ((1.0 + (x ^ 2.0)) ^ 0.5))",
        "((-1.0 * sin(t)) * ((1.0 + (x ^ 2.0)) ^ 0.5))",
        "0.0",
    ),
    ("parametric_quartic", "V"): (
        "(((x ^ 2.0) / 2.0) + ((rho * (x ^ 4.0)) / 4.0))",
        "0.0",
        "((x ^ 4.0) / 4.0)",
    ),
    ("parametric_quartic", "A1"): ("0.0", "0.0", "0.0"),
    ("ramped_quartic", "V"): ("((t * (x ^ 4.0)) + (x ^ 2.0))", "(x ^ 4.0)", "0.0"),
    ("ramped_quartic", "A1"): ("0.0", "0.0", "0.0"),
    ("soft_pair", "W"): ("(rho * (1.0 + (r ^ 2.0)))", "0.0", "(1.0 + (r ^ 2.0))"),
}


def test_builtin_trees_are_pinned():
    from polyschro.potentials import (
        BUILTIN_FAMILIES,
        BUILTIN_INTERACTIONS,
        ramped_quartic_family,
    )

    exprs = {}
    for fam in [*BUILTIN_FAMILIES.values(), ramped_quartic_family()]:
        exprs[fam.name, "V"] = fam.v
        exprs.update({(fam.name, f"A{j}"): c for j, c in enumerate(fam.a, start=1)})
    exprs.update({(inter.name, "W"): inter.w for inter in BUILTIN_INTERACTIONS.values()})
    got = {key: (str(e), str(e.diff("t")), str(e.diff("rho"))) for key, e in exprs.items()}
    assert got == PINNED_BUILTINS


def test_newlines_and_tabs_split_an_expression():
    assert ex.parse("x^2 / 2 +\n\trho * x^4 / 4") == ex.parse("x^2/2 + rho*x^4/4")
    assert ex.parse("\n< x >^2\t") == ex.parse("<x>^2")


@pytest.mark.parametrize("text", [".5", "5.", "0.5e+1", "5E-1", "0.5"])
def test_decimal_numerals_parse(text):
    assert ex.parse(text) == ex.Const(float(text))


@pytest.mark.parametrize(
    "text",
    [
        "0x10", "0o7", "0b1", "1_0", "1j", "007",   # Python-only numerals
        "x % 2", "x // 2", "x < y", "x if t else 1", "sin(x, t)", "sin(x=1)",
        "x[0]", "x.real", "(x, t)", "'x'", "True", "lambda", "x # comment", "x ^^ 2",
        "x^t", "2*xsin(x)", "ρ",
    ],
)
def test_other_python_syntax_rejected(text):
    with pytest.raises(ExpressionError):
        ex.parse(text)
