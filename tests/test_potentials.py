"""Potential families, growth validators, and parameter derivatives."""

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from polyschro import (
    BUILTIN_FAMILIES,
    InteractionFamily,
    PotentialFamily,
    eval_potential,
    get_family,
    get_interaction,
    make_grid,
    partial_rho,
    ramped_quartic_family,
    validate_assumption,
    validate_interaction,
)
from polyschro.cli import main
from polyschro.errors import FamilyError
from polyschro.potentials import RATIO_FLOOR, divergence_a

from conftest import MAGNETIC_2D


@pytest.fixture(scope="module")
def validation_grid():
    return make_grid(1, 10.0, 256)


def test_confined_quartic_point_values():
    g = make_grid(1, 4.0, 8)
    V, A = eval_potential(get_family("confined_quartic"), 0.0, 0.0, g)
    j0 = int(np.argmin(np.abs(g.axis)))
    assert g.axis[j0] == 0.0
    assert V[j0] == pytest.approx(2.0)
    assert A[0][j0] == pytest.approx(1.0)


def test_harmonic_point_value_any_time():
    g = make_grid(1, 4.0, 8)
    j1 = int(np.argmin(np.abs(g.axis - 1.0)))
    assert g.axis[j1] == 1.0
    for t in (0.0, 0.37, 2.0):
        V, A = eval_potential(get_family("harmonic"), t, 0.0, g)
        assert V[j1] == pytest.approx(0.5)
        assert np.all(A[0] == 0.0)


def test_parametric_family_reduces_to_harmonic_at_zero():
    # same closed form as the builtin rho-family, on an interval containing 0
    fam = PotentialFamily(
        name="quartic_perturbation",
        v="x^2/2 + rho*x^4/4",
        a=("0",),
        growth_order=1,
        delta=1.0,
        rho_interval=(-1.0, 9.0),
    )
    g = make_grid(1, 6.0, 64)
    V0, A0 = eval_potential(fam, 0.3, 0.0, g)
    Vh, Ah = eval_potential(get_family("harmonic"), 0.3, 0.0, g)
    np.testing.assert_array_equal(V0, Vh)
    np.testing.assert_array_equal(A0[0], Ah[0])


def test_rho_outside_declared_interval_rejected():
    fam = get_family("parametric_quartic")
    lo, hi = fam.rho_interval
    with pytest.raises(FamilyError):
        eval_potential(fam, 0.0, hi + 1.0, make_grid(1, 6.0, 64))


@pytest.mark.parametrize("sample", [eval_potential, partial_rho, divergence_a])
def test_samplers_reject_a_grid_of_another_dimension(sample):
    fam = PotentialFamily(name="swirl", v="x1^2 + x2^2", a=("x2", "-x1"),
                          growth_order=0, delta=1.0, dim=2)
    with pytest.raises(FamilyError, match="2-dimensional, grid is 1-dimensional"):
        sample(fam, 0.0, 0.0, make_grid(1, 6.0, 64))


def test_unknown_family_name_rejected():
    with pytest.raises(FamilyError):
        get_family("anharmonic_sextic")
    with pytest.raises(FamilyError):
        get_interaction("hard_core")


def test_validate_confined_quartic_constants(validation_grid):
    report = validate_assumption(get_family("confined_quartic"), validation_grid)
    assert report.passed
    rows = {r["check"]: r for r in report.rows()}
    assert rows["growth_lower"]["constant"] >= 1.0 - 1e-9
    assert rows["growth_upper"]["constant"] <= 3.0 + 1e-9


def test_validate_all_builtin_families(validation_grid):
    for name, fam in BUILTIN_FAMILIES.items():
        report = validate_assumption(fam, validation_grid)
        assert report.passed, f"{name}: {[c.label for c in report.failures]}"


def test_validate_ramped_quartic_fails_lower_bound(validation_grid):
    """Quartic growth switched on at t = 0 escapes every fixed growth order."""
    report = validate_assumption(ramped_quartic_family(), validation_grid)
    assert not report.passed
    assert any("growth_lower" in c.label for c in report.failures)


def test_validate_linear_vector_potential_fails_margin(validation_grid):
    # |A| = |x| grows at the full <x>^(M+1) rate, leaving no positive margin
    fam = PotentialFamily(name="linear_gauge", v="x^2/2", a=("x",), growth_order=0, delta=0.5)
    report = validate_assumption(fam, validation_grid)
    assert not report.passed
    assert any(c.label.startswith("A1") for c in report.failures)


def test_validation_report_rows_have_witnesses(validation_grid):
    report = validate_assumption(get_family("confined_quartic"), validation_grid)
    for row in report.rows():
        assert set(row) >= {"check", "constant", "slope", "passed", "witness_x"}


def test_validate_derivatives_are_exact(validation_grid):
    # A = cos(t) <x> and d^4 <x> = 3 (4 x^2 - 1) / <x>^7: the ratio peaks at 3 on t = x = 0
    def checks(name):
        return {c.label: c for c in validate_assumption(get_family(name), validation_grid).checks}

    quartic = checks("confined_quartic")
    assert quartic["A1_dx^4"].constant == pytest.approx(3.0, rel=1e-12)
    harmonic = checks("harmonic")
    assert harmonic["V_dx^3"].constant == 0.0
    assert harmonic["V_dx^4"].constant == 0.0


def test_validate_2d_derivative_index_k_differentiates_axis_k():
    g = make_grid(2, 10.0, 32)
    fam = PotentialFamily(name="anisotropic", v="x1^4 + 2*x2^2", a=("0", "0"),
                          growth_order=1, delta=1.0, dim=2)
    checks = {c.label: c for c in validate_assumption(fam, g).checks}
    x1, _ = g.mesh
    weight = (1.0 + g.radius_sq) ** 2
    assert checks["V_dx^20"].constant == pytest.approx((12.0 * x1**2 / weight).max(), rel=1e-12)
    assert checks["V_dx^10"].constant == pytest.approx((4.0 * np.abs(x1) ** 3 / weight).max(), rel=1e-12)


# 2-D derivative orders in check order: first axis outer, total order <= 4
ORDERS_2D = ["00", "01", "02", "03", "04", "10", "11", "12", "13",
             "20", "21", "22", "30", "31", "40"]
ORDERS_1D = ["0", "1", "2", "3", "4"]


def _labels(prefix, orders, zero_label=None):
    labels = [f"{prefix}_dx^{k}" for k in orders]
    if zero_label is not None:
        labels[0] = zero_label
    return labels


def test_validate_2d_family_pins_labels_and_verdict():
    g = make_grid(2, 10.0, 32)
    report = validate_assumption(MAGNETIC_2D, g)
    want = ["growth_lower"] + _labels("V", ORDERS_2D, "growth_upper") + _labels("Vt", ORDERS_2D)
    for j in (1, 2):
        want += _labels(f"A{j}", ORDERS_2D, f"A{j}_size") + _labels(f"A{j}t", ORDERS_2D)
    assert [c.label for c in report.checks] == want
    assert len(want) == 91
    assert not report.passed
    assert [c.label for c in report.failures] == ["A2_size"]
    exponents = {c.label: c.exponent for c in report.checks}
    assert exponents["growth_lower"] == exponents["Vt_dx^00"] == exponents["V_dx^40"] == 4.0
    assert exponents["A1_size"] == exponents["A2_size"] == 1.0
    assert exponents["A1t_dx^00"] == exponents["A2_dx^11"] == 2.0
    # the mixed derivative of V = (1 + |x|^2)^2 is 8 x1 x2
    x1, x2 = g.mesh
    ratio = np.abs(8.0 * x1 * x2) / (1.0 + x1**2 + x2**2) ** 2
    checks = {c.label: c for c in report.checks}
    assert checks["V_dx^11"].constant == pytest.approx(ratio.max(), rel=1e-9)
    assert len(checks["A2_size"].witness["x"]) == 2


def test_validate_rho_family_pins_labels(validation_grid):
    report = validate_assumption(get_family("parametric_quartic"), validation_grid)
    want = (["growth_lower"] + _labels("V", ORDERS_1D, "growth_upper") + _labels("Vt", ORDERS_1D)
            + _labels("A1", ORDERS_1D, "A1_size") + _labels("A1t", ORDERS_1D)
            + _labels("Vrho", ORDERS_1D) + _labels("A1rho", ORDERS_1D))
    assert [c.label for c in report.checks] == want
    assert report.passed


@pytest.mark.parametrize("fam, grid", [
    (get_family("parametric_quartic"), make_grid(1, 10.0, 256)),
    (MAGNETIC_2D, make_grid(2, 10.0, 32)),
], ids=["parametric_quartic", "magnetic_2d"])
def test_validate_reduces_single_sample_checks(fam, grid):
    """Over the (t, rho) samples, an upper check keeps the largest constant
    and the largest slope of the samples whose peak ratio is above
    RATIO_FLOOR (0.0 when none is); growth_lower keeps the smallest of both."""
    ts = np.linspace(0.0, 2.0 * np.pi, 9)
    rhos = (0.0,) if fam.rho_interval is None else np.linspace(*fam.rho_interval, 5)[1:-1]
    report = validate_assumption(fam, grid, t_samples=ts, rho_samples=rhos)
    singles = [validate_assumption(fam, grid, t_samples=[t], rho_samples=[rho]).checks
               for t in ts for rho in rhos]
    for i, check in enumerate(report.checks):
        per_sample = [s[i] for s in singles]
        assert {c.label for c in per_sample} == {check.label}
        if check.label == "growth_lower":
            assert check.constant == min(c.constant for c in per_sample)
            assert check.slope == min(c.slope for c in per_sample)
            continue
        assert check.constant == max(c.constant for c in per_sample)
        fitted = [c.slope for c in per_sample if c.constant > RATIO_FLOOR]
        assert check.slope == max(fitted, default=0.0)


def test_validate_interaction_pins_labels():
    report = validate_interaction(get_interaction("soft_pair"), L=10.0)
    orders = ORDERS_1D[:3]
    want = _labels("W", orders, "W_size") + _labels("Wt", orders) + _labels("Wrho", orders)
    assert [c.label for c in report.checks] == want
    assert [c.exponent for c in report.checks] == [2.0] + [4.0] * 8


@pytest.mark.parametrize("alpha_max", [-1, 5])
def test_validate_interaction_rejects_alpha_max_out_of_range(alpha_max):
    with pytest.raises(FamilyError, match="alpha_max"):
        validate_interaction(get_interaction("soft_pair"), L=10.0, alpha_max=alpha_max)


def test_partial_rho_closed_form():
    fam = get_family("parametric_quartic")
    g = make_grid(1, 6.0, 64)
    dV, dA = partial_rho(fam, 0.0, 1.0, g)
    np.testing.assert_allclose(dV, g.axis**4 / 4, rtol=1e-14)
    assert np.all(dA[0] == 0.0)


def test_partial_rho_independent_family_is_zero():
    g = make_grid(1, 6.0, 64)
    dV, dA = partial_rho(get_family("harmonic"), 0.0, 0.0, g)
    assert np.all(dV == 0.0)
    assert np.all(dA[0] == 0.0)


def test_partial_rho_richardson_second_order():
    """Central rho-differences of a family nonlinear in rho converge at O(h^2)."""
    fam = PotentialFamily(
        name="exponential_coupling",
        v="x^2/2 + exp(rho)*x^4/4",
        a=("0",),
        growth_order=1,
        delta=1.0,
        rho_interval=(-2.0, 2.0),
    )
    g = make_grid(1, 6.0, 64)
    rho = 0.5
    dV, _ = partial_rho(fam, 0.0, rho, g)

    def central(h):
        Vp, _ = eval_potential(fam, 0.0, rho + h, g)
        Vm, _ = eval_potential(fam, 0.0, rho - h, g)
        return (Vp - Vm) / (2 * h)

    err = [np.max(np.abs(central(h) - dV)) for h in (1e-3, 5e-4)]
    assert err[0] / err[1] == pytest.approx(4.0, rel=0.15)


def test_interaction_evaluates_on_relative_coordinate():
    inter = get_interaction("soft_pair")
    r = np.linspace(-3.0, 3.0, 13)
    np.testing.assert_allclose(inter.on(0.0, 0.1, r), 0.1 * (1 + r**2), rtol=1e-14)
    np.testing.assert_allclose(inter.rho_partial_on(0.0, 0.1, r), 1 + r**2, rtol=1e-14)


def test_constant_interaction_broadcasts():
    inter = InteractionFamily(name="contact_background", w="3/2", growth_order=0, delta=1.0)
    r = np.linspace(-2.0, 2.0, 9)
    vals = inter.on(0.0, 0.0, r)
    assert vals.shape == r.shape
    assert np.all(vals == 1.5)


def test_validate_builtin_interaction():
    report = validate_interaction(get_interaction("soft_pair"), L=10.0)
    assert report.passed


def test_validate_interaction_flags_excess_growth():
    # r^6 outgrows the declared <r>^(2(M0+1)-delta) envelope with M0 = 1
    inter = InteractionFamily(name="sextic_pair", w="rho*r^6", growth_order=1, delta=1.0)
    report = validate_interaction(inter, L=10.0)
    assert not report.passed


def test_time_dependence_flag():
    assert get_family("confined_quartic").is_time_dependent
    assert ramped_quartic_family().is_time_dependent
    t_in_a_only = PotentialFamily(name="t_in_a", v="x^2 / 2", a=("t * <x>",),
                                  growth_order=0, delta=0.5)
    assert t_in_a_only.is_time_dependent
    assert not get_family("harmonic").is_time_dependent
    assert not get_family("parametric_quartic").is_time_dependent
    assert not get_interaction("soft_pair").is_time_dependent
    pulsed = InteractionFamily(name="pulsed", w="cos(t) * r^2", growth_order=1, delta=1.0)
    assert pulsed.is_time_dependent


def test_family_weight_exponent():
    assert get_family("harmonic").weight_exponent == pytest.approx(2.0)
    assert get_family("confined_quartic").weight_exponent == pytest.approx(4.0)


def test_nonfinite_family_rejected():
    fam = PotentialFamily(name="logarithmic", v="sqrt(x)", a=("0",), growth_order=0, delta=1.0)
    with pytest.raises(Exception):
        eval_potential(fam, 0.0, 0.0, make_grid(1, 6.0, 64))


@pytest.mark.parametrize("build, message", [
    (lambda: validate_assumption(get_family("harmonic"), make_grid(1, 10.0, 32), alpha_max=5),
     "alpha_max must be between 1 and 4"),
    (lambda: validate_assumption(get_family("harmonic"), make_grid(2, 10.0, 16)),
     "grid dimension does not match the family"),
])
def test_validator_rejections_name_the_field(build, message):
    with pytest.raises(FamilyError) as caught:
        build()
    assert str(caught.value) == message


_FAMILY = {"name": "f", "v": "x^2", "a": ["0"], "growth_order": 1, "delta": 1.0}
_PAIR = {"name": "w", "w": "r^2", "growth_order": 1, "delta": 1.0}


@pytest.mark.parametrize("key, change, message", [
    ("family", {"a": "x"}, "a must be a list of component expressions, got 'x'"),
    ("family", {"a": "cos(t)"}, "a must be a list of component expressions, got 'cos(t)'"),
    ("family", {"growth_order": 0.5}, "growth_order must be a whole number, got 0.5"),
    ("family", {"growth_order": True}, "growth_order must be a whole number, got True"),
    ("family", {"growth_order": "two"}, "growth_order must be a whole number, got 'two'"),
    ("family", {"growth_order": -1}, "growth_order must be >= 0, got -1"),
    ("family", {"delta": "x"}, "delta must be a finite positive number, got 'x'"),
    ("family", {"delta": float("inf")}, "delta must be a finite positive number, got inf"),
    ("family", {"mass": 0}, "mass must be a finite positive number, got 0"),
    ("family", {"mass": "heavy"}, "mass must be a finite positive number, got 'heavy'"),
    ("family", {"rho_interval": [2, 1]},
     "rho_interval must be a pair lo < hi of finite numbers, got [2, 1]"),
    ("family", {"rho_interval": [1]}, "rho_interval must be a pair lo < hi of finite numbers, got [1]"),
    ("interaction", {"growth_order": 0.5}, "growth_order must be a whole number, got 0.5"),
    ("interaction", {"growth_order": True}, "growth_order must be a whole number, got True"),
    ("interaction", {"delta": float("inf")},
     "delta must be a finite positive number, got inf"),
    ("interaction", {"rho_interval": [2, 1]},
     "rho_interval must be a pair lo < hi of finite numbers, got [2, 1]"),
    ("interaction", {"rho_interval": [1]}, "rho_interval must be a pair lo < hi of finite numbers, got [1]"),
])
def test_family_growth_data_is_checked_alike(tmp_path, key, change, message):
    """A family and an interaction reject the same growth data with the same
    FamilyError, and a config block with it exits 2 naming its key."""
    cls, base = (PotentialFamily, _FAMILY) if key == "family" else (InteractionFamily, _PAIR)
    block = {**base, **change}
    with pytest.raises(FamilyError) as caught:
        cls(**block)
    assert str(caught.value) == message
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump({key: block}))
    result = CliRunner().invoke(main, ["validate", "--config", str(path),
                                       "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert f"config error: {key}: {message}" in (result.stderr or result.output)
