"""Parameter sensitivity: continuity curves, quotients, variational solve."""

import numpy as np
import pytest

from polyschro import (
    HamiltonianHandle,
    PotentialFamily,
    PropagatorConfig,
    WaveFunction,
    continuity_modulus,
    difference_quotient,
    gaussian_packet,
    get_family,
    make_grid,
    sensitivity_sweep,
    solve_variational,
)
from polyschro.errors import ConfigError


@pytest.fixture(scope="module")
def setup():
    g = make_grid(1, 10.0, 128)
    fam = get_family("parametric_quartic")
    u0 = gaussian_packet(g, center=1.0, width=0.8)
    cfg = PropagatorConfig(dt=2e-3, t_final=0.25, save_every=25, keep_states=False)
    return g, fam, u0, cfg


@pytest.fixture(scope="module")
def central_sweep(setup):
    g, fam, u0, cfg = setup
    return sensitivity_sweep(fam, u0, 1.0, (1e-1, 1e-2, 1e-3), cfg, a=0, central=True)


def test_tau_zero_rejected(setup):
    g, fam, u0, cfg = setup
    with pytest.raises(ConfigError):
        difference_quotient(fam, u0, 1.0, 0.0, cfg)


def test_continuity_curve_decreases_linearly(setup):
    g, fam, u0, cfg = setup
    curve = continuity_modulus(fam, u0, 1.0, (1e-1, 1e-2, 1e-3), cfg, a=0)
    assert curve.is_decreasing()
    ratios = curve.moduli[:-1] / curve.moduli[1:]
    assert np.all((5.0 <= ratios) & (ratios <= 20.0))
    rows = curve.rows()
    assert [r["delta"] for r in rows] == [1e-1, 1e-2, 1e-3]


def test_zero_offset_has_zero_modulus(setup):
    g, fam, u0, cfg = setup
    curve = continuity_modulus(fam, u0, 1.0, (0.0,), cfg, a=0)
    assert curve.moduli[0] == 0.0


def test_parameter_free_family_is_insensitive(setup):
    g, _, u0, cfg = setup
    flat = PotentialFamily(name="rho_free", v="x^2/2", a=("0",),
                           growth_order=1, delta=1.0, rho_interval=(-1.0, 1.0))
    curve = continuity_modulus(flat, u0, 0.0, (1e-1, 1e-2), cfg, a=0)
    assert np.max(curve.moduli) <= 1e-10
    w = solve_variational(flat, u0, 0.0, cfg, a=0)
    assert w.max_norm <= 1e-12
    q = difference_quotient(flat, u0, 0.0, 1e-2, cfg, a=0)
    assert q.max_norm <= 1e-9


def test_variational_starts_from_zero(setup):
    g, fam, u0, cfg = setup
    w = solve_variational(fam, u0, 1.0, cfg, a=0)
    assert w.norms[0] == 0.0
    assert np.max(np.abs(w.values[0])) == 0.0


def test_variational_first_step_scales_with_source(setup):
    g, fam, u0, cfg = setup
    dense = PropagatorConfig(dt=2e-3, t_final=0.01, save_every=1)
    w = solve_variational(fam, u0, 1.0, dense, a=0)
    handle = HamiltonianHandle(fam, g, rho=1.0)
    strength = WaveFunction(g, np.asarray(
        handle.apply_rho_derivative(0.0, u0.values))).norm()
    first = w.norms[1]
    assert 0.1 * dense.dt * strength <= first <= 2.0 * dense.dt * strength


def test_central_quotients_second_order(central_sweep):
    orders = central_sweep.observed_orders()
    assert np.all(orders >= 1.8)
    d = central_sweep.discrepancies
    assert np.all(d[:-1] > d[1:])


def test_one_sided_quotients_first_order(setup):
    g, fam, u0, cfg = setup
    run = sensitivity_sweep(fam, u0, 1.0, (1e-1, 1e-2), cfg, a=0, central=False)
    orders = run.observed_orders()
    assert np.all((0.7 <= orders) & (orders <= 1.3))


def test_central_beats_one_sided_at_equal_tau(setup, central_sweep):
    g, fam, u0, cfg = setup
    one = sensitivity_sweep(fam, u0, 1.0, (1e-2,), cfg, a=0, central=False)
    idx = list(central_sweep.taus).index(1e-2)
    assert central_sweep.discrepancies[idx] < 0.1 * one.discrepancies[0]


def test_quotients_track_variational_magnitude(central_sweep):
    ratio = central_sweep.quotient_to_variational_ratio()
    assert 0.5 <= ratio <= 2.0


def test_cauchy_consistency_between_offsets(setup):
    """The gap to the limit is controlled by the gap between halvings."""
    g, fam, u0, cfg = setup
    run = sensitivity_sweep(fam, u0, 1.0, (0.04, 0.02), cfg, a=0, central=True)
    q_big, q_half = run.quotients
    gap = max(
        WaveFunction(g, bv - hv).norm()
        for bv, hv in zip(q_big.values, q_half.values)
    )
    assert run.discrepancies[0] <= 2.0 * gap


def test_rows_expose_sweep_columns(central_sweep):
    rows = central_sweep.rows()
    assert len(rows) == 3
    for row, tau, disc in zip(rows, central_sweep.taus, central_sweep.discrepancies):
        assert row["tau"] == tau
        assert row["max_discrepancy"] == disc
        assert row["max_quotient_norm"] > 0


def test_runs_near_the_edge_carry_one_warning_each(setup):
    g, fam, _, _ = setup
    u0 = gaussian_packet(g, center=9.5, width=0.8)
    cfg = PropagatorConfig(dt=1e-2, t_final=0.05, save_every=1, keep_states=False)
    curve = continuity_modulus(fam, u0, 1.0, (1e-1, 1e-2), cfg)
    assert len(curve.warnings) == 3
    one_sided = sensitivity_sweep(fam, u0, 1.0, (1e-1, 1e-2), cfg, central=False)
    # the variational base and w runs, the shared base run, two shifted runs
    assert len(one_sided.warnings) == 5
    assert all(w.startswith("boundary mass") for w in curve.warnings + one_sided.warnings)
    inside = gaussian_packet(g, center=0.0, width=0.8)
    assert continuity_modulus(fam, inside, 1.0, (1e-1,), cfg).warnings == []
