"""Parameter sensitivity: continuity curves, quotients, variational solve."""

import tracemalloc
from dataclasses import replace

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
    propagate,
    propagate_inhomogeneous,
    sensitivity_sweep,
    solve_variational,
)
from polyschro import propagator
from polyschro.errors import ConfigError, SolverError
from conftest import RHO_MAGNETIC


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
    return sensitivity_sweep(fam, u0, 1.0, (1e-1, 1e-2, 1e-3), cfg, a=0)


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
    assert curve.deltas.tolist() == [1e-1, 1e-2, 1e-3]


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


def test_quotients_track_variational_magnitude(central_sweep):
    ratio = central_sweep.quotient_to_variational_ratio()
    assert 0.5 <= ratio <= 2.0


def test_cauchy_consistency_between_offsets(setup):
    """The gap to the limit is controlled by the gap between halvings."""
    g, fam, u0, cfg = setup
    run = sensitivity_sweep(fam, u0, 1.0, (0.04, 0.02), cfg, a=0)
    q_big, q_half = run.quotients
    gap = max(
        WaveFunction(g, bv - hv).norm()
        for bv, hv in zip(q_big.values, q_half.values)
    )
    assert run.discrepancies[0] <= 2.0 * gap


def test_runs_near_the_edge_carry_one_warning_each(setup):
    g, fam, _, _ = setup
    u0 = gaussian_packet(g, center=9.5, width=0.8)
    cfg = PropagatorConfig(dt=1e-2, t_final=0.05, save_every=1, keep_states=False)
    curve = continuity_modulus(fam, u0, 1.0, (1e-1, 1e-2), cfg)
    assert len(curve.warnings) == 3
    sweep = sensitivity_sweep(fam, u0, 1.0, (1e-1, 1e-2), cfg)
    # the variational base and w runs, then the plus and minus runs of each tau
    assert len(sweep.warnings) == 6
    assert all(w.startswith("boundary mass") for w in curve.warnings + sweep.warnings)
    inside = gaussian_packet(g, center=0.0, width=0.8)
    assert continuity_modulus(fam, inside, 1.0, (1e-1,), cfg).warnings == []


def _two_pass_variational(handle, u0, cfg):
    """w on cfg's records by two passes: a step-dense base run, then the
    forced run whose source reads the two base states around each half step."""
    base = propagate(replace(cfg, save_every=1, keep_states=True), handle, u0)

    def source(t_mid):
        n = int(round(t_mid / cfg.dt - 0.5))
        return handle.apply_rho_derivative(t_mid, 0.5 * (base.states[n] + base.states[n + 1]))

    zero = WaveFunction(u0.grid, np.zeros(u0.grid.shape, dtype=complex))
    return propagate_inhomogeneous(replace(cfg, keep_states=True), handle, zero, source).states


def _dense_case():
    g = make_grid(1, 10.0, 128)
    fam = get_family("parametric_quartic")
    return fam, gaussian_packet(g, center=1.0, width=0.8), 1.0, HamiltonianHandle(fam, g, rho=1.0)


def _gmres_case():
    g = make_grid(1, 10.0, 128)
    u0 = gaussian_packet(g, center=1.0, width=0.8, momentum=0.5)
    return RHO_MAGNETIC, u0, 0.5, HamiltonianHandle(RHO_MAGNETIC, g, rho=0.5)


@pytest.mark.parametrize("case, bound", [
    (_dense_case, 1e-12),      # the closed form
    (_gmres_case, 1e-9),       # time-dependent and magnetic: GMRES
])
def test_lockstep_variational_matches_two_pass_solve(case, bound):
    fam, u0, rho, handle = case()
    cfg = PropagatorConfig(dt=2e-3, t_final=0.1, save_every=10, keep_states=False)
    w = solve_variational(fam, u0, rho, cfg)
    ref = _two_pass_variational(handle, u0, cfg)
    assert w.values.shape == ref.shape == (6, *u0.grid.shape)
    gap = np.linalg.norm((w.values - ref)[1:].reshape(5, -1), axis=1)
    scale = np.linalg.norm(ref[1:].reshape(5, -1), axis=1)
    assert np.max(gap / scale) <= bound


def test_solver_error_in_the_base_step_names_step_and_time(monkeypatch):
    _, u0, rho, _ = _gmres_case()
    monkeypatch.setattr(propagator, "MAX_SOLVER_ITER", 1)
    cfg = PropagatorConfig(dt=2e-3, t_final=0.02, save_every=5)
    with pytest.raises(SolverError, match=r"t_mid=0\.001 at step 1 \(t=0\.002\)"):
        solve_variational(RHO_MAGNETIC, u0, rho, cfg)


def test_variational_solve_keeps_no_step_dense_states(setup):
    """2,000 steps at N=128 hold 4 MB of base states if every step is kept;
    the variational solve keeps only w's 21 records (1.5 MB peak, with the
    closed form's eigendecomposition and its N x N temporaries; 5.1 MB for
    a step-dense base run)."""
    g, fam, u0, _ = setup
    solve_variational(fam, u0, 1.0, PropagatorConfig(dt=1e-3, t_final=0.01))
    cfg = PropagatorConfig(dt=1e-3, t_final=2.0, save_every=100, keep_states=False)
    tracemalloc.start()
    try:
        w = solve_variational(fam, u0, 1.0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w.times) == 21
    assert peak <= 2.5 * 2**20
