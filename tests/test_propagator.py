"""Time stepping: unitarity, convergence order, sources, and diagnostics."""

import csv
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from polyschro import operators, propagator
from polyschro import (
    HamiltonianHandle,
    PotentialFamily,
    PropagatorConfig,
    WaveFunction,
    apply_hamiltonian,
    energy_estimate_check,
    gaussian_packet,
    get_family,
    make_grid,
    propagate,
    propagate_inhomogeneous,
    step,
)
from polyschro.errors import ConfigError, SolverError


@pytest.fixture(scope="module")
def harmonic_256():
    g = make_grid(1, 10.0, 256)
    return g, HamiltonianHandle(get_family("harmonic"), g)


@pytest.fixture(scope="module")
def quartic_256():
    g = make_grid(1, 10.0, 256)
    return g, HamiltonianHandle(get_family("confined_quartic"), g)


@pytest.fixture(scope="module")
def quartic_reference_run(quartic_256):
    """Shared T = 1 run on the quartic family with first-order records."""
    g, handle = quartic_256
    u0 = gaussian_packet(g, center=1.0, width=0.8, momentum=0.5)
    cfg = PropagatorConfig(dt=1e-3, t_final=1.0, save_every=20, keep_states=False)
    return u0, propagate(cfg, handle, u0, norm_orders=(1,))


def test_config_validation():
    with pytest.raises(ConfigError):
        PropagatorConfig(dt=-1e-3)
    with pytest.raises(ConfigError):
        PropagatorConfig(dt=1e-3, t_final=1.0005)
    with pytest.raises(ConfigError):
        PropagatorConfig(scheme="strang_split")
    with pytest.raises(ConfigError, match="krylov_dim"):
        PropagatorConfig(krylov_dim=0)
    for tol in (0.0, -1e-11, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="solver_tol"):
            PropagatorConfig(solver_tol=tol)
    with pytest.raises(ConfigError, match="max_solver_iter"):
        PropagatorConfig(max_solver_iter=0)


def test_single_step_is_scalar_cayley(harmonic_256):
    """On an eigenvector a CN step is multiplication by the Cayley factor."""
    g, handle = harmonic_256
    u = gaussian_packet(g, width=1.0)
    dt, energy = 1e-3, 0.5
    out = step(PropagatorConfig(dt=dt, t_final=dt), handle, 0.0, u)
    factor = (1 - 0.5j * dt * energy) / (1 + 0.5j * dt * energy)
    assert abs(abs(factor) - 1.0) < 1e-15
    assert np.max(np.abs(out.values - factor * u.values)) <= 1e-8


def test_single_step_equals_one_step_of_propagate(quartic_256):
    """step seeds the Cayley solve with the current state, as propagate does."""
    g, handle = quartic_256
    u0 = gaussian_packet(g, center=1.0, width=0.8, momentum=0.5)
    cfg = PropagatorConfig(dt=1e-3, t_final=1e-3)
    assert np.array_equal(step(cfg, handle, 0.0, u0).values,
                          propagate(cfg, handle, u0).final.values)


def test_harmonic_ground_state_phase(harmonic_256):
    g, handle = harmonic_256
    u0 = gaussian_packet(g, width=1.0)
    cfg = PropagatorConfig(dt=1e-3, t_final=1.0, save_every=10**9, keep_states=False)
    run = propagate(cfg, handle, u0)
    err = np.max(np.abs(run.final.values - np.exp(-0.5j) * u0.values))
    assert err <= 1e-6


def test_second_order_self_convergence(quartic_256):
    g, handle = quartic_256
    u0 = gaussian_packet(g, center=1.0, width=0.8, momentum=0.5)
    finals = {}
    for dt in (2e-3, 1e-3, 2.5e-4):
        cfg = PropagatorConfig(dt=dt, t_final=0.1, save_every=10**9, keep_states=False)
        finals[dt] = propagate(cfg, handle, u0).final.values
    ref = finals[2.5e-4]
    ratio = np.linalg.norm(finals[2e-3] - ref) / np.linalg.norm(finals[1e-3] - ref)
    assert 3.5 <= ratio <= 4.5


def test_norm_conserved_on_quartic_run(quartic_reference_run):
    u0, run = quartic_reference_run
    assert run.max_norm_drift <= 1e-8


def test_weighted_norm_bounded_on_quartic_run(quartic_reference_run):
    u0, run = quartic_reference_run
    series = run.norm_series(1)
    assert np.all(np.isfinite(series))
    ratio = series.max() / series[0]
    assert ratio < 10.0
    # no monotone blow-up: the peak is not at the final record
    assert series[-1] <= series.max()


def test_per_step_drift_bounded_by_solver_tolerance(quartic_reference_run):
    u0, run = quartic_reference_run
    l2 = run.norm_series(0)
    per_step = np.max(np.abs(np.diff(l2))) / run.cfg.save_every
    assert per_step <= 10 * run.cfg.solver_tol


def test_eps_family_converges_monotonically(harmonic_256):
    g, handle = harmonic_256
    u0 = gaussian_packet(g, width=1.0)
    base_cfg = PropagatorConfig(dt=2.5e-3, t_final=0.125, save_every=10**9, keep_states=False)
    base = propagate(base_cfg, handle, u0).final
    gaps = []
    for eps in (1.0, 0.5, 0.25):
        cfg = PropagatorConfig(dt=2.5e-3, t_final=0.125, save_every=10**9,
                               keep_states=False, eps=eps)
        final = propagate(cfg, handle, u0).final
        gaps.append(WaveFunction(g, final.values - base.values).norm())
    assert gaps[0] > gaps[1] > gaps[2]


def test_uniform_in_eps_weighted_stability():
    g = make_grid(1, 10.0, 128)
    handle = HamiltonianHandle(get_family("confined_quartic"), g)
    u0 = gaussian_packet(g, center=1.0, width=0.8)
    peaks = []
    for eps in (1.0, 0.25, 0.0625, 0.015625):
        cfg = PropagatorConfig(dt=2.5e-3, t_final=0.05, save_every=5,
                               keep_states=False, eps=eps)
        run = propagate(cfg, handle, u0, norm_orders=(1,))
        peaks.append(run.norm_series(1).max())
    assert max(peaks) / min(peaks) <= 10.0


def test_inhomogeneous_zero_source_matches_plain(harmonic_256):
    g, handle = harmonic_256
    u0 = gaussian_packet(g, center=0.5, width=1.0)
    cfg = PropagatorConfig(dt=2e-3, t_final=0.1, save_every=10**9, keep_states=False)
    plain = propagate(cfg, handle, u0)
    zero = lambda t: WaveFunction(g, np.zeros(g.N, dtype=complex))
    forced = propagate_inhomogeneous(cfg, handle, u0, zero)
    assert np.max(np.abs(plain.final.values - forced.final.values)) <= 1e-12


def test_manufactured_solution_second_order():
    """u0 = 0 with source (i d/dt - H)v recovers v(T) at O(dt^2)."""
    g = make_grid(1, 10.0, 128)
    handle = HamiltonianHandle(get_family("harmonic"), g)
    base = gaussian_packet(g, center=0.5, width=1.0)
    omega = 2.0

    def v(t):
        return base.values * np.sin(omega * t)

    def source(t):
        dv = base.values * omega * np.cos(omega * t)
        hv = apply_hamiltonian(handle, t, WaveFunction(g, v(t))).values
        return WaveFunction(g, 1j * dv - hv)

    zero = WaveFunction(g, np.zeros(g.N, dtype=complex))
    errs = []
    for dt in (5e-3, 2.5e-3):
        cfg = PropagatorConfig(dt=dt, t_final=0.25, save_every=10**9, keep_states=False)
        run = propagate_inhomogeneous(cfg, handle, zero, source)
        errs.append(WaveFunction(g, run.final.values - v(0.25)).norm())
    assert errs[0] <= 1e-5
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.7)


def test_inhomogeneous_superposition(harmonic_256, rng):
    g, handle = harmonic_256
    u0 = gaussian_packet(g, center=0.5, width=1.0)
    bump = gaussian_packet(g, center=-1.0, width=0.7)
    source = lambda t: WaveFunction(g, np.cos(3 * t) * bump.values)
    zero_state = WaveFunction(g, np.zeros(g.N, dtype=complex))
    zero_src = lambda t: WaveFunction(g, np.zeros(g.N, dtype=complex))
    cfg = PropagatorConfig(dt=2e-3, t_final=0.1, save_every=10**9, keep_states=False)
    both = propagate_inhomogeneous(cfg, handle, u0, source)
    only_state = propagate_inhomogeneous(cfg, handle, u0, zero_src)
    only_source = propagate_inhomogeneous(cfg, handle, zero_state, source)
    combo = only_state.final.values + only_source.final.values
    assert np.max(np.abs(both.final.values - combo)) <= 1e-10


def test_zero_data_stays_at_solver_floor(harmonic_256):
    g, handle = harmonic_256
    zero = WaveFunction(g, np.zeros(g.N, dtype=complex))
    cfg = PropagatorConfig(dt=2e-3, t_final=0.1, save_every=10**9, keep_states=False)
    run = propagate(cfg, handle, zero)
    assert run.final.norm() <= 1e-12


def test_time_reversal_by_conjugation():
    """For real time-independent potentials, conjugation inverts the flow."""
    g = make_grid(1, 10.0, 128)
    handle = HamiltonianHandle(get_family("parametric_quartic"), g, rho=1.0)
    u0 = gaussian_packet(g, center=1.0, width=0.8, momentum=0.5)
    cfg = PropagatorConfig(dt=1e-3, t_final=0.2, save_every=10**9, keep_states=False)
    forward = propagate(cfg, handle, u0)
    back = propagate(cfg, handle, WaveFunction(g, np.conj(forward.final.values)))
    recovered = np.conj(back.final.values)
    assert WaveFunction(g, recovered - u0.values).norm() <= 1e-8


def test_scheme_cross_validation_all_builtins():
    """CN and Krylov-exponential steps land on the same trajectory.

    The comparison state is a narrow low packet: the scheme difference is
    set by third powers of the operator, whose expectation grows with the
    state's high coordinate moments under the quartic weight.
    """
    g = make_grid(1, 10.0, 128)
    dt, T = 1e-3, 0.1
    for name in ("harmonic", "confined_quartic", "parametric_quartic"):
        fam = get_family(name)
        rho = 1.0 if fam.rho_interval else 0.0
        handle = HamiltonianHandle(fam, g, rho=rho)
        u0 = gaussian_packet(g, center=0.0, width=0.5)
        cn = propagate(PropagatorConfig(dt=dt, t_final=T, save_every=10**9,
                                        keep_states=False), handle, u0)
        lz = propagate(PropagatorConfig(scheme="lanczos_expmid", dt=dt, t_final=T,
                                        save_every=10**9, keep_states=False,
                                        krylov_dim=40), handle, u0)
        diff = WaveFunction(g, cn.final.values - lz.final.values).norm()
        assert diff <= max(10 * dt**2, 1e-8), name


def test_boundary_mass_breach_is_flagged():
    g = make_grid(1, 10.0, 128)
    free = PotentialFamily(name="free", v="0", a=("0",), growth_order=0, delta=1.0)
    handle = HamiltonianHandle(free, g)
    u0 = gaussian_packet(g, center=7.0, width=0.5, momentum=4.0)
    cfg = PropagatorConfig(dt=5e-3, t_final=0.5, save_every=10, keep_states=False)
    run = propagate(cfg, handle, u0)
    assert any(flag.startswith("boundary mass") for flag in run.flags)


def test_energy_estimate_zero_for_plain_norm(quartic_reference_run):
    u0, run = quartic_reference_run
    fit = energy_estimate_check(run, a=0)
    assert fit.passed
    assert abs(fit.growth_rate) <= 1e-6


def test_energy_estimate_stable_under_refinement(quartic_256):
    g, handle = quartic_256
    u0 = gaussian_packet(g, center=1.0, width=0.8, momentum=0.5)
    rates = []
    for dt in (2e-3, 1e-3):
        cfg = PropagatorConfig(dt=dt, t_final=0.25, save_every=round(0.05 / dt),
                               keep_states=False)
        run = propagate(cfg, handle, u0, norm_orders=(1,))
        rates.append(energy_estimate_check(run, a=1).growth_rate)
    assert abs(rates[0] - rates[1]) <= 0.2 * max(abs(rates[1]), 1e-12)


def test_stationary_state_has_constant_norms(harmonic_256):
    g, handle = harmonic_256
    u0 = gaussian_packet(g, width=1.0)
    cfg = PropagatorConfig(dt=2e-3, t_final=0.2, save_every=10, keep_states=False)
    run = propagate(cfg, handle, u0, norm_orders=(1,))
    for a in (0, 1):
        series = run.norm_series(a)
        assert np.max(np.abs(series - series[0])) <= 1e-6 * series[0]


def test_run_records_match_save_schedule(quartic_reference_run):
    u0, run = quartic_reference_run
    n_steps = round(run.cfg.t_final / run.cfg.dt)
    expected = 1 + n_steps // run.cfg.save_every
    assert len(run.times) == expected
    assert run.times[0] == 0.0
    assert run.times[-1] == pytest.approx(run.cfg.t_final)


def test_csv_round_trip_17_digits(tmp_path, quartic_reference_run):
    u0, run = quartic_reference_run
    path = tmp_path / "run.csv"
    run.to_csv(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header[0] == "t"
    assert len(rows) == len(run.times)
    l2_col = header.index("l2")
    parsed = np.array([float(r[l2_col]) for r in rows])
    np.testing.assert_array_equal(parsed, run.norm_series(0))
    times = np.array([float(r[0]) for r in rows])
    np.testing.assert_array_equal(times, run.times)


@pytest.fixture(scope="module")
def quartic_dense_step(quartic_256):
    """exp(-i dt H(t_mid)) as a dense matrix built from the operator's columns."""
    g, handle = quartic_256
    t_mid, dt = 0.3, 1e-3
    H = np.column_stack([handle.apply(t_mid, e) for e in np.eye(g.N, dtype=complex)])
    return t_mid, dt, expm(-1j * dt * H)


def _krylov_step(handle, u, t_mid, dt, krylov_dim):
    cfg = PropagatorConfig(scheme="lanczos_expmid", dt=dt, t_final=dt, krylov_dim=krylov_dim)
    out, rep = propagator._lanczos_expm(propagator._Operator(handle, cfg), t_mid, u, cfg)
    return cfg, out, rep


def test_lanczos_stops_early_on_a_smooth_packet(quartic_256, quartic_dense_step):
    g, handle = quartic_256
    t_mid, dt, exact = quartic_dense_step
    u = gaussian_packet(g, center=1.0, width=0.8, momentum=0.5).values
    cfg, out, rep = _krylov_step(handle, u, t_mid, dt, krylov_dim=40)
    err = np.linalg.norm(out - exact @ u) / np.linalg.norm(u)
    assert rep.iterations < cfg.krylov_dim
    assert rep.residual <= cfg.solver_tol
    assert err <= 10 * cfg.solver_tol


def test_lanczos_cap_reports_its_miss(quartic_256, quartic_dense_step):
    """A rough state needs more than the cap; the estimate says so."""
    g, handle = quartic_256
    t_mid, dt, exact = quartic_dense_step
    rng = np.random.default_rng(5)
    u = rng.standard_normal(g.N) + 1j * rng.standard_normal(g.N)
    cfg, out, rep = _krylov_step(handle, u, t_mid, dt, krylov_dim=24)
    err = np.linalg.norm(out - exact @ u) / np.linalg.norm(u)
    assert rep.iterations == cfg.krylov_dim
    assert rep.residual > cfg.solver_tol
    assert rep.residual >= err / 10


def test_solver_columns_cover_the_save_interval(quartic_256):
    """Each record sums the iterations and keeps the worst residual since the last."""
    g, handle = quartic_256
    u0 = gaussian_packet(g, center=1.0, width=0.8, momentum=0.5)
    cfg = PropagatorConfig(scheme="lanczos_expmid", dt=1e-3, t_final=0.02,
                           keep_states=False, krylov_dim=40)
    fine = propagate(cfg, handle, u0)
    coarse = propagate(replace(cfg, save_every=5), handle, u0)
    iters = fine.data["solver_iterations"][1:].reshape(4, 5)
    resid = fine.data["solver_residual"][1:].reshape(4, 5)
    assert coarse.data["solver_iterations"][1:].tolist() == iters.sum(axis=1).tolist()
    assert coarse.data["solver_residual"][1:].tolist() == resid.max(axis=1).tolist()
    # the Krylov estimate, not a placeholder zero
    assert 0.0 < coarse.data["solver_residual"].max() <= cfg.solver_tol


def test_solver_failure_names_step_and_time():
    """A Cayley solve that misses its tolerance says which step and time it was."""
    g = make_grid(1, 10.0, 128)
    handle = HamiltonianHandle(get_family("confined_quartic"), g)
    cfg = PropagatorConfig(dt=1e-3, t_final=5e-3, max_solver_iter=1, solver_tol=1e-16)
    u0 = gaussian_packet(g, center=1.0, width=0.8, momentum=0.5)
    with pytest.raises(SolverError,
                       match=r"Cayley solve stalled .* at step 1 \(t=0\.001\)"):
        propagate(cfg, handle, u0)


class _BlowUpHandle(HamiltonianHandle):
    """Harmonic operator that returns NaN from t = 0.005 on."""

    def apply(self, t, f):
        out = super().apply(t, f)
        return out * np.nan if t > 0.005 else out


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("scheme", propagator.SCHEMES)
def test_blow_up_names_step_and_time(scheme):
    g = make_grid(1, 10.0, 64)
    handle = _BlowUpHandle(get_family("harmonic"), g)
    cfg = PropagatorConfig(scheme=scheme, dt=1e-3, t_final=0.01)
    # step 6 is the first whose midpoint 0.0055 lies past 0.005
    with pytest.raises(SolverError, match=r"step 6 \(t=0\.006\)"):
        propagate(cfg, handle, gaussian_packet(g))


@pytest.fixture(scope="module")
def parametric_128():
    g = make_grid(1, 10.0, 128)
    handle = HamiltonianHandle(get_family("parametric_quartic"), g, rho=1.0)
    H = np.column_stack([handle.apply(0.0, e) for e in np.eye(g.N, dtype=complex)])
    return g, handle, H


def _dense_cayley_run(H, u, dt, n_steps, source=None):
    """u <- solve(I + i tau H, (I - i tau H) u - i dt f(t_mid)), tau = dt/2."""
    eye = np.eye(len(u))
    lhs, rhs = eye + 0.5j * dt * H, eye - 0.5j * dt * H
    for n in range(n_steps):
        b = rhs @ u
        if source is not None:
            b -= 1j * dt * source((n + 0.5) * dt)
        u = np.linalg.solve(lhs, b)
    return u


def test_time_free_flow_matches_dense_cayley_recursion(parametric_128):
    g, handle, H = parametric_128
    u0 = gaussian_packet(g, center=1.0, width=0.8, momentum=0.5)
    cfg = PropagatorConfig(dt=1e-3, t_final=0.2, keep_states=False)
    run = propagate(cfg, handle, u0)
    oracle = _dense_cayley_run(H, u0.values, cfg.dt, cfg.n_steps)
    assert np.max(np.abs(run.final.values - oracle)) <= 1e-9
    assert run.data["solver_iterations"][1:].tolist() == [1] * cfg.n_steps
    resid = run.data["solver_residual"][1:]
    assert 0.0 < resid.max() <= 50 * cfg.solver_tol


def test_time_free_inhomogeneous_flow_matches_dense_cayley_recursion(parametric_128):
    g, handle, H = parametric_128
    u0 = gaussian_packet(g, center=0.5, width=1.0)
    bump = gaussian_packet(g, center=-1.0, width=0.7).values
    source = lambda t: np.cos(3 * t) * bump
    cfg = PropagatorConfig(dt=1e-3, t_final=0.2, keep_states=False)
    run = propagate_inhomogeneous(cfg, handle, u0, source)
    oracle = _dense_cayley_run(H, u0.values, cfg.dt, cfg.n_steps, source)
    assert np.max(np.abs(run.final.values - oracle)) <= 1e-9
    assert run.data["solver_iterations"][1:].tolist() == [1] * cfg.n_steps


@pytest.mark.parametrize("name, N", [
    ("confined_quartic", 128),                            # time-dependent
    ("parametric_quartic", 2 * propagator.DIRECT_MAX_N),  # above the cap
])
def test_gmres_still_steps_other_flows(name, N):
    g = make_grid(1, 10.0, N)
    fam = get_family(name)
    handle = HamiltonianHandle(fam, g, rho=1.0 if fam.rho_interval else 0.0)
    cfg = PropagatorConfig(dt=1e-3, t_final=5e-3, keep_states=False)
    run = propagate(cfg, handle, gaussian_packet(g, center=1.0, width=0.8))
    assert min(run.data["solver_iterations"][1:]) > 1
    assert handle._cayley is None


def test_time_free_handle_samples_its_fields_once(monkeypatch):
    calls = {"eval_potential": 0, "eval_symbol": 0}

    def counted(name):
        original = getattr(operators, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(operators, name, wrapper)

    counted("eval_potential")
    counted("eval_symbol")
    g = make_grid(1, 10.0, 64)
    u0 = gaussian_packet(g, center=1.0, width=0.8)
    handle = HamiltonianHandle(get_family("parametric_quartic"), g, rho=1.0)
    propagate(PropagatorConfig(dt=1e-3, t_final=0.05), handle, u0)
    assert calls == {"eval_potential": 1, "eval_symbol": 0}
    handle = HamiltonianHandle(get_family("harmonic"), g)
    propagate(PropagatorConfig(dt=1e-3, t_final=0.05, eps=0.5), handle, u0)
    assert calls == {"eval_potential": 2, "eval_symbol": 1}


def test_one_cached_cayley_inverse_per_handle(harmonic_256):
    g, handle = harmonic_256
    u = gaussian_packet(g, width=1.0)
    cfg = PropagatorConfig(dt=1e-3, t_final=1e-3)
    step(cfg, handle, 0.0, u)
    first = handle._cayley
    step(cfg, handle, 1e-3, u)
    assert handle._cayley is first
    mollified = replace(cfg, eps=0.5)
    step(mollified, handle, 0.0, u)
    assert handle._cayley is not first
    assert handle._cayley_key == (0.5 * cfg.dt, mollified.cutoff())


def test_initial_state_must_share_the_handle_grid():
    handle = HamiltonianHandle(get_family("harmonic"), make_grid(1, 10.0, 64))
    cfg = PropagatorConfig(dt=1e-3, t_final=1e-3)
    # a separately built equal grid is the same grid
    propagate(cfg, handle, gaussian_packet(make_grid(1, 10.0, 64)))
    with pytest.raises(ConfigError, match="different grids"):
        propagate(cfg, handle, gaussian_packet(make_grid(1, 8.0, 64)))
