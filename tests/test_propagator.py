"""Time stepping: unitarity, convergence order, sources, and diagnostics."""

import csv
import gc
import re
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from polyschro import operators, propagator
from polyschro import (
    HamiltonianHandle,
    PotentialFamily,
    PropagatorConfig,
    WaveFunction,
    eval_potential,
    gaussian_packet,
    get_family,
    get_interaction,
    make_grid,
    propagate,
    propagate_inhomogeneous,
)
from polyschro.config import from_mapping
from polyschro.errors import ConfigError, SolverError
from polyschro.suites import run_suite
from polyschro.twoparticle import TwoParticleHandle, TwoParticleSystem

from conftest import band_limited_state


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
    for name, bad in (("dt", "x"), ("t_final", None), ("t_final", "1"),
                      ("t_final", float("inf")), ("dt", float("nan"))):
        with pytest.raises(ConfigError, match=f"^{name} must be a finite number"):
            PropagatorConfig(**{name: bad})
    for bad in ("a", float("nan")):
        with pytest.raises(ConfigError, match="eps"):
            PropagatorConfig(eps=bad)
    for name in ("save_every", "krylov_dim"):
        for bad in (2.5, True):
            with pytest.raises(ConfigError, match=f"^{name} must be a whole number"):
                PropagatorConfig(**{name: bad})
        assert type(getattr(PropagatorConfig(**{name: 5.0}), name)) is int


def test_single_step_is_scalar_cayley(harmonic_256):
    """On an eigenvector a CN step is multiplication by the Cayley factor."""
    g, handle = harmonic_256
    u = gaussian_packet(g, width=1.0)
    dt, energy = 1e-3, 0.5
    out = propagate(PropagatorConfig(dt=dt, t_final=dt), handle, u).final
    factor = (1 - 0.5j * dt * energy) / (1 + 0.5j * dt * energy)
    assert abs(abs(factor) - 1.0) < 1e-15
    assert np.max(np.abs(out.values - factor * u.values)) <= 1e-8


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
    assert per_step <= 10 * propagator.SOLVER_TOL


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
        hv = handle.apply(t, v(t))
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
    # the dense inverse's zero-data steps: residual 0, no iteration, no flag
    assert np.array_equal(run.data["solver_residual"], np.zeros(2))
    assert run.data["solver_iterations"].tolist() == [0, 0]
    assert run.solver_flags == []


@pytest.mark.parametrize("scheme", ["crank_nicolson_midpoint", "lanczos_expmid"])
def test_zero_data_on_a_time_dependent_flow(quartic_256, scheme):
    """The GMRES lane and the Lanczos step take a zero state to zero at once."""
    g, handle = quartic_256
    zero = WaveFunction(g, np.zeros(g.N, dtype=complex))
    cfg = PropagatorConfig(scheme=scheme, dt=2e-3, t_final=0.01, save_every=10**9,
                           keep_states=False)
    run = propagate(cfg, handle, zero)
    assert not np.any(run.final.values)
    assert np.array_equal(run.data["solver_residual"], np.zeros(2))
    assert run.data["solver_iterations"].tolist() == [0, 0]
    assert run.solver_flags == []


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


def _growth_rate(run, a):
    """The smallest C with ||u(t)||_a <= e^{C t} ||u(0)||_a on the records."""
    series, elapsed = run.norm_series(a), run.times
    return float(np.max(np.log(series[1:] / series[0]) / elapsed[1:]))


def test_energy_estimate_zero_for_plain_norm(quartic_reference_run):
    u0, run = quartic_reference_run
    assert abs(_growth_rate(run, 0)) <= 1e-6


def test_unrecorded_norm_order_names_the_recorded_ones(quartic_reference_run):
    _, run = quartic_reference_run
    recorded = [0] + [o.a for o in run.norm_orders]
    missing = max(recorded) + 1
    with pytest.raises(ConfigError, match=re.escape(f"norm order {missing} was not recorded; "
                                                    f"the run recorded orders {recorded}")):
        run.norm_series(missing)


def test_repeated_norm_order_is_rejected(quartic_256):
    """A run records each order once: a repeated one would write its
    norm_a<a> CSV column twice."""
    g, handle = quartic_256
    cfg = PropagatorConfig(dt=1e-2, t_final=2e-2, keep_states=False)
    u0 = gaussian_packet(g)
    with pytest.raises(ConfigError, match=r"^norm order 1 is given more than once$"):
        propagate(cfg, handle, u0, norm_orders=(1, handle.norm_order(1)))
    with pytest.raises(ConfigError, match="order a must be an integer"):
        propagate(cfg, handle, u0, norm_orders=(1.5,))


def test_energy_estimate_stable_under_refinement(quartic_256):
    g, handle = quartic_256
    u0 = gaussian_packet(g, center=1.0, width=0.8, momentum=0.5)
    rates = []
    for dt in (2e-3, 1e-3):
        cfg = PropagatorConfig(dt=dt, t_final=0.25, save_every=round(0.05 / dt),
                               keep_states=False)
        run = propagate(cfg, handle, u0, norm_orders=(1,))
        rates.append(_growth_rate(run, 1))
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
    assert rep.residual <= propagator.SOLVER_TOL
    assert err <= 10 * propagator.SOLVER_TOL


def test_lanczos_cap_reports_its_miss(quartic_256, quartic_dense_step):
    """A rough state needs more than the cap; the estimate says so."""
    g, handle = quartic_256
    t_mid, dt, exact = quartic_dense_step
    rng = np.random.default_rng(5)
    u = rng.standard_normal(g.N) + 1j * rng.standard_normal(g.N)
    cfg, out, rep = _krylov_step(handle, u, t_mid, dt, krylov_dim=24)
    err = np.linalg.norm(out - exact @ u) / np.linalg.norm(u)
    assert rep.iterations == cfg.krylov_dim
    assert rep.residual > propagator.SOLVER_TOL
    assert rep.residual >= err / 10


def test_capped_lanczos_run_warns_of_its_solver_misses(quartic_256):
    """Steps whose estimate misses SOLVER_TOL add one warning line:
    the first such step, and how many followed."""
    g, handle = quartic_256
    u0 = gaussian_packet(g, center=1.0, width=0.8, momentum=0.5)
    cfg = PropagatorConfig(scheme="lanczos_expmid", dt=1e-3, t_final=3e-3, krylov_dim=4,
                           keep_states=False)
    run = propagate(cfg, handle, u0)
    assert run.data["solver_residual"].max() > propagator.SOLVER_TOL
    (line,) = run.warnings
    assert line.startswith("solver residual")
    largest = run.data["solver_residual"].max()
    assert line.endswith(f"above solver_tol 1e-11 at t=0.001 (and 2 later steps, "
                         f"largest {largest:.3e})")


@pytest.mark.parametrize("name", ["confined_quartic", "harmonic"])
def test_cayley_run_carries_no_solver_warning(name):
    """GMRES and the dense inverse both meet SOLVER_TOL: no warning line."""
    g = make_grid(1, 10.0, 256)
    handle = HamiltonianHandle(get_family(name), g)
    u0 = gaussian_packet(g, center=1.0, width=0.8, momentum=0.5)
    run = propagate(PropagatorConfig(dt=1e-3, t_final=0.02, keep_states=False), handle, u0)
    assert run.data["solver_residual"].max() <= propagator.SOLVER_TOL
    assert run.warnings == []


@pytest.fixture
def quartic_direct_128():
    g = make_grid(1, 10.0, 128)
    handle = HamiltonianHandle(get_family("parametric_quartic"), g, rho=1.0)
    return g, handle, gaussian_packet(g, center=1.0, width=0.8, momentum=0.5)


def _counted_applies(handle, monkeypatch) -> list:
    """The shapes handle.apply is called on from now, calling through."""
    shapes, apply = [], handle.apply

    def counted(t, f):
        shapes.append(f.shape)
        return apply(t, f)

    monkeypatch.setattr(handle, "apply", counted)
    return shapes


def test_direct_residuals_are_bounded_by_the_inverse_defect(quartic_direct_128, monkeypatch):
    """Every step taken with the dense inverse has a kernel residual of at
    most the inverse's defect delta, which each record reports; the run
    makes one apply, on the stack of the inverse's columns, for delta."""
    g, handle, u0 = quartic_direct_128
    cfg = PropagatorConfig(dt=1e-3, t_final=0.2, save_every=50, keep_states=False)
    tau = 0.5 * cfg.dt
    inverse, delta = propagator._cayley_inverse(handle, 0.0, tau, None)
    u, residuals = u0.values.astype(complex), []
    for _ in range(cfg.n_steps):
        x = inverse @ u
        residuals.append(np.linalg.norm(x + 1j * tau * handle.apply(0.0, x) - u)
                         / np.linalg.norm(u))
        u = 2.0 * x - u
    # 1e-15 covers the rounding of the product inverse @ u
    assert max(residuals) <= delta + 1e-15
    applies = _counted_applies(handle, monkeypatch)
    run = propagate(cfg, handle, u0)
    assert applies == [(g.N, g.N)]
    assert run.data["solver_residual"][1:].tolist() == [delta] * 4
    assert run.data["solver_iterations"][1:].tolist() == [50] * 4


@pytest.mark.parametrize("run", [propagate, propagator.propagate_variational])
def test_direct_step_failure_names_its_own_step(quartic_direct_128, monkeypatch, run):
    """A dense inverse whose defect misses raises before the first step,
    and the error names that step."""
    g, handle, u0 = quartic_direct_128
    inv = propagator.inv
    monkeypatch.setattr(propagator, "inv", lambda *args, **kw: inv(*args, **kw) * (1 + 1e-9))
    cfg = PropagatorConfig(dt=1e-3, t_final=0.02, save_every=10)
    with pytest.raises(SolverError, match=r"Cayley solve stalled .* at step 1 \(t=0\.001\)"):
        run(cfg, handle, u0)


def test_lockstep_direct_residuals_are_bounded_by_the_inverse_defect(quartic_direct_128,
                                                                      monkeypatch):
    """The lockstep variational run takes a u and a w step with the dense
    inverse for each step: each of the 2 n_steps kernel residuals is at
    most its defect delta, both runs' records report delta, and the run
    makes one apply, on the stack of the inverse's columns, for delta."""
    g, handle, u0 = quartic_direct_128
    cfg = PropagatorConfig(dt=1e-3, t_final=0.05, save_every=20, keep_states=False)
    tau = 0.5 * cfg.dt
    inverse, delta = propagator._cayley_inverse(handle, 0.0, tau, None)

    def direct_step(state, b):
        x = inverse @ b
        residual = np.linalg.norm(x + 1j * tau * handle.apply(0.0, x) - b) / np.linalg.norm(b)
        return 2.0 * x - state, residual

    u, w, residuals = u0.values.astype(complex), np.zeros(g.shape, dtype=complex), []
    for n in range(cfg.n_steps):
        u_next, res_u = direct_step(u, u)
        t_mid = n * cfg.dt + 0.5 * cfg.dt
        f = handle.apply_rho_derivative(t_mid, 0.5 * (u + u_next))
        w, res_w = direct_step(w, w - 1j * tau * f)
        u = u_next
        residuals += [res_u, res_w]
    assert max(residuals) <= delta + 1e-15
    applies = _counted_applies(handle, monkeypatch)
    run_u, run_w = propagator.propagate_variational(cfg, handle, u0)
    assert applies == [(g.N, g.N)]
    for run in (run_u, run_w):
        assert run.data["solver_residual"][1:].tolist() == [delta] * 3
        assert run.data["solver_iterations"][1:].tolist() == [20, 20, 10]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tau=st.sampled_from([5e-4, 5e-3]),
       eps=st.sampled_from([None, 1 / 16]))
def test_inverse_defect_bounds_every_kernel_residual(parametric_128, seed, tau, eps):
    """For any b, x = inv b solves (I + i tau Op) x = b to within the
    inverse's defect delta, Op the kernel's H or X* H X."""
    g, handle, _ = parametric_128
    cutoff = PropagatorConfig(eps=eps).cutoff()
    inverse, delta = propagator._cayley_inverse(handle, 0.0, tau, cutoff)
    op = handle.apply if cutoff is None else partial(handle.apply_mollified, cutoff=cutoff)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(g.N) + 1j * rng.standard_normal(g.N)
    x = inverse @ b
    residual = np.linalg.norm(x + 1j * tau * op(0.0, x) - b) / np.linalg.norm(b)
    assert residual <= delta + 1e-15


@pytest.mark.parametrize("scheme, eps, name", [
    ("crank_nicolson_midpoint", None, "parametric_quartic"),   # direct
    ("crank_nicolson_midpoint", 0.5, "parametric_quartic"),    # direct, mollified
    ("crank_nicolson_midpoint", None, "confined_quartic"),     # GMRES
    ("lanczos_expmid", None, "confined_quartic"),
])
def test_run_frees_its_handle_without_the_cycle_collector(scheme, eps, name, monkeypatch):
    """The run's operator holds no reference cycle, so a direct run's dense
    inverse goes when the run returns, and a handle as soon as its last
    user drops it."""
    g = make_grid(1, 10.0, 64)
    u0 = gaussian_packet(g, center=1.0, width=0.8, momentum=0.5)
    cfg = PropagatorConfig(scheme=scheme, dt=1e-3, t_final=0.02, eps=eps)
    inverses, build = [], propagator._cayley_inverse

    def watched(*args):
        inverse, delta = build(*args)
        inverses.append(weakref.ref(inverse))
        return inverse, delta

    monkeypatch.setattr(propagator, "_cayley_inverse", watched)
    gc.disable()
    try:
        handle = HamiltonianHandle(get_family(name), g, rho=1.0)
        ref = weakref.ref(handle)
        propagate(cfg, handle, u0)
        assert len(inverses) == (name == "parametric_quartic")
        assert all(inverse() is None for inverse in inverses)
        del handle
        assert ref() is None
    finally:
        gc.enable()


def test_direct_run_warns_of_its_solver_misses(quartic_direct_128, monkeypatch):
    """A SOLVER_TOL just below the dense inverse's residuals, within the
    factor 50 that raises, flags the steps in one warning line."""
    g, handle, u0 = quartic_direct_128
    monkeypatch.setattr(propagator, "SOLVER_TOL", 1e-16)
    cfg = PropagatorConfig(dt=1e-3, t_final=0.05, save_every=10, keep_states=False)
    run = propagate(cfg, handle, u0)
    assert 1e-16 < run.data["solver_residual"].max() <= 50 * 1e-16
    (line,) = run.warnings
    assert line.startswith("solver residual")
    assert "above solver_tol 1e-16 at t=0.001" in line


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
    assert 0.0 < coarse.data["solver_residual"].max() <= propagator.SOLVER_TOL


def test_solver_failure_names_step_and_time(monkeypatch):
    """A Cayley solve that misses its tolerance says which step and time it was."""
    g = make_grid(1, 10.0, 128)
    handle = HamiltonianHandle(get_family("confined_quartic"), g)
    monkeypatch.setattr(propagator, "MAX_SOLVER_ITER", 1)
    monkeypatch.setattr(propagator, "SOLVER_TOL", 1e-16)
    cfg = PropagatorConfig(dt=1e-3, t_final=5e-3)
    u0 = gaussian_packet(g, center=1.0, width=0.8, momentum=0.5)
    with pytest.raises(SolverError,
                       match=r"Cayley solve stalled .* at step 1 \(t=0\.001\)"):
        propagate(cfg, handle, u0)


class _BlowUpHandle(HamiltonianHandle):
    """Harmonic operator that returns NaN from t = 0.005 on; time-dependent,
    since its apply depends on t."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.time_dependent = True

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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_gmres_blow_up_stops_at_the_non_finite_residual(monkeypatch):
    """A time-dependent flow blows up inside GMRES, which returns at once
    instead of iterating on NaN up to MAX_SOLVER_ITER."""
    estimates = []
    solve = propagator.gmres

    def counted_gmres(*args, callback, **kwargs):
        return solve(*args, callback=lambda res: estimates.append(res) or callback(res),
                     **kwargs)

    monkeypatch.setattr(propagator, "gmres", counted_gmres)
    g = make_grid(1, 10.0, 64)
    handle = _BlowUpHandle(get_family("confined_quartic"), g)
    with pytest.raises(SolverError, match=r"non-finite at step 6 \(t=0\.006\)"):
        propagate(PropagatorConfig(dt=1e-3, t_final=0.01), handle, gaussian_packet(g))
    assert np.isfinite(estimates).all()


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
    assert 0.0 < resid.max() <= 50 * propagator.SOLVER_TOL


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


def _counted(monkeypatch, name) -> list:
    """One entry per call of propagator.<name> from now, calling through."""
    calls, fn = [], getattr(propagator, name)
    monkeypatch.setattr(propagator, name,
                        lambda *args, **kwargs: calls.append(1) or fn(*args, **kwargs))
    return calls


@pytest.mark.parametrize("name, N", [
    ("confined_quartic", 128),                            # time-dependent
    ("parametric_quartic", 2 * propagator.DIRECT_MAX_N),  # above the cap
])
def test_gmres_still_steps_other_flows(name, N, monkeypatch):
    calls, inverses = _counted(monkeypatch, "gmres"), _counted(monkeypatch, "_cayley_inverse")
    g = make_grid(1, 10.0, N)
    fam = get_family(name)
    handle = HamiltonianHandle(fam, g, rho=1.0 if fam.rho_interval else 0.0)
    cfg = PropagatorConfig(dt=1e-3, t_final=5e-3, keep_states=False)
    propagate(cfg, handle, gaussian_packet(g, center=1.0, width=0.8))
    assert len(calls) == cfg.n_steps
    assert len(inverses) == 0


@pytest.mark.parametrize("run", [propagate, propagator.propagate_variational])
def test_direct_run_builds_one_inverse(quartic_direct_128, monkeypatch, run):
    """A direct run, plain or lockstep, builds its dense inverse once and
    takes no GMRES step."""
    g, handle, u0 = quartic_direct_128
    calls, inverses = _counted(monkeypatch, "gmres"), _counted(monkeypatch, "_cayley_inverse")
    run(PropagatorConfig(dt=1e-3, t_final=5e-3, keep_states=False), handle, u0)
    assert len(calls) == 0
    assert len(inverses) == 1


@pytest.mark.parametrize("tau, precondition", [
    (5e-4, True),    # the Cayley step of dt = 1e-3: a few iterations
    (3e-1, True),    # restarts: the inner test passes while the outer fails, and at 40
    (5e-3, False),   # unpreconditioned, several restarts
])
def test_gmres_matches_scipy_gmres(tau, precondition):
    """The package GMRES keeps scipy's stopping rule: from the same x0 = M b it
    returns the same solution after the same number of inner iterations."""
    from scipy.sparse.linalg import LinearOperator
    from scipy.sparse.linalg import gmres as scipy_gmres

    g = make_grid(1, 10.0, 128)
    handle = HamiltonianHandle(get_family("confined_quartic"), g)
    t = 0.3
    op = propagator._Operator(handle, PropagatorConfig(dt=2 * tau, t_final=2 * tau))
    psolve = propagator._Split(op, t) if precondition else None
    b = gaussian_packet(g, center=1.0, width=0.8, momentum=0.5).values

    def matvec(v):
        return v + 1j * tau * handle.apply(t, v)

    ours, theirs = [], []
    x, info, res = propagator.gmres(matvec, b, psolve, rtol=1e-11, maxiter=4000,
                                    callback=ours.append)
    as_op = lambda f: LinearOperator((g.N, g.N), matvec=f, dtype=complex)
    x_ref, info_ref = scipy_gmres(
        as_op(matvec), b, x0=psolve(b) if precondition else b, rtol=1e-11, atol=0.0,
        restart=40, maxiter=4000, M=as_op(psolve) if precondition else None,
        callback=theirs.append, callback_type="legacy")
    assert info == info_ref == 0
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert abs(len(ours) - len(theirs)) <= 1
    assert res == np.linalg.norm(b - matvec(x))


def test_gmres_callback_counts_inner_iterations(monkeypatch):
    """The callback fires once per inner iteration and its count is the
    solver_iterations column; a step applies H twice more (the residuals of
    x0 and of the result, nothing after gmres returns)."""
    g = make_grid(1, 10.0, 256)
    handle = HamiltonianHandle(get_family("confined_quartic"), g)
    counts = {"applies": 0, "callbacks": 0}
    apply = handle.apply

    def counted_apply(t, f):
        counts["applies"] += 1
        return apply(t, f)

    handle.apply = counted_apply
    solve = propagator.gmres

    def counted_gmres(*args, callback, **kwargs):
        def count(res):
            counts["callbacks"] += 1
            callback(res)
        return solve(*args, callback=count, **kwargs)

    monkeypatch.setattr(propagator, "gmres", counted_gmres)
    cfg = PropagatorConfig(dt=1e-3, t_final=0.02, keep_states=False)
    run = propagate(cfg, handle, gaussian_packet(g, center=1.0, width=0.8, momentum=0.5))
    iterations = run.data["solver_iterations"].sum()
    assert counts["callbacks"] == iterations
    assert counts["applies"] == iterations + 2 * cfg.n_steps


def test_gmres_happy_breakdown_solves_exactly(monkeypatch):
    """b spans two eigenvectors of a diagonal operator: the Krylov space is
    exhausted at k=2, where the breakdown stops the inner loop with the
    exact solution."""
    d = np.array([2.0, -3.0, 7.0, 8.0])
    b = np.array([2.0, 1.0, 0.0, 0.0], dtype=complex)
    rotations = []
    givens = propagator._givens

    def logged(f, h):
        rotations.append(h)
        return givens(f, h)

    monkeypatch.setattr(propagator, "_givens", logged)
    iters = []
    x, info, res = propagator.gmres(lambda v: d * v, b, None, rtol=1e-12, maxiter=100,
                                    callback=iters.append)
    assert rotations[-1] == 0  # the breakdown, not the tolerance, ended the cycle
    assert len(iters) == 2 and info == 0
    np.testing.assert_allclose(x, b / d, rtol=0, atol=1e-15)
    assert res <= 1e-15


def test_gmres_drops_a_zero_pivot():
    """A residual in the null space of A breaks down at once with a zero
    pivot: its term is dropped, x stays at x0 and the miss is reported."""
    d = np.array([0.0, 1.0, 2.0, 3.0])
    b = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)
    x, info, res = propagator.gmres(lambda v: d * v, b, None, rtol=1e-12, maxiter=100,
                                    callback=lambda _: None)
    assert info == 100
    np.testing.assert_array_equal(x, b)
    assert res == 1.0


@pytest.mark.parametrize("f, g", [(2 + 1j, 0j), (0j, 3 - 4j), (1 + 2j, 3j)])
def test_givens_rotation_zeroes_the_second_entry(f, g):
    c, s, r = propagator._givens(f, g)
    rot = np.array([[c, s], [-np.conj(s), c]])
    np.testing.assert_allclose(rot @ [f, g], [r, 0], rtol=0, atol=1e-15)
    assert abs(c) ** 2 + abs(s) ** 2 == pytest.approx(1.0, abs=1e-15)


def test_split_cayley_predictor_bounds_gmres_iterations():
    """The time-dependent N=512 flow of the norm_track benchmark, started from
    the split-step Cayley predictor and preconditioned by the gauge-twisted
    split, takes 3.98 GMRES iterations a step at dt = 1e-3 and 2.79 at
    dt/2.  Without the twist (the magnetic term left out of the kinetic
    factor) it took 5.13 and 3.91."""
    g = make_grid(1, 10.0, 512)
    handle = HamiltonianHandle(get_family("confined_quartic"), g)
    u0 = gaussian_packet(g, center=1.0, width=0.8, momentum=0.5)
    for dt, bound in ((1e-3, 4.5), (5e-4, 3.3)):
        cfg = PropagatorConfig(dt=dt, t_final=1.0, save_every=5, keep_states=False)
        run = propagate(cfg, handle, u0)
        assert run.data["solver_iterations"].sum() / cfg.n_steps <= bound


def _fused_case(name):
    """(handle, t) of a plain flow the split twists (or, without a field, does not)."""
    if name == "quartic_512":
        g = make_grid(1, 10.0, 512)
        return HamiltonianHandle(get_family("confined_quartic"), g), 0.3
    if name == "composite_32":
        g = make_grid(2, 10.0, 32)
        quartic = get_family("confined_quartic")
        system = TwoParticleSystem(quartic, quartic, get_interaction("soft_pair"), g)
        return TwoParticleHandle(system, rho=0.1), 0.3
    return HamiltonianHandle(get_family("harmonic"), make_grid(1, 6.0, 64)), 0.3


@pytest.mark.parametrize("name, twisted", [
    ("quartic_512", True), ("composite_32", True), ("harmonic_64", False),
])
def test_fused_operator_matches_preconditioned_matvec(name, twisted, rng):
    """The fused operator gmres iterates on is M A, with M the split's psolve."""
    handle, t = _fused_case(name)
    op = propagator._Operator(handle, PropagatorConfig(dt=1e-3))
    tau = op.tau
    split = propagator._Split(op, t)
    assert (split.twist is not None) == twisted
    shape = handle.grid.shape

    def matvec(v):
        v = v.reshape(shape)
        return (v + 1j * tau * handle.apply(t, v)).ravel()

    for _ in range(3):
        v = band_limited_state(handle.grid, rng).values.ravel()
        want = split(matvec(v))
        assert np.linalg.norm(split.fused(v) - want) <= 1e-13 * np.linalg.norm(want)


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


def test_initial_state_must_share_the_handle_grid():
    handle = HamiltonianHandle(get_family("harmonic"), make_grid(1, 10.0, 64))
    cfg = PropagatorConfig(dt=1e-3, t_final=1e-3)
    # a separately built equal grid is the same grid
    propagate(cfg, handle, gaussian_packet(make_grid(1, 10.0, 64)))
    with pytest.raises(ConfigError, match="different grids"):
        propagate(cfg, handle, gaussian_packet(make_grid(1, 8.0, 64)))


@pytest.mark.parametrize("dt", [1e-3, 4e-3])
def test_propagate_time_error_estimate_tracks_the_dt_over_4_gap(dt, tmp_path):
    """The Richardson estimate from the dt and dt/2 Crank-Nicolson runs lies
    within 2x of the gap between the dt run and a dt/4 run."""
    packet = {"center": 1.0, "width": 0.8, "momentum": 0.5}
    cfg = from_mapping({
        "family": "confined_quartic", "grid": {"L": 10.0, "N": 128}, "suites": ["propagate"],
        "options": {"propagate": {
            "propagator": {"scheme": "crank_nicolson_midpoint", "dt": dt, "t_final": 0.1,
                           "save_every": 5},
            "initial_state": packet}},
    })
    estimate = run_suite("propagate", cfg, str(tmp_path))["time_error_estimate"]
    handle = HamiltonianHandle(cfg.family, cfg.grid)
    u0 = gaussian_packet(cfg.grid, **packet)
    coarse, fine = (propagate(PropagatorConfig(dt=step_dt, t_final=0.1, save_every=5),
                              handle, u0).final for step_dt in (dt, dt / 4))
    gap = (coarse - fine).norm() / fine.norm()
    assert 0.5 <= estimate / gap <= 2.0


def test_default_propagate_time_error_estimate_tracks_the_dt_over_4_gap(tmp_path):
    """The same holds for the suite's default flow, the exponential midpoint
    rule at dt = 4e-3 on the L=6, N=256 box: a clean second order puts the
    ratio at 16/15."""
    cfg = from_mapping({"suites": ["propagate"],
                        "options": {"propagate": {"propagator": {"t_final": 0.1}}}})
    estimate = run_suite("propagate", cfg, str(tmp_path))["time_error_estimate"]
    handle = HamiltonianHandle(cfg.family, cfg.grid)
    u0 = gaussian_packet(cfg.grid, center=1.0, width=0.8, momentum=0.5)
    coarse, fine = (propagate(PropagatorConfig(scheme="lanczos_expmid", dt=step_dt,
                                               t_final=0.1, krylov_dim=40), handle, u0).final
                    for step_dt in (4e-3, 1e-3))
    gap = (coarse - fine).norm() / fine.norm()
    assert estimate / gap == pytest.approx(16 / 15, rel=1e-2)


def test_gauge_split_takes_the_field_into_the_kinetic_term():
    """H f = e^{i phi} K e^{-i phi} f + V_g f up to discretization error on a
    packet far from the box edge: 2.9e-6 relative for one particle at N=512
    and 5.7e-5 on the 128x128 composite grid, 4.5e-5 and 6.7e-5 when one
    of the two particles has no field.  With phi' = -A the 1-D split
    misses by 12 %.  Without a field on either particle phi is None and
    V_g = W + V_1 + V_2."""
    quartic, harm = get_family("confined_quartic"), get_family("harmonic")
    line, grid_1d = make_grid(1, 10.0, 128), make_grid(1, 10.0, 512)
    pair = [gaussian_packet(line, center=c, width=0.8, momentum=k).values
            for c, k in ((1.0, 0.5), (-1.0, -0.5))]
    grid_2d = make_grid(2, 10.0, 128)

    def composite(fam1, fam2):
        system = TwoParticleSystem(fam1, fam2, get_interaction("soft_pair"), grid_2d)
        return TwoParticleHandle(system, rho=0.1)

    cases = [
        (HamiltonianHandle(quartic, grid_1d),
         gaussian_packet(grid_1d, center=1.0, width=0.8, momentum=0.5).values, 1e-5),
        *((composite(*fams), np.outer(*pair), 3e-4)
          for fams in ((quartic, quartic), (quartic, harm), (harm, quartic))),
    ]
    for handle, f, bound in cases:
        g = handle.grid
        phi, v_g = handle.gauge_split(0.3)
        twist = np.exp(1j * phi)
        split = twist * g.ifft(handle.kinetic_multiplier * g.fft(f / twist)) + v_g * f
        exact = handle.apply(0.3, f)
        assert np.linalg.norm(split - exact) <= bound * np.linalg.norm(exact)
    free = composite(harm, harm)
    phi, v_g = free.gauge_split(0.3)
    v = eval_potential(harm, 0.3, 0.1, line)[0]
    w = free.system.interaction.on(0.3, 0.1, free.system.relative_coordinate)
    assert phi is None
    np.testing.assert_array_equal(v_g, w + v[:, None] + v[None, :])


def _lanczos_source_run(run):
    """run on a small harmonic flow with the lanczos_expmid scheme."""
    g = make_grid(1, 10.0, 32)
    handle, u0 = HamiltonianHandle(get_family("harmonic"), g), gaussian_packet(g)
    cfg = PropagatorConfig(scheme="lanczos_expmid", dt=1e-3, t_final=1e-3)
    if run is propagate_inhomogeneous:
        return run(cfg, handle, u0, lambda t: np.zeros(g.shape))
    return run(cfg, handle, u0)


@pytest.mark.parametrize("build, message", [
    (lambda: PropagatorConfig(t_final=0.0), "t_final must be positive"),
    (lambda: PropagatorConfig(t_final=-0.5), "t_final must be positive"),
    (lambda: PropagatorConfig(save_every=0), "save_every must be >= 1"),
    (lambda: PropagatorConfig(dt=True), "dt must be a finite number"),
    (lambda: _lanczos_source_run(propagate_inhomogeneous),
     "inhomogeneous runs need the crank_nicolson_midpoint scheme"),
    (lambda: _lanczos_source_run(propagator.propagate_variational),
     "inhomogeneous runs need the crank_nicolson_midpoint scheme"),
])
def test_propagator_rejections_name_the_field(build, message):
    with pytest.raises(ConfigError) as caught:
        build()
    assert str(caught.value) == message
