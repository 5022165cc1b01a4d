"""End-to-end acceptance checks.

Each test records exactly one verdict line,

    [criterion NN] PASS|FAIL: <measured quantities and bounds>

printed inside the test (visible with -s or on failure) and echoed in
the terminal summary so every line lands in the run log.  The heavy
propagations are shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest
from numpy.random import default_rng

import conftest

from polyschro import (
    HamiltonianHandle,
    PropagatorConfig,
    TwoParticleHandle,
    TwoParticleSystem,
    WaveFunction,
    commutator_probe,
    eval_symbol,
    gaussian_packet,
    get_family,
    get_interaction,
    make_grid,
    parametrix_residual,
    product_state,
    propagate,
    quantize_symbol,
    ramped_quartic_family,
    sensitivity_sweep,
    solve_variational,
    validate_assumption,
    validate_interaction,
)
SEED = 20260814


def _verdict(num: int, ok: bool, detail: str) -> str:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    return line


# ---------------------------------------------------------------------------
# shared heavy runs


@pytest.fixture(scope="module")
def quartic_512_runs():
    grid = make_grid(1, 10.0, 512)
    handle = HamiltonianHandle(get_family("confined_quartic"), grid)
    u0 = gaussian_packet(grid, center=1.0, width=0.8, momentum=0.5)
    started = time.perf_counter()
    run = propagate(
        PropagatorConfig(dt=1e-3, t_final=1.0, save_every=20, keep_states=False),
        handle, u0, norm_orders=(1, 2),
    )
    wall = time.perf_counter() - started
    half = propagate(
        PropagatorConfig(dt=5e-4, t_final=1.0, save_every=40, keep_states=False),
        handle, u0, norm_orders=(1, 2),
    )
    return run, half, wall


@pytest.fixture(scope="module")
def sensitivity_block():
    fam = get_family("parametric_quartic")
    grid = make_grid(1, 10.0, 256)
    u0 = gaussian_packet(grid, center=1.0, width=0.8)
    prop = PropagatorConfig(dt=1e-3, t_final=1.0, save_every=50, keep_states=False)
    sweep = sensitivity_sweep(fam, u0, 1.0, (1e-1, 1e-2, 1e-3), prop, a=0)
    u0_a1 = HamiltonianHandle(fam, grid, rho=1.0).norm_order(1).norm(u0)
    constants = [
        solve_variational(fam, u0, r, prop, a=0).max_norm / u0_a1
        for r in (0.5, 1.0, 2.0)
    ]
    return sweep, constants


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_norm_conservation(quartic_512_runs):
    run, half, wall = quartic_512_runs
    drift = run.max_norm_drift
    ok = drift <= 1e-7 and wall <= 30.0
    line = _verdict(1, ok, f"quartic N=512 dt=1e-3 T=1 l2 drift {drift:.3e} "
                           f"<= 1e-07, wall {wall:.1f}s <= 30s")
    assert ok, line


def test_criterion_02_weighted_norm_stability(quartic_512_runs):
    run, half, wall = quartic_512_runs
    devs = {}
    for a in (1, 2):
        full = run.norm_series(a)
        halved = half.norm_series(a)
        r = full.max() / full[0]
        rh = halved.max() / halved[0]
        devs[a] = abs(rh / r - 1.0)
    worst = max(devs.values())
    ok = worst <= 0.2
    line = _verdict(2, ok, "growth-ratio shift under dt/2: "
                           f"a=1 {devs[1]:.3e}, a=2 {devs[2]:.3e}, "
                           f"max {worst:.3e} <= 0.2")
    assert ok, line


def test_criterion_03_harmonic_ground_state_phase():
    grid = make_grid(1, 10.0, 512)
    handle = HamiltonianHandle(get_family("harmonic"), grid)
    u0 = gaussian_packet(grid, width=1.0)
    run = propagate(
        PropagatorConfig(dt=1e-3, t_final=1.0, save_every=10**9, keep_states=False),
        handle, u0,
    )
    err = float(np.max(np.abs(run.final.values - np.exp(-0.5j) * u0.values)))
    ok = err <= 1e-6
    line = _verdict(3, ok, f"ground-state phase error {err:.3e} <= 1e-06 "
                           "(N=512, dt=1e-3, T=1)")
    assert ok, line


def test_criterion_04_parametrix_residual_slope():
    grid = make_grid(1, 10.0, 128)
    started = time.perf_counter()
    result = parametrix_residual(get_family("confined_quartic"), grid,
                                 t=0.0, rho=0.0)
    wall = time.perf_counter() - started
    ok = abs(result.slope - (-0.5)) <= 0.15 and wall <= 120.0
    line = _verdict(4, ok, f"residual decay slope {result.slope:.4f} in "
                           f"-0.5 +/- 0.15, wall {wall:.1f}s <= 120s")
    assert ok, line


def test_criterion_05_commutator_uniform_in_eps():
    grid = make_grid(1, 10.0, 128)
    result = commutator_probe(get_family("confined_quartic"), grid,
                              t=1.5 * np.pi, mu=0.5)
    ladder_ok = (len(result.eps_values) == 7
                 and result.eps_values[0] == 1.0
                 and result.eps_values[-1] == 1.0 / 64.0)
    ratio = result.max_min_ratio
    ok = ladder_ok and ratio <= 10.0 and not result.diverged
    line = _verdict(5, ok, f"commutator bound spread {ratio:.3f} <= 10 over "
                           "eps in {1 .. 1/64}, exact operator 2-norms")
    assert ok, line


def test_criterion_06_mollified_flow_convergence():
    grid = make_grid(1, 10.0, 256)
    handle = HamiltonianHandle(get_family("harmonic"), grid)
    u0 = gaussian_packet(grid, width=1.0)
    base_cfg = PropagatorConfig(dt=2.5e-3, t_final=0.125, save_every=10**9,
                                keep_states=False)
    ref = propagate(base_cfg, handle, u0).final
    gaps = []
    for eps in (1.0, 0.5, 0.25, 0.125, 0.0625):
        cfg = PropagatorConfig(dt=2.5e-3, t_final=0.125, save_every=10**9,
                               keep_states=False, eps=eps)
        final = propagate(cfg, handle, u0).final
        gaps.append(WaveFunction(grid, final.values - ref.values).norm())
    decreasing = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    ok = decreasing and gaps[-1] <= 1e-3
    line = _verdict(6, ok, "mollified-flow gaps "
                           + " > ".join(f"{g:.2e}" for g in gaps)
                           + f"; strictly decreasing={decreasing}, "
                             f"final {gaps[-1]:.3e} <= 1e-03")
    assert ok, line


def test_criterion_07_quotient_order_and_constant_stability(sensitivity_block):
    sweep, constants = sensitivity_block
    orders = sweep.observed_orders()
    orders_ok = bool(np.all(orders >= 1.8))
    spread = max(constants) / min(constants)
    spread_ok = spread <= 1.5
    ok = orders_ok and spread_ok
    line = _verdict(7, ok, "central quotient orders "
                           + ", ".join(f"{o:.3f}" for o in orders)
                           + f" >= 1.8; constant spread over rho in "
                             f"{{0.5, 1, 2}}: {spread:.3f} <= 1.5")
    assert ok, line


def test_criterion_08_uniform_quotient_bound(sensitivity_block):
    sweep, constants = sensitivity_block
    ratio = sweep.quotient_to_variational_ratio()
    ok = 0.5 <= ratio <= 2.0
    line = _verdict(8, ok, f"sup-over-tau quotient / variational max "
                           f"{ratio:.4f} within [0.5, 2]")
    assert ok, line


def test_criterion_09_two_particle_drift_and_factorization():
    started = time.perf_counter()
    fam = get_family("confined_quartic")
    grid2 = make_grid(2, 10.0, 128)
    grid1 = make_grid(1, 10.0, 128)
    system = TwoParticleSystem(fam, fam, get_interaction("soft_pair"), grid2)
    p1 = gaussian_packet(grid1, center=1.0, width=0.8, momentum=0.5)
    p2 = gaussian_packet(grid1, center=-1.0, width=0.8, momentum=-0.5)
    u0 = product_state(grid2, p1, p2)

    cn = PropagatorConfig(dt=1e-3, t_final=0.5, save_every=50, keep_states=False)
    run = propagate(cn, TwoParticleHandle(system, rho=0.1), u0)
    drift = run.max_norm_drift

    lanczos = PropagatorConfig(scheme="lanczos_expmid", dt=1e-3, t_final=0.5,
                               save_every=10**9, keep_states=False, krylov_dim=32)
    free = propagate(lanczos, TwoParticleHandle(system, rho=0.0), u0)
    handle1 = HamiltonianHandle(fam, grid1)
    f1 = propagate(lanczos, handle1, p1).final.values
    f2 = propagate(lanczos, handle1, p2).final.values
    fact_err = WaveFunction(grid2, free.final.values - np.outer(f1, f2)).norm()
    wall = time.perf_counter() - started

    ok = drift <= 1e-7 and fact_err <= 1e-6 and wall <= 300.0
    line = _verdict(9, ok, f"128x128 T=0.5: l2 drift {drift:.3e} <= 1e-07, "
                           f"zero-coupling factorization error {fact_err:.3e} "
                           f"<= 1e-06, wall {wall:.0f}s <= 300s")
    assert ok, line


def test_criterion_10_quantization_and_operator_dense_oracles():
    grid = make_grid(1, 10.0, 64)
    fam = get_family("confined_quartic")
    t = 0.7
    rng = default_rng(SEED)

    # dense Kohn-Nirenberg matrix straight from the defining double sum
    sym = eval_symbol("h_s", fam, grid, t=t)
    dense_op = conftest.dense_quantization_matrix(grid, sym.values)

    q_err = 0.0
    for _ in range(20):
        v = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
        got = quantize_symbol(sym, WaveFunction(grid, v)).values
        q_err = max(q_err, np.max(np.abs(got - dense_op @ v))
                    / np.linalg.norm(v))

    # dense Hamiltonian assembled from closed-form fields and DFT matrices
    dense_h = conftest.dense_confined_quartic_hamiltonian(grid, t)

    handle = HamiltonianHandle(fam, grid)
    h_err = 0.0
    for _ in range(20):
        v = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
        got = handle.apply(t, v)
        h_err = max(h_err, np.max(np.abs(got - dense_h @ v))
                    / np.linalg.norm(v))

    ok = q_err <= 1e-10 and h_err <= 1e-10
    line = _verdict(10, ok, f"dense-oracle agreement at N=64, 20 vectors each: "
                            f"quantization {q_err:.3e} <= 1e-10, "
                            f"operator {h_err:.3e} <= 1e-10")
    assert ok, line


def test_criterion_11_growth_validators():
    grid = make_grid(1, 10.0, 256)
    verdicts = {}
    for name in ("harmonic", "confined_quartic", "parametric_quartic"):
        verdicts[name] = validate_assumption(get_family(name), grid).passed
    verdicts["soft_pair"] = validate_interaction(get_interaction("soft_pair"),
                                                 L=10.0).passed
    counterexample = validate_assumption(ramped_quartic_family(), grid)
    builtin_ok = all(verdicts.values())
    ok = builtin_ok and not counterexample.passed
    failed_labels = sorted({c.label for c in counterexample.failures})
    line = _verdict(11, ok, f"builtins all PASS={builtin_ok} "
                            f"({', '.join(sorted(verdicts))}); ramped "
                            f"counterexample FAILs on {failed_labels}")
    assert ok, line
