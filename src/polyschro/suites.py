"""Verification suites behind the CLI: each one checks a stability or
convergence property of the solver stack, writes its curves as CSV, and
returns a verdict.  Every verdict carries ``warnings``: one line for each
propagation whose boundary mass rose above its ``boundary_tol``, naming
the first such record; a suite that propagates nothing reports none.

Default parameters are frozen so that a bare run reproduces the
acceptance thresholds; every default can be overridden through the
config's per-suite options section.  All floats serialize with 17
significant digits and no suite draws random numbers, so a fixed config
gives byte-identical artifacts.
"""

from __future__ import annotations

import os

import numpy as np

from .config import SUITE_NAMES, ExperimentConfig
from .errors import ConfigError
from .grid import SpatialGrid, WaveFunction, gaussian_packet, make_grid
from .operators import HamiltonianHandle
from .potentials import (
    BUILTIN_FAMILIES,
    BUILTIN_INTERACTIONS,
    get_family,
    validate_assumption,
    validate_interaction,
)
from .propagator import PropagatorConfig, propagate
from .report import write_csv
from .sensitivity import continuity_modulus, sensitivity_sweep, solve_variational
from .symbols import commutator_probe, parametrix_residual
from .twoparticle import TwoParticleSystem, product_state, propagate_two_particle

DRIFT_TOL = 1e-7
STABILITY_TOL = 0.2
SLOPE_TARGET = -0.5
SLOPE_TOL = 0.15
RATIO_LIMIT = 10.0
GAP_TOL = 1e-3
ORDER_FLOOR = 1e-9
MIN_ORDER = 1.8
QUOTIENT_RATIO_LIMIT = 2.0
CONSTANT_SPREAD_LIMIT = 1.5
FACTORIZATION_TOL = 1e-6


def _write_csv(out_dir: str, name: str, header, rows) -> str:
    write_csv(os.path.join(out_dir, name), header, rows)
    return name


def _write_run(out_dir: str, name: str, run) -> str:
    run.to_csv(os.path.join(out_dir, name))
    return name


def _initial_state(grid: SpatialGrid, opts: dict) -> WaveFunction:
    return gaussian_packet(
        grid,
        center=opts.get("center", 1.0),
        width=opts.get("width", 0.8),
        momentum=opts.get("momentum", 0.5),
    )


def _propagator_cfg(base: dict, **overrides) -> PropagatorConfig:
    merged = {
        "scheme": "crank_nicolson_midpoint",
        "dt": 1e-3,
        "t_final": 1.0,
        "save_every": 20,
        "keep_states": False,
    }
    merged.update(base)
    merged.update(overrides)
    return PropagatorConfig(**merged)


# ---------------------------------------------------------------------------
# suites


def suite_propagate(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Norm conservation and weighted-norm stability of one propagation."""
    opts = cfg.suite_options("propagate")
    prop = _propagator_cfg(cfg.propagator, **opts.get("propagator", {}))
    grid = cfg.grid
    u0 = _initial_state(grid, {**cfg.initial_state, **opts.get("initial_state", {})})
    handle = HamiltonianHandle(cfg.family, grid, rho=cfg.rho)

    orders = tuple(opts.get("norm_orders", (1, 2)))
    run = propagate(prop, handle, u0, norm_orders=orders)
    half = propagate(
        _propagator_cfg(cfg.propagator, **opts.get("propagator", {}),
                        dt=prop.dt / 2.0),
        handle, u0, norm_orders=orders,
    )

    files = [_write_run(out_dir, "propagate_run.csv", run),
             _write_run(out_dir, "propagate_run_half_dt.csv", half)]

    ratios, ratios_half, stable = {}, {}, True
    for a in orders:
        series, series_h = run.norm_series(a), half.norm_series(a)
        r = float(series.max() / series[0])
        rh = float(series_h.max() / series_h[0])
        ratios[f"a{a}"] = r
        ratios_half[f"a{a}"] = rh
        stable = stable and abs(rh / r - 1.0) <= STABILITY_TOL

    drift_ok = run.max_norm_drift <= DRIFT_TOL and half.max_norm_drift <= DRIFT_TOL
    # Richardson: the dt run's error for a second-order scheme, not gated
    time_error = 4.0 / 3.0 * (run.final - half.final).norm() / half.final.norm()
    return {
        "suite": "propagate",
        "passed": bool(drift_ok and stable),
        "family": cfg.family.name,
        "max_norm_drift": run.max_norm_drift,
        "max_norm_drift_half_dt": half.max_norm_drift,
        "norm_growth_ratios": ratios,
        "norm_growth_ratios_half_dt": ratios_half,
        "weighted_norms_stable": bool(stable),
        "time_error_estimate": time_error,
        "max_boundary_mass": run.max_boundary_mass,
        "warnings": run.warnings + half.warnings,
        "files": files,
    }


def suite_eps_sweep(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Mollified-flow convergence: the gap to the plain flow shrinks in eps."""
    opts = cfg.suite_options("eps_sweep")
    fam = get_family(opts.get("family", "harmonic"))
    grid = make_grid(1, opts.get("L", 10.0), opts.get("N", 256))
    u0 = gaussian_packet(grid, center=0.0,
                         width=opts.get("width", 1.0), momentum=0.0)
    handle = HamiltonianHandle(fam, grid)
    prop = _propagator_cfg({}, dt=opts.get("dt", 2.5e-3),
                           t_final=opts.get("t_final", 0.125),
                           save_every=10**9)
    eps_values = tuple(opts.get("eps_values", (1.0, 0.5, 0.25, 0.125, 0.0625)))

    ref = propagate(prop, handle, u0)
    gaps, warnings = [], ref.warnings
    for eps in eps_values:
        moll = _propagator_cfg({}, dt=prop.dt, t_final=prop.t_final,
                               save_every=10**9, eps=eps,
                               cutoff_mu=opts.get("cutoff_mu", 0.0))
        run = propagate(moll, handle, u0)
        diff = WaveFunction(grid, run.final.values - ref.final.values)
        gaps.append(diff.norm())
        warnings = warnings + run.warnings

    files = [_write_csv(out_dir, "eps_sweep.csv", ["eps", "gap"],
                        list(zip(eps_values, gaps)))]
    decreasing = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    final_ok = gaps[-1] <= GAP_TOL
    return {
        "suite": "eps_sweep",
        "passed": bool(decreasing and final_ok),
        "family": fam.name,
        "eps_values": [float(e) for e in eps_values],
        "gaps": gaps,
        "strictly_decreasing": bool(decreasing),
        "final_gap": gaps[-1],
        "warnings": warnings,
        "files": files,
    }


def suite_parametrix(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Residual decay of the approximate resolvent against the spectral shift."""
    opts = cfg.suite_options("parametrix")
    fam = get_family(opts.get("family", "confined_quartic"))
    grid = make_grid(1, opts.get("L", 10.0), opts.get("N", 128))
    result = parametrix_residual(
        fam, grid,
        t=opts.get("t", 0.0),
        rho=opts.get("rho", 0.0),
    )
    files = [_write_csv(
        out_dir, "parametrix_residuals.csv",
        ["mu", "excess", "residual"],
        list(zip(result.mu_values, result.excess, result.residuals)),
    )]
    slope_ok = abs(result.slope - SLOPE_TARGET) <= SLOPE_TOL
    monotone = result.residuals[-1] < result.residuals[0]
    return {
        "suite": "parametrix",
        "passed": bool(slope_ok and monotone),
        "family": fam.name,
        "slope": float(result.slope),
        "slope_window": [SLOPE_TARGET - SLOPE_TOL, SLOPE_TARGET + SLOPE_TOL],
        "monotone_decrease": bool(monotone),
        "c0": float(result.scan.c0),
        "c1": float(result.scan.c1),
        "mu_min": float(result.scan.mu_min),
        "warnings": [],
        "files": files,
    }


def suite_commutator(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Uniform-in-eps bound of the cutoff/operator commutator."""
    opts = cfg.suite_options("commutator")
    fam = get_family(opts.get("family", "confined_quartic"))
    grid = make_grid(1, opts.get("L", 10.0), opts.get("N", 128))
    result = commutator_probe(
        fam, grid,
        t=opts.get("t", 3.0 * np.pi / 2.0),
        mu=opts.get("mu", 0.5),
    )
    files = [_write_csv(
        out_dir, "commutator_bounds.csv",
        ["eps", "bound"],
        list(zip(result.eps_values, result.bounds)),
    )]
    return {
        "suite": "commutator",
        "passed": bool(not result.diverged),
        "family": fam.name,
        "max_min_ratio": float(result.max_min_ratio),
        "ratio_limit": RATIO_LIMIT,
        "sup_bound": float(np.max(result.bounds)),
        "warnings": [],
        "files": files,
    }


def suite_sensitivity(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Difference quotients versus the variational equation, plus constants."""
    opts = cfg.suite_options("sensitivity")
    fam = get_family(opts.get("family", "parametric_quartic"))
    grid = make_grid(1, opts.get("L", 10.0), opts.get("N", 256))
    u0 = gaussian_packet(grid, center=opts.get("center", 1.0),
                         width=opts.get("width", 0.8), momentum=0.0)
    prop = _propagator_cfg({}, dt=opts.get("dt", 1e-3),
                           t_final=opts.get("t_final", 1.0), save_every=50)
    rho = opts.get("rho", 1.0)
    taus = tuple(opts.get("taus", (1e-1, 1e-2, 1e-3)))

    sweep = sensitivity_sweep(fam, u0, rho, taus, prop, a=0, central=True)
    orders = sweep.observed_orders()
    judged = [o for o, d in zip(orders, sweep.discrepancies[1:]) if d > ORDER_FLOOR]
    order_ok = bool(judged) and all(o >= MIN_ORDER for o in judged)

    ratio = sweep.quotient_to_variational_ratio()
    ratio_ok = 1.0 / QUOTIENT_RATIO_LIMIT <= ratio <= QUOTIENT_RATIO_LIMIT

    rho_values = tuple(opts.get("rho_values", (0.5, 1.0, 2.0)))
    u0_a1 = HamiltonianHandle(fam, grid, rho=rho).norm_order(1).norm(u0)
    constants, warnings = [], sweep.warnings
    for r in rho_values:
        # the sweep already solved the variational equation at its own rho
        if r == rho:
            var = sweep.variational
        else:
            var = solve_variational(fam, u0, r, prop, a=0)
            warnings = warnings + var.warnings
        constants.append(var.max_norm / u0_a1)
    spread = max(constants) / min(constants)
    spread_ok = spread <= CONSTANT_SPREAD_LIMIT

    files = [
        _write_csv(out_dir, "sensitivity_quotients.csv",
                   ["tau", "max_quotient_norm", "max_discrepancy"],
                   [[r["tau"], r["max_quotient_norm"], r["max_discrepancy"]]
                    for r in sweep.rows()]),
        _write_csv(out_dir, "sensitivity_constants.csv",
                   ["rho", "constant"],
                   list(zip(rho_values, constants))),
    ]
    return {
        "suite": "sensitivity",
        "passed": bool(order_ok and ratio_ok and spread_ok),
        "family": fam.name,
        "rho": float(rho),
        "taus": [float(t) for t in taus],
        "discrepancies": [float(d) for d in sweep.discrepancies],
        "observed_orders": [float(o) for o in orders],
        "orders_ok": bool(order_ok),
        "quotient_to_variational_ratio": float(ratio),
        "uniform_quotient_ok": bool(ratio_ok),
        "constants": [float(c) for c in constants],
        "constant_spread": float(spread),
        "constants_stable": bool(spread_ok),
        "warnings": warnings,
        "files": files,
    }


def suite_continuity(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Continuity of the flow in the family parameter."""
    opts = cfg.suite_options("continuity")
    fam = get_family(opts.get("family", "parametric_quartic"))
    grid = make_grid(1, opts.get("L", 10.0), opts.get("N", 256))
    u0 = gaussian_packet(grid, center=opts.get("center", 1.0),
                         width=opts.get("width", 0.8), momentum=0.0)
    prop = _propagator_cfg({}, dt=opts.get("dt", 1e-3),
                           t_final=opts.get("t_final", 1.0), save_every=50)
    rho = opts.get("rho", 1.0)
    deltas = tuple(opts.get("deltas", (1e-1, 1e-2, 1e-3)))

    curve = continuity_modulus(fam, u0, rho, deltas, prop, a=0)
    files = [_write_csv(out_dir, "continuity_modulus.csv",
                        ["delta", "modulus"],
                        [[r["delta"], r["modulus"]] for r in curve.rows()])]
    return {
        "suite": "continuity",
        "passed": bool(curve.is_decreasing()),
        "family": fam.name,
        "rho": float(rho),
        "deltas": [float(d) for d in deltas],
        "moduli": [float(m) for m in curve.moduli],
        "warnings": curve.warnings,
        "files": files,
    }


def suite_two_particle(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Composite-grid propagation: drift, primed norms, and factorization."""
    opts = cfg.suite_options("two_particle")
    fam = get_family(opts.get("family", "confined_quartic"))
    inter = cfg.interaction
    N = opts.get("N", 128)
    L = opts.get("L", 10.0)
    grid2 = make_grid(2, L, N)
    grid1 = make_grid(1, L, N)
    system = TwoParticleSystem(fam, fam, inter, grid2)

    p1 = gaussian_packet(grid1, center=1.0, width=0.8, momentum=0.5)
    p2 = gaussian_packet(grid1, center=-1.0, width=0.8, momentum=-0.5)
    u0 = product_state(grid2, p1, p2)

    rho = opts.get("rho", 0.1)
    prop = _propagator_cfg({}, dt=opts.get("dt", 1e-3),
                           t_final=opts.get("t_final", 0.5), save_every=50)
    run = propagate_two_particle(system, prop, u0, norm_orders=(1,), rho=rho)

    lanczos = _propagator_cfg({}, scheme="lanczos_expmid",
                              dt=opts.get("factorization_dt", 1e-3),
                              t_final=prop.t_final, save_every=10**9,
                              krylov_dim=opts.get("krylov_dim", 32))
    free = propagate_two_particle(system, lanczos, u0, rho=0.0)
    handle1 = HamiltonianHandle(fam, grid1, rho=0.0)
    r1 = propagate(lanczos, handle1, p1)
    r2 = propagate(lanczos, handle1, p2)
    tensor = np.outer(r1.final.values, r2.final.values)
    fact_err = WaveFunction(grid2, free.final.values - tensor).norm()

    n1 = run.norm_series(1)
    files = [_write_run(out_dir, "two_particle_run.csv", run)]
    drift_ok = run.max_norm_drift <= DRIFT_TOL
    fact_ok = fact_err <= FACTORIZATION_TOL
    return {
        "suite": "two_particle",
        "passed": bool(drift_ok and fact_ok),
        "family": fam.name,
        "interaction": inter.name,
        "rho": float(rho),
        "max_norm_drift": run.max_norm_drift,
        "factorization_error": float(fact_err),
        "primed_norm_growth_ratio": float(n1.max() / n1[0]),
        "warnings": run.warnings + free.warnings + r1.warnings + r2.warnings,
        "files": files,
    }


def suite_validate(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Growth-assumption certificates for every builtin family."""
    opts = cfg.suite_options("validate")
    grid = make_grid(1, opts.get("L", 10.0), opts.get("N", 256))
    rows, verdicts = [], {}
    for name, fam in BUILTIN_FAMILIES.items():
        report = validate_assumption(fam, grid)
        verdicts[name] = report.passed
        for row in report.rows():
            rows.append([name, row["check"], row["exponent"], row["constant"],
                         row["slope"], row["passed"]])
    for name, inter in BUILTIN_INTERACTIONS.items():
        report = validate_interaction(inter, L=opts.get("L", 10.0))
        verdicts[f"interaction:{name}"] = report.passed
        for row in report.rows():
            rows.append([f"interaction:{name}", row["check"], row["exponent"],
                         row["constant"], row["slope"], row["passed"]])
    files = [_write_csv(out_dir, "validate_bounds.csv",
                        ["family", "check", "exponent", "constant", "slope", "passed"],
                        rows)]
    return {
        "suite": "validate",
        "passed": bool(all(verdicts.values())),
        "verdicts": {k: bool(v) for k, v in verdicts.items()},
        "warnings": [],
        "files": files,
    }


_SUITE_FUNCTIONS = {
    "propagate": suite_propagate,
    "eps_sweep": suite_eps_sweep,
    "parametrix": suite_parametrix,
    "commutator": suite_commutator,
    "sensitivity": suite_sensitivity,
    "continuity": suite_continuity,
    "two_particle": suite_two_particle,
    "validate": suite_validate,
}


def run_suite(name: str, cfg: ExperimentConfig, out_dir: str) -> dict:
    """Dispatch one suite by name; see SUITE_NAMES for the catalog."""
    try:
        fn = _SUITE_FUNCTIONS[name]
    except KeyError:
        raise ConfigError(
            f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}"
        ) from None
    os.makedirs(out_dir, exist_ok=True)
    return fn(cfg, out_dir)
