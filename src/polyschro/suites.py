"""Verification suites behind the CLI: each one checks a stability or
convergence property of the solver stack, writes its curves as CSV, and
returns a verdict.  Every verdict carries ``warnings``: one line for each
propagation whose boundary mass rose above ``propagator.BOUNDARY_TOL``,
naming the first such record, and one for each whose step residual rose
above ``propagator.SOLVER_TOL``, naming the first such step; a suite
that propagates nothing reports none.  The two_particle verdict adds one
line when the share of a coupled record's mass with |x1 - x2| >= L,
where the relative coordinate wraps, rose above ``BOUNDARY_TOL``.

A suite is a plan and a run.  Its options are the keyword-only
parameters of ``plan_<name>``, whose defaults reproduce the acceptance
thresholds.  The plan builds every input the run uses through the
constructors that validate them, and checks each rho the run steps
against the family's interval; it builds no dense matrix.  It returns
the run, which writes the files to its output directory and returns the
verdict.  ``config`` builds the plan to check an ``options.<name>``
section at load; ``run_suite`` builds it from that section, runs it,
and stamps the suite name on the verdict.  All floats serialize with 17
significant digits and no suite draws random numbers, so a fixed config
gives byte-identical artifacts.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import fields, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError
from .grid import SpatialGrid, WaveFunction, _finite, gaussian_packet, make_grid
from .operators import HamiltonianHandle
from .potentials import (
    BUILTIN_FAMILIES,
    BUILTIN_INTERACTIONS,
    get_family,
    validate_assumption,
    validate_interaction,
)
from .propagator import BOUNDARY_TOL, PropagatorConfig, propagate
from .report import write_csv
from .sensitivity import continuity_modulus, sensitivity_sweep, solve_variational
from .symbols import commutator_probe, parametrix_residual
from .twoparticle import TwoParticleHandle, TwoParticleSystem, product_state

if TYPE_CHECKING:
    from .config import ExperimentConfig

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


def initial_packet(grid: SpatialGrid, *, center=1.0, width=0.8,
                   momentum=0.5) -> WaveFunction:
    """The propagate suite's initial state; config ``initial_state`` overrides."""
    return gaussian_packet(grid, center=center, width=width, momentum=momentum)


# the keys of a propagator block and of an initial_state block (all but grid)
PROPAGATOR_KEYS = tuple(f.name for f in fields(PropagatorConfig))
INITIAL_STATE_KEYS = tuple(inspect.signature(initial_packet).parameters)[1:]


def check_block(value, keys) -> dict:
    """value as a mapping whose keys are all among keys; a ConfigError otherwise."""
    if not isinstance(value, dict):
        raise ConfigError(f"expected a mapping, got {type(value).__name__}")
    unknown = set(value) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown, key=str)}")
    return value


def _finite_number(value, name: str) -> float:
    """value as a float; a ConfigError unless it is a finite real number."""
    if not _finite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _sweep(values, name: str) -> tuple:
    """values as a tuple; a ConfigError when it is empty."""
    values = tuple(values)
    if not values:
        raise ConfigError(f"{name} must be nonempty")
    return values


# ---------------------------------------------------------------------------
# suites: each plan builds the inputs and returns the run that uses them


def plan_propagate(cfg: ExperimentConfig, *, propagator=None, initial_state=None,
                   norm_orders=(1, 2)):
    """Norm conservation and weighted-norm stability of one propagation.

    ``propagator`` and ``initial_state`` are merged over the config's
    top-level blocks of the same names.
    """
    prop = PropagatorConfig(**{"save_every": 20, "keep_states": False, **cfg.propagator,
                               **check_block(propagator or {}, PROPAGATOR_KEYS)})
    half_prop = replace(prop, dt=prop.dt / 2.0)
    u0 = initial_packet(cfg.grid, **{**cfg.initial_state,
                                     **check_block(initial_state or {}, INITIAL_STATE_KEYS)})
    handle = HamiltonianHandle(cfg.family, cfg.grid, rho=cfg.rho)
    orders = tuple(handle.norm_order(a) for a in norm_orders)

    def run(out_dir: str) -> dict:
        full = propagate(prop, handle, u0, norm_orders=orders)
        half = propagate(half_prop, handle, u0, norm_orders=orders)

        files = [_write_run(out_dir, "propagate_run.csv", full),
                 _write_run(out_dir, "propagate_run_half_dt.csv", half)]

        ratios, ratios_half, stable = {}, {}, True
        for order in orders:
            series, series_h = full.norm_series(order.a), half.norm_series(order.a)
            r = float(series.max() / series[0])
            rh = float(series_h.max() / series_h[0])
            ratios[f"a{order.a}"] = r
            ratios_half[f"a{order.a}"] = rh
            stable = stable and abs(rh / r - 1.0) <= STABILITY_TOL

        drift_ok = full.max_norm_drift <= DRIFT_TOL and half.max_norm_drift <= DRIFT_TOL
        # Richardson: the dt run's error for a second-order scheme, not gated
        time_error = 4.0 / 3.0 * (full.final - half.final).norm() / half.final.norm()
        return {
            "passed": bool(drift_ok and stable),
            "family": cfg.family.name,
            "max_norm_drift": full.max_norm_drift,
            "max_norm_drift_half_dt": half.max_norm_drift,
            "norm_growth_ratios": ratios,
            "norm_growth_ratios_half_dt": ratios_half,
            "weighted_norms_stable": bool(stable),
            "time_error_estimate": time_error,
            "max_boundary_mass": full.max_boundary_mass,
            "warnings": full.warnings + half.warnings,
            "files": files,
        }
    return run


def plan_eps_sweep(cfg: ExperimentConfig, *, family="harmonic", L=10.0, N=256,
                   width=1.0, dt=2.5e-3, t_final=0.125,
                   eps_values=(1.0, 0.5, 0.25, 0.125, 0.0625)):
    """Mollified-flow convergence: the gap to the plain flow shrinks in eps."""
    fam = get_family(family)
    grid = make_grid(1, L, N)
    u0 = gaussian_packet(grid, center=0.0, width=width, momentum=0.0)
    handle = HamiltonianHandle(fam, grid)
    prop = PropagatorConfig(dt=dt, t_final=t_final, save_every=10**9, keep_states=False)
    eps_values = _sweep(eps_values, "eps_values")
    mollified = [replace(prop, eps=eps) for eps in eps_values]

    def run(out_dir: str) -> dict:
        ref = propagate(prop, handle, u0)
        gaps, warnings = [], ref.warnings
        for moll in mollified:
            flow = propagate(moll, handle, u0)
            diff = WaveFunction(grid, flow.final.values - ref.final.values)
            gaps.append(diff.norm())
            warnings = warnings + flow.warnings

        files = [_write_csv(out_dir, "eps_sweep.csv", ["eps", "gap"],
                            list(zip(eps_values, gaps)))]
        decreasing = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
        final_ok = gaps[-1] <= GAP_TOL
        return {
            "passed": bool(decreasing and final_ok),
            "family": fam.name,
            "eps_values": [float(e) for e in eps_values],
            "gaps": gaps,
            "strictly_decreasing": bool(decreasing),
            "final_gap": gaps[-1],
            "warnings": warnings,
            "files": files,
        }
    return run


def plan_parametrix(cfg: ExperimentConfig, *, family="confined_quartic", L=10.0,
                    N=128, t=0.0, rho=0.0):
    """Residual decay of the approximate resolvent against the spectral shift."""
    fam = get_family(family)
    rho, t = fam.check_rho(rho), _finite_number(t, "t")
    grid = make_grid(1, L, N)

    def run(out_dir: str) -> dict:
        result = parametrix_residual(fam, grid, t=t, rho=rho)
        files = [_write_csv(out_dir, "parametrix_residuals.csv", ["mu", "excess", "residual"],
                            list(zip(result.mu_values, result.excess, result.residuals)))]
        slope_ok = abs(result.slope - SLOPE_TARGET) <= SLOPE_TOL
        monotone = result.residuals[-1] < result.residuals[0]
        return {
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
    return run


def plan_commutator(cfg: ExperimentConfig, *, family="confined_quartic", L=10.0,
                    N=128, t=3.0 * np.pi / 2.0, mu=0.5):
    """Uniform-in-eps bound of the cutoff/operator commutator."""
    fam = get_family(family)
    fam.check_rho(0.0)
    t, mu = _finite_number(t, "t"), _finite_number(mu, "mu")
    grid = make_grid(1, L, N)

    def run(out_dir: str) -> dict:
        result = commutator_probe(fam, grid, t=t, mu=mu)
        ratio = float(result.max_min_ratio)
        files = [_write_csv(out_dir, "commutator_bounds.csv", ["eps", "bound"],
                            list(zip(result.eps_values, result.bounds)))]
        return {
            "passed": ratio <= RATIO_LIMIT,
            "family": fam.name,
            "max_min_ratio": ratio,
            "ratio_limit": RATIO_LIMIT,
            "sup_bound": float(np.max(result.bounds)),
            "warnings": [],
            "files": files,
        }
    return run


def _parameter_flow(family, L, N, center, width, dt, t_final, rhos):
    """Family, initial packet and stepper of the sensitivity and continuity
    suites; each of rhos, the parameters the suite steps at, must lie in
    the family's interval."""
    fam = get_family(family)
    for r in rhos:
        fam.check_rho(r)
    u0 = gaussian_packet(make_grid(1, L, N), center=center, width=width, momentum=0.0)
    return fam, u0, PropagatorConfig(dt=dt, t_final=t_final, save_every=50, keep_states=False)


def plan_sensitivity(cfg: ExperimentConfig, *, family="parametric_quartic", L=10.0,
                     N=256, center=1.0, width=0.8, dt=1e-3, t_final=1.0, rho=1.0,
                     taus=(1e-1, 1e-2, 1e-3), rho_values=(0.5, 1.0, 2.0)):
    """Difference quotients versus the variational equation, plus constants."""
    taus, rho_values = _sweep(taus, "taus"), _sweep(rho_values, "rho_values")
    if 0 in taus:
        raise ConfigError("taus must be nonzero")
    shifted = (r for tau in taus for r in (rho + tau, rho - tau))
    fam, u0, prop = _parameter_flow(family, L, N, center, width, dt, t_final,
                                    (rho, *shifted, *rho_values))

    def run(out_dir: str) -> dict:
        sweep = sensitivity_sweep(fam, u0, rho, taus, prop, a=0)
        orders = sweep.observed_orders()
        judged = [o for o, d in zip(orders, sweep.discrepancies[1:]) if d > ORDER_FLOOR]
        order_ok = bool(judged) and all(o >= MIN_ORDER for o in judged)

        ratio = sweep.quotient_to_variational_ratio()
        ratio_ok = 1.0 / QUOTIENT_RATIO_LIMIT <= ratio <= QUOTIENT_RATIO_LIMIT

        u0_a1 = HamiltonianHandle(fam, u0.grid, rho=rho).norm_order(1).norm(u0)
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
                       list(zip(taus, sweep.quotient_norms, sweep.discrepancies))),
            _write_csv(out_dir, "sensitivity_constants.csv",
                       ["rho", "constant"],
                       list(zip(rho_values, constants))),
        ]
        return {
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
    return run


def plan_continuity(cfg: ExperimentConfig, *, family="parametric_quartic", L=10.0,
                    N=256, center=1.0, width=0.8, dt=1e-3, t_final=1.0, rho=1.0,
                    deltas=(1e-1, 1e-2, 1e-3)):
    """Continuity of the flow in the family parameter."""
    deltas = _sweep(deltas, "deltas")
    fam, u0, prop = _parameter_flow(family, L, N, center, width, dt, t_final,
                                    (rho, *(rho + delta for delta in deltas)))

    def run(out_dir: str) -> dict:
        curve = continuity_modulus(fam, u0, rho, deltas, prop, a=0)
        files = [_write_csv(out_dir, "continuity_modulus.csv",
                            ["delta", "modulus"], list(zip(deltas, curve.moduli)))]
        return {
            "passed": bool(curve.is_decreasing()),
            "family": fam.name,
            "rho": float(rho),
            "deltas": [float(d) for d in deltas],
            "moduli": [float(m) for m in curve.moduli],
            "warnings": curve.warnings,
            "files": files,
        }
    return run


def plan_two_particle(cfg: ExperimentConfig, *, family="confined_quartic", L=6.0,
                      N=128, rho=0.1, dt=2e-3, t_final=0.5, krylov_dim=40):
    """Composite-grid propagation: drift, primed norms, and factorization.

    The coupled flow (rho) and the free flow (rho = 0) on the composite
    grid, and the two particles' own flows on the line, all step by the
    exponential midpoint rule at one dt and krylov_dim.  The coupled run
    records every 25 steps (t = 0, 0.05, ... at the default dt) and keeps
    those states for the wrap mass: the share of each record's mass with
    |x1 - x2| >= L, where the interaction's relative coordinate wraps.
    The default box L = 6 holds the packets: their edge and wrap masses
    stay below BOUNDARY_TOL, and no step needs the full Krylov basis,
    which a larger box's stiffer potential would.
    """
    fam = get_family(family)
    grid1 = make_grid(1, L, N)
    system = TwoParticleSystem(fam, fam, cfg.interaction, make_grid(2, L, N))
    coupled = TwoParticleHandle(system, rho=rho)
    free = TwoParticleHandle(system, rho=0.0)
    handle1 = HamiltonianHandle(fam, grid1, rho=0.0)

    p1 = gaussian_packet(grid1, center=1.0, width=0.8, momentum=0.5)
    p2 = gaussian_packet(grid1, center=-1.0, width=0.8, momentum=-0.5)
    u0 = product_state(system.grid, p1, p2)

    prop = PropagatorConfig(scheme="lanczos_expmid", dt=dt, t_final=t_final,
                            krylov_dim=krylov_dim, save_every=25)
    final_only = replace(prop, save_every=10**9)
    x1, x2 = system.grid.mesh
    wrapped = np.abs(x1 - x2) >= system.grid.L

    def run(out_dir: str) -> dict:
        flow = propagate(prop, coupled, u0, norm_orders=(1,))
        free_flow = propagate(final_only, free, u0)
        r1 = propagate(final_only, handle1, p1)
        r2 = propagate(final_only, handle1, p2)
        tensor = np.outer(r1.final.values, r2.final.values)
        fact_err = WaveFunction(system.grid, free_flow.final.values - tensor).norm()

        density = np.abs(flow.states) ** 2
        wrap = density[:, wrapped].sum(axis=1) / density.sum(axis=(1, 2))
        n1 = flow.norm_series(1)
        files = [_write_run(out_dir, "two_particle_run.csv", flow)]
        drift_ok = flow.max_norm_drift <= DRIFT_TOL
        fact_ok = fact_err <= FACTORIZATION_TOL
        return {
            "passed": bool(drift_ok and fact_ok),
            "family": fam.name,
            "interaction": system.interaction.name,
            "rho": float(rho),
            "max_norm_drift": flow.max_norm_drift,
            "factorization_error": float(fact_err),
            "primed_norm_growth_ratio": float(n1.max() / n1[0]),
            "max_wrap_mass": float(wrap.max()),
            "warnings": (flow.warnings + _wrap_warning(wrap, flow.times)
                         + free_flow.warnings + r1.warnings + r2.warnings),
            "files": files,
        }
    return run


def _wrap_warning(wrap: np.ndarray, times: np.ndarray) -> list:
    """One line, in the form of a boundary-mass line, when a record's wrap
    mass rises above BOUNDARY_TOL: the first such record and how many followed."""
    flagged = np.flatnonzero(wrap > BOUNDARY_TOL)
    if not flagged.size:
        return []
    first, later = flagged[0], flagged.size - 1
    return [f"wrap mass {wrap[first]:.3e} above {BOUNDARY_TOL:g} at t={times[first]:.6g}"
            + (f" (and {later} later records)" if later else "")]


def plan_validate(cfg: ExperimentConfig, *, L=10.0, N=256):
    """Growth-assumption certificates for every builtin family."""
    grid = make_grid(1, L, N)

    def run(out_dir: str) -> dict:
        reports = [(name, validate_assumption(fam, grid))
                   for name, fam in BUILTIN_FAMILIES.items()]
        reports += [(f"interaction:{name}", validate_interaction(inter, L=L))
                    for name, inter in BUILTIN_INTERACTIONS.items()]
        verdicts = {name: bool(report.passed) for name, report in reports}
        rows = [[name, row["check"], row["exponent"], row["constant"], row["slope"], row["passed"]]
                for name, report in reports for row in report.rows()]
        files = [_write_csv(out_dir, "validate_bounds.csv",
                            ["family", "check", "exponent", "constant", "slope", "passed"],
                            rows)]
        return {
            "passed": all(verdicts.values()),
            "verdicts": verdicts,
            "warnings": [],
            "files": files,
        }
    return run


_SUITE_PLANS = {plan.__name__.removeprefix("plan_"): plan for plan in (
    plan_propagate, plan_eps_sweep, plan_parametrix, plan_commutator,
    plan_sensitivity, plan_continuity, plan_two_particle, plan_validate)}


def _suite(plan):
    """The suite of plan: (cfg, out_dir, **options) -> verdict."""
    return lambda cfg, out_dir, **options: plan(cfg, **options)(out_dir)


_SUITE_FUNCTIONS = {name: _suite(plan) for name, plan in _SUITE_PLANS.items()}


def suite_function(name: str):
    """The suite called name; a ConfigError naming the known suites otherwise."""
    try:
        return _SUITE_FUNCTIONS[name]
    except KeyError:
        raise ConfigError(
            f"unknown suite {name!r}; known: {', '.join(_SUITE_FUNCTIONS)}"
        ) from None


def run_suite(name: str, cfg: ExperimentConfig, out_dir: str) -> dict:
    """Run one suite with its config options and stamp its name on the verdict."""
    fn = suite_function(name)
    os.makedirs(out_dir, exist_ok=True)
    return {"suite": name, **fn(cfg, out_dir, **cfg.suite_options(name))}
