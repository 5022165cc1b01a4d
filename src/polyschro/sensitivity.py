"""Parameter sensitivity of the flow: continuity moduli, central
difference quotients in the family parameter, and the variational
equation.

The derivative of the solution with respect to the parameter rho is
approached from two independent sides:

* central difference quotients (u(rho + tau) - u(rho - tau)) / (2 tau)
  of full propagations at shifted parameters,
* the variational equation i dw/dt = H(t) w + (dH/drho) u(t), w(0) = 0,
  stepped in lockstep with its base flow on the same Crank-Nicolson
  schedule.

Their discrepancy, maximized over the recorded times, is the quantity
the convergence checks fit against the offset tau.  Both sides are a
``Trajectory``: ``(records, *grid.shape)`` values with their weighted
norms, and each comparison takes one batched norm of the stacked
differences.  Each result carries the boundary and solver warnings
(``PropagationRun.warnings``) of the runs it made.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .grid import WaveFunction
from .operators import HamiltonianHandle
from .propagator import PropagatorConfig, propagate, propagate_variational
from .propagator import propagate_inhomogeneous  # unused here; perfbench/tracer.py wraps this name
from .twoparticle import TwoParticleHandle, TwoParticleSystem


def _make_handle(system, grid, rho: float):
    """Bind (system, rho) to an operator handle.

    Accepts a single-particle PotentialFamily or a TwoParticleSystem, so
    every entry point below works for both.
    """
    if isinstance(system, TwoParticleSystem):
        return TwoParticleHandle(system, rho=rho)
    return HamiltonianHandle(system, grid, rho=rho)


def _run(system, u0: WaveFunction, rho: float, cfg: PropagatorConfig):
    """Propagate u0 at rho on cfg's schedule, keeping the recorded states."""
    return propagate(replace(cfg, keep_states=True), _make_handle(system, u0.grid, rho), u0)


@dataclass(frozen=True)
class Trajectory:
    """Recorded values of a quotient or variational solution, with their norms."""

    times: np.ndarray
    values: np.ndarray
    norms: np.ndarray
    warnings: list

    @property
    def max_norm(self) -> float:
        return float(np.max(self.norms))


# ---------------------------------------------------------------------------
# continuity in the parameter


@dataclass(frozen=True)
class ContinuityCurve:
    """max_t of the weighted distance between runs at rho and rho + delta."""

    deltas: np.ndarray
    moduli: np.ndarray
    warnings: list

    def is_decreasing(self) -> bool:
        """Monotone decrease, with entries at or below 1e-10 treated as converged."""
        m = self.moduli
        for i in range(len(m) - 1):
            if m[i + 1] >= m[i] and m[i + 1] > 1e-10:
                return False
        return True


def continuity_modulus(system, u0: WaveFunction, rho: float, deltas,
                       cfg: PropagatorConfig, a: int = 0) -> ContinuityCurve:
    """Distance curve delta -> max_t ||u(t; rho + delta) - u(t; rho)||_a.

    Each offset runs the full propagation at the shifted parameter; the
    states are compared at the recorded times of the shared schedule.
    """
    grid = u0.grid
    order = _make_handle(system, grid, rho).norm_order(a)
    base = _run(system, u0, rho, cfg)

    moduli, warnings = [], base.warnings
    for delta in deltas:
        if delta == 0.0:
            moduli.append(0.0)
            continue
        run = _run(system, u0, rho + delta, cfg)
        warnings = warnings + run.warnings
        moduli.append(float(np.max(order.norm(run.states - base.states, grid))))
    return ContinuityCurve(
        deltas=np.asarray(list(deltas), dtype=float),
        moduli=np.asarray(moduli), warnings=warnings,
    )


# ---------------------------------------------------------------------------
# difference quotients and the variational equation


def difference_quotient(system, u0: WaveFunction, rho: float, tau: float,
                        cfg: PropagatorConfig, a: int = 0) -> Trajectory:
    """Central quotient (u(rho + tau) - u(rho - tau)) / (2 tau) from full
    propagations at the shifted parameters."""
    if tau == 0.0:
        raise ConfigError("difference quotient needs tau != 0")
    grid = u0.grid
    order = _make_handle(system, grid, rho).norm_order(a)
    plus = _run(system, u0, rho + tau, cfg)
    minus = _run(system, u0, rho - tau, cfg)
    values = (plus.states - minus.states) / (2.0 * tau)
    return Trajectory(times=plus.times, values=values, norms=order.norm(values, grid),
                      warnings=plus.warnings + minus.warnings)


def solve_variational(system, u0: WaveFunction, rho: float,
                      cfg: PropagatorConfig, a: int = 0) -> Trajectory:
    """Integrate i dw/dt = H w + (dH/drho) u(t), w(0) = 0.

    The base state u(t; rho) steps in lockstep with w
    (``propagate_variational``): the source of each step is the parameter
    derivative of the operator applied to the mean of the step's two base
    states, so w is the rho-derivative of the discrete flow, and the
    comparison against difference quotients is floor-limited only by the
    scheme order.  Only w's states are kept, at the record times.
    """
    grid = u0.grid
    handle = _make_handle(system, grid, rho)
    base, w_run = propagate_variational(replace(cfg, keep_states=True), handle, u0)
    return Trajectory(times=w_run.times, values=w_run.states,
                      norms=handle.norm_order(a).norm(w_run.states, grid),
                      warnings=base.warnings + w_run.warnings)


# ---------------------------------------------------------------------------
# quotient-versus-variational comparison


@dataclass(frozen=True)
class SensitivityRun:
    """Quotient trajectories against the variational solution at one rho."""

    taus: np.ndarray
    quotients: list
    variational: Trajectory
    discrepancies: np.ndarray
    warnings: list

    def observed_orders(self) -> np.ndarray:
        """Convergence order fitted between consecutive tau values."""
        d, t = self.discrepancies, self.taus
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(d[:-1] / d[1:]) / np.log(t[:-1] / t[1:])

    @property
    def quotient_norms(self) -> np.ndarray:
        """max_t of each quotient's norm, one entry per tau."""
        return np.array([q.max_norm for q in self.quotients])

    def quotient_to_variational_ratio(self) -> float:
        return float(np.max(self.quotient_norms)) / self.variational.max_norm


def sensitivity_sweep(system, u0: WaveFunction, rho: float, taus,
                      cfg: PropagatorConfig, a: int = 0) -> SensitivityRun:
    """Central difference quotients over a tau sweep against one variational solve."""
    grid = u0.grid
    variational = solve_variational(system, u0, rho, cfg, a=a)
    order = _make_handle(system, grid, rho).norm_order(a)

    quotients, discrepancies, warnings = [], [], variational.warnings
    for tau in taus:
        q = difference_quotient(system, u0, rho, tau, cfg, a=a)
        quotients.append(q)
        discrepancies.append(float(np.max(order.norm(q.values - variational.values, grid))))
        warnings = warnings + q.warnings
    return SensitivityRun(
        taus=np.asarray(list(taus), dtype=float), quotients=quotients,
        variational=variational, discrepancies=np.asarray(discrepancies),
        warnings=warnings,
    )
