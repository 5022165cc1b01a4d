"""Parameter sensitivity of the flow: continuity moduli, difference
quotients in the family parameter, and the variational equation.

The derivative of the solution with respect to the parameter rho is
approached from two independent sides:

* difference quotients of full propagations at shifted parameters,
* the variational equation i dw/dt = H(t) w + (dH/drho) u(t), w(0) = 0,
  stepped in lockstep with its base flow on the same Crank-Nicolson
  schedule.

Their discrepancy, maximized over the recorded times, is the quantity
the convergence checks fit against the offset tau.  Trajectories are
``(records, *grid.shape)`` arrays, and each comparison takes one batched
norm of the stacked differences.  Each result carries the boundary and
solver warnings (``PropagationRun.warnings``) of the runs it made.
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


def _trajectory_cfg(cfg: PropagatorConfig) -> PropagatorConfig:
    """The same schedule, but guaranteed to retain states at record times."""
    if cfg.keep_states:
        return cfg
    return replace(cfg, keep_states=True)


# ---------------------------------------------------------------------------
# continuity in the parameter


@dataclass(frozen=True)
class ContinuityCurve:
    """max_t of the weighted distance between runs at rho and rho + delta."""

    rho: float
    a: int
    deltas: np.ndarray
    moduli: np.ndarray
    warnings: list

    def is_decreasing(self, floor: float = 1e-10) -> bool:
        """Monotone decrease, with entries at or below floor treated as converged."""
        m = self.moduli
        for i in range(len(m) - 1):
            if m[i + 1] >= m[i] and m[i + 1] > floor:
                return False
        return True

    def rows(self):
        return [
            {"delta": float(d), "modulus": float(v)}
            for d, v in zip(self.deltas, self.moduli)
        ]


def continuity_modulus(system, u0: WaveFunction, rho: float, deltas,
                       cfg: PropagatorConfig, a: int = 0) -> ContinuityCurve:
    """Distance curve delta -> max_t ||u(t; rho + delta) - u(t; rho)||_a.

    Each offset runs the full propagation at the shifted parameter; the
    states are compared at the recorded times of the shared schedule.
    """
    cfg = _trajectory_cfg(cfg)
    grid = u0.grid
    base_handle = _make_handle(system, grid, rho)
    order = base_handle.norm_order(a)
    base = propagate(cfg, base_handle, u0)

    moduli, warnings = [], base.warnings
    for delta in deltas:
        if delta == 0.0:
            moduli.append(0.0)
            continue
        run = propagate(cfg, _make_handle(system, grid, rho + delta), u0)
        warnings = warnings + run.warnings
        moduli.append(float(np.max(order.norm(run.states - base.states, grid))))
    return ContinuityCurve(
        rho=rho, a=a, deltas=np.asarray(list(deltas), dtype=float),
        moduli=np.asarray(moduli), warnings=warnings,
    )


# ---------------------------------------------------------------------------
# difference quotients


@dataclass(frozen=True)
class QuotientTrajectory:
    """One quotient (u(rho + tau) - u(rho or rho - tau)) / span on a schedule."""

    tau: float
    central: bool
    a: int
    times: np.ndarray
    values: np.ndarray
    norms: np.ndarray
    warnings: list

    @property
    def max_norm(self) -> float:
        return float(np.max(self.norms))


def difference_quotient(system, u0: WaveFunction, rho: float, tau: float,
                        cfg: PropagatorConfig, a: int = 0, central: bool = True,
                        base_run=None) -> QuotientTrajectory:
    """Quotient trajectory w_tau(t) from full propagations at shifted rho.

    The one-sided variant divides u(rho + tau) - u(rho) by tau and can
    reuse a cached base run; the central variant uses (u(rho + tau) -
    u(rho - tau)) / (2 tau).
    """
    if tau == 0.0:
        raise ConfigError("difference quotient needs tau != 0")
    cfg = _trajectory_cfg(cfg)
    grid = u0.grid
    order = _make_handle(system, grid, rho).norm_order(a)

    plus = propagate(cfg, _make_handle(system, grid, rho + tau), u0)
    if central:
        ref = propagate(cfg, _make_handle(system, grid, rho - tau), u0)
        span = 2.0 * tau
    elif base_run is None:
        ref = propagate(cfg, _make_handle(system, grid, rho), u0)
        span = tau
    else:
        ref, span = base_run, tau
        if ref.states is None or not np.array_equal(ref.times, plus.times):
            raise ConfigError("base_run must keep its states on the schedule of cfg")

    values = (plus.states - ref.states) / span
    return QuotientTrajectory(
        tau=tau, central=central, a=a, times=plus.times, values=values,
        norms=order.norm(values, grid),
        # a cached base run's warnings belong to its owner
        warnings=plus.warnings + (ref.warnings if ref is not base_run else []),
    )


# ---------------------------------------------------------------------------
# the variational equation


@dataclass(frozen=True)
class VariationalTrajectory:
    """w(t) from the variational equation, with its recorded norms."""

    rho: float
    a: int
    times: np.ndarray
    values: np.ndarray
    norms: np.ndarray
    warnings: list

    @property
    def max_norm(self) -> float:
        return float(np.max(self.norms))


def solve_variational(system, u0: WaveFunction, rho: float,
                      cfg: PropagatorConfig, a: int = 0) -> VariationalTrajectory:
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
    order = handle.norm_order(a)
    base, w_run = propagate_variational(_trajectory_cfg(cfg), handle, u0)
    return VariationalTrajectory(
        rho=rho, a=a, times=w_run.times, values=w_run.states,
        norms=order.norm(w_run.states, grid),
        warnings=base.warnings + w_run.warnings,
    )


# ---------------------------------------------------------------------------
# quotient-versus-variational comparison


@dataclass(frozen=True)
class SensitivityRun:
    """Quotient trajectories against the variational solution at one rho."""

    rho: float
    a: int
    taus: np.ndarray
    quotients: list
    variational: VariationalTrajectory
    discrepancies: np.ndarray
    warnings: list

    def observed_orders(self) -> np.ndarray:
        """Convergence order fitted between consecutive tau values."""
        d, t = self.discrepancies, self.taus
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(d[:-1] / d[1:]) / np.log(t[:-1] / t[1:])

    @property
    def max_quotient_norm(self) -> float:
        return float(max(q.max_norm for q in self.quotients))

    def quotient_to_variational_ratio(self) -> float:
        return self.max_quotient_norm / self.variational.max_norm

    def rows(self):
        out = []
        for q, disc in zip(self.quotients, self.discrepancies):
            out.append({
                "tau": float(q.tau),
                "max_quotient_norm": q.max_norm,
                "max_discrepancy": float(disc),
            })
        return out


def sensitivity_sweep(system, u0: WaveFunction, rho: float, taus,
                      cfg: PropagatorConfig, a: int = 0,
                      central: bool = True) -> SensitivityRun:
    """Difference quotients over a tau sweep against one variational solve."""
    grid = u0.grid
    variational = solve_variational(system, u0, rho, cfg, a=a)
    order = _make_handle(system, grid, rho).norm_order(a)

    base_run = None
    warnings = variational.warnings
    if not central:
        base_run = propagate(_trajectory_cfg(cfg), _make_handle(system, grid, rho), u0)
        warnings = warnings + base_run.warnings

    quotients, discrepancies = [], []
    for tau in taus:
        q = difference_quotient(
            system, u0, rho, tau, cfg, a=a, central=central, base_run=base_run,
        )
        quotients.append(q)
        discrepancies.append(float(np.max(order.norm(q.values - variational.values, grid))))
        warnings = warnings + q.warnings
    return SensitivityRun(
        rho=rho, a=a, taus=np.asarray(list(taus), dtype=float),
        quotients=quotients, variational=variational,
        discrepancies=np.asarray(discrepancies), warnings=warnings,
    )
