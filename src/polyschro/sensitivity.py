"""Parameter sensitivity of the flow: continuity moduli, difference
quotients in the family parameter, and the variational equation.

The derivative of the solution with respect to the parameter rho is
approached from two independent sides:

* difference quotients of full propagations at shifted parameters,
* the variational equation i dw/dt = H(t) w + (dH/drho) u(t), w(0) = 0,
  integrated with the same Crank-Nicolson schedule as the base flow.

Their discrepancy, maximized over the recorded times, is the quantity
the convergence checks fit against the offset tau.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .grid import WaveFunction
from .operators import HamiltonianHandle
from .propagator import PropagatorConfig, propagate, propagate_inhomogeneous


def _make_handle(system, grid, rho: float):
    """Bind (system, rho) to an operator handle.

    Accepts a single-particle PotentialFamily or a two-particle composite
    system (recognized by its interaction attribute), so every entry point
    below works for both.
    """
    if hasattr(system, "interaction"):
        from .twoparticle import TwoParticleHandle

        if grid is not None and grid.shape != system.grid.shape:
            raise ConfigError("state grid does not match the composite grid")
        return TwoParticleHandle(system, rho=rho)
    return HamiltonianHandle(system, grid, rho=rho)


def _trajectory_cfg(cfg: PropagatorConfig) -> PropagatorConfig:
    """The same schedule, but guaranteed to retain states at record times."""
    if cfg.keep_states:
        return cfg
    return replace(cfg, keep_states=True)


def _recorded_states(run):
    times = np.array([t for t, _ in run.states])
    values = [v for _, v in run.states]
    return times, values


# ---------------------------------------------------------------------------
# continuity in the parameter


@dataclass(frozen=True)
class ContinuityCurve:
    """max_t of the weighted distance between runs at rho and rho + delta."""

    rho: float
    a: int
    deltas: np.ndarray
    moduli: np.ndarray

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
    _, base_states = _recorded_states(base)

    moduli = []
    for delta in deltas:
        if delta == 0.0:
            moduli.append(0.0)
            continue
        run = propagate(cfg, _make_handle(system, grid, rho + delta), u0)
        _, states = _recorded_states(run)
        gap = max(
            order.norm(WaveFunction(grid, sv - bv))
            for sv, bv in zip(states, base_states)
        )
        moduli.append(float(gap))
    return ContinuityCurve(
        rho=rho, a=a, deltas=np.asarray(list(deltas), dtype=float),
        moduli=np.asarray(moduli),
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
    values: list
    norms: np.ndarray

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
    t_plus, s_plus = _recorded_states(plus)
    if central:
        minus = propagate(cfg, _make_handle(system, grid, rho - tau), u0)
        _, s_ref = _recorded_states(minus)
        span = 2.0 * tau
    else:
        if base_run is None:
            base_run = propagate(cfg, _make_handle(system, grid, rho), u0)
        _, s_ref = _recorded_states(base_run)
        span = tau

    values = [(pv - rv) / span for pv, rv in zip(s_plus, s_ref)]
    norms = np.array([order.norm(WaveFunction(grid, v)) for v in values])
    return QuotientTrajectory(
        tau=tau, central=central, a=a, times=t_plus, values=values, norms=norms,
    )


# ---------------------------------------------------------------------------
# the variational equation


@dataclass(frozen=True)
class VariationalTrajectory:
    """w(t) from the variational equation, with its recorded norms."""

    rho: float
    a: int
    times: np.ndarray
    values: list
    norms: np.ndarray

    @property
    def max_norm(self) -> float:
        return float(np.max(self.norms))


def solve_variational(system, u0: WaveFunction, rho: float,
                      cfg: PropagatorConfig, a: int = 0) -> VariationalTrajectory:
    """Integrate i dw/dt = H w + (dH/drho) u(t), w(0) = 0.

    The base state u(t; rho) is propagated first on a step-dense schedule;
    the source at each half step is the parameter derivative of the
    operator applied to the linear interpolant of the two bracketing
    states.  Both solves share one step size, so the comparison against
    difference quotients is floor-limited only by the scheme order.
    """
    grid = u0.grid
    handle = _make_handle(system, grid, rho)
    order = handle.norm_order(a)

    dense = replace(cfg, save_every=1, keep_states=True)
    _, base_states = _recorded_states(propagate(dense, handle, u0))

    def source(t_mid):
        pos = (t_mid - cfg.t0) / cfg.dt - 0.5
        n = int(round(pos))
        u_mid = 0.5 * (base_states[n] + base_states[n + 1])
        return handle.apply_rho_derivative(t_mid, u_mid)

    zero = WaveFunction(grid, np.zeros(grid.shape, dtype=complex))
    w_run = propagate_inhomogeneous(_trajectory_cfg(cfg), handle, zero, source)
    times, values = _recorded_states(w_run)
    norms = np.array([order.norm(WaveFunction(grid, v)) for v in values])
    return VariationalTrajectory(rho=rho, a=a, times=times, values=values, norms=norms)


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
    if not central:
        base_run = propagate(_trajectory_cfg(cfg), _make_handle(system, grid, rho), u0)

    quotients, discrepancies = [], []
    for tau in taus:
        q = difference_quotient(
            system, u0, rho, tau, cfg, a=a, central=central, base_run=base_run,
        )
        gap = max(
            order.norm(WaveFunction(grid, qv - wv))
            for qv, wv in zip(q.values, variational.values)
        )
        quotients.append(q)
        discrepancies.append(float(gap))
    return SensitivityRun(
        rho=rho, a=a, taus=np.asarray(list(taus), dtype=float),
        quotients=quotients, variational=variational,
        discrepancies=np.asarray(discrepancies),
    )
