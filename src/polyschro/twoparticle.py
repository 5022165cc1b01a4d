"""Two interacting particles on a periodic line.

The composite state lives on the square tensor grid; the Hamiltonian is
the sum of two single-particle operators, each acting along its own
axis, plus multiplication by the pair interaction evaluated at the
periodically wrapped relative coordinate.  Particle k's fields depend
on x_k alone, so

    H f = pot f + K_0 f + f K_1^T,    pot = W + sum_k (V_k + A_k^2/2m_k),

with K_k the dense N x N matrix of particle k's kinetic and magnetic
terms along its own axis.  Each K_k is the matrix of the single-particle
kernel ``operators.apply_expanded`` on the line grid, built once per time
by ``symbols.dense_matrix``, so H has one definition; an apply is then
two N x N matrix products instead of eight one-axis FFT passes.  dH/drho
is built the same way from (dW, dV_k, dA_k).  Weighted norms carry one
polynomial weight per particle, calibrated to that particle's growth order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import expressions as ex
from .errors import ConfigError, GridError
from .grid import SpatialGrid, WaveFunction, derivative_norm_sum, l2_norm
from .operators import Memo, apply_expanded, axis_terms
from .potentials import InteractionFamily, PotentialFamily
from .propagator import PropagatorConfig, PropagationRun, propagate
from .symbols import dense_matrix

MAX_AXIS_POINTS = 256


@dataclass(frozen=True, eq=False)
class TwoParticleSystem:
    """Two one-dimensional particles coupled by a pair interaction.

    Both particles share the axis of the square composite grid; the
    interaction argument is the relative coordinate wrapped to the
    principal periodic image.
    """

    fam1: PotentialFamily
    fam2: PotentialFamily
    interaction: InteractionFamily
    grid: SpatialGrid

    def __post_init__(self):
        for fam in (self.fam1, self.fam2):
            if fam.dim != 1:
                raise ConfigError(
                    f"per-particle family {fam.name!r} must be one-dimensional"
                )
        if self.grid.d != 2:
            raise GridError("the composite grid must be two-dimensional")
        if self.grid.N > MAX_AXIS_POINTS:
            raise GridError(
                f"composite grids are capped at {MAX_AXIS_POINTS} points per axis"
            )

    @cached_property
    def relative_coordinate(self) -> np.ndarray:
        """x1 - x2 wrapped into [-L, L)."""
        x1, x2 = self.grid.mesh
        L = self.grid.L
        return np.mod(x1 - x2 + L, 2.0 * L) - L

    @property
    def growth_orders(self) -> tuple:
        return (self.fam1.growth_order, self.fam2.growth_order)


def _axis_broadcast(arr: np.ndarray, axis: int) -> np.ndarray:
    return arr[:, None] if axis == 0 else arr[None, :]


def _axis_matrices(line: SpatialGrid, axes, kinetic: bool) -> tuple:
    """(M0, M1) = (K_0, K_1^T), so M0 @ f + f @ M1 applies the axis terms to f.

    ``axes`` holds each particle's ``axis_terms`` on the line grid.  A
    zero matrix, as dH/drho has on an axis whose A does not move with
    rho, is stored as None and skipped.
    """
    k0, k1 = (dense_matrix(partial(apply_expanded, diag=0.0, axes=(ax,), kinetic=kinetic), line)
              for ax in axes)
    return tuple(m if m.any() else None for m in (k0, k1.T))


def _apply_fields(fields, f: np.ndarray) -> np.ndarray:
    diag, m0, m1 = fields
    out = diag * np.asarray(f, dtype=complex)
    if m0 is not None:
        out += m0 @ f
    if m1 is not None:
        out += f @ m1
    return out


class TwoParticleHandle:
    """Bound (system, rho) pair exposing the composite operator.

    Mirrors the single-particle handle interface, so the steppers and the
    sensitivity entry points work unchanged on composite states.  The
    memo holds, per time, the diagonal and the two axis matrices of H
    (and of dH/drho); a system without t in either family or in W has one
    set for all times.
    """

    def __init__(self, system: TwoParticleSystem, rho: float = 0.0):
        system.fam1.check_rho(rho)
        system.fam2.check_rho(rho)
        system.interaction.check_rho(rho)
        self.system = system
        self.grid = system.grid
        self.rho = rho
        self.masses = (system.fam1.mass, system.fam2.mass)
        self._line = SpatialGrid(1, self.grid.L, self.grid.N)
        self.time_dependent = (system.fam1.is_time_dependent or system.fam2.is_time_dependent
                               or system.interaction.is_time_dependent)
        self._fields = Memo(self._hamiltonian_fields)
        self._rho_fields = Memo(self._derivative_fields)

    def _key(self, t: float) -> float:
        """The memo key of time t."""
        return t if self.time_dependent else 0.0

    @cached_property
    def kinetic_multiplier(self) -> np.ndarray:
        xi = self.grid.dual_axis
        m1, m2 = self.masses
        return (xi[:, None] ** 2) / (2.0 * m1) + (xi[None, :] ** 2) / (2.0 * m2)

    def _particle_fields(self, expr_of, t: float):
        """One expression per particle, sampled on the axis at time t."""
        axis = self.grid.axis
        return [ex.evaluate(expr_of(fam), out_shape=axis.shape, t=t, rho=self.rho, x=axis)
                for fam in (self.system.fam1, self.system.fam2)]

    def _hamiltonian_fields(self, t: float):
        """(W + sum_k V_k + A_k^2/2m_k, M0, M1) at time t."""
        w = self.system.interaction.on(t, self.rho, self.system.relative_coordinate)
        pot = w.astype(float)
        vs = self._particle_fields(lambda fam: fam.v, t)
        a_s = self._particle_fields(lambda fam: fam.a[0], t)
        axes = []
        for k, (v, a, m) in enumerate(zip(vs, a_s, self.masses)):
            pot += _axis_broadcast(v + a**2 / (2.0 * m), k)
            axes.append(axis_terms(self._line, 0, m, a))
        pot.setflags(write=False)
        return (pot, *_axis_matrices(self._line, axes, kinetic=True))

    def _derivative_fields(self, t: float):
        """(dW + sum_k dV_k + A_k dA_k/m_k, M0, M1 of the dA_k terms) at time t."""
        dw = self.system.interaction.rho_partial_on(t, self.rho, self.system.relative_coordinate)
        diag = dw.astype(float)
        dvs = self._particle_fields(lambda fam: fam.v_rho, t)
        das = self._particle_fields(lambda fam: fam.a_rho[0], t)
        a_s = self._particle_fields(lambda fam: fam.a[0], t)
        axes = []
        for k, (dv, da, a, m) in enumerate(zip(dvs, das, a_s, self.masses)):
            diag += _axis_broadcast(dv + a * da / m, k)
            axes.append(axis_terms(self._line, 0, m, da))
        return (diag, *_axis_matrices(self._line, axes, kinetic=False))

    def potential_multiplier(self, t: float) -> np.ndarray:
        """V1 + V2 + |A1|^2/2m1 + |A2|^2/2m2 + W, on the composite grid."""
        return self._fields[self._key(t)][0]

    def apply(self, t: float, f: np.ndarray) -> np.ndarray:
        """(H1 + H2 + W) f: the diagonal plus one matrix product per axis."""
        return _apply_fields(self._fields[self._key(t)], f)

    def apply_rho_derivative(self, t: float, f: np.ndarray) -> np.ndarray:
        """(dH/drho) f: per-particle derivative terms plus dW/drho."""
        return _apply_fields(self._rho_fields[self._key(t)], f)

    def apply_mollified(self, t, f, cutoff):
        raise ConfigError("mollified propagation is single-particle only")

    def norm_order(self, a: int) -> "PrimedNormOrder":
        return PrimedNormOrder(a=a, growth_orders=self.system.growth_orders)


# ---------------------------------------------------------------------------
# primed weighted norms


@dataclass(frozen=True)
class PrimedNormOrder:
    """Composite-norm order: one polynomial weight per particle."""

    a: int
    growth_orders: tuple

    def __post_init__(self):
        if self.a != int(self.a) or self.a < 0:
            raise ValueError("primed norm orders must be nonnegative integers")
        if any(m < 0 for m in self.growth_orders):
            raise ValueError("growth orders must be nonnegative")

    def weight_exponent(self, k: int) -> float:
        return 2.0 * self.a * (self.growth_orders[k] + 1)

    def norm(self, f: WaveFunction) -> float:
        return weighted_norm_primed(self, f)


def weighted_norm_primed(order: PrimedNormOrder, f: WaveFunction) -> float:
    """Sum of derivative norms up to order 2a plus per-particle weights.

    The a = 0 case is the plain composite L2 norm; the weights use the
    particle's own coordinate only, never the full radius.
    """
    grid = f.grid
    if grid.d != 2:
        raise GridError("primed norms are defined on composite grids")
    if order.a == 0:
        return f.norm()
    total = derivative_norm_sum(f.values, grid, 2 * order.a)
    axis_weight = 1.0 + grid.axis**2
    for k in (0, 1):
        wk = axis_weight ** (order.weight_exponent(k) / 2.0)
        total += l2_norm(_axis_broadcast(wk, k) * f.values, grid)
    return float(total)


# ---------------------------------------------------------------------------
# propagation and helpers


def propagate_two_particle(system: TwoParticleSystem, cfg: PropagatorConfig,
                           u0: WaveFunction, norm_orders=(),
                           rho: float = 0.0) -> PropagationRun:
    """Propagate a composite state with the shared stepper harness."""
    handle = TwoParticleHandle(system, rho=rho)
    return propagate(cfg, handle, u0, norm_orders=norm_orders)


def product_state(grid: SpatialGrid, g1, g2) -> WaveFunction:
    """Tensor product of two single-axis profiles on the composite grid."""
    v1 = g1.values if isinstance(g1, WaveFunction) else np.asarray(g1)
    v2 = g2.values if isinstance(g2, WaveFunction) else np.asarray(g2)
    if v1.shape != (grid.N,) or v2.shape != (grid.N,):
        raise GridError("product factors must be sampled on the grid axis")
    return WaveFunction(grid, np.outer(v1, v2))


def exchange_asymmetry(f: WaveFunction) -> float:
    """Relative deviation of the state from particle-exchange symmetry."""
    v = f.values
    scale = float(np.abs(v).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(v - v.T).max() / scale)
