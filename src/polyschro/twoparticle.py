"""Two interacting particles on a periodic line.

The composite state lives on the square tensor grid; the Hamiltonian is
the tensor sum of two single-particle operators, each acting along its
own axis, plus multiplication by the pair interaction W evaluated at the
periodically wrapped relative coordinate:

    H = H_1 (x) I + I (x) H_2 + W,    H f = W f + H_1 f + f H_2^T,

with H_k the dense N x N matrix of particle k's ``HamiltonianHandle`` on
the line grid (``HamiltonianHandle.matrix``), built once for each of the
particle's own times: once per run for a family without t, and once for
both particles when they share a family.  The composite operator
therefore has no kernel, fields or gauge rule of its own, and an apply
is two N x N matrix products instead of eight one-axis FFT passes.
dH/drho is (dW, dH_1/drho, dH_2/drho), built the same way.  Weighted
norms carry one polynomial weight per particle, calibrated to that
particle's growth order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, GridError
from .grid import SpatialGrid, WaveFunction, _values_of, derivative_norm_sum, l2_norm
from .operators import HamiltonianHandle, Memo
from .potentials import InteractionFamily, PotentialFamily
from .propagator import PropagatorConfig, PropagationRun, propagate

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


def _apply_fields(fields, f: np.ndarray) -> np.ndarray:
    """diag f + m0 f + f m1, skipping each term stored as None."""
    diag, m0, m1 = fields
    f = np.asarray(f, dtype=complex)
    out = np.zeros(f.shape, dtype=complex) if m0 is None else m0 @ f
    if diag is not None:
        out += diag * f
    if m1 is not None:
        out += f @ m1
    return out


def _nonzero(arr: np.ndarray):
    """arr, or None when all its entries are zero."""
    return arr if arr.any() else None


class TwoParticleHandle:
    """Bound (system, rho) pair exposing the composite operator.

    Mirrors the single-particle handle interface, so the steppers and the
    sensitivity entry points work unchanged on composite states.  Each
    particle is a 1-D ``HamiltonianHandle`` on the line grid
    (``particles``); two particles of one family share one handle, since
    both run at the same rho.  The memo holds, per time, (W, H_1, H_2^T)
    and (dW, dH_1, dH_2^T), with H_k the dense matrix of particle k's
    operator; a system without t in either family or in W has one set for
    all times.  Each distinct particle also memoizes its matrices under
    its own memo key, so a family without t builds them once per run
    beside a partner with t.  A field or matrix whose entries are all zero
    is stored as None and skipped.
    """

    def __init__(self, system: TwoParticleSystem, rho: float = 0.0):
        line = SpatialGrid(1, system.grid.L, system.grid.N)
        first = HamiltonianHandle(system.fam1, line, rho=rho)
        second = (first if system.fam2 == system.fam1
                  else HamiltonianHandle(system.fam2, line, rho=rho))
        self.particles = (first, second)
        system.interaction.check_rho(rho)
        self.system = system
        self.grid = system.grid
        self.rho = rho
        self.time_dependent = (any(h.time_dependent for h in self.particles)
                               or system.interaction.is_time_dependent)
        self._fields = Memo(self._hamiltonian_fields)
        self._rho_fields = Memo(self._derivative_fields)
        self._matrices = {h: Memo(self._particle_matrix) for h in self.particles}

    def _key(self, t: float) -> float:
        """The memo key of time t."""
        return t if self.time_dependent else 0.0

    @cached_property
    def kinetic_multiplier(self) -> np.ndarray:
        """xi_1^2/2m_1 + xi_2^2/2m_2 on the composite dual grid."""
        k1, k2 = (h.kinetic_multiplier for h in self.particles)
        return k1[:, None] + k2[None, :]

    def _particle_matrix(self, key):
        """Particle h's matrix at its memo key: H, or dH/drho with derivative.

        A zero matrix, as dH/drho has on a particle whose fields do not
        move with rho, is None.
        """
        h, t, derivative = key
        return _nonzero(h.matrix(t, derivative))

    def _particle_matrices(self, t: float, derivative: bool) -> tuple:
        """(M_1, M_2^T), so that M_1 @ f + f @ M_2^T applies both to f."""
        m1, m2 = (self._matrices[h][h, h._key(t), derivative] for h in self.particles)
        return m1, None if m2 is None else m2.T

    def _hamiltonian_fields(self, t: float):
        """(W, H_1, H_2^T) at time t."""
        w = self.system.interaction.on(t, self.rho, self.system.relative_coordinate)
        return (_nonzero(w), *self._particle_matrices(t, False))

    def _derivative_fields(self, t: float):
        """(dW, dH_1, dH_2^T) at time t, the rho-derivatives of the fields."""
        dw = self.system.interaction.rho_partial_on(t, self.rho, self.system.relative_coordinate)
        return (_nonzero(dw), *self._particle_matrices(t, True))

    def gauge_split(self, t: float) -> tuple:
        """(phi, V_g) with H(t) ~ e^{i phi} K e^{-i phi} + V_g, K the kinetic multiplier.

        The sum of the particles' own splits: phi = phi_1(x_1) + phi_2(x_2)
        and V_g = W + V_g,1(x_1) + V_g,2(x_2).  A_k depends on x_k alone,
        so this gauge is exact in the continuum.  phi is None when neither
        particle has a field.
        """
        (phi1, v1), (phi2, v2) = (h.gauge_split(t) for h in self.particles)
        w = self._fields[self._key(t)][0]
        v_g = (0.0 if w is None else w) + v1[:, None] + v2[None, :]
        if phi1 is None and phi2 is None:
            return None, v_g
        zero = np.zeros(self.grid.N)
        phi1, phi2 = (zero if phi is None else phi for phi in (phi1, phi2))
        return phi1[:, None] + phi2[None, :], v_g

    def apply(self, t: float, f: np.ndarray) -> np.ndarray:
        """(H_1 (x) I + I (x) H_2 + W) f = W f + H_1 f + f H_2^T."""
        return _apply_fields(self._fields[self._key(t)], f)

    def apply_rho_derivative(self, t: float, f: np.ndarray) -> np.ndarray:
        """(dH/drho) f = dW f + dH_1 f + f dH_2^T."""
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
            raise ConfigError("primed norm orders must be nonnegative integers")
        if any(m < 0 for m in self.growth_orders):
            raise ConfigError("growth orders must be nonnegative")

    def weight_exponent(self, k: int) -> float:
        return 2.0 * self.a * (self.growth_orders[k] + 1)

    def norm(self, f, grid: SpatialGrid | None = None):
        return weighted_norm_primed(self, f, grid)


def weighted_norm_primed(order: PrimedNormOrder, f, grid: SpatialGrid | None = None):
    """Sum of derivative norms up to order 2a plus per-particle weights.

    The a = 0 case is the plain composite L2 norm; the weights use the
    particle's own coordinate only, never the full radius.  f is a
    WaveFunction, or raw values on ``grid``: one state, or a
    (R, *grid.shape) stack, which gives an array of R norms.
    """
    vals, grid = _values_of(f, grid)
    if grid.d != 2:
        raise GridError("primed norms are defined on composite grids")
    if order.a == 0:
        return l2_norm(vals, grid)
    total = derivative_norm_sum(vals, grid, 2 * order.a)
    axis_weight = 1.0 + grid.axis**2
    for k in (0, 1):
        wk = axis_weight ** (order.weight_exponent(k) / 2.0)
        total += l2_norm(_axis_broadcast(wk, k) * vals, grid)
    return total


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
