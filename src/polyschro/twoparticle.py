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
is two N x N matrix products instead of eight one-axis FFT passes.  The
parameter derivative dH/drho is single-particle only.  A weighted norm
is ``operators.weighted_norm`` with one growth order per particle, so it
carries one polynomial weight per particle, in that particle's own
coordinate; negative orders are single-particle only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, GridError
from .grid import SpatialGrid, WaveFunction
from .operators import HamiltonianHandle, Memo, NormOrder
# kept for perfbench/tracer.py, which wraps this name; no code calls it
from .operators import weighted_norm as weighted_norm_primed
from .potentials import InteractionFamily, PotentialFamily
from .propagator import propagate  # unused here; perfbench/tracer.py wraps this name

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


class TwoParticleHandle:
    """Bound (system, rho) pair exposing the composite operator.

    Mirrors the single-particle handle interface but for the mollified
    apply, the parameter derivative and the negative norm orders, so the
    steppers work unchanged on composite states; a mollified or a
    variational run is single-particle only.  Each particle is a 1-D
    ``HamiltonianHandle`` on the line grid (``particles``); two particles
    of one family share one handle, since both run at the same rho.  The
    memo holds, per time, (W, H_1, H_2^T), with H_k the dense matrix of
    particle k's operator and W None when it is zero everywhere; a system
    without t in either family or in W has one set for all times.  Each
    distinct particle also memoizes its matrix under its own memo key, so a
    family without t builds it once per run beside a partner with t.
    """

    def __init__(self, system: TwoParticleSystem, rho: float = 0.0):
        line = SpatialGrid(1, system.grid.L, system.grid.N)
        first = HamiltonianHandle(system.fam1, line, rho=rho)
        second = (first if system.fam2 == system.fam1
                  else HamiltonianHandle(system.fam2, line, rho=rho))
        self.particles = (first, second)
        self.rho = system.interaction.check_rho(rho)
        self.system = system
        self.grid = system.grid
        self.time_dependent = (any(h.time_dependent for h in self.particles)
                               or system.interaction.is_time_dependent)
        self._fields = Memo(self._hamiltonian_fields)
        self._matrices = {h: Memo(h.matrix) for h in self.particles}

    def _key(self, t: float) -> float:
        """The memo key of time t."""
        return t if self.time_dependent else 0.0

    @cached_property
    def kinetic_multiplier(self) -> np.ndarray:
        """xi_1^2/2m_1 + xi_2^2/2m_2 on the composite dual grid."""
        k1, k2 = (h.kinetic_multiplier for h in self.particles)
        return k1[:, None] + k2[None, :]

    def _hamiltonian_fields(self, t: float):
        """(W, H_1, H_2^T) at time t, so that W f + H_1 @ f + f @ H_2^T is H f."""
        w = self.system.interaction.on(t, self.rho, self.system.relative_coordinate)
        h1, h2 = (self._matrices[h][h._key(t)] for h in self.particles)
        return (w if w.any() else None), h1, h2.T

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
        """(H_1 (x) I + I (x) H_2 + W) f = H_1 f + W f + f H_2^T."""
        w, h1, h2t = self._fields[self._key(t)]
        f = np.asarray(f, dtype=complex)
        out = h1 @ f
        if w is not None:
            out += w * f
        out += f @ h2t
        return out

    def norm_order(self, a: int) -> NormOrder:
        """Weighted-norm order with one growth order per particle; a >= 0."""
        order = NormOrder(a=a, growth_orders=self.system.growth_orders)
        if order.a < 0:
            raise ConfigError(f"composite norm orders must be nonnegative, got {order.a}")
        return order


# ---------------------------------------------------------------------------
# composite states


def product_state(grid: SpatialGrid, g1, g2) -> WaveFunction:
    """Tensor product of two single-axis profiles on the composite grid."""
    v1 = g1.values if isinstance(g1, WaveFunction) else np.asarray(g1)
    v2 = g2.values if isinstance(g2, WaveFunction) else np.asarray(g2)
    if v1.shape != (grid.N,) or v2.shape != (grid.N,):
        raise GridError("product factors must be sampled on the grid axis")
    return WaveFunction(grid, np.outer(v1, v2))
