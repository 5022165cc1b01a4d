"""Two interacting particles on a periodic line.

The composite state lives on the square tensor grid; the Hamiltonian is
the sum of two single-particle operators, each acting along its own
axis, plus multiplication by the pair interaction evaluated at the
periodically wrapped relative coordinate.  Weighted norms carry one
polynomial weight per particle, calibrated to that particle's growth
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as sfft

from . import expressions as ex
from .errors import ConfigError, GridError
from .grid import (
    SpatialGrid,
    WaveFunction,
    apply_multi_derivative,
    l2_norm,
    multi_indices,
)
from .potentials import InteractionFamily, PotentialFamily
from .propagator import PropagatorConfig, PropagationRun, propagate

MAX_AXIS_POINTS = 256

_CACHE_SLOTS = 8


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


class TwoParticleHandle:
    """Bound (system, rho) pair exposing the composite operator.

    Mirrors the single-particle handle interface, so the steppers and the
    sensitivity entry points work unchanged on composite states.
    """

    def __init__(self, system: TwoParticleSystem, rho: float = 0.0):
        system.fam1.check_rho(rho)
        system.fam2.check_rho(rho)
        system.interaction.check_rho(rho)
        self.system = system
        self.grid = system.grid
        self.rho = rho
        self.masses = (system.fam1.mass, system.fam2.mass)
        self._magnetic = tuple(
            any(len(c.free_vars()) > 0 or c.eval({}) != 0.0 for c in fam.a)
            for fam in (system.fam1, system.fam2)
        )
        self._pot_cache: dict = {}
        self._rho_cache: dict = {}

    @cached_property
    def kinetic_multiplier(self) -> np.ndarray:
        xi = self.grid.dual_axis
        m1, m2 = self.masses
        return (xi[:, None] ** 2) / (2.0 * m1) + (xi[None, :] ** 2) / (2.0 * m2)

    @cached_property
    def _dual_axes(self) -> tuple:
        """Per particle (xi, xi / 2m_k), broadcast along axis k."""
        xi = self.grid.dual_axis
        return tuple(
            (_axis_broadcast(xi, k), _axis_broadcast(xi / (2.0 * m), k))
            for k, m in enumerate(self.masses)
        )

    def _axis_fields(self, t: float):
        """Fields at time t, cached per t.

        The composite potential multiplier, and per particle
        (A_k, A_k / 2m_k) broadcast along axis k.
        """
        hit = self._pot_cache.get(t)
        if hit is None:
            axis = self.grid.axis
            w = self.system.interaction.on(t, self.rho, self.system.relative_coordinate)
            pot = w.astype(float)
            a_s = []
            for k, fam in enumerate((self.system.fam1, self.system.fam2)):
                v = ex.evaluate(fam.v, out_shape=axis.shape, t=t, rho=self.rho, x=axis)
                a = ex.evaluate(fam.a[0], out_shape=axis.shape, t=t, rho=self.rho, x=axis)
                mk = self.masses[k]
                pot += _axis_broadcast(v + a**2 / (2.0 * mk), k)
                a_s.append((_axis_broadcast(a, k), _axis_broadcast(a / (2.0 * mk), k)))
            pot.setflags(write=False)
            hit = (pot, tuple(a_s))
            if len(self._pot_cache) >= _CACHE_SLOTS:
                self._pot_cache.clear()
            self._pot_cache[t] = hit
        return hit

    def potential_multiplier(self, t: float) -> np.ndarray:
        """V1 + V2 + |A1|^2/2m1 + |A2|^2/2m2 + W, on the composite grid."""
        return self._axis_fields(t)[0]

    def apply(self, t: float, f: np.ndarray) -> np.ndarray:
        """(H1 + H2 + W) f in the expanded symmetric form.

        Along axis k the kinetic and magnetic terms share the one-axis
        transforms G = F_k f and H = F_k (A_k f):
        (p^2 - A p - p A) f / 2m = F_k^-1(xi (xi G - H)) / 2m - A F_k^-1(xi G) / 2m,
        four one-axis passes, or two when A_k vanishes.
        """
        f = np.asarray(f, dtype=complex)
        pot, a_s = self._axis_fields(t)
        out = pot * f
        for k in (0, 1):
            xi, xi_2m = self._dual_axes[k]
            xi_g = xi * sfft.fft(f, axis=k)
            if self._magnetic[k]:
                a, a_2m = a_s[k]
                out += sfft.ifft(xi_2m * (xi_g - sfft.fft(a * f, axis=k)), axis=k)
                out -= a_2m * sfft.ifft(xi_g, axis=k)
            else:
                out += sfft.ifft(xi_2m * xi_g, axis=k)
        return out

    def apply_rho_derivative(self, t: float, f: np.ndarray) -> np.ndarray:
        """(dH/drho) f: per-particle derivative terms plus dW/drho."""
        f = np.asarray(f, dtype=complex)
        hit = self._rho_cache.get(t)
        if hit is None:
            axis = self.grid.axis
            parts = []
            for fam in (self.system.fam1, self.system.fam2):
                if fam.is_rho_dependent:
                    dv = ex.evaluate(fam.v_rho, out_shape=axis.shape,
                                     t=t, rho=self.rho, x=axis)
                    da = ex.evaluate(fam.a_rho[0], out_shape=axis.shape,
                                     t=t, rho=self.rho, x=axis)
                    a = ex.evaluate(fam.a[0], out_shape=axis.shape,
                                    t=t, rho=self.rho, x=axis)
                else:
                    dv = da = a = None
                parts.append((dv, da, a))
            dw = self.system.interaction.rho_partial_on(
                t, self.rho, self.system.relative_coordinate
            )
            hit = (tuple(parts), dw)
            if len(self._rho_cache) >= _CACHE_SLOTS:
                self._rho_cache.clear()
            self._rho_cache[t] = hit
        parts, dw = hit

        out = dw * f
        xi = self.grid.dual_axis
        for k in (0, 1):
            dv, da, a = parts[k]
            if dv is None:
                continue
            mk = self.masses[k]
            out = out + _axis_broadcast(dv + a * da / mk, k) * f
            if np.any(da):
                dak = _axis_broadcast(da, k)
                xik = _axis_broadcast(xi, k)
                pf = sfft.ifft(xik * sfft.fft(f, axis=k), axis=k)
                p_df = sfft.ifft(xik * sfft.fft(dak * f, axis=k), axis=k)
                out = out - (dak * pf + p_df) / (2.0 * mk)
        return out

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
    total = 0.0
    for alpha in multi_indices(2, 2 * order.a):
        total += l2_norm(apply_multi_derivative(f.values, grid, alpha), grid)
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
