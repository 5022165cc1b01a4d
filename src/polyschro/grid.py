"""Uniform periodic grids, spectral derivatives, discrete L2 geometry.

All fields live on a uniform grid over [-L, L)^d with periodic wrap; the
dual grid is the exact FFT frequency set, so differentiation is a Fourier
multiplier and the quantization rules stay exact for one-sided symbols.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import fft as sfft

from .errors import GridError


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid on [-L, L)^d together with its FFT dual.

    A hashable value: two grids built separately from the same (d, L, N)
    compare equal.

    Parameters
    ----------
    d : int
        Spatial dimension, 1 or 2.
    L : float
        Half box length; nodes are x_j = -L + j * dx.
    N : int
        Nodes per axis, even (pairs the +/- frequencies symmetrically
        apart from the lone Nyquist mode).
    """

    d: int
    L: float
    N: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise GridError(f"dimension must be 1 or 2, got {self.d}")
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 8):
            raise GridError(f"N must be an integer >= 8, got {self.N!r}")
        if self.N % 2 != 0:
            raise GridError(f"N must be even, got {self.N}")
        if not (_finite(self.L) and self.L > 0):
            raise GridError(f"L must be positive and finite, got {self.L!r}")
        object.__setattr__(self, "L", float(self.L))

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def dxi(self) -> float:
        return np.pi / self.L

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.d

    @property
    def size(self) -> int:
        return self.N**self.d

    @cached_property
    def axis(self) -> np.ndarray:
        """Node coordinates along one axis."""
        return -self.L + self.dx * np.arange(self.N)

    @cached_property
    def dual_axis(self) -> np.ndarray:
        """Frequencies along one axis, FFT ordering."""
        return 2.0 * np.pi * sfft.fftfreq(self.N, d=self.dx)

    @cached_property
    def mesh(self) -> tuple:
        """Coordinate arrays of shape ``shape``, one per axis."""
        if self.d == 1:
            return (self.axis,)
        return tuple(np.meshgrid(self.axis, self.axis, indexing="ij"))

    @cached_property
    def dual_mesh(self) -> tuple:
        if self.d == 1:
            return (self.dual_axis,)
        return tuple(np.meshgrid(self.dual_axis, self.dual_axis, indexing="ij"))

    @cached_property
    def radius_sq(self) -> np.ndarray:
        """|x|^2 on the grid."""
        out = np.zeros(self.shape)
        for c in self.mesh:
            out = out + c**2
        return out

    @cached_property
    def dual_radius_sq(self) -> np.ndarray:
        """|xi|^2 on the dual grid."""
        out = np.zeros(self.shape)
        for c in self.dual_mesh:
            out = out + c**2
        return out

    def bracket_weight(self, exponent: float) -> np.ndarray:
        """(1 + |x|^2)^(exponent/2): the polynomial weight <x>^exponent."""
        return (1.0 + self.radius_sq) ** (exponent / 2.0)

    def boundary_mask(self) -> np.ndarray:
        """Nodes whose distance to the box edge is below L / 10."""
        cut = 0.9 * self.L
        mask = np.zeros(self.shape, dtype=bool)
        for c in self.mesh:
            mask |= np.abs(c) >= cut
        return mask

    def fft(self, values: np.ndarray) -> np.ndarray:
        """The transform over the last d axes, so leading batch axes pass through."""
        return sfft.fftn(values, None, (-2, -1)) if self.d > 1 else sfft.fft(values)

    def ifft(self, values: np.ndarray) -> np.ndarray:
        return sfft.ifftn(values, None, (-2, -1)) if self.d > 1 else sfft.ifft(values)


def _finite(value) -> bool:
    """Whether value is a finite real number, and not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _whole(value, name: str, error=GridError) -> int:
    """value as an int; a whole float such as 256.0 passes, 100.7, True or "256" raise error."""
    try:
        whole = int(value) == value and not isinstance(value, bool)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise error(f"{name} must be a whole number, got {value!r}")
    return int(value)


def make_grid(d: int, L: float, N: int) -> SpatialGrid:
    """Build a grid; raises GridError on unusable parameters, naming the field."""
    return SpatialGrid(d=_whole(d, "d"), L=L, N=_whole(N, "N"))


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """A complex field sampled on a grid.

    Accepts values of the grid's shape in any memory layout (transposed,
    Fortran-ordered, strided, real or complex) and stores a C-ordered,
    read-only complex copy; arithmetic returns new instances.
    """

    grid: SpatialGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        # the C-ordered copy comes first: view(float) needs a contiguous last axis
        arr = np.array(self.values, dtype=complex, order="C")
        if arr.shape != self.grid.shape:
            raise GridError(
                f"values shape {arr.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(arr.view(float))):
            raise GridError("wavefunction values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def with_values(self, values: np.ndarray) -> "WaveFunction":
        return WaveFunction(self.grid, values)

    def norm(self) -> float:
        return l2_norm(self)

    def inner(self, other: "WaveFunction") -> complex:
        return l2_inner_product(self, other)

    def __add__(self, other):
        _check_same_grid(self.grid, other.grid)
        return WaveFunction(self.grid, self.values + other.values)

    def __sub__(self, other):
        _check_same_grid(self.grid, other.grid)
        return WaveFunction(self.grid, self.values - other.values)

    def __truediv__(self, scalar):
        return WaveFunction(self.grid, self.values / scalar)


def _check_same_grid(a: SpatialGrid, b: SpatialGrid, error=GridError):
    """Raise ``error`` unless the two grids have the same (d, L, N)."""
    if a != b:
        raise error(f"fields live on different grids: {a} and {b}")


def _values_of(f, grid: SpatialGrid | None = None):
    """(values, grid) of a WaveFunction, or of raw values on ``grid``.

    Raw values need a grid, and their trailing axes must have its shape; a
    WaveFunction given with a grid must live on it.  Raises GridError.
    """
    if isinstance(f, WaveFunction):
        if grid is not None:
            _check_same_grid(f.grid, grid)
        return f.values, f.grid
    if grid is None:
        raise GridError("raw values need a grid; pass grid= or a WaveFunction")
    values = np.asarray(f)
    if values.shape[-grid.d:] != grid.shape:
        raise GridError(f"state shape {values.shape} does not match grid {grid.shape} in its trailing axes")
    return values, grid


def l2_inner_product(f, g, grid: SpatialGrid | None = None) -> complex:
    """Riemann-sum pairing (f, g) = dx^d * sum f * conj(g).

    Linear in the first slot, conjugate-linear in the second.
    """
    if grid is None and isinstance(g, WaveFunction):
        grid = g.grid
    fv, grid = _values_of(f, grid)
    gv, _ = _values_of(g, grid)
    # vdot conjugates its first argument, so pass g there
    return complex(grid.dx**grid.d * np.vdot(gv, fv))


def l2_norm(f, grid: SpatialGrid | None = None):
    """sqrt((f, f)): a float, or one norm per state of a (R, *grid.shape) stack."""
    fv, grid = _values_of(f, grid)
    scale = np.sqrt(grid.dx**grid.d)
    if fv.ndim > grid.d:
        return scale * np.linalg.norm(fv.reshape(*fv.shape[:-grid.d], -1), axis=-1)
    return float(scale * np.linalg.norm(fv.ravel()))


def spectral_derivative(f, axis: int = 0, order: int = 1, grid: SpatialGrid | None = None):
    """Differentiate along one axis with the exact Fourier multiplier (i xi)^order.

    f is a WaveFunction, whose grid supplies the dual axis, or raw values
    on ``grid``; the result has the type of f.
    """
    values, grid = _values_of(f, grid)
    if not 0 <= axis < grid.d:
        raise GridError(f"axis {axis} out of range for d={grid.d}")
    if order < 0:
        raise GridError("derivative order must be >= 0")
    if order == 0:
        out = np.asarray(values, dtype=complex).copy()
    else:
        shape = [1] * grid.d
        shape[axis] = grid.N
        out = sfft.fft(values, axis=axis - grid.d)
        out *= ((1j * grid.dual_axis) ** order).reshape(shape)
        out = sfft.ifft(out, axis=axis - grid.d)
    return f.with_values(out) if isinstance(f, WaveFunction) else out


def multi_indices(d: int, max_total: int):
    """All derivative multi-indices alpha with |alpha| <= max_total."""
    if d == 1:
        return [(k,) for k in range(max_total + 1)]
    return [(i, j) for i in range(max_total + 1) for j in range(max_total + 1 - i)]


def derivative_norm_sum(values: np.ndarray, grid: SpatialGrid, max_order: int):
    """Sum of ||d^alpha f|| over all multi-indices |alpha| <= max_order.

    By Parseval ||d^alpha f|| = sqrt(dx^d / N^d) ||xi^alpha F f||, so one
    transform serves every alpha: each term contracts |F f|^2 with the
    squared frequency powers, one axis at a time.  A (R, *grid.shape)
    stack takes one batched transform and returns R sums.
    """
    power = np.abs(grid.fft(values)) ** 2
    xi_sq = grid.dual_axis**2
    total = 0.0
    for alpha in multi_indices(grid.d, max_order):
        moment = power
        for order in reversed(alpha):
            moment = moment @ xi_sq**order  # contracts the last remaining axis
        total += np.sqrt(moment)
    total *= np.sqrt(grid.dx**grid.d / grid.size)
    return total if np.ndim(total) else float(total)


def gaussian_packet(grid: SpatialGrid, center=0.0, width: float = 1.0, momentum=0.0) -> WaveFunction:
    """Normalized Gaussian wave packet; the default smooth test state."""
    if not (_finite(width) and width > 0):
        raise GridError(f"width must be a finite positive number, got {width!r}")
    for name, value in (("center", center), ("momentum", momentum)):
        if not all(_finite(v) for v in np.ravel(value)):
            raise GridError(f"{name} must be a finite number, got {value!r}")
        if np.ndim(value) > 1 or np.size(value) not in (1, grid.d):
            raise GridError(f"{name} must be one number or one per axis ({grid.d}), "
                            f"got {value!r}")
    centers = np.broadcast_to(np.atleast_1d(center), (grid.d,))
    momenta = np.broadcast_to(np.atleast_1d(momentum), (grid.d,))
    phase = np.zeros(grid.shape)
    r2 = np.zeros(grid.shape)
    for c, x0, k0 in zip(grid.mesh, centers, momenta):
        r2 = r2 + (c - x0) ** 2
        phase = phase + k0 * c
    vals = np.exp(-r2 / (2.0 * width**2) + 1j * phase)
    wf = WaveFunction(grid, vals)
    return wf / wf.norm()


__all__ = [
    "SpatialGrid",
    "WaveFunction",
    "make_grid",
    "l2_inner_product",
    "l2_norm",
    "spectral_derivative",
    "multi_indices",
    "derivative_norm_sum",
    "gaussian_packet",
]
