"""Phase-space symbols on the line grid and their quantization.

Symbols are sampled on the product of the 1-D spatial grid and its FFT
dual, an N x N array indexed (x, xi).  Quantization is the x-left
(Kohn-Nirenberg) rule

    (Op(s) f)(x_j) = (1/N) sum_k e^{i x_j xi_k} s(x_j, xi_k) fhat(xi_k),

which on the periodic grid reduces *exactly* to a Fourier multiplier for
s = b(xi) and to pointwise multiplication for s = a(x).  The adjoint is the
conjugate-transpose action, applied through the reversed factorization
(x-weighted forward transform, then inverse FFT), never by materializing
the operator matrix in the position basis.  Both take one state or a
(B, N) stack, like the operator kernel, and ``dense_matrix``
builds the dense matrix of a quantized symbol, or of the mollified
operator, in one call on the identity stack.  The parametrix and
commutator checks take exact 2-norms of such matrices and of H's own,
which ``HamiltonianHandle.matrix`` fills in closed form (a matrix has as
many entries as the symbol field, so the field budget bounds both).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np
from scipy import fft as sfft

from .errors import GridError, SolverError, SymbolDomainError
from .grid import SpatialGrid, WaveFunction, _finite, _values_of
from .potentials import PotentialFamily, divergence_a, eval_potential

MAX_FIELD_ENTRIES = 2**24  # symbol storage is O(N^2); keep it desk-sized

SYMBOL_KINDS = ("h", "h_s", "p_mu", "chi_eps")


@dataclass(frozen=True)
class CutoffSpec:
    """Low-energy cutoff chi(eps * (mu + h)) with the gaussian profile chi(s) = exp(-s^2)."""

    eps: float
    mu: float = 0.0

    def __post_init__(self):
        if not (_finite(self.eps) and 0.0 < self.eps <= 1.0):
            raise SymbolDomainError(f"eps must lie in (0, 1], got {self.eps}")
        if not _finite(self.mu):
            raise SymbolDomainError(f"cutoff mu must be a finite number, got {self.mu!r}")

    def __call__(self, s):
        return np.exp(-np.square(s))


@dataclass(frozen=True, eq=False)
class SymbolField:
    """A symbol sampled on a line grid x its dual, with its evaluation context."""

    grid: SpatialGrid
    values: np.ndarray = field(repr=False)
    kind: str = "h"
    t: float = 0.0
    rho: float = 0.0

    def __post_init__(self):
        if self.grid.d != 1:
            raise GridError(f"symbols live on 1-D grids, not on {self.grid}")
        arr = np.asarray(self.values)
        want = (self.grid.N, self.grid.N)
        if arr.shape != want:
            raise GridError(f"symbol shape {arr.shape}, expected {want}")
        object.__setattr__(self, "values", arr)

    @cached_property
    def _forward_matrix(self):
        # combined kernel*symbol matrix, reused across the states it is
        # applied to
        return _dft_kernel(self.grid.N) * self.values


def _check_field_budget(grid: SpatialGrid):
    if grid.N**2 > MAX_FIELD_ENTRIES:
        raise GridError(
            f"symbol field would need {grid.N**2} entries "
            f"(limit {MAX_FIELD_ENTRIES}); use a coarser grid for symbol work"
        )


@lru_cache(maxsize=8)
def _dft_kernel(N: int) -> np.ndarray:
    """exp(+2 pi i j k / N); the synthesis kernel of the quantization."""
    jk = np.outer(np.arange(N), np.arange(N))
    return np.exp(2j * np.pi * jk / N)


def _base_symbol(fam: PotentialFamily, grid: SpatialGrid, t: float, rho: float):
    """h = (xi - A(x))^2 / 2m + V(x) on phase space (real N x N array)."""
    V, (a,) = eval_potential(fam, t, rho, grid)
    return (grid.dual_axis - a[:, None]) ** 2 / (2.0 * fam.mass) + V[:, None]


def eval_symbol(
    kind: str,
    fam: PotentialFamily,
    grid: SpatialGrid,
    t: float = 0.0,
    rho: float = 0.0,
    mu: float = 0.0,
    cutoff: CutoffSpec | None = None,
) -> SymbolField:
    """Sample one of the named symbols on the phase-space grid.

    kind:
        "h"        kinetic-plus-potential symbol
        "h_s"      h + (i/2m) div A, the x-left symbol of the Hamiltonian
        "p_mu"     1/(mu + h_s), admissible only when mu + h > 0 on the grid
        "chi_eps"  cutoff(eps * (cutoff.mu + h))
    """
    if kind not in SYMBOL_KINDS:
        raise SymbolDomainError(f"unknown symbol kind {kind!r}; known: {SYMBOL_KINDS}")
    _check_field_budget(grid)

    h = _base_symbol(fam, grid, t, rho)
    if kind == "h":
        return SymbolField(grid, h, kind, t, rho)

    if kind == "chi_eps":
        if cutoff is None:
            raise SymbolDomainError("chi_eps needs a CutoffSpec")
        vals = cutoff(cutoff.eps * (cutoff.mu + h))
        return SymbolField(grid, vals, kind, t, rho)

    div = divergence_a(fam, t, rho, grid)
    h_s = h + 1j * div[:, None] / (2.0 * fam.mass)
    if kind == "h_s":
        return SymbolField(grid, h_s, kind, t, rho)

    # p_mu
    shifted = mu + h
    floor = 1e-10 * max(1.0, abs(mu))
    m = float(shifted.min())
    if m <= floor:
        i, k = np.unravel_index(np.argmin(shifted), shifted.shape)
        x_pt, xi_pt = float(grid.axis[i]), float(grid.dual_axis[k])
        raise SymbolDomainError(
            f"mu={mu} is below the admissible range: mu + h = {m:.6g} at x={x_pt}, xi={xi_pt}",
            point=(x_pt, xi_pt),
        )
    return SymbolField(grid, 1.0 / (mu + h_s), kind, t, rho)


def quantize_symbol(symbol: SymbolField, f):
    """Apply the quantized symbol to a state or a (B, N) stack.

    Returns the same type it was given (WaveFunction in, WaveFunction out).
    """
    grid = symbol.grid
    fv, _ = _values_of(f, grid)
    out = sfft.fft(fv) @ symbol._forward_matrix.T / grid.N
    if isinstance(f, WaveFunction):
        return WaveFunction(grid, out)
    return out


def adjoint_quantize_symbol(symbol: SymbolField, f):
    """Apply the adjoint of the quantized symbol (exact discrete adjoint)."""
    grid = symbol.grid
    fv, _ = _values_of(f, grid)
    out = sfft.ifft(fv @ symbol._forward_matrix.conj())
    if isinstance(f, WaveFunction):
        return WaveFunction(grid, out)
    return out


# ---------------------------------------------------------------------------
# ellipticity scan


@dataclass(frozen=True)
class EllipticityScan:
    """Grid-fitted constants of the two-sided bound
    c0 (⟨xi⟩^2 + <x>^(2(M+1))) - c1 <= h <= (⟨xi⟩^2 + <x>^(2(M+1))) / c0."""

    c0: float
    c1: float
    theta_max: float

    @property
    def mu_min(self) -> float:
        """Smallest shift with a safely invertible mu + h on the grid."""
        return self.c1 + 0.5 * self.c0


def ellipticity_constants(
    fam: PotentialFamily,
    grid: SpatialGrid,
    t_samples=(0.0,),
    rho: float = 0.0,
) -> EllipticityScan:
    _check_field_budget(grid)
    theta = 1.0 + grid.dual_axis**2 + grid.bracket_weight(fam.weight_exponent)[:, None]

    c0 = np.inf
    c1 = 0.0
    upper = 0.0
    outer = theta >= np.median(theta)
    for t in t_samples:
        h = _base_symbol(fam, grid, t, rho)
        r = h / theta
        upper = max(upper, float(r.max()))
        c0 = min(c0, float(r[outer].min()))
    if not (upper > 0) or c0 <= 0:
        raise SymbolDomainError(
            "symbol is not elliptic on the grid (nonpositive ratio to the weight)"
        )
    c0 = min(c0, 1.0 / upper)
    for t in t_samples:
        h = _base_symbol(fam, grid, t, rho)
        c1 = max(c1, float((c0 * theta - h).max()))
    c1 = max(c1, 0.0)
    return EllipticityScan(c0=c0, c1=c1, theta_max=float(theta.max()))


# ---------------------------------------------------------------------------
# exact operator norms


def dense_matrix(apply, grid: SpatialGrid) -> np.ndarray:
    """The N x N matrix of a linear map on raw state arrays of a line grid.

    ``apply`` must take a (B, N) stack of states.  One call on
    the identity stack gives the images of the unit vectors as rows; the
    result is their transpose, a Fortran-ordered view that LAPACK takes
    without a copy.
    """
    return apply(np.eye(grid.N, dtype=complex)).T


def _finite_norm(mat: np.ndarray, what: str) -> float:
    if not np.isfinite(mat).all():
        raise SolverError(f"{what} is not finite")
    return float(np.linalg.norm(mat, 2))


@dataclass(frozen=True)
class ParametrixResult:
    mu_values: np.ndarray
    excess: np.ndarray  # mu - c1, the x-axis of the decay fit
    residuals: np.ndarray
    slope: float
    scan: EllipticityScan


def parametrix_residual(
    fam: PotentialFamily,
    grid: SpatialGrid,
    t: float = 0.0,
    rho: float = 0.0,
) -> ParametrixResult:
    """Operator 2-norm of (mu + H) Op(1/(mu + h_s)) - I over a range of mu.

    The 8 mu span one decade of mu - c1, starting where the maximizing
    phase-space shell still fits well inside the grid.  Each residual is
    the exact 2-norm of the dense N x N residual matrix; its decay
    against (mu - c1) is fitted on a log-log scale.  First-order symbol
    calculus predicts a -1/2 slope.  A non-finite residual matrix raises
    SolverError naming its mu.
    """
    from .operators import HamiltonianHandle

    scan = ellipticity_constants(fam, grid, (t,), rho)
    lo = max(0.01 * scan.c0 * scan.theta_max, scan.mu_min - scan.c1 + scan.c0)
    mu_values = scan.c1 + np.geomspace(lo, 10.0 * lo, 8)

    h_mat = HamiltonianHandle(fam, grid, rho=rho).matrix(t)
    diag = np.arange(grid.N)
    residuals = np.empty(mu_values.shape)
    for i, mu in enumerate(mu_values):
        p_field = eval_symbol("p_mu", fam, grid, t=t, rho=rho, mu=mu)
        p_mat = dense_matrix(partial(quantize_symbol, p_field), grid)
        res = h_mat @ p_mat
        res += mu * p_mat
        res[diag, diag] -= 1.0
        residuals[i] = _finite_norm(res, f"parametrix residual at mu={mu:g}")

    excess = mu_values - scan.c1
    good = residuals > 1e-12
    if good.sum() >= 2:
        slope = float(np.polyfit(np.log(excess[good]), np.log(residuals[good]), 1)[0])
    else:
        slope = np.nan
        warnings.warn("parametrix residuals hit the noise floor; slope not fitted")
    return ParametrixResult(
        mu_values=mu_values,
        excess=excess,
        residuals=residuals,
        slope=slope,
        scan=scan,
    )


@dataclass(frozen=True)
class CommutatorProbeResult:
    eps_values: np.ndarray
    bounds: np.ndarray

    @property
    def max_min_ratio(self) -> float:
        lo = float(self.bounds.min())
        hi = float(self.bounds.max())
        return np.inf if lo == 0.0 else hi / lo


def commutator_probe(
    fam: PotentialFamily,
    grid: SpatialGrid,
    t: float = 0.0,
    rho: float = 0.0,
    mu: float = 0.0,
    eps_values=None,
) -> CommutatorProbeResult:
    """Operator 2-norm of [Op(chi_eps), mu + H] over eps.

    Each bound is the exact 2-norm of the dense commutator matrix of the
    quantized gaussian cutoff with H.  The shift mu cancels in the
    commutator, but it still enters the cutoff argument.  A bound curve
    that grows as eps decreases contradicts the uniform bound the cutoff
    calculus guarantees; the result's ``max_min_ratio`` measures the
    spread, which the commutator suite judges.  A non-finite commutator
    matrix raises SolverError naming its eps.
    """
    from .operators import HamiltonianHandle

    if eps_values is None:
        eps_values = 1.0 / 2 ** np.arange(7)  # 1 .. 1/64
    eps_values = np.asarray(eps_values, dtype=float)

    h_mat = HamiltonianHandle(fam, grid, rho=rho).matrix(t)
    bounds = np.empty(eps_values.shape)
    for i, eps in enumerate(eps_values):
        spec = CutoffSpec(eps=float(eps), mu=mu)
        x_field = eval_symbol("chi_eps", fam, grid, t=t, rho=rho, cutoff=spec)
        x_mat = dense_matrix(partial(quantize_symbol, x_field), grid)
        bounds[i] = _finite_norm(x_mat @ h_mat - h_mat @ x_mat,
                                 f"commutator at eps={eps:g}")
    return CommutatorProbeResult(eps_values=eps_values, bounds=bounds)


__all__ = [
    "SymbolField",
    "CutoffSpec",
    "SYMBOL_KINDS",
    "eval_symbol",
    "quantize_symbol",
    "adjoint_quantize_symbol",
    "EllipticityScan",
    "ellipticity_constants",
    "ParametrixResult",
    "parametrix_residual",
    "CommutatorProbeResult",
    "commutator_probe",
]
