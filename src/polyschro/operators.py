"""Matrix-free operators: Hamiltonian, its mollification, weight powers, norms.

The Hamiltonian (1/2m)|p - A|^2 + V is applied in the expanded symmetric
three-term form

    p^2 f / 2m  -  (A . p f + p . (A f)) / 2m  +  (|A|^2 / 2m + V) f,

with p realized spectrally, which is Hermitian on the periodic grid in
exact arithmetic.  One kernel, ``apply_expanded``, evaluates that form
axis by axis for every handle, on one state or on a (B, *grid.shape)
stack.  ``HamiltonianHandle.matrix`` fills the dense matrix of the same
form from the same memoized fields,

    K + diag(V + |A|^2/2m) - sum_k (C_k diag(A_k/2m) + diag(A_k/2m) C_k),

with K = F^-1 diag(|xi|^2/2m) F and C_k = F^-1 diag(xi_k) F the t-free
circulants of the grid; it is the one route to a dense matrix of H.
dH/drho has the same form with (A, V) replaced by
(dA/drho, dV/drho + A . dA/drho / m) and no kinetic term.  The
mollified operator sandwiches H between a quantized low-energy cutoff
and its exact discrete adjoint, so it is Hermitian by construction
whatever the quantization error; its dense matrix is one
``symbols.dense_matrix`` call on the identity stack.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial

import numpy as np
from scipy import fft as sfft
from scipy.linalg import cho_factor, cho_solve, circulant, inv

from .errors import ConfigError, SolverError
from .grid import SpatialGrid, WaveFunction, _values_of, derivative_norm_sum, l2_norm
from .potentials import PotentialFamily, eval_potential, partial_rho
from .symbols import CutoffSpec, adjoint_quantize_symbol, dense_matrix, eval_symbol, quantize_symbol

_CACHE_SLOTS = 4
# an N=512 factor holds 2 MB, and no 1-D grid in use is larger
_FACTOR_SLOTS = 4


class Memo(dict):
    """``memo[key]`` builds ``build(key)`` once, for a handle's per-time fields.

    Iterative solvers apply an operator many times at one frozen time, so
    a few slots suffice; the memo is cleared whenever it is full.  ``build``
    is a bound method of the owning handle, held weakly: a strong reference
    would make handle and memo a cycle that keeps the fields alive until
    the cyclic garbage collector runs.
    """

    def __init__(self, build):
        super().__init__()
        self._build = weakref.WeakMethod(build)

    def __missing__(self, key):
        hit = self._build()(key)
        if len(self) >= _CACHE_SLOTS:
            self.clear()
        self[key] = hit
        return hit


def axis_terms(grid: SpatialGrid, k: int, mass: float, a) -> tuple:
    """Kernel data of axis k: (k - d, xi_k, xi_k/2m, xi_k^2/2m, A_k, A_k/2m).

    k - d addresses axis k from the end, so leading batch axes broadcast.
    xi_k is the dual axis broadcast along axis k of the grid; A_k must
    broadcast against the grid's shape.  A field whose samples are all
    zero is stored as None, so the kernel skips its transforms.
    """
    shape = [1] * grid.d
    shape[k] = grid.N
    xi = grid.dual_axis.reshape(shape)
    xi_2m = xi / (2.0 * mass)
    if not np.any(a):
        return (k - grid.d, xi, xi_2m, xi * xi_2m, None, None)
    return (k - grid.d, xi, xi_2m, xi * xi_2m, a, a / (2.0 * mass))


def _kinetic_matrix(grid: SpatialGrid, mass: float) -> np.ndarray:
    """F^-1 diag(xi^2/2m) F along one axis of the grid: real and symmetric,
    because the multiplier is real and even."""
    return circulant(sfft.ifft(grid.dual_axis**2 / (2.0 * mass)).real)


@lru_cache(maxsize=_FACTOR_SLOTS)
def _kinetic_circulant(grid: SpatialGrid, mass: float) -> np.ndarray:
    """``_kinetic_matrix``, cached and read-only."""
    mat = _kinetic_matrix(grid, mass)
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=_FACTOR_SLOTS)
def _momentum_circulant(grid: SpatialGrid) -> np.ndarray:
    """F^-1 diag(xi) F along one axis of the grid, read-only."""
    mat = circulant(sfft.ifft(grid.dual_axis))
    mat.setflags(write=False)
    return mat


def gauge_phase(a: np.ndarray, dx: float) -> np.ndarray:
    """phi with phi' = A on a line: the cumulative trapezoid of A, phi[0] = 0."""
    phi = np.zeros(len(a))
    np.cumsum(0.5 * dx * (a[1:] + a[:-1]), out=phi[1:])
    return phi


def apply_expanded(f: np.ndarray, diag: np.ndarray, axes, kinetic: bool = True) -> np.ndarray:
    """diag f plus, per axis k, (p_k^2 - A_k p_k - p_k A_k) f / 2m_k.

    With G = F_k f and H = F_k(A_k f) on each axis (F_k the one-axis
    transform) this is

        F_k^-1(xi_k/2m_k (xi_k G - H)) - (A_k/2m_k) F_k^-1(xi_k G),

    two paired transforms: G and H in one call on a (2, *f.shape) buffer,
    and both inverse transforms in one more.  When A_k is None it is
    F_k^-1(xi_k^2/2m_k G), two passes.  kinetic=False drops the p_k^2
    term, which dH/drho does not have.  ``axes`` holds ``axis_terms``
    tuples; f may have leading batch axes.
    """
    f = np.asarray(f, dtype=complex)
    out = diag * f
    # the axis goes in positionally (n=None): keyword dispatch costs about
    # half a microsecond per transform, a few percent of a 1-D apply
    for k, xi, xi_2m, kin, a, a_2m in axes:
        if a is None:
            if kinetic:
                out += sfft.ifft(kin * sfft.fft(f, None, k), None, k)
            continue
        pair = np.empty((2, *f.shape), dtype=complex)
        pair[0] = f
        np.multiply(a, f, out=pair[1])
        # overwrite_x: the spectrum may be the buffer itself, so each slot
        # is read before it is written
        spec = sfft.fft(pair, None, k, None, True)
        xi_g = xi * spec[0]
        if kinetic:
            np.subtract(xi_g, spec[1], out=spec[1])
        spec[1] *= xi_2m
        spec[0] = xi_g
        back = sfft.ifft(spec, None, k, None, True)
        if kinetic:
            out += back[1]
        else:
            out -= back[1]
        out -= a_2m * back[0]
    return out


class HamiltonianHandle:
    """Bound (family, grid, rho) triple exposing matrix-free applications.

    The fields of each time are sampled once and memoized, since iterative
    solvers apply the operator many times at a frozen midpoint time.  A
    family without t has one set of fields and cutoff symbols for all
    times: every t maps to one memo key.
    """

    def __init__(self, fam: PotentialFamily, grid: SpatialGrid, rho: float = 0.0):
        fam.check_rho(rho)
        self.fam = fam
        self.grid = grid
        self.rho = rho
        self.mass = fam.mass
        self.time_dependent = fam.is_time_dependent
        self._fields = Memo(self._hamiltonian_fields)
        self._rho_fields = Memo(self._derivative_fields)
        self._chi = Memo(self._cutoff_symbol)
        self._cayley_key, self._cayley = None, None

    def _key(self, t: float) -> float:
        """The memo key of time t."""
        return t if self.time_dependent else 0.0

    @cached_property
    def kinetic_multiplier(self) -> np.ndarray:
        """|xi|^2 / 2m on the dual grid."""
        return self.grid.dual_radius_sq / (2.0 * self.mass)

    def _hamiltonian_fields(self, t: float):
        """(V + |A|^2/2m, kernel axis data of A) at time t."""
        V, A = eval_potential(self.fam, t, self.rho, self.grid)
        a_sq = np.zeros(self.grid.shape)
        for comp in A:
            a_sq = a_sq + comp**2
        axes = tuple(axis_terms(self.grid, k, self.mass, comp) for k, comp in enumerate(A))
        pot = V + a_sq / (2.0 * self.mass)
        pot.setflags(write=False)
        return pot, axes

    def _derivative_fields(self, t: float):
        """(dV + A . dA / m, kernel axis data of dA) at time t."""
        dV, dA = partial_rho(self.fam, t, self.rho, self.grid)
        _, axes = self._fields[t]
        cross = np.zeros(self.grid.shape)
        for (*_, a, _), da in zip(axes, dA):
            if a is not None:
                cross = cross + a * da
        dA_axes = tuple(axis_terms(self.grid, k, self.mass, da) for k, da in enumerate(dA))
        return dV + cross / self.mass, dA_axes

    def potential_multiplier(self, t: float) -> np.ndarray:
        """V + |A|^2/2m: the x-diagonal part of the expanded form (read-only)."""
        return self._fields[self._key(t)][0]

    def gauge_split(self, t: float) -> tuple:
        """(phi, V_g) with H(t) ~ e^{i phi} p^2/2m e^{-i phi} + V_g.

        In 1-D, phi' = A turns (p - A)^2 into p^2 exactly in the continuum,
        and V_g = V.  phi is the cumulative trapezoid of A with phi[0] = 0.
        With no field, or on a 2-D grid (where A_k depends on both
        coordinates), phi is None and V_g the full potential multiplier.
        """
        pot, axes = self._fields[self._key(t)]
        a, a_2m = axes[0][4:]
        if self.grid.d > 1 or a is None:
            return None, pot
        return gauge_phase(a, self.grid.dx), pot - a * a_2m

    def apply(self, t: float, f: np.ndarray) -> np.ndarray:
        """H(t) f for a raw complex array: one state or a (B, *grid.shape) stack."""
        return apply_expanded(f, *self._fields[self._key(t)])

    def apply_rho_derivative(self, t: float, f: np.ndarray) -> np.ndarray:
        """(dH/drho)(t) f: the operator driving the variational equation."""
        return apply_expanded(f, *self._rho_fields[self._key(t)], kinetic=False)

    def matrix(self, t: float, derivative: bool = False) -> np.ndarray:
        """The dense grid.size x grid.size matrix of H(t), or of (dH/drho)(t).

        Filled from the memoized fields in the kernel's closed form
        K + diag(pot) - sum_k (a_k,i + a_k,j) C_k,ij, a_k = A_k/2m, which is
        C_k diag(a_k) + diag(a_k) C_k entry by entry.  derivative drops K
        and takes the dH/drho fields.  On a 2-D grid an axis circulant
        enters as its Kronecker product with the identity; C_k is built
        only for an axis with a field.
        """
        grid, n = self.grid, self.grid.size
        pot, axes = (self._rho_fields if derivative else self._fields)[self._key(t)]

        def embed(mat, k):
            """The axis-k matrix mat acting on the raveled grid."""
            if grid.d == 1:
                return mat
            eye = np.eye(grid.N)
            return np.kron(mat, eye) if k == 0 else np.kron(eye, mat)

        out = np.zeros((n, n), dtype=complex)
        if not derivative:
            for k in range(grid.d):
                out += embed(_kinetic_circulant(grid, self.mass), k)
        for k, (*_, a_2m) in enumerate(axes):
            if a_2m is not None:
                a = np.broadcast_to(a_2m, grid.shape).ravel()
                out -= np.add.outer(a, a) * embed(_momentum_circulant(grid), k)
        out.flat[:: n + 1] += pot.ravel()
        return out

    def _cutoff_symbol(self, key):
        t, cutoff = key
        return eval_symbol("chi_eps", self.fam, self.grid, t=t, rho=self.rho, cutoff=cutoff)

    def apply_mollified(self, t: float, f: np.ndarray, cutoff: CutoffSpec) -> np.ndarray:
        """X* H X f with X the quantized cutoff at the same time."""
        X = self._chi[self._key(t), cutoff]
        xf = quantize_symbol(X, f)
        hxf = self.apply(t, xf)
        return adjoint_quantize_symbol(X, hxf)

    def cayley_inverse(self, t: float, tau: float, cutoff: CutoffSpec | None = None) -> np.ndarray:
        """The dense (I + i tau Op)^-1, Op = H or X* H X, of a family without t.

        Built from Op's dense matrix at time t (``matrix`` for H, one
        identity-stack call for X* H X) and cached for one (tau, cutoff)
        key; a new key replaces the old inverse, so a handle holds at most
        one N x N matrix.
        """
        if self._cayley_key != (tau, cutoff):
            # release the old inverse before the new one is built
            self._cayley_key, self._cayley = None, None
            if cutoff is None:
                mat = self.matrix(t)
            else:
                mat = dense_matrix(partial(self.apply_mollified, t, cutoff=cutoff), self.grid)
            mat *= 1j * tau
            diag = np.arange(self.grid.size)
            mat[diag, diag] += 1.0
            self._cayley = inv(mat, overwrite_a=True, check_finite=False, assume_a="general")
            self._cayley_key = (tau, cutoff)
        return self._cayley

    def norm_order(self, a: int) -> "NormOrder":
        """Weighted-norm order calibrated to this family's growth."""
        return NormOrder(a=a, growth_order=self.fam.growth_order, mass=self.mass)


# ---------------------------------------------------------------------------
# weight operator and norms


@dataclass(frozen=True)
class NormOrder:
    """Order data of the polynomially weighted norm scale.

    a is the (integer, possibly negative) order; growth_order is the M of
    the family the scale is calibrated to.  The shift mu' that keeps the
    weight operator positive definite is a function of (grid, M, mass):
    ``resolve_mu_prime``.
    """

    a: int
    growth_order: int
    mass: float = 1.0

    def __post_init__(self):
        if self.a != int(self.a):
            raise ConfigError("order a must be an integer")
        if abs(self.a) > 3:
            raise ConfigError(f"orders are capped at |a| <= 3, got {self.a}")
        if self.growth_order < 0:
            raise ConfigError("growth_order must be >= 0")
        if self.mass <= 0:
            raise ConfigError("mass must be positive")

    @property
    def weight_exponent(self) -> float:
        return 2.0 * abs(self.a) * (self.growth_order + 1)

    def norm(self, f, grid: SpatialGrid | None = None):
        return weighted_norm(self, f, grid)


def resolve_mu_prime(order: NormOrder, grid: SpatialGrid) -> float:
    core = grid.dual_radius_sq / (2.0 * order.mass) + grid.bracket_weight(
        2.0 * (order.growth_order + 1)
    )
    # scanned minimum plus one keeps the quantized operator safely definite
    return 1.0 + max(0.0, 1.0 - float(core.min()))


def _lambda_m_parts(order: NormOrder, grid: SpatialGrid):
    mu_p = resolve_mu_prime(order, grid)
    kin = grid.dual_radius_sq / (2.0 * order.mass)
    weight = grid.bracket_weight(2.0 * (order.growth_order + 1))
    return mu_p, kin, weight


def _lambda_m_apply(mu_p, kin, weight, grid, f):
    return mu_p * f + grid.ifft(kin * grid.fft(f)) + weight * f


def solve_hermitian_cg(apply_op, b, tol: float = 1e-12, maxiter: int = 20000):
    """Conjugate gradients for a Hermitian positive-definite operator.

    Plain complex CG on raw arrays, started from zero; tolerance is
    relative to ||b||.
    """
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = np.vdot(r, r).real
    b_norm = np.linalg.norm(b.ravel())
    if b_norm == 0.0:
        return x, 0
    threshold = (tol * b_norm) ** 2
    for k in range(maxiter):
        if rs <= threshold:
            return x, k
        ap = apply_op(p)
        alpha = rs / np.vdot(p, ap).real
        x += alpha * p
        r -= alpha * ap
        rs_new = np.vdot(r, r).real
        p = r + (rs_new / rs) * p
        rs = rs_new
    if rs <= threshold:
        return x, maxiter
    raise SolverError(
        f"CG did not reach tol={tol:g} in {maxiter} iterations "
        f"(residual {np.sqrt(rs) / b_norm:.3e})"
    )


@lru_cache(maxsize=_FACTOR_SLOTS)
def _lambda_m_factor(order: NormOrder, grid: SpatialGrid):
    """Cholesky factor of the real symmetric N x N matrix of Lambda_M on a 1-D grid.

    The kinetic part is ``_kinetic_matrix``, built afresh rather than
    copied from the cache, so no N x N circulant outlives the factor.
    ``order`` has a = -1, so the cache key is (grid, growth_order, mass),
    which fixes mu'.
    """
    mu_p, _, weight = _lambda_m_parts(order, grid)
    mat = _kinetic_matrix(grid, order.mass)
    mat.flat[:: grid.N + 1] += mu_p + weight
    # mat is symmetric: its F-ordered transpose reaches LAPACK without a copy
    return cho_factor(mat.T, overwrite_a=True)


def apply_lambdaM_power(order: NormOrder, f: WaveFunction) -> WaveFunction:
    """Integer power of the weight operator mu' + p^2/2m + <x>^(2(M+1)).

    Negative powers solve Lambda_M x = f: in 1-D with the cached Cholesky
    factor of its matrix, the real and imaginary parts as two right-hand
    sides; in 2-D by conjugate gradients on the (Hermitian,
    positive-definite) operator itself, to 1e-12 relative residual.
    """
    return f.with_values(_lambda_m_power(order, f.values.astype(complex), f.grid))


def _lambda_m_power(order: NormOrder, vals: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Lambda_M^a on raw values: one state or a (R, *grid.shape) stack."""
    n = int(order.a)
    if n < 0 and grid.d == 1:
        factor = _lambda_m_factor(replace(order, a=-1), grid)
        rows = vals.reshape(-1, grid.N)
        r = len(rows)
        for _ in range(-n):
            # the real and the imaginary part of every row: 2R right-hand sides
            x = cho_solve(factor, np.concatenate([rows.real, rows.imag]).T, check_finite=False)
            rows = (x[:, :r] + 1j * x[:, r:]).T
        return rows.reshape(vals.shape)
    mu_p, kin, weight = _lambda_m_parts(order, grid)
    op = lambda g: _lambda_m_apply(mu_p, kin, weight, grid, g)
    for _ in range(n):
        vals = op(vals)
    if n < 0:
        rows = vals.reshape(-1, *grid.shape)
        for _ in range(-n):
            rows = np.stack([solve_hermitian_cg(op, row)[0] for row in rows])
        vals = rows.reshape(vals.shape)
    return vals


def weighted_norm(order: NormOrder, f, grid: SpatialGrid | None = None):
    """Polynomially weighted Sobolev-type norm of order a.

    a = 0 is the plain L2 norm.  For a >= 1 the norm is the sum of all
    derivative norms up to order 2a plus the norm of <x>^(2a(M+1)) f.
    Negative orders are measured through the inverse weight operator,
    ||Lambda_M^a f||: in 1-D by a Cholesky factor of the matrix of
    Lambda_M, built on the first call for each (grid, growth order, mass),
    which fixes mu', and cached; in 2-D by conjugate gradients to 1e-12
    relative residual.

    f is a WaveFunction, or raw values on ``grid``: one state, or a
    (R, *grid.shape) stack, which gives an array of R norms.
    """
    vals, grid = _values_of(f, grid)
    a = int(order.a)
    if a < 0:
        vals = _lambda_m_power(order, vals.astype(complex), grid)
    if a <= 0:
        return l2_norm(vals, grid)
    total = derivative_norm_sum(vals, grid, 2 * a)
    total += l2_norm(grid.bracket_weight(order.weight_exponent) * vals, grid)
    return total


__all__ = [
    "HamiltonianHandle",
    "Memo",
    "apply_expanded",
    "axis_terms",
    "gauge_phase",
    "NormOrder",
    "apply_lambdaM_power",
    "weighted_norm",
    "resolve_mu_prime",
    "solve_hermitian_cg",
]
