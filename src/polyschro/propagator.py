"""Time steppers for the confined Schrodinger flow.

Two schemes share the record-keeping harness:

* crank_nicolson_midpoint: the Cayley step
  (I + i dt/2 H(t_mid)) u_next = (I - i dt/2 H(t_mid)) u, solved
  iteratively or in closed form; exactly norm-preserving up to the
  solver tolerance.
* lanczos_expmid: Krylov approximation of exp(-i dt H(t_mid)) u, sized
  by a computable upper bound of its error.

On a 1-D grid of at most DIRECT_MAX_N points, a family without t has
one Hermitian operator Op for the whole run, plain or mollified, and its
Crank-Nicolson flow is a function of Op: U^n = Q diag(c^n) Q^H with
Op = Q diag(lam) Q^H and c = (1 - i tau lam) / (1 + i tau lam).  The run
takes that eigendecomposition once, with its defect delta measured by
the operator kernel, and moves from one record to the next in closed
form (``_EigenFlow``); a variational run's tangent is the exact
rho-derivative of the discrete flow, by the Daleckii-Krein formula
(Higham, Functions of Matrices, 2008, Sec. 3.2).  delta bounds the
relative residual of every step the closed form stands for, so it is
each such step's residual, and the run checks it once, before the first
step.  Every other Cayley step (time-dependent, composite or larger
grids) is one solve by the module's restarted GMRES (Saad and Schultz
1986), which keeps scipy's stopping rule.  Plain flows precondition it with the
gauge-twisted split: the exact inverses of the potential-only Cayley
factor and of the kinetic-only one conjugated by the gauge factor
e^{i phi}, phi' = A, which takes the magnetic term into the kinetic
factor wherever each A_k depends on x_k alone (1-D, and per particle on
the composite grid).  The solve starts from that split applied to the
right-hand side, the split-step Cayley predictor (Lubich 2008), and
iterates on the fused preconditioned operator, one apply and one
transform pair an iteration.  Mollified flows, whose operator is
bounded, run it unpreconditioned from the right-hand side.  Both solves
check their true residual, and one that misses the module's SOLVER_TOL,
or runs past MAX_SOLVER_ITER, raises SolverError; there is no fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, partial

import numpy as np
from numpy.linalg import eigh
from scipy.linalg import eigh_tridiagonal

from .errors import ConfigError, SolverError
from .grid import WaveFunction, _check_same_grid, _finite, _values_of, _whole, l2_norm
from .operators import NormOrder, solve_hermitian_cg  # the latter only for perfbench/tracer.py
from .report import write_csv
from .symbols import CutoffSpec, dense_matrix

SCHEMES = ("crank_nicolson_midpoint", "lanczos_expmid")
# the largest 1-D grid whose t-free runs take the closed form; its
# eigenvectors take 2 MB real, or 4 MB complex, at N=512
DIRECT_MAX_N = 512
GMRES_RESTART = 40
# records whose norms are taken in one batch: 16 N=512 states take 0.13 MB
NORM_BATCH = 16
# the relative residual target of a Cayley solve and of a Lanczos error bound
SOLVER_TOL = 1e-11
# inner GMRES iterations of one Cayley solve, summed over its restarts
MAX_SOLVER_ITER = 4000
# the share of a record's mass within a tenth of L of the box edge
BOUNDARY_TOL = 1e-6


@dataclass(frozen=True)
class PropagatorConfig:
    """Stepper parameters.

    A run starts at t = 0, and t_final must be an integer number of steps;
    eps switches the run to the mollified Hamiltonian with the given cutoff
    strength (and cutoff shift mu = 0).  krylov_dim caps the Lanczos basis,
    and a step that reaches the cap keeps its result and reports its
    error bound as the step residual.  The tolerances are the module's
    SOLVER_TOL, MAX_SOLVER_ITER and BOUNDARY_TOL; a run whose step
    residuals rise above SOLVER_TOL, or whose boundary mass rises above
    BOUNDARY_TOL, says so in one line of its warnings.
    """

    scheme: str = "crank_nicolson_midpoint"
    dt: float = 1e-3
    t_final: float = 1.0
    krylov_dim: int = 24
    eps: float | None = None
    save_every: int = 1
    keep_states: bool = True

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; known: {SCHEMES}")
        for name in ("dt", "t_final"):
            if not _finite(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number")
        if not (self.dt > 0):
            raise ConfigError("dt must be positive")
        if self.t_final <= 0:
            raise ConfigError("t_final must be positive")
        n = self.t_final / self.dt
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ConfigError(
                f"t_final = {self.t_final} is not an integer multiple of dt = {self.dt}"
            )
        if not isinstance(self.keep_states, bool):
            raise ConfigError("keep_states must be true or false")
        for name in ("save_every", "krylov_dim"):
            object.__setattr__(self, name, _whole(getattr(self, name), name, ConfigError))
        if self.save_every < 1:
            raise ConfigError("save_every must be >= 1")
        if self.krylov_dim < 1:
            raise ConfigError("krylov_dim must be >= 1")
        if self.eps is not None and not (_finite(self.eps) and 0 < self.eps <= 1):
            raise ConfigError("eps must lie in (0, 1]")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    def cutoff(self) -> CutoffSpec | None:
        if self.eps is None:
            return None
        return CutoffSpec(eps=self.eps)


@dataclass
class StepReport:
    iterations: int = 0
    residual: float = 0.0


def _cayley_eigen(handle, tau: float, cutoff: CutoffSpec | None) -> tuple:
    """(lam, Q, delta): Op = Q diag(lam) Q^H, Op = H or X* H X of a family
    without t, and the defect delta of the closed form built on it.

    Op's dense matrix comes from ``handle.matrix`` for H and from one
    identity-stack call for X* H X.  A matrix with no imaginary part, as
    every field-free H has, is split by the real symmetric eigh.  R =
    Op Q - Q diag(lam) is the kernel's action on Q's columns: one
    ``handle.apply`` on their stack for H, which checks ``matrix`` against
    the FFT kernel, and the product with X* H X's matrix, itself the
    kernel's image of the identity stack.  With E = Q^H Q - I,

        delta = ||E||_F + 2 tau ||R||_F (1 + ||E||_F).

    For ||E|| <= 1/2 it bounds, up to the rounding of the products that
    apply the closed form (D = (I + i tau Lam)^-1, |D| <= 1, and Q's
    singular values lie within sqrt(1 +- ||E||)):

    * the relative residual of every homogeneous step u = Q y -> Q c y,
      whose midpoint x = Q D y leaves (I + i tau Op) x - u = i tau R D y;
    * the residual of a forced step, relative to ||u|| + tau ||f||, which
      adds i tau (I - Q Q^H) f, of norm at most tau ||E|| ||f||;
    * the distance n delta ||u0|| of the n-th state from the exact Cayley
      flow of u0 under the Hermitian Op: the start Q Q^H u0 is within
      ||E|| ||u0|| of u0, and each step adds at most 2 tau ||R|| ||y||,
      y = Q^H u0; a forced step adds at most dt delta ||f|| more.

    A non-finite matrix returns delta = NaN, which the caller rejects.
    """
    grid = handle.grid
    mat = handle.matrix(0.0) if cutoff is None else dense_matrix(
        partial(handle.apply_mollified, 0.0, cutoff=cutoff), grid)
    if not np.isfinite(mat).all():
        return None, None, math.nan
    # LAPACK's divide and conquer (syevd, heevd): 6 ms real and 16 ms
    # complex at N = 256, with Q orthonormal to about 3e-14
    lam, vecs = eigh(mat.real if not mat.imag.any() else mat)
    if cutoff is None:
        # the rows of vecs.T are Q's columns
        resid = handle.apply(0.0, vecs.T).T
    else:
        resid = mat @ vecs
    del mat
    resid -= vecs * lam
    r = float(np.linalg.norm(resid))
    del resid
    defect = vecs.conj().T @ vecs
    defect.flat[:: grid.N + 1] -= 1.0
    e = float(np.linalg.norm(defect))
    return lam, vecs, e + 2.0 * tau * r * (1.0 + e)


def _divided_powers(lam: np.ndarray, tau: float, s: int) -> np.ndarray:
    """Delta_s[j, l] = (c_j^s - c_l^s) / (lam_j - lam_l), the divided
    differences of c^s, c = (1 - i tau lam) / (1 + i tau lam) = e^{i theta},
    theta = -2 arctan(tau lam); on ties, the derivative s c^(s-1) c'.

    The quotient cancels for close pairs, so it is taken in the form

        2i e^{i s (theta_j + theta_l) / 2} s sinc(s x / pi) (-tau / q) arctan(z) / z,

    q = 1 + tau^2 lam_j lam_l, z = tau (lam_j - lam_l) / q, x = -arctan z
    = (theta_j - theta_l) / 2, and arctan(z) / z = 1 at z = 0.  It needs
    q > 0, which holds for every pair closer than 2 / tau.  A pair with
    q <= 0 lies further apart, takes x = -arctan2(tau (lam_j - lam_l), q),
    the same half-difference off arctan's branch, and the plain quotient
    x / (lam_j - lam_l) for the last two factors.
    """
    t_lam = tau * lam
    theta = -2.0 * np.arctan(t_lam)
    diff = np.subtract.outer(t_lam, t_lam)  # tau (lam_j - lam_l) = z q
    q = np.multiply.outer(t_lam, t_lam)
    q += 1.0
    x = np.arctan2(diff, q)
    np.negative(x, out=x)
    # the N x N temporaries are built in place, a few at a time
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.divide(diff, q)  # z
        np.divide(np.arctan(scale), scale, out=scale)
        scale[diff == 0.0] = 1.0
        scale *= -tau
        scale /= q
        far = q <= 0.0
        scale[far] = tau * x[far] / diff[far]
    del diff, q, far
    scale *= np.sinc(x * (s / np.pi))
    scale *= s
    out = np.exp(0.5j * s * np.add.outer(theta, theta))
    out *= scale
    out *= 2j
    return out


class _Operator:
    """The time-frozen operator of one run and its step rule, resolved
    once: ``apply`` (H, or X* H X when mollified) and the GMRES Cayley
    solve or the Lanczos step."""

    def __init__(self, handle, cfg: PropagatorConfig):
        self.handle, self.grid, self.cfg = handle, handle.grid, cfg
        self.tau = 0.5 * cfg.dt
        self.cutoff = cfg.cutoff()
        if self.cutoff is None:
            self.apply = handle.apply
        elif hasattr(handle, "apply_mollified"):
            self.apply = partial(handle.apply_mollified, cutoff=self.cutoff)
        else:
            raise ConfigError(f"mollified propagation is single-particle only, "
                              f"not for a {type(handle).__name__}")
        # the flow is a function of one matrix: the closed form takes it
        self.closed_form = (cfg.scheme == "crank_nicolson_midpoint" and self.grid.d == 1
                            and self.grid.N <= DIRECT_MAX_N and not handle.time_dependent)
        # (1 + i tau K)^-1 on the dual grid, the split's kinetic factor
        self.inv_kin = 1.0 / (1.0 + 1j * self.tau * handle.kinetic_multiplier)
        self.krylov_k = 0  # the Lanczos basis size of the run's last step

    def step(self, n: int, u: np.ndarray, source_mid: np.ndarray | None = None) -> tuple:
        """(u_{n+1}, its StepReport) from u_n.  A Crank-Nicolson step is
        u' = 2 (I + i tau Op)^-1 (u - i tau f) - u, f the source at t_mid."""
        t_mid = _t_mid(self.cfg, n)
        if self.cfg.scheme == "lanczos_expmid":
            return _lanczos_expm(self, t_mid, u, self.cfg)
        rhs = u if source_mid is None else u - 1j * self.tau * source_mid
        v, rep = _cayley_solve(self, n, t_mid, rhs)
        return 2.0 * v - u, rep


def _t_mid(cfg: PropagatorConfig, n: int) -> float:
    """The midpoint time of step n, the step from n dt."""
    return n * cfg.dt + 0.5 * cfg.dt


def _at_step(cfg: PropagatorConfig, n: int) -> str:
    """Where step n ends, as an error names it."""
    return f"at step {n + 1} (t={(n + 1) * cfg.dt:.6g})"


def _cayley_solve(op: _Operator, n: int, t_mid: float, rhs: np.ndarray) -> tuple:
    """Solve (I + i tau Op(t_mid)) x = rhs for Cayley step n by gmres.

    This is every Cayley step but those of the closed form
    (``_EigenFlow``).  gmres runs from x0 = M b.  For plain
    flows M is the gauge-twisted ``_Split``, so x0 is the split-step
    Cayley predictor, and the inner iterations run on the fused operator
    M A, one apply and one transform pair each.  Mollified flows iterate
    on A itself (M = I).  gmres returns the true residual of its
    solution, so no extra apply is needed, and ``_check_cayley`` checks
    the step at once.  The step's residual is ||A x - rhs|| / ||rhs||.
    """
    cfg, tau, shape = op.cfg, op.tau, op.grid.shape

    def a_matvec(v):
        v = v.reshape(shape)
        return (v + 1j * tau * op.apply(t_mid, v)).ravel()

    b = rhs.ravel()
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros(shape, dtype=complex), StepReport()
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    split = _Split(op, t_mid) if op.cutoff is None else None
    x, info, res = gmres(a_matvec, b, split, rtol=SOLVER_TOL,
                         maxiter=MAX_SOLVER_ITER, callback=count,
                         pmatvec=None if split is None else split.fused)
    true_res = res / b_norm
    if not np.isfinite(true_res):
        # a blow-up: the stepping loop reports the non-finite state
        return np.full(shape, np.nan, dtype=complex), StepReport(iters, np.nan)
    _check_cayley(true_res, n, cfg, converged=info == 0)
    return x.reshape(shape), StepReport(iterations=iters, residual=float(true_res))


def _check_cayley(residual: float, n: int, cfg: PropagatorConfig, converged: bool = True):
    """Raise SolverError for Cayley step n if it did not converge or its
    relative residual is not within 50 SOLVER_TOL (a NaN one included)."""
    if not (converged and residual <= 50 * SOLVER_TOL):
        raise SolverError(
            f"Cayley solve stalled at relative residual {residual:.3e} "
            f"(target {SOLVER_TOL:g}) at t_mid={_t_mid(cfg, n)} {_at_step(cfg, n)}"
        )


class _Split:
    """M = e^{i phi} (I + i tau K)^-1 e^{-i phi} (I + i tau V_g)^-1, one step's split.

    The handle's ``gauge_split`` gives (phi, V_g) with
    H ~ e^{i phi} K e^{-i phi} + V_g, K the kinetic multiplier; where phi
    is None the twist is left out.  Both factors are exact inverses, each
    diagonal in one basis.  The potential factor is built once per step
    and shared by x0 = M b, the restarts' M r and the fused operator;
    tau and the kinetic factor are the operator's, built once per run.
    """

    def __init__(self, op: _Operator, t_mid: float):
        phi, v_g = op.handle.gauge_split(t_mid)
        self.op, self.t_mid, self.itau = op, t_mid, 1j * op.tau
        # e^{-i phi} (I + i tau V_g)^-1, the diagonal applied before the transform
        self.pre = 1.0 / (1.0 + self.itau * v_g)
        self.twist = None
        if phi is not None:
            self.twist = np.exp(1j * phi)
            self.pre *= self.twist.conj()

    def _kinetic(self, w: np.ndarray) -> np.ndarray:
        """e^{i phi} (I + i tau K)^-1 w; raveled."""
        grid = self.op.grid
        spec = grid.fft(w)
        spec *= self.op.inv_kin
        w = grid.ifft(spec)
        if self.twist is not None:
            w *= self.twist
        return w.ravel()

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """M v."""
        return self._kinetic(self.pre * v.reshape(self.op.grid.shape))

    def fused(self, v: np.ndarray) -> np.ndarray:
        """M A v, one apply and one transform pair.

        The diagonal factor is applied once, in place, to v + i tau H v,
        which gives e^{-i phi} (v + c (H v - V_g v)), c = i tau / (1 + i tau V_g).
        """
        v = v.reshape(self.op.grid.shape)
        w = self.op.apply(self.t_mid, v)
        w *= self.itau
        w += v
        w *= self.pre
        return self._kinetic(w)


def _givens(f: complex, g: complex) -> tuple:
    """(c, s, r) with [[c, s], [-conj(s), c]] @ [f, g] = [r, 0], c real (as LAPACK lartg)."""
    if g == 0:
        return 1.0, 0j, f
    if f == 0:
        ag = abs(g)
        return 0.0, g.conjugate() / ag, complex(ag)
    af = abs(f)
    d = math.hypot(af, abs(g))
    phase = f / af
    return af / d, phase * g.conjugate() / d, phase * d


def _norm(v: np.ndarray) -> float:
    return math.sqrt(np.vdot(v, v).real)


def gmres(matvec, b: np.ndarray, psolve, *, rtol: float, maxiter: int, callback,
          pmatvec=None) -> tuple:
    """Left-preconditioned GMRES(40) for A x = b on raw vectors.

    matvec(v) is A v and psolve(v) is M v (None: M = I).  The inner loop
    iterates on pmatvec(v) = M A v when it is given, else on
    psolve(matvec(v)).  The solve starts from x0 = M b, which the inner
    tolerance needs anyway.  Its stopping rule is that of scipy 1.17's
    gmres with callback_type="legacy": the inner loop stops when the
    preconditioned residual estimate ||M r|| is at most ptol (||M b|| rtol
    at first, then rescaled after each restart with the same
    ptol_max_factor update), the outer loop when the true residual
    ||b - A x|| is at most rtol ||b||, and maxiter counts inner
    iterations.  callback(estimate / ||b||) runs once per inner iteration.
    The basis is orthogonalized by modified Gram-Schmidt, as scipy does.

    A non-finite residual at x0 returns at once.

    Returns (x, info, ||b - A x||); info is 0 on convergence, else maxiter.
    """
    psolve = psolve or (lambda v: v)
    pmatvec = pmatvec or (lambda v: psolve(matvec(v)))
    n = b.size
    restart = min(GMRES_RESTART, n)
    eps = np.finfo(float).eps
    b_norm = np.linalg.norm(b)
    atol = rtol * b_norm
    x = psolve(b).copy()
    ptol_max_factor = 1.0
    ptol = _norm(x) * min(1.0, rtol)
    r = b - matvec(x)
    r_norm = np.linalg.norm(r)
    if not r_norm >= atol:
        # converged at x0, or a non-finite operator or b that no iteration repairs
        return x, (0 if r_norm < atol else maxiter), r_norm
    basis = np.empty((restart + 1, n), dtype=complex)
    proj = np.empty(n, dtype=complex)  # one Gram-Schmidt term, h basis[k]
    inner = 0
    while True:
        z = psolve(r)
        beta = _norm(z)
        np.multiply(z, 1.0 / beta, out=basis[0])
        g = [complex(beta)]  # the rotated right-hand side of the least-squares problem
        cols, rots = [], []  # Hessenberg columns, triangular once rotated; the rotations
        breakdown = False
        for col in range(restart):
            w = pmatvec(basis[col])
            h0 = _norm(w)
            column = []
            for k in range(col + 1):
                h = complex(np.vdot(basis[k], w))
                column.append(h)
                np.multiply(basis[k], h, out=proj)
                w -= proj
            h1 = _norm(w)
            if h1 <= eps * h0:
                h1, breakdown = 0.0, True
            else:
                np.multiply(w, 1.0 / h1, out=basis[col + 1])
            for k, (c, s) in enumerate(rots):
                column[k], column[k + 1] = (c * column[k] + s * column[k + 1],
                                            -s.conjugate() * column[k] + c * column[k + 1])
            c, s, column[col] = _givens(column[col], complex(h1))
            rots.append((c, s))
            cols.append(column)
            g.append(-s.conjugate() * g[col])
            g[col] *= c
            presid = abs(g[col + 1])
            inner += 1
            callback(presid / b_norm)
            if inner == maxiter or presid <= ptol or breakdown:
                break
        # back-substitution on the triangle; a zero pivot drops its term
        if cols[col][col] == 0:
            g[col] = 0j
        y = g[:col + 1]
        for k in range(col, -1, -1):
            if y[k] != 0:
                y[k] /= cols[k][k]
                for i in range(k):
                    y[i] -= y[k] * cols[k][i]
        x += np.array(y) @ basis[:col + 1]
        r = b - matvec(x)
        r_norm = np.linalg.norm(r)
        if inner == maxiter or r_norm <= atol or breakdown:
            break
        if presid <= ptol:
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / r_norm)
    return x, (0 if r_norm <= atol else maxiter), r_norm


@cache
def _gauss_legendre() -> np.ndarray:
    """The 16-node Gauss-Legendre rule on [0, 1], rows nodes and weights:
    scaled by dt, the quadrature of the Lanczos error bound's integral over
    a step.  Built at the first Lanczos step, not at import, because its
    eigensolve pages in 0.8 MB of LAPACK code that Cayley runs never load."""
    rule = 0.5 * (np.array(np.polynomial.legendre.leggauss(16)) + [[1.0], [0.0]])
    rule.setflags(write=False)
    return rule


def _lanczos_expm(op: _Operator, t_mid: float, u: np.ndarray, cfg: PropagatorConfig):
    """Krylov exp(-i dt Op) u by the three-term Lanczos recurrence (Saad 1992).

    Stops at the first k whose error bound is at most SOLVER_TOL, or at
    k = krylov_dim.  For Hermitian Op the defect-integral bound of
    Jawecki, Auzinger and Koch (2020)

        ||exp(-i dt Op) u - ||u|| V_k exp(-i dt T_k) e_1|| / ||u||
            <= beta_k * integral_0^dt |e_k^T exp(-i s T_k) e_1| ds

    is an upper bound in exact arithmetic.  The integral is taken by the
    _gauss_legendre rule scaled to [0, dt] on the Ritz pairs (theta, S) of
    T_k, which the step needs anyway.  The bound is returned as the step
    residual, also when the cap stops the recurrence first.  It costs a
    tridiagonal eigensolve, so it is first taken at the previous step's
    k - 2 (a run's steps need similar k); the step still stops only where
    the bound meets the target.  No reorthogonalization: Lanczos without
    it still computes f(A)b accurately (Druskin, Greenbaum and
    Knizhnerman 1998).
    """
    shape = u.shape
    norm_u = np.linalg.norm(u.ravel())
    if norm_u == 0.0:
        return u.copy(), StepReport()
    m = cfg.krylov_dim
    basis = np.empty((m, u.size), dtype=complex)
    scratch = np.empty(u.size, dtype=complex)  # one recurrence term, coefficient times basis vector
    alphas, betas = np.empty(m), np.empty(m)
    basis[0] = u.ravel() / norm_u
    nodes, weights = cfg.dt * _gauss_legendre()
    for j in range(m):
        w = op.apply(t_mid, basis[j].reshape(shape)).ravel()
        alphas[j] = np.vdot(basis[j], w).real
        w -= np.multiply(basis[j], alphas[j], out=scratch)
        if j > 0:
            w -= np.multiply(basis[j - 1], betas[j - 1], out=scratch)
        betas[j] = _norm(w)
        k = j + 1
        if not np.isfinite(betas[j]):
            # a blow-up: the stepping loop reports the non-finite state
            return np.full(shape, np.nan, dtype=complex), StepReport(k, np.nan)
        if k >= op.krylov_k - 2 or k == m:
            theta, S = eigh_tridiagonal(alphas[:k], betas[:j], check_finite=False)
            # e_k^T exp(-i s T_k) e_1 at the quadrature nodes s
            defect = np.exp(np.multiply.outer(nodes, -1j * theta)) @ (S[-1, :] * S[0, :])
            bound = float(betas[j] * (weights @ np.abs(defect)))
            if bound <= SOLVER_TOL or k == m:
                break
        np.multiply(w, 1.0 / betas[j], out=basis[k])
    op.krylov_k = k
    coeff = S @ (np.exp(-1j * cfg.dt * theta) * S[0, :])
    out = (norm_u * coeff) @ basis[:k]
    return out.reshape(shape), StepReport(iterations=k, residual=bound)


def flag_lines(flags: list, unit: str) -> list:
    """flags as at most one warning line: the first, and how many later units followed."""
    later = len(flags) - 1
    return [flags[0] + (f" (and {later} later {unit})" if later else "")] if flags else []


def resolve_norm_orders(handle, norm_orders) -> tuple:
    """handle's NormOrders for norm_orders, each one or its order a; an order
    given twice, which would write its CSV column twice, raises ConfigError."""
    orders = tuple(o if isinstance(o, NormOrder) else handle.norm_order(o) for o in norm_orders)
    repeated = [o.a for i, o in enumerate(orders) if o.a in [p.a for p in orders[:i]]]
    if repeated:
        raise ConfigError(f"norm order {repeated[0]} is given more than once")
    return orders


@dataclass
class PropagationRun:
    """Recorded trajectory: norms, boundary mass, solver effort, states."""

    grid: object
    cfg: PropagatorConfig
    norm_orders: tuple
    times: np.ndarray = None
    data: dict = field(default_factory=dict)
    states: np.ndarray = None  # (records, *grid.shape) when cfg.keep_states
    final: WaveFunction = None
    flags: list = field(default_factory=list)  # records above BOUNDARY_TOL
    solver_flags: list = field(default_factory=list)  # steps whose residual is above SOLVER_TOL

    def norm_series(self, a: int) -> np.ndarray:
        recorded = [0] + [o.a for o in self.norm_orders]
        if a not in recorded:
            raise ConfigError(f"norm order {a} was not recorded; the run recorded orders {recorded}")
        return self.data["l2" if a == 0 else f"norm_a{a}"]

    @property
    def max_norm_drift(self) -> float:
        l2 = self.data["l2"]
        return float(np.max(np.abs(l2 - l2[0])))

    @property
    def max_boundary_mass(self) -> float:
        return float(np.max(self.data["boundary_mass"]))

    @property
    def warnings(self) -> list:
        """The boundary and the solver flags as at most one line each
        (``flag_lines``); the solver line also names the largest residual."""
        largest = (f", largest {self.data['solver_residual'].max():.3e}"
                   if self.solver_flags else "")
        return (flag_lines(self.flags, "records")
                + flag_lines(self.solver_flags, "steps" + largest))

    def to_csv(self, path):
        """The trajectory table: t, the norms, boundary mass, solver columns."""
        cols = ["t", "l2"]
        cols += [f"norm_a{o.a}" for o in self.norm_orders]
        cols += ["boundary_mass", "solver_iterations", "solver_residual"]
        series = [self.times] + [self.data[c] for c in cols[1:]]
        write_csv(path, cols, zip(*series))

    def summary(self) -> str:
        return (
            f"{self.cfg.scheme}: {self.cfg.n_steps} steps to t={self.cfg.t_final}, "
            f"norm drift {self.max_norm_drift:.3e}, "
            f"boundary mass {self.max_boundary_mass:.3e}"
        )


class _Recorder:
    """Fills a run's columns and kept states in place, one row per record.

    The norm columns of up to NORM_BATCH pending rows are filled in one
    batched pass, when that many are pending and at finalize.  Without
    kept states the pending states wait in a buffer of one batch.
    """

    def __init__(self, run: PropagationRun, boundary_mask):
        cfg = run.cfg
        n_rec = 1 + -(-cfg.n_steps // cfg.save_every)
        run.times = np.empty(n_rec)
        keys = ["l2", "boundary_mass", "solver_residual"] + [f"norm_a{o.a}" for o in run.norm_orders]
        run.data = {k: np.empty(n_rec) for k in keys}
        run.data["solver_iterations"] = np.empty(n_rec, dtype=int)
        self.batch = min(NORM_BATCH, n_rec)
        self.store = np.empty((n_rec if cfg.keep_states else self.batch, *run.grid.shape),
                              dtype=complex)
        if cfg.keep_states:
            run.states = self.store
        self.run, self.mask = run, boundary_mask
        self.count = self.filled = 0  # rows recorded; rows whose norms are filled
        self.steps = []  # (report, t) of each step to t since the last row

    def record(self, t, u_vals):
        """One row.  Its solver columns sum the iterations and keep the
        worst residual of the steps since the previous row; a step whose
        residual is above SOLVER_TOL is flagged."""
        run, i = self.run, self.count
        tol, iterations, residual = SOLVER_TOL, 0, 0.0
        for rep, t_step in self.steps:
            iterations += rep.iterations
            residual = max(residual, rep.residual)
            if rep.residual > tol:
                run.solver_flags.append(f"solver residual {rep.residual:.3e} above "
                                        f"solver_tol {tol:g} at t={t_step:.6g}")
        self.steps.clear()
        self.store[i % len(self.store)] = u_vals
        total = np.sum(np.abs(u_vals) ** 2)
        edge = float(np.sum(np.abs(u_vals[self.mask]) ** 2) / total) if total > 0 else 0.0
        run.times[i] = t
        run.data["boundary_mass"][i] = edge
        run.data["solver_iterations"][i] = iterations
        run.data["solver_residual"][i] = residual
        self.count += 1
        if edge > BOUNDARY_TOL:
            run.flags.append(f"boundary mass {edge:.3e} above {BOUNDARY_TOL:g} at t={t:.6g}")
        if self.count - self.filled == self.batch:
            self._fill_norms()

    def _fill_norms(self):
        run, rows = self.run, slice(self.filled, self.count)
        start = self.filled % len(self.store)
        stack = self.store[start:start + self.count - self.filled]
        run.data["l2"][rows] = l2_norm(stack, run.grid)
        for order in run.norm_orders:
            run.data[f"norm_a{order.a}"][rows] = order.norm(stack, run.grid)
        self.filled = self.count

    def finalize(self, u_vals):
        if self.count > self.filled:
            self._fill_norms()
        self.run.final = WaveFunction(self.run.grid, u_vals)


def propagate(cfg: PropagatorConfig, handle, u0: WaveFunction,
              norm_orders=()) -> PropagationRun:
    """Run the homogeneous flow and record the requested norms."""
    return _propagate_impl(cfg, handle, u0, norm_orders)[0]


def propagate_inhomogeneous(cfg: PropagatorConfig, handle, u0: WaveFunction,
                            source, norm_orders=()) -> PropagationRun:
    """Run i du/dt = H(t) u + f(t) with the midpoint-sampled source f."""
    return _propagate_impl(cfg, handle, u0, norm_orders, source=source)[0]


def propagate_variational(cfg: PropagatorConfig, handle, u0: WaveFunction) -> tuple:
    """The runs (u, w) of the flow of u0 and of w = du/drho.

    w solves i dw/dt = H w + (dH/drho) u, w(0) = 0, as the exact
    rho-derivative of the discrete flow: each step takes u_n to u_{n+1},
    then w with the same frozen operator and the source
    (dH/drho)(u_n + u_{n+1})/2.  A t-free flow on the closed form has it
    advanced record to record by the Daleckii-Krein formula for the
    derivative of a matrix function (Higham, Functions of Matrices, 2008,
    Sec. 3.2; ``_EigenFlow``), which those steps compose to.  Only w's run
    keeps its states (if cfg.keep_states).
    """
    return tuple(_propagate_impl(cfg, handle, u0, (), tangent=True))


def _times(vecs: np.ndarray, v: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Q v, or Q^H v with adjoint, for a complex vector v and Q = vecs,
    without a copy of Q: a real Q multiplies v's real and imaginary parts
    as the two columns of one real product."""
    if np.isrealobj(vecs):
        mat = vecs.T if adjoint else vecs
        return (mat @ v.view(float).reshape(-1, 2)).view(complex).ravel()
    return (v.conj() @ vecs).conj() if adjoint else vecs @ v


class _StepFlow:
    """A run stepped one step at a time by ``_Operator.step``.  The tangent
    of a variational run steps in lockstep, forced by
    (dH/drho)(u_n + u_{n+1})/2."""

    def __init__(self, op: _Operator, u0: np.ndarray, tangent: bool):
        self.op = op
        self.states = [u0] + ([np.zeros_like(u0)] if tangent else [])

    def grid_states(self) -> list:
        return list(self.states)

    def advance(self, n: int, m: int, source) -> list:
        """Steps n to m; each run's (StepReport, t) per step.  A non-finite
        state raises SolverError naming its step."""
        op, cfg, handle = self.op, self.op.cfg, self.op.handle
        done = [[] for _ in self.states]
        for k in range(n, m):
            t_mid = _t_mid(cfg, k)
            f = None if source is None else _values_of(source(t_mid), handle.grid)[0]
            u = self.states[0]
            u_next, rep = op.step(k, u, f)
            reps = [rep]
            if len(self.states) == 2:
                w, rep = op.step(k, self.states[1],
                                 handle.apply_rho_derivative(t_mid, 0.5 * (u + u_next)))
                self.states[1] = w
                reps.append(rep)
            self.states[0] = u_next
            for x, rep, steps in zip(self.states, reps, done):
                if not np.isfinite(x).all():
                    raise SolverError(f"state became non-finite {_at_step(cfg, k)}")
                steps.append((rep, (k + 1) * cfg.dt))
        return done


class _EigenFlow:
    """The closed form of a t-free 1-D Crank-Nicolson run (``_cayley_eigen``).

    The states live in Op's eigen coordinates y = Q^H u and go back to the
    grid, Q y, only at records.  s steps multiply y by c^s, c = e^{i theta},
    and the tangent of a variational run moves by

        y_w <- c^s y_w + G_s y,   G_s = (Q^H (dH/drho) Q) o Delta_s,

    y taken at the interval's start: the Daleckii-Krein derivative of
    c(Op)^s (Higham 2008, Sec. 3.2), with Delta_s from ``_divided_powers``
    and one G_s per interval length.  A forced run steps one at a time,
    y <- c y - 2 i tau (I + i tau Lam)^-1 Q^H f, and carries no tangent:
    no entry point asks for both.  Each step reports one iteration and
    delta; a step whose state and forcing are zero reports none.
    """

    def __init__(self, op: _Operator, u0: np.ndarray, tangent: bool):
        handle, self.cfg, tau = op.handle, op.cfg, op.tau
        lam, self.vecs, self.delta = _cayley_eigen(handle, tau, op.cutoff)
        _check_cayley(self.delta, 0, self.cfg)
        self.grid, self.lam, self.tau = op.grid, lam, tau
        self.theta = -2.0 * np.arctan(tau * lam)
        self.kick = -2j * tau / (1.0 + 1j * tau * lam)  # a source's weight in a step
        self.y = _times(self.vecs, u0, adjoint=True)
        self.d_rho, self.gains = None, {}
        if tangent:
            self.y_w = np.zeros_like(self.y)
            # the rows of vecs.T are Q's columns, so these are (dH/drho) Q's
            rows = handle.apply_rho_derivative(0.0, self.vecs.T)
            self.d_rho = (rows @ self.vecs.conj()).T

    def grid_states(self) -> list:
        ys = [self.y] if self.d_rho is None else [self.y, self.y_w]
        return [_times(self.vecs, y).reshape(self.grid.shape) for y in ys]

    def _gain(self, s: int) -> np.ndarray:
        if s not in self.gains:
            self.gains[s] = self.d_rho * _divided_powers(self.lam, self.tau, s)
        return self.gains[s]

    def advance(self, n: int, m: int, source) -> list:
        """Steps n to m in one span, or one at a time with a source; each
        run's (StepReport, t) per step.  A non-finite state raises
        SolverError naming its step."""
        cfg, live, idle = self.cfg, StepReport(1, self.delta), StepReport()
        spans = [(n, m)] if source is None else [(k, k + 1) for k in range(n, m)]
        done = [[], []] if self.d_rho is not None else [[]]
        for a, b in spans:
            turn = np.exp(1j * (b - a) * self.theta)
            moving = [self.y.any()]
            if self.d_rho is not None:
                forcing = self._gain(b - a) @ self.y
                moving.append(self.y_w.any() or forcing.any())
                self.y_w *= turn
                self.y_w += forcing
            self.y *= turn
            if source is not None:
                f = _values_of(source(_t_mid(cfg, a)), self.grid)[0].astype(complex).ravel()
                moving[0] = moving[0] or f.any()
                self.y += self.kick * _times(self.vecs, f, adjoint=True)
                if not np.isfinite(self.y).all():
                    raise SolverError(f"state became non-finite {_at_step(cfg, a)}")
            for steps, on in zip(done, moving):
                rep = live if on else idle
                steps += [(rep, (k + 1) * cfg.dt) for k in range(a, b)]
        return done


def _propagate_impl(cfg, handle, u0, norm_orders, source=None, tangent=False) -> list:
    """The one run loop: the run of u0's flow, forced by source(t_mid) if
    given, and with tangent the run of w (``propagate_variational``).  It
    advances the flow from one record to the next, by the closed form
    where the operator allows it (``_EigenFlow``) and else step by step,
    and records each record's states."""
    _check_same_grid(u0.grid, handle.grid, error=ConfigError)
    if (source is not None or tangent) and cfg.scheme != "crank_nicolson_midpoint":
        raise ConfigError("inhomogeneous runs need the crank_nicolson_midpoint scheme")
    if tangent and not hasattr(handle, "apply_rho_derivative"):
        raise ConfigError(f"the parameter derivative is single-particle only, "
                          f"not for a {type(handle).__name__}")
    norm_orders = resolve_norm_orders(handle, norm_orders)
    op = _Operator(handle, cfg)
    u = u0.values.astype(complex)
    flow = (_EigenFlow if op.closed_form else _StepFlow)(op, u, tangent)
    mask = handle.grid.boundary_mask()
    cfgs = (replace(cfg, keep_states=False), cfg) if tangent else (cfg,)
    recs = [_Recorder(PropagationRun(handle.grid, c, norm_orders), mask) for c in cfgs]
    states = [u, np.zeros_like(u)] if tangent else [u]
    for rec, x in zip(recs, states):
        rec.record(0.0, x)
    for n in range(0, cfg.n_steps, cfg.save_every):
        m = min(n + cfg.save_every, cfg.n_steps)
        done = flow.advance(n, m, source)
        states = flow.grid_states()
        for rec, steps, x in zip(recs, done, states):
            rec.steps += steps
            rec.record(m * cfg.dt, x)
    for rec, x in zip(recs, states):
        rec.finalize(x)
    return [rec.run for rec in recs]


__all__ = [
    "PropagatorConfig",
    "PropagationRun",
    "StepReport",
    "SCHEMES",
    "propagate",
    "propagate_inhomogeneous",
    "propagate_variational",
]
