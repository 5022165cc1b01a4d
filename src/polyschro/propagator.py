"""Time steppers for the confined Schrodinger flow.

Two schemes share the record-keeping harness:

* crank_nicolson_midpoint: the Cayley step
  (I + i dt/2 H(t_mid)) u_next = (I - i dt/2 H(t_mid)) u, solved
  iteratively; exactly norm-preserving up to the solver tolerance.
* lanczos_expmid: Krylov approximation of exp(-i dt H(t_mid)) u, sized
  by an a-posteriori error estimate.

On a 1-D grid of at most DIRECT_MAX_N points, a family without t has
one Cayley matrix for the whole run, plain or mollified.  Its step is a
matvec with the dense inverse, which the run builds once, with its
defect delta = ||(I + i tau Op) inv - I||_F measured by the operator
kernel, and frees when it returns.  delta bounds the relative residual
of every step taken with the inverse, so it is each such step's
residual, and the run's operator checks it once, before the first step.
Every other Cayley step (time-dependent, composite or larger grids) is
one solve by the module's restarted GMRES (Saad and Schultz 1986), which
keeps scipy's stopping rule.  Plain flows precondition it with the
gauge-twisted split: the exact inverses of the potential-only Cayley
factor and of the kinetic-only one conjugated by the gauge factor
e^{i phi}, phi' = A, which takes the magnetic term into the kinetic
factor wherever each A_k depends on x_k alone (1-D, and per particle on
the composite grid).  The solve starts from that split applied to the
right-hand side, the split-step Cayley predictor (Lubich 2008), and
iterates on the fused preconditioned operator, one apply and one
transform pair an iteration.  Mollified flows, whose operator is
bounded, run it unpreconditioned from the right-hand side.  Both solves
check their true residual, and one that misses its tolerance raises
SolverError; there is no fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy.linalg import eigh_tridiagonal, inv

from .errors import ConfigError, SolverError
from .grid import WaveFunction, _check_same_grid, _finite, _values_of, _whole, l2_norm
from .operators import solve_hermitian_cg  # unused here; perfbench/tracer.py wraps this name
from .report import write_csv
from .symbols import CutoffSpec, dense_matrix

SCHEMES = ("crank_nicolson_midpoint", "lanczos_expmid")
# the largest 1-D grid in use; its dense Cayley inverse takes 4 MB
DIRECT_MAX_N = 512
GMRES_RESTART = 40
# records whose norms are taken in one batch: 16 N=512 states take 0.13 MB
NORM_BATCH = 16


@dataclass(frozen=True)
class PropagatorConfig:
    """Stepper parameters.

    t_final must be an integer number of steps; eps switches the run to the
    mollified Hamiltonian with the given cutoff strength.  solver_tol is the
    relative residual target of the Cayley solve and the target of the
    Lanczos error estimate; a Cayley solve that misses it raises
    SolverError.  max_solver_iter caps the inner GMRES iterations of one
    Cayley solve, summed over its restarts.  krylov_dim caps the Lanczos
    basis, and a step that reaches the cap keeps its result and reports
    its estimate as the step residual.  A run whose step residuals rise
    above solver_tol says so in one line of its warnings.
    """

    scheme: str = "crank_nicolson_midpoint"
    dt: float = 1e-3
    t_final: float = 1.0
    t0: float = 0.0
    solver_tol: float = 1e-11
    max_solver_iter: int = 4000
    krylov_dim: int = 24
    eps: float | None = None
    cutoff_mu: float = 0.0
    boundary_tol: float = 1e-6
    save_every: int = 1
    keep_states: bool = True

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; known: {SCHEMES}")
        for name in ("dt", "t0", "t_final"):
            if not _finite(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number")
        if not (self.dt > 0):
            raise ConfigError("dt must be positive")
        span = self.t_final - self.t0
        if span <= 0:
            raise ConfigError("t_final must exceed t0")
        n = span / self.dt
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ConfigError(
                f"t_final - t0 = {span} is not an integer multiple of dt = {self.dt}"
            )
        for name in ("solver_tol", "boundary_tol"):
            if not (_finite(getattr(self, name)) and getattr(self, name) > 0):
                raise ConfigError(f"{name} must be finite and positive")
        if not _finite(self.cutoff_mu):
            raise ConfigError("cutoff_mu must be a finite number")
        if not isinstance(self.keep_states, bool):
            raise ConfigError("keep_states must be true or false")
        for name in ("max_solver_iter", "save_every", "krylov_dim"):
            object.__setattr__(self, name, _whole(getattr(self, name), name, ConfigError))
        if self.max_solver_iter < 1:
            raise ConfigError("max_solver_iter must be >= 1")
        if self.save_every < 1:
            raise ConfigError("save_every must be >= 1")
        if self.krylov_dim < 1:
            raise ConfigError("krylov_dim must be >= 1")
        if self.eps is not None and not (_finite(self.eps) and 0 < self.eps <= 1):
            raise ConfigError("eps must lie in (0, 1]")

    @property
    def n_steps(self) -> int:
        return int(round((self.t_final - self.t0) / self.dt))

    def cutoff(self) -> CutoffSpec | None:
        if self.eps is None:
            return None
        return CutoffSpec(eps=self.eps, mu=self.cutoff_mu)


@dataclass
class StepReport:
    iterations: int = 0
    residual: float = 0.0


def _cayley_inverse(handle, t: float, tau: float, cutoff: CutoffSpec | None) -> tuple:
    """(inv, delta): the dense inv = (I + i tau Op)^-1, Op = H or X* H X, of a
    family without t, and its defect delta = ||(I + i tau Op) inv - I||_F,
    which bounds ||(I + i tau Op) inv b - b|| / ||b|| for every b, up to
    the rounding of inv b.

    inv comes from Op's dense matrix at time t (``handle.matrix`` for H,
    one identity-stack call for X* H X).  Op inv is the kernel's action on
    inv's columns: one ``handle.apply`` on their stack for H, which checks
    ``matrix`` against the FFT kernel, and the product with X* H X's
    matrix, itself the kernel's image of the identity stack.
    """
    grid = handle.grid
    size, itau = grid.size, 1j * tau
    mat = handle.matrix(t) if cutoff is None else dense_matrix(
        partial(handle.apply_mollified, t, cutoff=cutoff), grid)
    cayley = mat * itau
    cayley.flat[:: size + 1] += 1.0
    inverse = inv(cayley, overwrite_a=True, check_finite=False, assume_a="general")
    if cutoff is None:
        # the rows of inverse.T are inv's columns
        op_inv = handle.apply(t, inverse.T.reshape((size,) + grid.shape))
        op_inv = op_inv.reshape(size, size).T
    else:
        op_inv = mat @ inverse
    op_inv *= itau
    op_inv += inverse
    op_inv.flat[:: size + 1] -= 1.0
    return inverse, float(np.linalg.norm(op_inv))


class _Operator:
    """The time-frozen operator of one run and its step rule, resolved
    once: ``apply`` (H, or X* H X when mollified) and the direct or the
    GMRES Cayley solve.  A direct run builds its dense inverse and the
    inverse's defect delta here, and a delta above 50 solver_tol raises
    before the first step; each direct step then reports delta.  The
    inverse lives as long as the operator, that is, until the run returns."""

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
        direct = (cfg.scheme == "crank_nicolson_midpoint" and self.grid.d == 1
                  and self.grid.N <= DIRECT_MAX_N and not handle.time_dependent)
        # a function, not a bound method: a cycle through self would keep
        # the handle and its dense inverse until the cycle collector runs
        self._solve = _Operator._direct if direct else _cayley_solve
        if direct:
            self.inverse, self.delta = _cayley_inverse(handle, _t_mid(cfg, 0), self.tau,
                                                       self.cutoff)
            _check_cayley(self.delta, 0, cfg)
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
        v, rep = self._solve(self, n, t_mid, rhs)
        return 2.0 * v - u, rep

    def _direct(self, n: int, t_mid: float, rhs: np.ndarray) -> tuple:
        """Direct step n: x = (I + i tau Op)^-1 rhs by the dense inverse,
        one iteration with residual delta; a zero rhs reports none."""
        if not rhs.any():
            return np.zeros_like(rhs), StepReport()
        return self.inverse @ rhs, StepReport(1, self.delta)


def _t_mid(cfg: PropagatorConfig, n: int) -> float:
    """The midpoint time of step n, the step from t0 + n dt."""
    return cfg.t0 + n * cfg.dt + 0.5 * cfg.dt


def _at_step(cfg: PropagatorConfig, n: int) -> str:
    """Where step n ends, as an error names it."""
    return f"at step {n + 1} (t={cfg.t0 + (n + 1) * cfg.dt:.6g})"


def _cayley_solve(op: _Operator, n: int, t_mid: float, rhs: np.ndarray) -> tuple:
    """Solve (I + i tau Op(t_mid)) x = rhs for Cayley step n by gmres.

    This is every Cayley step but the direct ones, which ``_Operator``
    takes with the dense inverse.  gmres runs from x0 = M b.  For plain
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
    x, info, res = gmres(a_matvec, b, split, rtol=cfg.solver_tol,
                         maxiter=cfg.max_solver_iter, callback=count,
                         pmatvec=None if split is None else split.fused)
    true_res = res / b_norm
    if not np.isfinite(true_res):
        # a blow-up: the stepping loop reports the non-finite state
        return np.full(shape, np.nan, dtype=complex), StepReport(iters, np.nan)
    _check_cayley(true_res, n, cfg, converged=info == 0)
    return x.reshape(shape), StepReport(iterations=iters, residual=float(true_res))


def _check_cayley(residual: float, n: int, cfg: PropagatorConfig, converged: bool = True):
    """Raise SolverError for Cayley step n if it did not converge or its
    relative residual is not within 50 solver_tol (a NaN one included)."""
    if not (converged and residual <= 50 * cfg.solver_tol):
        raise SolverError(
            f"Cayley solve stalled at relative residual {residual:.3e} "
            f"(target {cfg.solver_tol:g}) at t_mid={_t_mid(cfg, n)} {_at_step(cfg, n)}"
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


def _lanczos_expm(op: _Operator, t_mid: float, u: np.ndarray, cfg: PropagatorConfig):
    """Krylov exp(-i dt Op) u by the three-term Lanczos recurrence.

    Stops at the first k whose a-posteriori estimate
    beta_k |e_k^T exp(-i dt T_k) e_1| (Saad 1992; Hochbruck and Lubich
    1997) is at most solver_tol, or at k = krylov_dim.  The estimate is
    relative to ||u|| and is returned as the step residual, also when the
    cap stops the recurrence first.  It costs a tridiagonal eigensolve, so
    it is first taken at the previous step's k - 2 (a run's steps need
    similar k); the step still stops only where the estimate meets the
    target.  No reorthogonalization: Lanczos without it still computes
    f(A)b accurately (Druskin, Greenbaum and Knizhnerman 1998).
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
            coeff = S @ (np.exp(-1j * cfg.dt * theta) * S[0, :])
            estimate = betas[j] * abs(coeff[-1])
            if estimate <= cfg.solver_tol or k == m:
                break
        np.multiply(w, 1.0 / betas[j], out=basis[k])
    op.krylov_k = k
    out = (norm_u * coeff) @ basis[:k]
    return out.reshape(shape), StepReport(iterations=k, residual=float(estimate))


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
    flags: list = field(default_factory=list)  # records above boundary_tol
    solver_flags: list = field(default_factory=list)  # steps whose residual is above solver_tol

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
        """The boundary and the solver flags as at most one line each: the
        first flag, and how many followed; the solver line then also names
        the largest residual."""
        lines = []
        largest = (f", largest {self.data['solver_residual'].max():.3e}"
                   if self.solver_flags else "")
        for flags, unit in ((self.flags, "records"), (self.solver_flags, "steps" + largest)):
            if flags:
                later = len(flags) - 1
                lines.append(flags[0] + (f" (and {later} later {unit})" if later else ""))
        return lines

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
        residual is above solver_tol is flagged."""
        run, i = self.run, self.count
        tol, iterations, residual = run.cfg.solver_tol, 0, 0.0
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
        if edge > run.cfg.boundary_tol:
            run.flags.append(f"boundary mass {edge:.3e} above {run.cfg.boundary_tol:g} at t={t:.6g}")
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
    """The runs (u, w) of the flow of u0 and of w = du/drho, stepped in lockstep.

    w solves i dw/dt = H w + (dH/drho) u, w(0) = 0.  Each step takes u_n
    to u_{n+1}, then w with the same frozen operator and the source
    (dH/drho)(u_n + u_{n+1})/2, so w is the exact rho-derivative of the
    discrete flow.  Only w's run keeps its states (if cfg.keep_states).
    """
    return tuple(_propagate_impl(cfg, handle, u0, (), tangent=True))


def _propagate_impl(cfg, handle, u0, norm_orders, source=None, tangent=False) -> list:
    """The one stepping loop: the run of u0's flow, forced by source(t_mid)
    if given, and with tangent the run of w (``propagate_variational``).
    It steps, checks that each new state is finite, and records each
    saved step."""
    _check_same_grid(u0.grid, handle.grid, error=ConfigError)
    if (source is not None or tangent) and cfg.scheme != "crank_nicolson_midpoint":
        raise ConfigError("inhomogeneous runs need the crank_nicolson_midpoint scheme")
    norm_orders = tuple(
        o if hasattr(o, "a") else handle.norm_order(int(o)) for o in norm_orders
    )
    op = _Operator(handle, cfg)
    mask = handle.grid.boundary_mask()
    u = u0.values.astype(complex)
    w = np.zeros_like(u) if tangent else None
    cfgs = (replace(cfg, keep_states=False), cfg) if tangent else (cfg,)
    recs = [_Recorder(PropagationRun(handle.grid, c, norm_orders), mask) for c in cfgs]
    for rec, x in zip(recs, (u, w)):
        rec.record(cfg.t0, x)
    for n in range(cfg.n_steps):
        t_mid = _t_mid(cfg, n)
        f = None if source is None else _values_of(source(t_mid), handle.grid)[0]
        u_next, rep = op.step(n, u, f)
        reps = [rep]
        if tangent:
            w, rep = op.step(n, w, handle.apply_rho_derivative(t_mid, 0.5 * (u + u_next)))
            reps.append(rep)
        u = u_next
        t_next = cfg.t0 + (n + 1) * cfg.dt
        for rec, x, rep in zip(recs, (u, w), reps):
            if not np.isfinite(x).all():
                raise SolverError(f"state became non-finite {_at_step(cfg, n)}")
            rec.steps.append((rep, t_next))
        if (n + 1) % cfg.save_every == 0 or n + 1 == cfg.n_steps:
            for rec, x in zip(recs, (u, w)):
                rec.record(t_next, x)
    for rec, x in zip(recs, (u, w)):
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
