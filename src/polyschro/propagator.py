"""Time steppers for the confined Schrodinger flow.

Two schemes share the record-keeping harness:

* crank_nicolson_midpoint: the Cayley step
  (I + i dt/2 H(t_mid)) u_next = (I - i dt/2 H(t_mid)) u, solved
  iteratively; exactly norm-preserving up to the solver tolerance.
* lanczos_expmid: Krylov approximation of exp(-i dt H(t_mid)) u, sized
  by an a-posteriori error estimate.

On a 1-D grid of at most DIRECT_MAX_N points, a family without t has
one Cayley matrix for the whole run, plain or mollified.  Its step is a
matvec with the dense inverse, built once and cached on the handle.
Such a direct step parks its solution and right-hand side on the
operator, and the stepping loop checks the parked residuals in one
batched apply: when NORM_BATCH steps are pending, at every record and
at the end of the run.  A direct step that misses its tolerance thus
raises at most NORM_BATCH - 1 steps later, naming its own step.
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

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConfigError, SolverError
from .grid import WaveFunction, _check_same_grid, _values_of, _whole, l2_norm
from .operators import solve_hermitian_cg  # unused here; perfbench/tracer.py wraps this name
from .report import write_csv
from .symbols import CutoffSpec

SCHEMES = ("crank_nicolson_midpoint", "lanczos_expmid")
# the largest 1-D grid in use; its dense Cayley inverse takes 4 MB
DIRECT_MAX_N = 512
GMRES_RESTART = 40
# records whose norms are taken in one batch, and direct steps whose
# residuals are checked in one: 16 N=512 states add 0.4 MB
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
        if not (np.isfinite(self.solver_tol) and self.solver_tol > 0):
            raise ConfigError("solver_tol must be finite and positive")
        for name in ("max_solver_iter", "save_every", "krylov_dim"):
            object.__setattr__(self, name, _whole(getattr(self, name), name, ConfigError))
        if self.max_solver_iter < 1:
            raise ConfigError("max_solver_iter must be >= 1")
        if self.save_every < 1:
            raise ConfigError("save_every must be >= 1")
        if self.krylov_dim < 1:
            raise ConfigError("krylov_dim must be >= 1")
        if self.eps is not None and not (0 < self.eps <= 1):
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


class _Operator:
    """The time-frozen operator the steps work with, and the direct steps
    whose residual check is pending (``park`` and ``settle``)."""

    def __init__(self, handle, cfg: PropagatorConfig):
        self.handle = handle
        self.grid = handle.grid
        self.cutoff = cfg.cutoff()
        if self.cutoff is not None and not hasattr(handle, "apply_mollified"):
            raise ConfigError(f"mollified propagation is single-particle only, "
                              f"not for a {type(handle).__name__}")
        self.precondition = self.cutoff is None
        self.direct = (cfg.scheme == "crank_nicolson_midpoint" and self.grid.d == 1
                       and self.grid.N <= DIRECT_MAX_N and not handle.time_dependent)
        self.krylov_k = 0  # the Lanczos basis size of the run's last step
        self._inv_kin = None, None  # (tau, (I + i tau K)^-1) of the last tau
        # the reports of the parked direct steps, their (t_mid, tau), and
        # their solutions x and right-hand sides b as rows of one buffer
        self.parked, self._frozen = [], None
        self._xb = np.empty((2, NORM_BATCH, self.grid.N), dtype=complex) if self.direct else None

    def inverse_kinetic(self, tau: float) -> np.ndarray:
        """(1 + i tau K)^-1 on the dual grid, cached for the last tau."""
        if self._inv_kin[0] != tau:
            self._inv_kin = tau, 1.0 / (1.0 + 1j * tau * self.handle.kinetic_multiplier)
        return self._inv_kin[1]

    def apply(self, t, f):
        if self.cutoff is None:
            return self.handle.apply(t, f)
        return self.handle.apply_mollified(t, f, self.cutoff)

    def park(self, t_mid: float, tau: float, rhs: np.ndarray) -> tuple:
        """A direct step: x = (I + i tau Op)^-1 rhs by the handle's cached
        dense inverse.  Its report counts one iteration and gets its
        residual from ``settle``; x is a buffer row, valid until then."""
        x, b = self._xb[:, len(self.parked)]
        b[...] = rhs
        np.matmul(self.handle.cayley_inverse(t_mid, tau, self.cutoff), b, out=x)
        rep = StepReport(iterations=1)
        self.parked.append(rep)
        self._frozen = t_mid, tau
        return x, rep

    def settle(self):
        """Give each parked report its residual ||x + i tau Op x - b|| / ||b||,
        with one apply on the stack of parked x (Op has no t, so any
        parked t_mid freezes it); a zero b reports no iteration and
        residual 0."""
        if not self.parked:
            return
        xs, bs = self._xb[:, :len(self.parked)]
        t_mid, tau = self._frozen
        diffs = xs + 1j * tau * self.apply(t_mid, xs) - bs
        for rep, diff, b in zip(self.parked, diffs, bs):
            b_norm = np.linalg.norm(b)
            if b_norm == 0.0:
                rep.iterations = 0
            else:
                rep.residual = float(np.linalg.norm(diff) / b_norm)
        self.parked.clear()


def _cayley_solve(op: _Operator, t_mid: float, tau: float, rhs: np.ndarray,
                  cfg: PropagatorConfig) -> tuple:
    """Solve (I + i tau Op(t_mid)) x = rhs.

    A direct operator multiplies by the handle's cached dense inverse and
    parks the step (``_Operator.park``): its residual is measured later,
    in one batched apply with the other pending direct steps, and checked
    by ``_check_cayley``.  Any other runs gmres from x0 = M b.  For plain
    flows M is the gauge-twisted split of ``_preconditioner``, so x0 is
    the split-step Cayley predictor, and the inner iterations run on the
    fused operator M A, one apply and one transform pair each.  Mollified
    flows iterate on A itself (M = I).  gmres returns the true residual of
    its solution, so no extra apply is needed, and the step is checked at
    once.  Either way the step's residual is ||A x - rhs|| / ||rhs||.
    """
    if op.direct:
        return op.park(t_mid, tau, rhs)
    shape = op.grid.shape

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

    split = _preconditioner(op, t_mid, tau)
    x, info, res = gmres(a_matvec, b, split, rtol=cfg.solver_tol,
                         maxiter=cfg.max_solver_iter, callback=count,
                         pmatvec=None if split is None else split.fused)
    true_res = res / b_norm
    if not np.isfinite(true_res):
        # a blow-up: the stepping loop reports the non-finite state
        return np.full(shape, np.nan, dtype=complex), StepReport(iters, np.nan)
    _check_cayley(true_res, t_mid, cfg, converged=info == 0)
    return x.reshape(shape), StepReport(iterations=iters, residual=float(true_res))


def _check_cayley(residual: float, t_mid: float, cfg: PropagatorConfig, converged: bool = True):
    """Raise SolverError for a Cayley step that did not converge or whose
    relative residual is not within 50 solver_tol (a NaN one included)."""
    if not (converged and residual <= 50 * cfg.solver_tol):
        raise SolverError(
            f"Cayley solve stalled at relative residual {residual:.3e} "
            f"(target {cfg.solver_tol:g}) at t_mid={t_mid}"
        )


def _preconditioner(op: _Operator, t_mid, tau):
    """The gauge-twisted split of (I + i tau H(t_mid)) for plain flows, else None (M = I)."""
    if not op.precondition:
        return None
    return _Split(op, t_mid, tau)


class _Split:
    """M = e^{i phi} (I + i tau K)^-1 e^{-i phi} (I + i tau V_g)^-1, one step's split.

    The handle's ``gauge_split`` gives (phi, V_g) with
    H ~ e^{i phi} K e^{-i phi} + V_g, K the kinetic multiplier; where phi
    is None the twist is left out.  Both factors are exact inverses, each
    diagonal in one basis.  The factors are built once per (t_mid, tau)
    and shared by x0 = M b, the restarts' M r and the fused operator.
    """

    def __init__(self, op: _Operator, t_mid: float, tau: float):
        phi, v_g = op.handle.gauge_split(t_mid)
        self.op, self.t_mid, self.itau = op, t_mid, 1j * tau
        self.inv_kin = op.inverse_kinetic(tau)
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
        spec *= self.inv_kin
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


def _advance(op: _Operator, cfg: PropagatorConfig, t: float, u: np.ndarray,
             source_mid: np.ndarray | None = None):
    """One step from t; a Crank-Nicolson step is u' = 2 (I + i tau H)^-1 (u - i tau f) - u."""
    t_mid = t + 0.5 * cfg.dt
    tau = 0.5 * cfg.dt
    if cfg.scheme == "lanczos_expmid":
        return _lanczos_expm(op, t_mid, u, cfg)
    rhs = u if source_mid is None else u - 1j * tau * source_mid
    v, rep = _cayley_solve(op, t_mid, tau, rhs, cfg)
    return 2.0 * v - u, rep


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
        first flag, and how many followed."""
        lines = []
        for flags, unit in ((self.flags, "records"), (self.solver_flags, "steps")):
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
        self.iterations, self.residual = 0, 0.0

    def tally(self, rep: StepReport, t: float):
        """Add the solver effort of the step to t to the interval since the
        last record, and flag a residual above solver_tol."""
        self.iterations += rep.iterations
        self.residual = max(self.residual, rep.residual)
        tol = self.run.cfg.solver_tol
        if rep.residual > tol:
            self.run.solver_flags.append(
                f"solver residual {rep.residual:.3e} above solver_tol {tol:g} at t={t:.6g}")

    def record(self, t, u_vals):
        """One row; its solver columns cover the steps since the previous row."""
        run, i = self.run, self.count
        self.store[i % len(self.store)] = u_vals
        total = np.sum(np.abs(u_vals) ** 2)
        edge = float(np.sum(np.abs(u_vals[self.mask]) ** 2) / total) if total > 0 else 0.0
        run.times[i] = t
        run.data["boundary_mass"][i] = edge
        run.data["solver_iterations"][i] = self.iterations
        run.data["solver_residual"][i] = self.residual
        self.iterations, self.residual = 0, 0.0
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
    if given, and with tangent the run of w (``propagate_variational``)."""
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
    pending = []  # (recorder, report, index n) of the steps not yet tallied

    def at_step(n):
        return f"at step {n + 1} (t={cfg.t0 + (n + 1) * cfg.dt:.6g})"

    def settle():
        """Measure the parked direct residuals, then check and tally the pending steps in order."""
        op.settle()
        for rec, rep, n in pending:
            if op.direct:
                try:
                    _check_cayley(rep.residual, cfg.t0 + n * cfg.dt + 0.5 * cfg.dt, cfg)
                except SolverError as exc:
                    raise SolverError(f"{exc} {at_step(n)}") from exc
            rec.tally(rep, cfg.t0 + (n + 1) * cfg.dt)
        pending.clear()

    for n in range(cfg.n_steps):
        t = cfg.t0 + n * cfg.dt
        t_mid = t + 0.5 * cfg.dt
        t_next = cfg.t0 + (n + 1) * cfg.dt
        f = None if source is None else _values_of(source(t_mid), handle.grid)[0]
        try:
            u_next, rep = _advance(op, cfg, t, u, f)
            reps = [rep]
            if tangent:
                f = handle.apply_rho_derivative(t_mid, 0.5 * (u + u_next))
                w, rep = _advance(op, cfg, t, w, f)
                reps.append(rep)
        except SolverError as exc:
            raise SolverError(f"{exc} {at_step(n)}") from exc
        u = u_next
        for rec, x, rep in zip(recs, (u, w), reps):
            if not np.isfinite(x).all():
                raise SolverError(f"state became non-finite {at_step(n)}")
            pending.append((rec, rep, n))
        saved = (n + 1) % cfg.save_every == 0 or n + 1 == cfg.n_steps
        # settle before another step could park more than NORM_BATCH
        if saved or len(pending) + len(recs) > NORM_BATCH:
            settle()
        if saved:
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
