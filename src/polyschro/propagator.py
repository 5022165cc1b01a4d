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
Every other Cayley step (time-dependent, composite or larger grids) is
one GMRES solve, seeded with the current state.  Plain flows
precondition it with the split preconditioner built from the exact
inverses of the kinetic-only and potential-only Cayley factors (each
diagonal in one basis); mollified flows, whose operator is bounded, run
it unpreconditioned.  Both solves check their true residual, and one
that misses its tolerance raises SolverError; there is no fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import ConfigError, SolverError
from .grid import WaveFunction, _check_same_grid, l2_norm
from .operators import solve_hermitian_cg  # unused here; perfbench/tracer.py wraps this name
from .report import write_csv
from .symbols import CutoffSpec

SCHEMES = ("crank_nicolson_midpoint", "lanczos_expmid")
# the largest 1-D grid in use; its dense Cayley inverse takes 4 MB
DIRECT_MAX_N = 512


@dataclass(frozen=True)
class PropagatorConfig:
    """Stepper parameters.

    t_final must be an integer number of steps; eps switches the run to the
    mollified Hamiltonian with the given cutoff strength.  solver_tol is the
    relative residual target of the Cayley solve and the target of the
    Lanczos error estimate; a Cayley solve that misses it raises
    SolverError.  krylov_dim caps the Lanczos basis, and a step that
    reaches the cap keeps its result and reports its estimate as the step
    residual.
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
    """The time-frozen operator a single step works with."""

    def __init__(self, handle, cfg: PropagatorConfig):
        self.handle = handle
        self.grid = handle.grid
        self.cutoff = cfg.cutoff()
        self.precondition = self.cutoff is None
        self.direct = (self.grid.d == 1 and self.grid.N <= DIRECT_MAX_N
                       and not handle.time_dependent)

    def apply(self, t, f):
        if self.cutoff is None:
            return self.handle.apply(t, f)
        return self.handle.apply_mollified(t, f, self.cutoff)


def _cayley_solve(op: _Operator, t_mid: float, tau: float, rhs: np.ndarray,
                  cfg: PropagatorConfig, guess: np.ndarray) -> tuple:
    """Solve (I + i tau Op(t_mid)) x = rhs.

    A direct operator multiplies by the handle's cached dense inverse and
    reports one iteration; any other runs GMRES from guess.  Either way
    the step's residual is the true one, ||A x - rhs|| / ||rhs||.
    """
    shape = op.grid.shape

    def a_matvec(v):
        v = v.reshape(shape)
        return (v + 1j * tau * op.apply(t_mid, v)).ravel()

    b = rhs.ravel()
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros(shape, dtype=complex), StepReport()

    if op.direct:
        x = op.handle.cayley_inverse(t_mid, tau, op.cutoff) @ b
        iters, info = 1, 0
    else:
        x, iters, info = _gmres(op, t_mid, tau, a_matvec, b, cfg, guess)
    true_res = np.linalg.norm(a_matvec(x) - b) / b_norm
    if not np.isfinite(true_res):
        # a blow-up: the stepping loop reports the non-finite state
        return np.full(shape, np.nan, dtype=complex), StepReport(iters, np.nan)
    if info != 0 or true_res > 50 * cfg.solver_tol:
        raise SolverError(
            f"Cayley solve stalled at relative residual {true_res:.3e} "
            f"(target {cfg.solver_tol:g}) at t_mid={t_mid}"
        )
    return x.reshape(shape), StepReport(iterations=iters, residual=float(true_res))


def _gmres(op: _Operator, t_mid, tau, a_matvec, b, cfg: PropagatorConfig, guess):
    """GMRES on the Cayley system; returns (x, iterations, info)."""
    grid = op.grid
    shape = grid.shape
    size = grid.size
    if op.precondition:
        kin = op.handle.kinetic_multiplier
        pot = op.handle.potential_multiplier(t_mid)
        inv_kin = 1.0 / (1.0 + 1j * tau * kin)
        inv_pot = 1.0 / (1.0 + 1j * tau * pot)

        def m_matvec(v):
            v = v.reshape(shape)
            v = grid.ifft(inv_kin * grid.fft(inv_pot * v))
            return v.ravel()

        M = LinearOperator((size, size), matvec=m_matvec, dtype=complex)
    else:
        M = None

    A = LinearOperator((size, size), matvec=a_matvec, dtype=complex)
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    x, info = gmres(
        A,
        b,
        x0=guess.ravel(),
        rtol=cfg.solver_tol,
        atol=0.0,
        restart=40,
        maxiter=cfg.max_solver_iter,
        M=M,
        callback=count,
        callback_type="legacy",
    )
    return x, iters, info


def _lanczos_expm(op: _Operator, t_mid: float, u: np.ndarray, cfg: PropagatorConfig):
    """Krylov exp(-i dt Op) u by the three-term Lanczos recurrence.

    Stops at the first k whose a-posteriori estimate
    beta_k |e_k^T exp(-i dt T_k) e_1| (Saad 1992; Hochbruck and Lubich
    1997) is at most solver_tol, or at k = krylov_dim.  The estimate is
    relative to ||u|| and is returned as the step residual, also when the
    cap stops the recurrence first.  No reorthogonalization: Lanczos
    without it still computes f(A)b accurately (Druskin, Greenbaum and
    Knizhnerman 1998).
    """
    shape = u.shape
    norm_u = np.linalg.norm(u.ravel())
    if norm_u == 0.0:
        return u.copy(), StepReport()
    m = cfg.krylov_dim
    basis = np.empty((m, u.size), dtype=complex)
    alphas, betas = np.empty(m), np.empty(m)
    basis[0] = u.ravel() / norm_u
    for j in range(m):
        w = op.apply(t_mid, basis[j].reshape(shape)).ravel()
        alphas[j] = np.vdot(basis[j], w).real
        w = w - alphas[j] * basis[j]
        if j > 0:
            w -= betas[j - 1] * basis[j - 1]
        betas[j] = np.sqrt(np.vdot(w, w).real)
        k = j + 1
        if not np.isfinite(betas[j]):
            # a blow-up: the stepping loop reports the non-finite state
            return np.full(shape, np.nan, dtype=complex), StepReport(k, np.nan)
        theta, S = eigh_tridiagonal(alphas[:k], betas[:j], check_finite=False)
        coeff = S @ (np.exp(-1j * cfg.dt * theta) * S[0, :])
        estimate = betas[j] * abs(coeff[-1])
        if estimate <= cfg.solver_tol or k == m:
            break
        np.multiply(w, 1.0 / betas[j], out=basis[k])
    out = (norm_u * coeff) @ basis[:k]
    return out.reshape(shape), StepReport(iterations=k, residual=float(estimate))


def step(cfg: PropagatorConfig, handle, t: float, u: WaveFunction) -> WaveFunction:
    """Advance one step from time t, as propagate does; the operator is frozen at t + dt/2."""
    op = _Operator(handle, cfg)
    new_vals, _ = _advance(op, cfg, t, u.values.astype(complex))
    return u.with_values(new_vals)


def _advance(op: _Operator, cfg: PropagatorConfig, t: float, u: np.ndarray,
             source_mid: np.ndarray | None = None):
    t_mid = t + 0.5 * cfg.dt
    tau = 0.5 * cfg.dt
    if cfg.scheme == "lanczos_expmid":
        return _lanczos_expm(op, t_mid, u, cfg)
    if source_mid is None:
        # u_next = 2 (I + i tau H)^{-1} u - u
        v, rep = _cayley_solve(op, t_mid, tau, u, cfg, u)
        return 2.0 * v - u, rep
    rhs = u - 1j * tau * op.apply(t_mid, u) - 1j * cfg.dt * source_mid
    return _cayley_solve(op, t_mid, tau, rhs, cfg, u)


@dataclass
class PropagationRun:
    """Recorded trajectory: norms, boundary mass, solver effort, states."""

    grid: object
    cfg: PropagatorConfig
    norm_orders: tuple
    times: np.ndarray = None
    data: dict = field(default_factory=dict)
    states: list = field(default_factory=list)
    final: WaveFunction = None
    flags: list = field(default_factory=list)

    def norm_series(self, a: int) -> np.ndarray:
        key = "l2" if a == 0 else f"norm_a{a}"
        return self.data[key]

    @property
    def max_norm_drift(self) -> float:
        l2 = self.data["l2"]
        return float(np.max(np.abs(l2 - l2[0])))

    @property
    def max_boundary_mass(self) -> float:
        return float(np.max(self.data["boundary_mass"]))

    @property
    def warnings(self) -> list:
        """The boundary flags as at most one line: the first, and how many followed."""
        if not self.flags:
            return []
        later = len(self.flags) - 1
        return [self.flags[0] + (f" (and {later} later records)" if later else "")]

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
    def __init__(self, run: PropagationRun, handle, boundary_mask):
        self.run = run
        self.handle = handle
        self.mask = boundary_mask
        self.rows = []
        self.iterations, self.residual = 0, 0.0

    def tally(self, rep: StepReport):
        """Add one step's solver effort to the interval since the last record."""
        self.iterations += rep.iterations
        self.residual = max(self.residual, rep.residual)

    def record(self, t, u_vals):
        """One row; its solver columns cover the steps since the previous row."""
        wf = WaveFunction(self.run.grid, u_vals)
        total = np.sum(np.abs(u_vals) ** 2)
        edge = float(np.sum(np.abs(u_vals[self.mask]) ** 2) / total) if total > 0 else 0.0
        row = {
            "t": t,
            "l2": l2_norm(wf),
            "boundary_mass": edge,
            "solver_iterations": self.iterations,
            "solver_residual": self.residual,
        }
        self.iterations, self.residual = 0, 0.0
        for order in self.run.norm_orders:
            row[f"norm_a{order.a}"] = order.norm(wf)
        self.rows.append(row)
        if self.run.cfg.keep_states:
            self.run.states.append((t, u_vals.copy()))
        if edge > self.run.cfg.boundary_tol:
            flag = f"boundary mass {edge:.3e} above {self.run.cfg.boundary_tol:g} at t={t:.6g}"
            self.run.flags.append(flag)

    def finalize(self):
        run = self.run
        run.times = np.array([r["t"] for r in self.rows])
        keys = [k for k in self.rows[0] if k != "t"]
        run.data = {k: np.array([r[k] for r in self.rows]) for k in keys}


def propagate(cfg: PropagatorConfig, handle, u0: WaveFunction,
              norm_orders=()) -> PropagationRun:
    """Run the homogeneous flow and record the requested norms."""
    return _propagate_impl(cfg, handle, u0, norm_orders, source=None)


def propagate_inhomogeneous(cfg: PropagatorConfig, handle, u0: WaveFunction,
                            source, norm_orders=()) -> PropagationRun:
    """Run i du/dt = H(t) u + f(t) with the midpoint-sampled source f."""
    if cfg.scheme != "crank_nicolson_midpoint":
        raise ConfigError("inhomogeneous runs need the crank_nicolson_midpoint scheme")
    return _propagate_impl(cfg, handle, u0, norm_orders, source=source)


def _propagate_impl(cfg, handle, u0, norm_orders, source):
    _check_same_grid(u0.grid, handle.grid, error=ConfigError)
    norm_orders = tuple(
        o if hasattr(o, "a") else handle.norm_order(int(o)) for o in norm_orders
    )
    op = _Operator(handle, cfg)
    run = PropagationRun(grid=handle.grid, cfg=cfg, norm_orders=norm_orders)
    rec = _Recorder(run, handle, handle.grid.boundary_mask())

    u = u0.values.astype(complex)
    t = cfg.t0
    rec.record(t, u)
    for n in range(cfg.n_steps):
        t = cfg.t0 + n * cfg.dt
        src_mid = None
        if source is not None:
            sv = source(t + 0.5 * cfg.dt)
            src_mid = sv.values if isinstance(sv, WaveFunction) else np.asarray(sv)
        t_next = cfg.t0 + (n + 1) * cfg.dt
        try:
            u, rep = _advance(op, cfg, t, u, source_mid=src_mid)
        except SolverError as exc:
            raise SolverError(f"{exc} at step {n + 1} (t={t_next:.6g})") from exc
        t = t_next
        if not np.isfinite(u).all():
            raise SolverError(f"state became non-finite at step {n + 1} (t={t:.6g})")
        rec.tally(rep)
        if (n + 1) % cfg.save_every == 0 or n + 1 == cfg.n_steps:
            rec.record(t, u)
    rec.finalize()
    run.final = WaveFunction(handle.grid, u)
    return run


@dataclass(frozen=True)
class EnergyFit:
    """Smallest C with ||u(t)||_a <= e^{C t} ||u(0)||_a along the run."""

    a: int
    growth_rate: float
    passed: bool


def energy_estimate_check(run: PropagationRun, a: int = 0) -> EnergyFit:
    times = run.times
    series = run.norm_series(a)
    base = series[0]
    if base <= 0:
        raise ValueError("initial norm vanishes; no growth estimate possible")
    mask = times > run.cfg.t0
    rates = np.log(series[mask] / base) / (times[mask] - run.cfg.t0)
    c = float(np.max(rates)) if mask.any() else 0.0
    return EnergyFit(a=a, growth_rate=c, passed=bool(np.isfinite(c)))


__all__ = [
    "PropagatorConfig",
    "PropagationRun",
    "StepReport",
    "EnergyFit",
    "SCHEMES",
    "step",
    "propagate",
    "propagate_inhomogeneous",
    "energy_estimate_check",
]
