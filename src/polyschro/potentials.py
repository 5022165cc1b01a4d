"""Potential families with closed-form partials, and growth-bound validators.

A family packages the scalar potential V(t, x; rho), a vector potential
A(t, x; rho), the declared polynomial growth order M (V is sandwiched by
<x>^(2(M+1)) up to constants), the magnetic growth margin delta (|A| is
expected to stay under <x>^(M+1-delta)), the particle mass, and the open
parameter interval.  Potentials are expressions, not callbacks, so every
t-, rho- and x-partial exists in closed form.  The growth validators
evaluate each exact d^alpha once, on the stack of all (t, rho) samples
over every grid point, and reduce that stack to each check's constant
and dyadic-shell slope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expressions as ex
from .errors import FamilyError
from .grid import SpatialGrid, _finite, _whole, multi_indices

# shell-fit tolerances for the empirical bound checks
SLOPE_TOL = 0.25
RATIO_FLOOR = 1e-6


def _as_expr(e):
    return e if isinstance(e, ex.Expr) else ex.parse(str(e))


def _check_rho(rho, interval, owner: str) -> float:
    """rho as a float; a FamilyError when it is no number or lies outside
    the open interval (None: any number) of owner."""
    try:
        rho = float(rho)
    except (TypeError, ValueError):
        raise FamilyError(f"rho must be a number, got {rho!r} for {owner}") from None
    if interval is not None:
        lo, hi = interval
        if not (lo < rho < hi):
            raise FamilyError(f"rho={rho} outside the open interval ({lo}, {hi}) of {owner}")
    return rho


def _check_growth_data(owner, mass=1.0) -> None:
    """Check the growth data that a family and an interaction share.

    growth_order must be a whole number >= 0 (a bool is none), delta and
    mass finite and positive, and rho_interval None or a pair lo < hi of
    finite numbers, which is stored as floats.  A FamilyError names the
    field otherwise.
    """
    if _whole(owner.growth_order, "growth_order", FamilyError) < 0:
        raise FamilyError(f"growth_order must be >= 0, got {owner.growth_order!r}")
    for name, value in (("delta", owner.delta), ("mass", mass)):
        if not (_finite(value) and value > 0):
            raise FamilyError(f"{name} must be a finite positive number, got {value!r}")
    if owner.rho_interval is not None:
        pair = owner.rho_interval
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(map(_finite, pair)) and pair[0] < pair[1]):
            raise FamilyError(f"rho_interval must be a pair lo < hi of finite numbers, "
                              f"got {pair!r}")
        object.__setattr__(owner, "rho_interval", (float(pair[0]), float(pair[1])))


@dataclass(frozen=True)
class PotentialFamily:
    """Electric + magnetic potential pair with declared growth data.

    Parameters
    ----------
    name : str
    v : str or Expr
        Scalar potential; variables t, rho and x (d=1) or x1, x2 (d=2).
    a : sequence of str or Expr
        Vector potential components, one per axis.
    growth_order : int
        The integer M >= 0 in the confinement sandwich
        C0 <x>^(2(M+1)) - C1 <= V <= C2 <x>^(2(M+1)).
    delta : float
        Declared margin in |A| <= C <x>^(M+1-delta); must be positive.
    mass : float
    rho_interval : (float, float) or None
        Open parameter interval; None marks a parameter-free family.
    dim : int
    """

    name: str
    v: ex.Expr
    a: tuple
    growth_order: int
    delta: float
    mass: float = 1.0
    rho_interval: tuple | None = None
    dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "v", _as_expr(self.v))
        if not isinstance(self.a, (list, tuple)):
            raise FamilyError(f"a must be a list of component expressions, got {self.a!r}")
        object.__setattr__(self, "a", tuple(_as_expr(c) for c in self.a))
        if self.dim not in (1, 2):
            raise FamilyError(f"dim must be 1 or 2, got {self.dim}")
        if len(self.a) != self.dim:
            raise FamilyError(
                f"vector potential needs {self.dim} components, got {len(self.a)}"
            )
        _check_growth_data(self, self.mass)
        allowed = self._allowed_vars()
        for label, e in [("V", self.v)] + [(f"A{i+1}", c) for i, c in enumerate(self.a)]:
            extra = e.free_vars() - allowed
            if extra:
                raise FamilyError(f"{label} uses unknown variables {sorted(extra)}")

    def _allowed_vars(self):
        coords = {"x"} if self.dim == 1 else {"x1", "x2"}
        return coords | {"t", "rho"}

    @property
    def coord_names(self):
        return ("x",) if self.dim == 1 else ("x1", "x2")

    @cached_property
    def v_t(self):
        return self.v.diff("t")

    @cached_property
    def v_rho(self):
        return self.v.diff("rho")

    @cached_property
    def a_t(self):
        return tuple(c.diff("t") for c in self.a)

    @cached_property
    def a_rho(self):
        return tuple(c.diff("rho") for c in self.a)

    @cached_property
    def div_a(self):
        """sum_j d(A_j)/d(x_j), the divergence entering the symmetrized symbol."""
        total = ex.ZERO
        for c, name in zip(self.a, self.coord_names):
            total = ex.add(total, c.diff(name))
        return total

    @property
    def is_rho_dependent(self) -> bool:
        names = [self.v] + list(self.a)
        return any("rho" in e.free_vars() for e in names)

    @property
    def is_time_dependent(self) -> bool:
        names = [self.v] + list(self.a)
        return any("t" in e.free_vars() for e in names)

    @property
    def weight_exponent(self) -> float:
        """2(M+1): the polynomial degree the confinement sandwich refers to."""
        return 2.0 * (self.growth_order + 1)

    def check_rho(self, rho) -> float:
        return _check_rho(rho, self.rho_interval, f"family {self.name!r}")

    def check_grid(self, grid: SpatialGrid) -> None:
        """Reject a grid of another dimension."""
        if grid.d != self.dim:
            raise FamilyError(
                f"family {self.name!r} is {self.dim}-dimensional, grid is {grid.d}-dimensional"
            )

    def _env(self, t, rho, coords):
        env = {"t": t, "rho": rho}
        for name, arr in zip(self.coord_names, coords):
            env[name] = arr
        return env


def _sample(fam: PotentialFamily, t: float, rho: float, grid: SpatialGrid, exprs) -> list:
    """Evaluate expressions of fam on the grid; rejects bad rho, a grid of
    another dimension, and non-finite values."""
    fam.check_rho(rho)
    fam.check_grid(grid)
    env = fam._env(t, rho, grid.mesh)
    return [ex.evaluate(e, out_shape=grid.shape, **env) for e in exprs]


def eval_potential(fam: PotentialFamily, t: float, rho: float, grid: SpatialGrid):
    """Sample (V, A) on the grid; rejects non-finite values and bad rho."""
    V, *A = _sample(fam, t, rho, grid, (fam.v, *fam.a))
    return V, tuple(A)


def partial_rho(fam: PotentialFamily, t: float, rho: float, grid: SpatialGrid):
    """Closed-form parameter partials (dV/drho, dA/drho) on the grid."""
    dV, *dA = _sample(fam, t, rho, grid, (fam.v_rho, *fam.a_rho))
    return dV, tuple(dA)


def divergence_a(fam: PotentialFamily, t: float, rho: float, grid: SpatialGrid) -> np.ndarray:
    """div A on the grid."""
    (div,) = _sample(fam, t, rho, grid, (fam.div_a,))
    return div


@dataclass(frozen=True)
class InteractionFamily:
    """Pair interaction W(t, r; rho) of the relative coordinate r.

    growth_order is the M0 of the interacting system (the smaller of the
    particle orders); the order-zero bound carries the margin delta:
    |W| <= C <r>^(2(M0+1) - delta), derivatives lose the margin.
    """

    name: str
    w: ex.Expr
    growth_order: int
    delta: float
    rho_interval: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "w", _as_expr(self.w))
        _check_growth_data(self)
        extra = self.w.free_vars() - {"t", "r", "rho"}
        if extra:
            raise FamilyError(f"W uses unknown variables {sorted(extra)}")

    @cached_property
    def w_t(self):
        return self.w.diff("t")

    @cached_property
    def w_rho(self):
        return self.w.diff("rho")

    def check_rho(self, rho) -> float:
        return _check_rho(rho, self.rho_interval, f"interaction {self.name!r}")

    @property
    def is_time_dependent(self) -> bool:
        return "t" in self.w.free_vars()

    def on(self, t: float, rho: float, r: np.ndarray) -> np.ndarray:
        self.check_rho(rho)
        return ex.evaluate(self.w, out_shape=np.shape(r), t=t, rho=rho, r=r)

    def rho_partial_on(self, t: float, rho: float, r: np.ndarray) -> np.ndarray:
        self.check_rho(rho)
        return ex.evaluate(self.w_rho, out_shape=np.shape(r), t=t, rho=rho, r=r)


# ---------------------------------------------------------------------------
# builtin catalog


def _builtin_catalog():
    harmonic = PotentialFamily(
        name="harmonic",
        v="x^2 / 2",
        a=("0",),
        growth_order=0,
        delta=1.0,
    )
    confined_quartic = PotentialFamily(
        name="confined_quartic",
        v="(2 + sin(t)) * (1 + x^2)^2",
        a=("cos(t) * (1 + x^2)^(1/2)",),
        growth_order=1,
        delta=1.0,
    )
    parametric_quartic = PotentialFamily(
        name="parametric_quartic",
        # quartic term must dominate inside the box for the sandwich
        # certificate, hence the lower end of the interval
        v="x^2 / 2 + rho * x^4 / 4",
        a=("0",),
        growth_order=1,
        delta=1.0,
        rho_interval=(0.4, 8.0),
    )
    return {f.name: f for f in (harmonic, confined_quartic, parametric_quartic)}


BUILTIN_FAMILIES = _builtin_catalog()

BUILTIN_INTERACTIONS = {
    "soft_pair": InteractionFamily(
        name="soft_pair",
        w="rho * (1 + r^2)",
        growth_order=1,
        delta=2.0,
        rho_interval=(-4.0, 4.0),
    ),
}


def get_family(name: str) -> PotentialFamily:
    try:
        return BUILTIN_FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_FAMILIES))
        raise FamilyError(f"unknown family {name!r}; builtins: {known}") from None


def get_interaction(name: str) -> InteractionFamily:
    try:
        return BUILTIN_INTERACTIONS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_INTERACTIONS))
        raise FamilyError(f"unknown interaction {name!r}; builtins: {known}") from None


def ramped_quartic_family() -> PotentialFamily:
    """V = t*x^4 + x^2: quartic for t > 0 but only quadratic at t = 0.

    No single growth order fits it uniformly in time, so the validator is
    expected to fail on it whatever M is declared.  Kept out of the builtin
    catalog on purpose.
    """
    return PotentialFamily(
        name="ramped_quartic",
        v="t * x^4 + x^2",
        a=("0",),
        growth_order=1,
        delta=1.0,
    )


# ---------------------------------------------------------------------------
# assumption validation


@dataclass(frozen=True)
class BoundCheck:
    """Empirical verdict for one inequality |g| <= C * <x>^p (or the sandwich)."""

    label: str
    exponent: float
    constant: float
    slope: float
    slope_limit: float
    passed: bool
    witness: dict = field(default_factory=dict)

    def row(self):
        return {
            "check": self.label,
            "exponent": self.exponent,
            "constant": self.constant,
            "slope": self.slope,
            "slope_limit": self.slope_limit,
            "passed": self.passed,
            "witness_t": self.witness.get("t", np.nan),
            "witness_rho": self.witness.get("rho", np.nan),
            "witness_x": self.witness.get("x", np.nan),
        }


@dataclass(frozen=True)
class ValidationReport:
    family: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if not c.passed]

    def rows(self):
        return [c.row() for c in self.checks]


def _shell_reduce(bracket: np.ndarray, stack: np.ndarray, reduce):
    """Geometric centers of the nonempty dyadic shells 2^k <= <x> < 2^(k+1)
    and the (samples, shells) reduce (np.min or np.max) of each row of the
    (samples, *bracket.shape) stack over each shell."""
    top, lo = float(bracket.max()), 1.0
    centers, stats = [], []
    while lo < top:
        hi = 2.0 * lo
        mask = (bracket >= lo) & (bracket < hi)
        if mask.any():
            centers.append(np.sqrt(lo * hi))
            stats.append(reduce(stack[:, mask], axis=1))
        lo = hi
    return np.asarray(centers), np.reshape(np.transpose(stats), (len(stack), len(centers)))


def _worst_slope(centers, stats, pick):
    """pick (max or min) over the rows of stats of the least-squares slope
    of log(row) against log(centers) on the outer three positive shells;
    0.0 when no row has a finite one."""
    slopes = []
    for row in stats:
        keep = row > 0
        x, y = np.log(centers[keep][-3:]), np.log(row[keep][-3:])
        if len(x) >= 2:
            slopes.append(float(np.polyfit(x, y, 1)[0]))
    return pick((s for s in slopes if np.isfinite(s)), default=0.0)


def _witness(samples, coords, ratio, s, pick):
    """The point of sample s where pick (np.argmax or np.argmin) lands on ratio[s]."""
    idx = np.unravel_index(pick(ratio[s]), ratio.shape[1:])
    t, rho = samples[s]
    xs = [float(c[idx]) for c in coords]
    return {"t": t, "rho": rho, "x": xs[0] if len(xs) == 1 else tuple(xs)}


def _upper_check(label, exponent, stack, bracket, samples, coords) -> BoundCheck:
    """|g| <= C <x>^p over the stacked samples of g.

    The constant is the largest |g| / <x>^p, witnessed at its point in the
    last sample that reaches it; the slope is the worst fit over the
    samples whose peak ratio is above RATIO_FLOOR (an identically-small
    field has nothing to fit).
    """
    ratio = np.abs(stack) / bracket**exponent
    peaks = ratio.reshape(len(ratio), -1).max(axis=1)
    constant = float(peaks.max())
    last = int(np.flatnonzero(peaks == constant)[-1])
    centers, stats = _shell_reduce(bracket, ratio[peaks > RATIO_FLOOR], np.max)
    # growth violations show up asymptotically, so fit the outer shells
    # (matching the lower-bound check) and skip the transition region
    slope = _worst_slope(centers, stats, max)
    return BoundCheck(label, exponent, constant, slope, SLOPE_TOL,
                      np.isfinite(constant) and slope <= SLOPE_TOL,
                      _witness(samples, coords, ratio, last, np.argmax))


def _lower_check(exponent, stack, bracket, samples, coords) -> BoundCheck:
    """Existence of C0 > 0, C1 >= 0 with V >= C0 <x>^p - C1, uniformly sampled.

    On a bounded sample the constants alone prove nothing (any C0 works with
    a huge C1), so the check is a decay test: the shell-minimum of
    V / <x>^p must not fall off toward the box edge.  The constant is the
    smallest outermost-shell minimum over the samples, the slope the
    smallest fit, and the witness the point of the smallest ratio over
    all samples.
    """
    ratio = stack / bracket**exponent
    lows = ratio.reshape(len(ratio), -1).min(axis=1)
    centers, stats = _shell_reduce(bracket, ratio, np.min)
    outer = stats[:, -1] if len(centers) else lows
    constant = float(outer.min())
    slope = _worst_slope(centers, stats, min)
    return BoundCheck("growth_lower", exponent, constant, slope, -SLOPE_TOL,
                      constant > RATIO_FLOOR and slope >= -SLOPE_TOL,
                      _witness(samples, coords, ratio, int(np.argmin(lows)), np.argmin))


def _alpha_label(alpha):
    return "dx^" + "".join(str(k) for k in alpha)


def _samples(t_samples, rho_samples, interval):
    """(t, rho) pairs, t outermost; by default a full period of the
    oscillatory builtins (t = 0 included) and the quartiles of the
    parameter interval."""
    if t_samples is None:
        t_samples = np.linspace(0.0, 2.0 * np.pi, 9)
    if rho_samples is None:
        if interval is None:
            rho_samples = (0.0,)
        else:
            lo, hi = interval
            rho_samples = lo + np.array([0.25, 0.5, 0.75]) * (hi - lo)
    rho_samples = tuple(rho_samples)
    return [(t, rho) for t in t_samples for rho in rho_samples]


def _derivative(expr, alpha, names):
    """The closed-form d^alpha expr: alpha[k] differentiations in names[k]."""
    for name, order in zip(names, alpha):
        for _ in range(order):
            expr = expr.diff(name)
    return expr


def _scan_bounds(groups, alphas, samples, names, coords, bracket, lower=False):
    """Check |d^alpha g| <= C <x>^p for every group and alpha over the samples.

    A group is (prefix, g, p, zero_label, zero_p).  The check of alpha is
    labelled prefix_dx^alpha with exponent p; a group with a zero_label
    checks order zero under that label with exponent zero_p instead.
    d^alpha g is differentiated in closed form, alpha[k] times in names[k],
    and evaluated once on the stack of all samples: t and rho enter as
    (samples, 1, ...) columns against coords, giving one
    (samples, *bracket.shape) array, so the memory of a scan grows with
    samples x grid points (up to 27 x 256 in the validate suite).  With
    ``lower`` the first group's order-zero stack also feeds the
    growth_lower check.  Returns the checks group by group in ``alphas``
    order, growth_lower first.
    """
    shape = (len(samples), *bracket.shape)
    column = (len(samples),) + (1,) * bracket.ndim
    env = dict(zip(names, coords),
               t=np.reshape([t for t, _ in samples], column),
               rho=np.reshape([rho for _, rho in samples], column))
    checks = []
    for i, (prefix, expr, p, zero_label, zero_p) in enumerate(groups):
        for k, alpha in enumerate(alphas):
            label, exponent = f"{prefix}_{_alpha_label(alpha)}", p
            if k == 0 and zero_label is not None:
                label, exponent = zero_label, zero_p
            stack = ex.evaluate(_derivative(expr, alpha, names), out_shape=shape, **env)
            if lower and i == 0 and k == 0:
                checks.append(_lower_check(exponent, stack, bracket, samples, coords))
            checks.append(_upper_check(label, exponent, stack, bracket, samples, coords))
    return checks


def validate_assumption(
    fam: PotentialFamily,
    grid: SpatialGrid,
    t_samples=None,
    rho_samples=None,
    alpha_max: int = 4,
) -> ValidationReport:
    """Empirically check the growth sandwich and all derivative bounds.

    Every inequality |g| <= C <x>^p is scanned over (t, x, rho) samples;
    the reported constant is the max of |g| / <x>^p, and the check fails
    when that ratio grows toward the box edge (fitted dyadic-shell slope
    above SLOPE_TOL), i.e. when no constant can exist in the large-volume
    limit.  The lower confinement bound additionally requires the shell
    minimum of V / <x>^(2(M+1)) not to decay toward the edge.  Each
    derivative is evaluated on all samples at once, so memory grows with
    samples x grid points: on a 2-D N x N grid, one (samples, N, N) array
    of floats per derivative.
    """
    if alpha_max < 1 or alpha_max > 4:
        raise FamilyError("alpha_max must be between 1 and 4")
    if fam.dim != grid.d:
        raise FamilyError("grid dimension does not match the family")
    p_full = fam.weight_exponent  # 2(M+1)
    p_mag = fam.growth_order + 1.0  # M+1
    groups = [("V", fam.v, p_full, "growth_upper", p_full),
              ("Vt", fam.v_t, p_full, None, None)]
    for j, (a, a_t) in enumerate(zip(fam.a, fam.a_t), start=1):
        groups += [(f"A{j}", a, p_mag, f"A{j}_size", p_mag - fam.delta),
                   (f"A{j}t", a_t, p_mag, None, None)]
    if fam.is_rho_dependent:
        groups.append(("Vrho", fam.v_rho, p_full, None, None))
        groups += [(f"A{j}rho", c, p_mag, None, None) for j, c in enumerate(fam.a_rho, start=1)]
    checks = _scan_bounds(
        groups, multi_indices(fam.dim, alpha_max),
        _samples(t_samples, rho_samples, fam.rho_interval),
        fam.coord_names, grid.mesh, np.sqrt(1.0 + grid.radius_sq), lower=True,
    )
    return ValidationReport(family=fam.name, checks=tuple(checks))


def validate_interaction(
    inter: InteractionFamily,
    L: float,
    n: int = 512,
    t_samples=None,
    rho_samples=None,
    alpha_max: int = 2,
) -> ValidationReport:
    """Check the pair-interaction bounds on a relative-coordinate line.

    Order zero carries the margin: |W| <= C <r>^(2(M0+1)-delta); all
    r-derivatives and the t-/rho-partials only need the full exponent.
    """
    if alpha_max < 0 or alpha_max > 4:
        raise FamilyError("alpha_max must be between 0 and 4")
    r = np.linspace(-2.0 * L, 2.0 * L, n)
    p_full = 2.0 * (inter.growth_order + 1)
    groups = [("W", inter.w, p_full, "W_size", p_full - inter.delta),
              ("Wt", inter.w_t, p_full, None, None),
              ("Wrho", inter.w_rho, p_full, None, None)]
    checks = _scan_bounds(
        groups, multi_indices(1, alpha_max),
        _samples(t_samples, rho_samples, inter.rho_interval),
        ("r",), (r,), np.sqrt(1.0 + r**2),
    )
    return ValidationReport(family=inter.name, checks=tuple(checks))


__all__ = [
    "PotentialFamily",
    "InteractionFamily",
    "BoundCheck",
    "ValidationReport",
    "BUILTIN_FAMILIES",
    "BUILTIN_INTERACTIONS",
    "get_family",
    "get_interaction",
    "ramped_quartic_family",
    "eval_potential",
    "partial_rho",
    "divergence_a",
    "validate_assumption",
    "validate_interaction",
]
