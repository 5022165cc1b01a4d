"""Matrix-free Hamiltonian application, weight-operator powers, and norms."""

import gc
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy import fft as sfft

from polyschro import (
    CutoffSpec,
    HamiltonianHandle,
    NormOrder,
    PotentialFamily,
    WaveFunction,
    apply_lambdaM_power,
    eval_potential,
    gaussian_packet,
    get_family,
    l2_inner_product,
    make_grid,
    weighted_norm,
)
from polyschro import operators
from polyschro.errors import ConfigError, FamilyError, SolverError
from polyschro.operators import resolve_mu_prime
from polyschro.potentials import BUILTIN_FAMILIES
from polyschro.symbols import dense_matrix

from conftest import MAGNETIC_2D, RHO_MAGNETIC, band_limited_state


@pytest.fixture(scope="module")
def quartic_handle():
    g = make_grid(1, 10.0, 256)
    return HamiltonianHandle(get_family("confined_quartic"), g)


def random_pair(grid, rng):
    f = WaveFunction(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    g = WaveFunction(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    return f, g


def test_free_hamiltonian_plane_wave_eigenvalue():
    fam = PotentialFamily(name="free", v="0", a=("0",), growth_order=0, delta=1.0, mass=2.0)
    g = make_grid(1, 8.0, 64)
    handle = HamiltonianHandle(fam, g)
    kappa = g.dual_axis[9]
    f = WaveFunction(g, np.exp(1j * kappa * g.axis))
    out = handle.apply(0.0, f.values)
    np.testing.assert_allclose(out, kappa**2 / (2 * fam.mass) * f.values, atol=1e-12)


def test_harmonic_ground_state_eigenvalue(ground_state_512):
    g, f = ground_state_512
    handle = HamiltonianHandle(get_family("harmonic"), g)
    out = handle.apply(0.0, f.values)
    assert np.max(np.abs(out - 0.5 * f.values)) <= 1e-8


def test_hamiltonian_hermitian(quartic_handle, rng):
    g = quartic_handle.grid
    for t in (0.0, 0.7):
        f, h = random_pair(g, rng)
        lhs = l2_inner_product(quartic_handle.apply(t, f.values), h)
        rhs = l2_inner_product(f, quartic_handle.apply(t, h.values))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_hamiltonian_linear(quartic_handle, rng):
    g = quartic_handle.grid
    f, h = random_pair(g, rng)
    combo = f.with_values(2.0 * f.values - 1.5j * h.values)
    lhs = quartic_handle.apply(0.3, combo.values)
    rhs = (2.0 * quartic_handle.apply(0.3, f.values)
           - 1.5j * quartic_handle.apply(0.3, h.values))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.max(np.abs(rhs)))


def test_zero_gauge_reduces_to_kinetic_plus_potential(rng):
    g = make_grid(1, 8.0, 64)
    handle = HamiltonianHandle(get_family("harmonic"), g)
    f = band_limited_state(g, rng)
    out = handle.apply(0.0, f.values)
    kinetic = g.ifft(g.dual_radius_sq / 2.0 * g.fft(f.values))
    want = kinetic + g.axis**2 / 2 * f.values
    np.testing.assert_allclose(out, want, atol=1e-13)


def test_gauge_translation_consistency(rng):
    """A constant gauge shift acts as the discrete translation e^{icx}."""
    g = make_grid(1, 10.0, 256)
    c = 4 * g.dxi
    gauged = PotentialFamily(name="shifted_gauge", v="x^2/2", a=(f"{c!r}",), growth_order=0, delta=0.5)
    plain = get_family("harmonic")
    f = band_limited_state(g, rng)
    phase = np.exp(1j * c * g.axis)
    lhs = HamiltonianHandle(gauged, g).apply(0.0, phase * f.values)
    rhs = phase * HamiltonianHandle(plain, g).apply(0.0, f.values)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_mollified_matches_plain_for_tiny_eps(quartic_handle, rng):
    g = quartic_handle.grid
    f = gaussian_packet(g, center=0.5, width=1.0)
    spec = CutoffSpec(eps=1e-5, mu=0.0)
    plain = f.with_values(quartic_handle.apply(0.0, f.values))
    moll = quartic_handle.apply_mollified(0.0, f.values, spec)
    assert WaveFunction(g, moll - plain.values).norm() <= 1e-2 * plain.norm()


def test_mollified_hermitian(quartic_handle, rng):
    g = quartic_handle.grid
    spec = CutoffSpec(eps=0.5, mu=1.0)
    f, h = random_pair(g, rng)
    lhs = l2_inner_product(quartic_handle.apply_mollified(0.2, f.values, spec), h)
    rhs = l2_inner_product(f, quartic_handle.apply_mollified(0.2, h.values, spec))
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_mollified_unit_profile_recovers_hamiltonian(quartic_handle, rng):
    g = quartic_handle.grid
    spec = CutoffSpec(eps=1.0, mu=0.0, profile="one")
    f = band_limited_state(g, rng)
    plain = quartic_handle.apply(0.4, f.values)
    moll = quartic_handle.apply_mollified(0.4, f.values, spec)
    np.testing.assert_allclose(moll, plain, atol=1e-10 * np.max(np.abs(plain)))


def test_lambda_power_zero_is_identity(rng):
    g = make_grid(1, 8.0, 64)
    order = NormOrder(a=0, growth_order=1)
    f, _ = random_pair(g, rng)
    out = apply_lambdaM_power(order, f)
    np.testing.assert_array_equal(out.values, f.values)


def test_lambda_power_round_trip(rng):
    g = make_grid(1, 8.0, 64)
    f = band_limited_state(g, rng)
    up = apply_lambdaM_power(NormOrder(a=1, growth_order=1), f)
    back = apply_lambdaM_power(NormOrder(a=-1, growth_order=1), up)
    assert np.max(np.abs(back.values - f.values)) <= 1e-8


def test_lambda_inverse_on_constructed_rhs(rng):
    g = make_grid(1, 8.0, 64)
    target = band_limited_state(g, rng)
    rhs = apply_lambdaM_power(NormOrder(a=1, growth_order=0), target)
    recovered = apply_lambdaM_power(NormOrder(a=-1, growth_order=0), rhs)
    assert np.max(np.abs(recovered.values - target.values)) <= 1e-8


def test_lambda_positive_definite(rng):
    g = make_grid(1, 8.0, 64)
    order = NormOrder(a=1, growth_order=1)
    mu_p = resolve_mu_prime(order, g)
    assert mu_p > 0.0
    for _ in range(5):
        f, _ = random_pair(g, rng)
        lam = apply_lambdaM_power(order, f)
        quad = l2_inner_product(lam, f).real
        assert quad >= mu_p * f.norm() ** 2 - 1e-10


def test_cg_zero_rhs_and_iteration_miss():
    op = lambda v: np.array([1.0, 100.0]) * v
    x, iters = operators.solve_hermitian_cg(op, np.zeros(2, dtype=complex))
    assert iters == 0 and not np.any(x)
    with pytest.raises(SolverError, match="1 iterations"):
        operators.solve_hermitian_cg(op, np.ones(2, dtype=complex), maxiter=1)


def test_norm_order_validation():
    with pytest.raises(ConfigError):
        NormOrder(a=4, growth_order=0)
    with pytest.raises(ConfigError):
        NormOrder(a=1, growth_order=-1)
    with pytest.raises(ConfigError):
        NormOrder(a=1, growth_order=0, mass=0.0)


def test_weighted_norm_zero_order_is_l2():
    g = make_grid(1, 10.0, 512)
    f = gaussian_packet(g, width=1.0)
    assert weighted_norm(NormOrder(a=0, growth_order=0), f) == pytest.approx(1.0, abs=1e-10)


def test_weighted_norm_gaussian_quadrature_oracle(ground_state_512):
    """Closed-form moments of the unit Gaussian fix every term of the sum."""
    g, f = ground_state_512
    # ||f|| = 1, ||f'|| = sqrt(1/2), ||f''|| = sqrt(3)/2, ||<x>^2 f|| = sqrt(11)/2
    oracle = 1.0 + np.sqrt(0.5) + np.sqrt(3.0) / 2.0 + np.sqrt(11.0) / 2.0
    val = weighted_norm(NormOrder(a=1, growth_order=0), f)
    assert val == pytest.approx(oracle, abs=1e-6)


def test_weighted_norm_nesting(rng):
    g = make_grid(1, 8.0, 64)
    f = band_limited_state(g, rng)
    norms = [weighted_norm(NormOrder(a=a, growth_order=1), f) for a in (0, 1, 2)]
    assert norms[0] <= norms[1] <= norms[2]


def test_negative_order_norm_uses_inverse(rng):
    g = make_grid(1, 8.0, 64)
    f = band_limited_state(g, rng)
    direct = apply_lambdaM_power(NormOrder(a=-1, growth_order=1), f).norm()
    assert weighted_norm(NormOrder(a=-1, growth_order=1), f) == pytest.approx(direct, rel=1e-8)


def dense_lambda_m(order, grid):
    """Lambda_M as a dense matrix, its kinetic part from DFT matrices."""
    eye = np.eye(grid.N)
    kin = grid.dual_radius_sq / (2.0 * order.mass)
    kinetic = np.fft.ifft(eye, axis=0) @ (kin[:, None] * np.fft.fft(eye, axis=0))
    weight = grid.bracket_weight(2.0 * (order.growth_order + 1))
    return kinetic + np.diag(resolve_mu_prime(order, grid) + weight)


@pytest.mark.parametrize("N", [64, 512])
def test_lambda_inverse_matches_dense_solve(N, rng):
    g = make_grid(1, 10.0, N)
    order = HamiltonianHandle(get_family("confined_quartic"), g).norm_order(-1)
    f = band_limited_state(g, rng)
    want = np.linalg.solve(dense_lambda_m(order, g), f.values)
    got = apply_lambdaM_power(order, f).values
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_lambda_factor_cached_per_grid_value(rng):
    order = NormOrder(a=-1, growth_order=1)
    factor = operators._lambda_m_factor
    factor.cache_clear()
    for L in (8.0, 8.0, 9.0):
        # a fresh grid each time: the cache must key on the grid's value
        apply_lambdaM_power(order, band_limited_state(make_grid(1, L, 64), rng))
    info = factor.cache_info()
    assert (info.hits, info.misses) == (1, 2)


def test_lambda_inverse_round_trip_2d(grid_2d, rng, monkeypatch):
    cg_calls = []
    cg = operators.solve_hermitian_cg
    monkeypatch.setattr(operators, "solve_hermitian_cg",
                        lambda *a, **k: cg_calls.append(1) or cg(*a, **k))
    f = band_limited_state(grid_2d, rng)
    up = apply_lambdaM_power(NormOrder(a=1, growth_order=1), f)
    back = apply_lambdaM_power(NormOrder(a=-1, growth_order=1), up)
    assert cg_calls == [1]
    assert np.max(np.abs(back.values - f.values)) <= 1e-8


def test_negative_order_norm_uses_inverse_2d(grid_2d, rng):
    order = NormOrder(a=-1, growth_order=1)
    f = band_limited_state(grid_2d, rng)
    direct = apply_lambdaM_power(order, f).norm()
    assert weighted_norm(order, f) == pytest.approx(direct, rel=1e-12)


def test_norm_equivalence_band(rng):
    """||Lambda^a f|| and ||f||_a agree up to fixed constants on smooth states."""
    g = make_grid(1, 10.0, 256)
    handle = HamiltonianHandle(get_family("confined_quartic"), g)
    for a in (1, 2):
        order = handle.norm_order(a)
        ratios = []
        for _ in range(6):
            f = band_limited_state(g, rng)
            ratios.append(apply_lambdaM_power(order, f).norm() / weighted_norm(order, f))
        assert min(ratios) >= 0.5
        assert max(ratios) <= 2.0


def test_rho_derivative_is_closed_form(rng):
    g = make_grid(1, 8.0, 64)
    fam = get_family("parametric_quartic")
    handle = HamiltonianHandle(fam, g, rho=1.0)
    f = band_limited_state(g, rng)
    out = handle.apply_rho_derivative(0.0, f.values)
    np.testing.assert_allclose(out, g.axis**4 / 4 * f.values, atol=1e-13)


def test_rho_derivative_hermitian(rng):
    g = make_grid(1, 8.0, 64)
    handle = HamiltonianHandle(get_family("parametric_quartic"), g, rho=1.0)
    f, h = random_pair(g, rng)
    lhs = l2_inner_product(handle.apply_rho_derivative(0.0, f.values), h)
    rhs = l2_inner_product(f, handle.apply_rho_derivative(0.0, h.values))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)


@pytest.mark.parametrize("fam", [get_family("parametric_quartic"), RHO_MAGNETIC],
                         ids=lambda fam: fam.name)
def test_rho_derivative_matches_central_difference(fam, rng):
    """H is at most quadratic in rho, so the central difference is exact."""
    g = make_grid(1, 8.0, 64)
    rho, h, t = 1.0, 0.25, 0.7
    f, _ = random_pair(g, rng)
    plus = HamiltonianHandle(fam, g, rho=rho + h).apply(t, f.values)
    minus = HamiltonianHandle(fam, g, rho=rho - h).apply(t, f.values)
    want = (plus - minus) / (2.0 * h)
    got = HamiltonianHandle(fam, g, rho=rho).apply_rho_derivative(t, f.values)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(plus) / h


def _momentum_matrices(grid):
    """Dense p_k = F^-1 xi_k F on the row-major ravel of the grid, one per axis."""
    dft = np.fft.fft(np.eye(grid.N), axis=0)
    p = np.fft.ifft(grid.dual_axis[:, None] * dft, axis=0)
    if grid.d == 1:
        return [p]
    eye = np.eye(grid.N)
    return [np.kron(p, eye), np.kron(eye, p)]


@pytest.mark.parametrize("fam", [get_family("confined_quartic"), MAGNETIC_2D],
                         ids=lambda fam: fam.name)
def test_magnetic_apply_matches_dense_oracle(fam):
    """H = sum_k (p_k - A_k)^2 / 2m + V with dense DFT momentum matrices."""
    g = make_grid(fam.dim, 6.0, 16)
    t = 0.7
    V, A = eval_potential(fam, t, 0.0, g)
    oracle = np.diag(V.ravel()).astype(complex)
    for p, a in zip(_momentum_matrices(g), A):
        kinetic_momentum = p - np.diag(a.ravel())
        oracle += kinetic_momentum @ kinetic_momentum / (2.0 * fam.mass)
    handle = HamiltonianHandle(fam, g)
    got = np.column_stack([handle.apply(t, e.reshape(g.shape)).ravel()
                           for e in np.eye(g.size, dtype=complex)])
    assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)


# 2-D, magnetic, non-unit mass, and with fields that move with rho
RHO_MAGNETIC_2D = replace(MAGNETIC_2D, name="rho_magnetic_2d",
                          v="(1 + x1^2 + x2^2)^2 + rho * x1^2",
                          a=("rho * sin(t) * x2", "cos(t) * x1 * (1 + x2^2)^(1/2)"),
                          rho_interval=(-2.0, 2.0))
MATRIX_FAMILIES = [*BUILTIN_FAMILIES.values(), RHO_MAGNETIC,
                   replace(RHO_MAGNETIC, name="heavy_rho_magnetic", mass=2.0), RHO_MAGNETIC_2D]


@pytest.mark.parametrize("fam", MATRIX_FAMILIES, ids=lambda fam: fam.name)
def test_matrix_matches_the_kernel_on_the_identity_stack(fam):
    """The closed-form dense H and dH/drho equal the kernel's images of the unit vectors."""
    g = make_grid(fam.dim, 6.0, 128 if fam.dim == 1 else 16)
    rho = 0.0 if fam.rho_interval is None else 0.5
    handle = HamiltonianHandle(fam, g, rho=rho)
    t = 0.7
    for derivative, apply in ((False, handle.apply), (True, handle.apply_rho_derivative)):
        want = dense_matrix(partial(apply, t), g)
        got = handle.matrix(t, derivative=derivative)
        assert got.shape == (g.size, g.size)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("fam", [get_family("confined_quartic"), MAGNETIC_2D],
                         ids=lambda fam: fam.name)
def test_stacked_states_match_single_applies(fam, rng):
    """A (B, *grid.shape) stack gives the B single images: bit for bit
    through the kernel (apply_expanded), to rounding through the quantized
    cutoff of the mollified operator."""
    g = make_grid(fam.dim, 6.0, 16)
    handle = HamiltonianHandle(fam, g)
    t = 0.7
    stack = rng.standard_normal((3,) + g.shape) + 1j * rng.standard_normal((3,) + g.shape)
    for op in (partial(handle.apply, t), partial(handle.apply_rho_derivative, t)):
        assert np.array_equal(op(stack), np.stack([op(f) for f in stack]))
    mollified = partial(handle.apply_mollified, t, cutoff=CutoffSpec(eps=0.25, mu=0.5))
    want = np.stack([mollified(f) for f in stack])
    assert np.linalg.norm(mollified(stack) - want) <= 1e-14 * np.linalg.norm(want)


def test_dropped_handle_is_freed_without_the_cycle_collector():
    """The field memos hold their builders weakly, so handle and memo form no cycle."""
    g = make_grid(1, 8.0, 64)
    handle = HamiltonianHandle(RHO_MAGNETIC, g, rho=1.0)
    f = np.ones(g.shape, dtype=complex)
    handle.apply_rho_derivative(0.0, f)
    handle.apply_mollified(0.0, f, CutoffSpec(eps=0.5))
    ref = weakref.ref(handle)
    gc.disable()
    try:
        del handle
        assert ref() is None
    finally:
        gc.enable()


def test_handle_rejects_rho_outside_interval():
    g = make_grid(1, 8.0, 64)
    with pytest.raises(Exception):
        HamiltonianHandle(get_family("parametric_quartic"), g, rho=100.0)


@pytest.mark.parametrize("fam", [get_family("confined_quartic"), MAGNETIC_2D],
                         ids=lambda fam: fam.name)
def test_potential_multiplier_is_read_only(fam):
    """The memoized diagonal is shared by every apply at its time."""
    g = make_grid(fam.dim, 6.0, 16)
    handle = HamiltonianHandle(fam, g)
    f = np.ones(g.shape, dtype=complex)
    before = handle.apply(0.7, f)
    pot = handle.potential_multiplier(0.7)
    with pytest.raises(ValueError):
        pot[...] = 0.0
    with pytest.raises(ValueError):
        pot += 1.0
    np.testing.assert_array_equal(handle.apply(0.7, f), before)


def _four_call_kernel(f, diag, axes, kinetic=True):
    """apply_expanded with one transform per call: F f, F(A f) and two inverses."""
    f = np.asarray(f, dtype=complex)
    out = diag * f
    for k, xi, xi_2m, kin, a, a_2m in axes:
        if a is None:
            if kinetic:
                out += sfft.ifft(kin * sfft.fft(f, None, k), None, k)
            continue
        xi_g = xi * sfft.fft(f, None, k)
        if kinetic:
            out += sfft.ifft(xi_2m * (xi_g - sfft.fft(a * f, None, k)), None, k)
        else:
            out -= sfft.ifft(xi_2m * sfft.fft(a * f, None, k), None, k)
        out -= a_2m * sfft.ifft(xi_g, None, k)
    return out


@pytest.mark.parametrize("d", [1, 2])
def test_paired_transforms_match_the_four_call_kernel(d, rng):
    """Pairing F f with F(A f), and the two inverses, changes no bit: for one
    state, for a stack, and without the kinetic term (dH/drho)."""
    g = make_grid(d, 6.0, 64 if d == 1 else 16)
    axes = tuple(operators.axis_terms(g, k, 2.0, a)
                 for k, a in enumerate(rng.standard_normal((d,) + g.shape)))
    diag = rng.standard_normal(g.shape)
    for shape in (g.shape, (3,) + g.shape):
        f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for kinetic in (True, False):
            assert np.array_equal(operators.apply_expanded(f, diag, axes, kinetic),
                                  _four_call_kernel(f, diag, axes, kinetic))


@pytest.mark.parametrize("d", [1, 2])
def test_batched_norms_match_single_norms(d, rng):
    """A (R, *grid.shape) stack gives the R norms of its states, for every order."""
    g = make_grid(d, 6.0, 64 if d == 1 else 16)
    stack = np.stack([band_limited_state(g, rng).values for _ in range(3)])
    for a in range(-1, 4):
        order = NormOrder(a=a, growth_order=1)
        got = weighted_norm(order, stack, g)
        want = [weighted_norm(order, WaveFunction(g, f)) for f in stack]
        assert got.shape == (3,)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_handle_rejects_a_grid_of_another_dimension():
    with pytest.raises(FamilyError, match="family 'magnetic_2d' is 2-dimensional, "
                                          "grid is 1-dimensional"):
        HamiltonianHandle(MAGNETIC_2D, make_grid(1, 6.0, 16))


@pytest.mark.parametrize("build, message", [
    (lambda: NormOrder(a=1.5, growth_order=1), "order a must be an integer"),
])
def test_operator_rejections_name_the_field(build, message):
    with pytest.raises(ConfigError) as caught:
        build()
    assert str(caught.value) == message
