"""Grids, spectral derivatives, and the discrete inner product."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyschro import (
    WaveFunction,
    gaussian_packet,
    l2_inner_product,
    l2_norm,
    make_grid,
    spectral_derivative,
)
from polyschro.errors import GridError
from polyschro.grid import derivative_norm_sum, multi_indices
from polyschro.operators import NormOrder, weighted_norm
from polyschro.symbols import SymbolField, adjoint_quantize_symbol, quantize_symbol

from conftest import band_limited_state


def test_make_grid_reference_resolution():
    g = make_grid(1, 10.0, 512)
    assert g.dx == pytest.approx(20.0 / 512, rel=0, abs=0)
    assert np.max(np.abs(g.dual_axis)) == pytest.approx(np.pi * 512 / 20.0)
    assert g.dxi == pytest.approx(np.pi / 10.0)


def test_make_grid_small_nodes():
    g = make_grid(1, 5.0, 8)
    np.testing.assert_allclose(g.axis, [-5.0, -3.75, -2.5, -1.25, 0.0, 1.25, 2.5, 3.75])


def test_make_grid_2d_shapes():
    g = make_grid(2, 6.0, 128)
    assert g.shape == (128, 128)
    assert g.size == 128**2
    assert all(m.shape == (128, 128) for m in g.mesh)
    assert all(m.shape == (128, 128) for m in g.dual_mesh)


@pytest.mark.parametrize("d,L,N", [(1, 10.0, 511), (1, 10.0, 4), (1, -1.0, 64), (3, 5.0, 16), (0, 5.0, 16)])
def test_make_grid_rejects_bad_parameters(d, L, N):
    with pytest.raises(GridError):
        make_grid(d, L, N)


@pytest.mark.parametrize("d,N,field", [(1, 100.7, "N"), (1.9, 64, "d"), (1, "64", "N"),
                                       (1, True, "N"), (1, float("nan"), "N")])
def test_make_grid_rejects_sizes_that_are_not_whole_numbers(d, N, field):
    with pytest.raises(GridError, match=f"^{field} must be a whole number"):
        make_grid(d, 10.0, N)


@pytest.mark.parametrize("L", [True, "x", None, float("nan"), -1.0])
def test_make_grid_rejects_lengths_that_are_not_finite_positive_numbers(L):
    with pytest.raises(GridError, match=rf"^L must be positive and finite, got {L!r}$"):
        make_grid(1, L, 64)


def test_make_grid_accepts_whole_floats():
    assert make_grid(1.0, 10.0, 256.0) == make_grid(1, 10.0, np.int64(256))
    assert type(make_grid(1.0, 10.0, 256.0).N) is int


def test_plane_wave_derivative_is_eigenfunction(grid_1d):
    kappa = grid_1d.dual_axis[7]
    f = WaveFunction(grid_1d, np.exp(1j * kappa * grid_1d.axis))
    df = spectral_derivative(f, axis=0, order=1)
    err = (df.values - 1j * kappa * f.values) / np.max(np.abs(1j * kappa * f.values))
    assert np.max(np.abs(err)) <= 1e-12


def test_constant_derivative_is_zero(grid_1d):
    f = WaveFunction(grid_1d, np.ones(grid_1d.N, dtype=complex))
    for order in (1, 2, 3):
        df = spectral_derivative(f, axis=0, order=order)
        assert np.max(np.abs(df.values)) <= 1e-12


def test_gaussian_second_derivative_analytic():
    g = make_grid(1, 10.0, 512)
    x = g.axis
    f = WaveFunction(g, np.exp(-(x**2)).astype(complex))
    d2 = spectral_derivative(f, axis=0, order=2)
    want = (4 * x**2 - 2) * np.exp(-(x**2))
    assert np.max(np.abs(d2.values - want)) <= 1e-8


def test_normalized_gaussian_inner_product():
    g = make_grid(1, 10.0, 512)
    f = gaussian_packet(g, center=0.0, width=1.0)
    # quadrature oracle: unit-normalized input against the closed-form integral
    assert abs(l2_inner_product(f, f) - 1.0) <= 1e-10
    oracle = np.pi**-0.25 * np.exp(-(g.axis**2) / 2)
    wf = WaveFunction(g, oracle.astype(complex))
    assert abs(l2_inner_product(wf, wf) - 1.0) <= 1e-10


def test_inner_product_conjugate_symmetry(grid_1d, rng):
    f = WaveFunction(grid_1d, rng.standard_normal(grid_1d.N) + 1j * rng.standard_normal(grid_1d.N))
    g = WaveFunction(grid_1d, rng.standard_normal(grid_1d.N) + 1j * rng.standard_normal(grid_1d.N))
    assert l2_inner_product(f, g) == pytest.approx(np.conj(l2_inner_product(g, f)))


def test_orthogonal_plane_waves(grid_1d):
    x = grid_1d.axis
    f = WaveFunction(grid_1d, np.exp(1j * grid_1d.dual_axis[3] * x))
    g = WaveFunction(grid_1d, np.exp(1j * grid_1d.dual_axis[5] * x))
    assert abs(l2_inner_product(f, g)) <= 1e-12


def test_inner_product_rejects_grid_mismatch(grid_1d, grid_small):
    f = WaveFunction(grid_1d, np.ones(grid_1d.N, dtype=complex))
    g = WaveFunction(grid_small, np.ones(grid_small.N, dtype=complex))
    with pytest.raises(GridError):
        l2_inner_product(f, g)


def test_fft_round_trip_identity(grid_1d, rng):
    vals = rng.standard_normal(grid_1d.N) + 1j * rng.standard_normal(grid_1d.N)
    back = grid_1d.ifft(grid_1d.fft(vals))
    assert np.max(np.abs(back - vals)) / np.max(np.abs(vals)) <= 1e-12


def test_fft_round_trip_identity_2d(grid_2d, rng):
    vals = rng.standard_normal(grid_2d.shape) + 1j * rng.standard_normal(grid_2d.shape)
    back = grid_2d.ifft(grid_2d.fft(vals))
    assert np.max(np.abs(back - vals)) / np.max(np.abs(vals)) <= 1e-12


def test_derivative_linearity(grid_1d, rng):
    f = band_limited_state(grid_1d, rng)
    g = band_limited_state(grid_1d, rng)
    lhs = spectral_derivative(f.with_values(2.0 * f.values + 3j * g.values), order=1)
    rhs = 2.0 * spectral_derivative(f, order=1).values + 3j * spectral_derivative(g, order=1).values
    assert np.max(np.abs(lhs.values - rhs)) <= 1e-10


def test_derivative_axes_commute(grid_2d, rng):
    f = band_limited_state(grid_2d, rng)
    d01 = spectral_derivative(spectral_derivative(f, axis=0), axis=1)
    d10 = spectral_derivative(spectral_derivative(f, axis=1), axis=0)
    assert np.max(np.abs(d01.values - d10.values)) <= 1e-10


def test_inner_product_induces_norm(grid_1d, rng):
    f = WaveFunction(grid_1d, rng.standard_normal(grid_1d.N) + 1j * rng.standard_normal(grid_1d.N))
    q = l2_inner_product(f, f)
    assert abs(q.imag) <= 1e-12 * abs(q.real)
    assert q.real >= 0.0
    zero = WaveFunction(grid_1d, np.zeros(grid_1d.N, dtype=complex))
    assert l2_norm(zero) == 0.0
    assert l2_norm(f) > 0.0


def test_norm_matches_inner_product(grid_1d, rng):
    f = WaveFunction(grid_1d, rng.standard_normal(grid_1d.N) + 1j * rng.standard_normal(grid_1d.N))
    assert l2_norm(f) == pytest.approx(np.sqrt(l2_inner_product(f, f).real))


@given(exponent=st.integers(min_value=3, max_value=7), seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_fft_round_trip_random_sizes(exponent, seed):
    g = make_grid(1, 5.0, 2**exponent)
    local = np.random.default_rng(seed)
    vals = local.standard_normal(g.N) + 1j * local.standard_normal(g.N)
    back = g.ifft(g.fft(vals))
    assert np.max(np.abs(back - vals)) / max(np.max(np.abs(vals)), 1e-30) <= 1e-12


@given(mode=st.integers(min_value=-20, max_value=20))
@settings(max_examples=40, deadline=None)
def test_plane_wave_derivative_any_grid_mode(mode):
    g = make_grid(1, 7.0, 128)
    kappa = mode * g.dxi
    f = WaveFunction(g, np.exp(1j * kappa * g.axis))
    df = spectral_derivative(f, order=1)
    assert np.max(np.abs(df.values - 1j * kappa * f.values)) <= 1e-10 * max(abs(kappa), 1.0)


# non-C-contiguous layouts: (base ndim, transform of a C-ordered complex base)
LAYOUTS = {
    "transposed": (2, lambda a: a.T),
    "fortran": (2, np.asfortranarray),
    "strided_1d": (1, lambda a: a[::2]),
    "fortran_real": (2, lambda a: np.asfortranarray(a.real)),
}


def _layout_input(layout, grid_1d, grid_2d, bad=None):
    ndim, transform = LAYOUTS[layout]
    # a local generator leaves the shared session stream untouched
    rng = np.random.default_rng(7)
    grid = grid_1d if ndim == 1 else grid_2d
    # the strided slice keeps every other entry, so its base is twice as long
    shape = (2 * grid.N,) if ndim == 1 else grid.shape
    base = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if bad is not None:
        base.flat[6] = bad  # an even flat index survives every transform above
    values = transform(base)
    assert not values.flags.c_contiguous
    return grid, values


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_wavefunction_accepts_any_layout(layout, grid_1d, grid_2d):
    grid, values = _layout_input(layout, grid_1d, grid_2d)
    f = WaveFunction(grid, values)
    np.testing.assert_array_equal(f.values, values)
    assert f.values.dtype == complex
    assert f.values.flags.c_contiguous
    assert not f.values.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("layout", ["transposed", "fortran", "strided_1d"])
def test_wavefunction_rejects_non_finite_any_layout(layout, bad, grid_1d, grid_2d):
    grid, values = _layout_input(layout, grid_1d, grid_2d, bad=bad)
    assert not np.all(np.isfinite(values))
    with pytest.raises(GridError, match="finite"):
        WaveFunction(grid, values)


def test_grids_compare_by_value():
    """Grids built separately from the same (d, L, N) are one grid."""
    a, b = make_grid(1, 10.0, 64), make_grid(1, 10.0, 64)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != make_grid(1, 8.0, 64)
    f, g = gaussian_packet(a), gaussian_packet(b)
    assert f.inner(g) == pytest.approx(1.0, abs=1e-12)
    assert (f - g).norm() == 0.0
    assert (f + g).norm() == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_derivative_norm_sum_matches_per_index_derivatives(d, rng):
    """Parseval against one spectral derivative per multi-index."""
    g = make_grid(d, 6.0, 32)
    f = band_limited_state(g, rng)
    for max_order in (0, 2, 6):
        want = 0.0
        for alpha in multi_indices(d, max_order):
            vals = f.values
            for axis, order in enumerate(alpha):
                vals = spectral_derivative(vals, axis=axis, order=order, grid=g)
            want += l2_norm(vals, g)
        assert derivative_norm_sum(f.values, g, max_order) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_spectral_derivative_returns_the_type_it_was_given(d, rng):
    g = make_grid(d, 6.0, 32)
    f = band_limited_state(g, rng)
    for axis in range(d):
        wf = spectral_derivative(f, axis=axis, order=2)
        raw = spectral_derivative(f.values, axis=axis, order=2, grid=g)
        assert isinstance(wf, WaveFunction) and isinstance(raw, np.ndarray)
        np.testing.assert_array_equal(raw, wf.values)
        # a stack differentiates each state along the grid axis
        stack = spectral_derivative(np.stack([f.values, 2.0 * f.values]), axis=axis, order=2, grid=g)
        np.testing.assert_allclose(stack, [wf.values, 2.0 * wf.values], rtol=0, atol=1e-12)


_UNIT_SYMBOL = SymbolField(make_grid(1, 8.0, 16), np.ones((16, 16), dtype=complex), "custom", 0.0, 0.0)

# name: (dimension, helper(f, grid)); the symbol helpers take the symbol's grid
RAW_VALUE_HELPERS = {
    "l2_norm": (1, l2_norm),
    "l2_inner_product": (1, lambda f, grid: l2_inner_product(f, f, grid)),
    "weighted_norm": (1, lambda f, grid: weighted_norm(NormOrder(a=1, growth_orders=(0,)), f, grid)),
    # the primed norm: the weighted norm of the composite grid of two particles
    "weighted_norm_primed": (2, lambda f, grid: weighted_norm(NormOrder(1, (0, 0)), f, grid)),
    "spectral_derivative": (1, lambda f, grid: spectral_derivative(f, grid=grid)),
    "quantize_symbol": (1, lambda f, grid: quantize_symbol(_UNIT_SYMBOL, f)),
    "adjoint_quantize_symbol": (1, lambda f, grid: adjoint_quantize_symbol(_UNIT_SYMBOL, f)),
}


@pytest.mark.parametrize("name", sorted(RAW_VALUE_HELPERS))
def test_raw_value_helpers_check_the_grid(name, rng):
    d, helper = RAW_VALUE_HELPERS[name]
    g = make_grid(d, 8.0, 16)
    f = band_limited_state(g, rng)
    want = helper(f, None)
    got = helper(f.values, g)
    np.testing.assert_allclose(getattr(want, "values", want), got, rtol=1e-14)
    with pytest.raises(GridError, match="does not match grid"):
        helper(np.ones(g.shape[:-1] + (15,)), g)
    with pytest.raises(GridError, match="does not match grid"):
        helper(np.ones((3, 15)), g)
    with pytest.raises(GridError, match="on different grids"):
        helper(WaveFunction(make_grid(d, 9.0, 16), f.values), g)
    if not name.startswith(("quantize", "adjoint")):
        with pytest.raises(GridError, match="raw values need a grid"):
            helper(f.values, None)


_LINE = make_grid(1, 10.0, 32)


@pytest.mark.parametrize("build, message", [
    (lambda: WaveFunction(_LINE, np.zeros(16)),
     "values shape (16,) does not match grid shape (32,)"),
    (lambda: spectral_derivative(gaussian_packet(_LINE), axis=1),
     "axis 1 out of range for d=1"),
    (lambda: spectral_derivative(gaussian_packet(_LINE), order=-1),
     "derivative order must be >= 0"),
    (lambda: gaussian_packet(_LINE, center=True), "center must be a finite number, got True"),
    (lambda: gaussian_packet(_LINE, momentum=float("inf")),
     "momentum must be a finite number, got inf"),
    (lambda: gaussian_packet(make_grid(2, 10.0, 16), center=(0.0, float("nan"))),
     "center must be a finite number, got (0.0, nan)"),
    (lambda: gaussian_packet(_LINE, momentum=[0.5, 0.5]),
     "momentum must be one number or one per axis (1), got [0.5, 0.5]"),
    (lambda: gaussian_packet(make_grid(2, 10.0, 16), center=(1.0, 2.0, 3.0)),
     "center must be one number or one per axis (2), got (1.0, 2.0, 3.0)"),
])
def test_grid_rejections_name_the_field(build, message):
    with pytest.raises(GridError) as caught:
        build()
    assert str(caught.value) == message
