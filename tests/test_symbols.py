"""Phase-space symbols, quantization, and the parametrix and commutator
norms.

The dense quantization oracle (conftest.py) is built directly from the
defining exponential sums, independent of the FFT-based fast path it
checks.
"""

from functools import partial

import numpy as np
import pytest

from polyschro import (
    CutoffSpec,
    PotentialFamily,
    WaveFunction,
    adjoint_quantize_symbol,
    commutator_probe,
    ellipticity_constants,
    eval_symbol,
    gaussian_packet,
    get_family,
    l2_inner_product,
    l2_norm,
    make_grid,
    parametrix_residual,
    quantize_symbol,
)
from polyschro import symbols
from polyschro.errors import GridError, SolverError, SymbolDomainError
from polyschro.operators import HamiltonianHandle
from polyschro.symbols import SymbolField, dense_matrix

from conftest import (
    MAGNETIC_2D,
    band_limited_state,
    dense_confined_quartic_hamiltonian,
    dense_quantization_matrix,
)


@pytest.fixture(scope="module")
def flat_family():
    return PotentialFamily(name="flat", v="3/2", a=("0",), growth_order=0, delta=1.0)


def test_harmonic_symbol_exact():
    g = make_grid(1, 6.0, 32)
    field = eval_symbol("h", get_family("harmonic"), g)
    want = np.add.outer(g.axis**2 / 2, g.dual_axis**2 / 2)
    np.testing.assert_array_equal(field.values, want)


def test_symmetrized_symbol_adds_divergence_term():
    g = make_grid(1, 6.0, 32)
    fam = get_family("confined_quartic")
    h = eval_symbol("h", fam, g, t=0.5)
    hs = eval_symbol("h_s", fam, g, t=0.5)
    np.testing.assert_allclose(hs.values.real, h.values, rtol=1e-13)
    assert np.max(np.abs(hs.values.imag)) > 0.0


def test_cutoff_approaches_one_for_small_eps():
    g = make_grid(1, 6.0, 64)
    spec = CutoffSpec(eps=1e-6, mu=0.0)
    field = eval_symbol("chi_eps", get_family("harmonic"), g, cutoff=spec)
    assert np.max(np.abs(field.values - 1.0)) <= 1e-3


def test_cutoff_range_bounded_by_profile():
    g = make_grid(1, 6.0, 64)
    spec = CutoffSpec(eps=0.5, mu=1.0)
    field = eval_symbol("chi_eps", get_family("confined_quartic"), g, cutoff=spec)
    assert np.all(np.abs(field.values) <= 1.0)
    assert np.min(field.values) >= 0.0


def test_cutoff_spec_validation():
    with pytest.raises(SymbolDomainError):
        CutoffSpec(eps=0.0, mu=0.0)
    with pytest.raises(SymbolDomainError):
        CutoffSpec(eps=2.0, mu=0.0)
    with pytest.raises(SymbolDomainError):
        CutoffSpec(eps=0.5, mu=0.0, profile="triangle")


def test_parametrix_symbol_is_pointwise_reciprocal():
    g = make_grid(1, 6.0, 32)
    fam = get_family("confined_quartic")
    mu = 5.0
    p = eval_symbol("p_mu", fam, g, t=0.3, mu=mu)
    hs = eval_symbol("h_s", fam, g, t=0.3)
    np.testing.assert_allclose(p.values * (mu + hs.values), 1.0, atol=1e-14)


def test_parametrix_symbol_rejects_low_shift():
    g = make_grid(1, 6.0, 32)
    with pytest.raises(SymbolDomainError, match="x="):
        eval_symbol("p_mu", get_family("harmonic"), g, mu=-5.0)


def test_unknown_symbol_kind_rejected():
    g = make_grid(1, 6.0, 32)
    with pytest.raises(SymbolDomainError):
        eval_symbol("hamiltonian", get_family("harmonic"), g)


def test_quantize_unit_symbol_is_identity(grid_small, rng):
    f = WaveFunction(grid_small, rng.standard_normal(grid_small.N) + 1j * rng.standard_normal(grid_small.N))
    s = SymbolField(grid_small, np.ones((grid_small.N, grid_small.N), dtype=complex), "custom", 0.0, 0.0)
    out = quantize_symbol(s, f)
    assert np.max(np.abs(out.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))


def test_quantize_frequency_symbol_on_plane_wave(grid_small):
    kappa = grid_small.dual_axis[5]
    f = WaveFunction(grid_small, np.exp(1j * kappa * grid_small.axis))
    vals = np.broadcast_to(grid_small.dual_axis**2 / 2, (grid_small.N, grid_small.N)).copy()
    s = SymbolField(grid_small, vals.astype(complex), "custom", 0.0, 0.0)
    out = quantize_symbol(s, f)
    np.testing.assert_allclose(out.values, kappa**2 / 2 * f.values, atol=1e-10)


def test_quantize_coordinate_symbol_is_pointwise(grid_small, rng):
    f = band_limited_state(grid_small, rng)
    a_x = np.cos(grid_small.axis)
    vals = np.repeat(a_x[:, None], grid_small.N, axis=1)
    s = SymbolField(grid_small, vals.astype(complex), "custom", 0.0, 0.0)
    out = quantize_symbol(s, f)
    np.testing.assert_allclose(out.values, a_x * f.values, atol=1e-12)


def test_quantize_matches_dense_oracle_1d(grid_small, rng):
    x, xi = grid_small.axis, grid_small.dual_axis
    vals = np.outer(x, xi).astype(complex)
    s = SymbolField(grid_small, vals, "custom", 0.0, 0.0)
    dense = dense_quantization_matrix(grid_small, vals)
    f = gaussian_packet(grid_small, center=0.5, width=1.0)
    out = quantize_symbol(s, f)
    np.testing.assert_allclose(out.values, dense @ f.values, atol=1e-10)
    for _ in range(5):
        v = rng.standard_normal(grid_small.N) + 1j * rng.standard_normal(grid_small.N)
        out = quantize_symbol(s, WaveFunction(grid_small, v))
        np.testing.assert_allclose(out.values, dense @ v, atol=1e-10)


def test_quantize_matches_dense_oracle_2d(rng):
    g = make_grid(2, 4.0, 16)
    x1, xi1 = g.mesh[0], g.dual_mesh[0]
    x2, xi2 = g.mesh[1], g.dual_mesh[1]
    vals = (x1[..., None, None] * xi1[None, None, ...]
            + np.sin(x2)[..., None, None] * xi2[None, None, ...]).reshape(
                g.N, g.N, g.N, g.N).astype(complex)
    # symbol indexed by (x-point, xi-point)
    s = SymbolField(g, vals, "custom", 0.0, 0.0)
    dense = dense_quantization_matrix(g, vals)
    v = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    out = quantize_symbol(s, WaveFunction(g, v))
    np.testing.assert_allclose(out.values.ravel(), dense @ v.ravel(), atol=1e-10)


@pytest.mark.parametrize("fam", [get_family("confined_quartic"), MAGNETIC_2D],
                         ids=lambda fam: fam.name)
def test_dense_matrix_matches_dense_oracle(fam):
    """One call on the identity stack builds Op(s) and its adjoint."""
    g = make_grid(fam.dim, 4.0, 64 if fam.dim == 1 else 16)
    s = eval_symbol("chi_eps", fam, g, t=0.7, cutoff=CutoffSpec(eps=0.25, mu=0.5))
    want = dense_quantization_matrix(g, s.values)
    got = dense_matrix(partial(quantize_symbol, s), g)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    got = dense_matrix(partial(adjoint_quantize_symbol, s), g)
    assert np.linalg.norm(got - want.conj().T) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("d, bad_shapes", [(1, [(), (32,), (3, 32), (64, 3)]),
                                           (2, [(16,), (16, 8), (3, 8, 16)])])
def test_quantization_rejects_states_off_the_grid_shape(d, bad_shapes):
    g = make_grid(d, 4.0, 64 if d == 1 else 16)
    s = eval_symbol("h", get_family("harmonic") if d == 1 else MAGNETIC_2D, g)
    for shape in bad_shapes:
        for op in (quantize_symbol, adjoint_quantize_symbol):
            with pytest.raises(GridError, match="does not match grid"):
                op(s, np.ones(shape, dtype=complex))


def test_adjoint_pairs_with_quantization(grid_small, rng):
    x, xi = grid_small.axis, grid_small.dual_axis
    vals = (np.outer(np.sin(x), xi) + 0.3j * np.outer(x**2, np.ones_like(xi))).astype(complex)
    s = SymbolField(grid_small, vals, "custom", 0.0, 0.0)
    for _ in range(5):
        f = WaveFunction(grid_small, rng.standard_normal(grid_small.N) + 1j * rng.standard_normal(grid_small.N))
        g2 = WaveFunction(grid_small, rng.standard_normal(grid_small.N) + 1j * rng.standard_normal(grid_small.N))
        lhs = l2_inner_product(quantize_symbol(s, f), g2)
        rhs = l2_inner_product(f, adjoint_quantize_symbol(s, g2))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_ellipticity_sandwich_all_builtins():
    g = make_grid(1, 8.0, 64)
    for name in ("harmonic", "confined_quartic", "parametric_quartic"):
        fam = get_family(name)
        rho = 1.0 if fam.rho_interval else 0.0
        scan = ellipticity_constants(fam, g, t_samples=(0.0, 0.8), rho=rho)
        assert scan.c0 > 0.0
        assert scan.c1 >= 0.0
        # theta = <xi>^2 + <x>^(2(M+1)) sampled on every node pair
        theta = np.add.outer(
            (1.0 + g.axis**2) ** (fam.growth_order + 1), 1.0 + g.dual_axis**2
        )
        for t in (0.0, 0.8):
            h = eval_symbol("h", fam, g, t=t, rho=rho).values
            assert np.all(h >= scan.c0 * theta - scan.c1 - 1e-9), name


def test_parametrix_residual_constant_potential_exact(flat_family):
    g = make_grid(1, 8.0, 64)
    with pytest.warns(UserWarning, match="noise floor"):
        res = parametrix_residual(flat_family, g, mu_values=(2.0, 4.0, 8.0))
    assert np.max(res.residuals) <= 1e-10


def test_parametrix_residual_decay_confined_quartic():
    g = make_grid(1, 10.0, 128)
    res = parametrix_residual(get_family("confined_quartic"), g, t=0.0)
    assert np.all(np.diff(res.residuals) < 0.0)
    assert res.residuals[-1] < res.residuals[0]
    assert res.slope == pytest.approx(-0.5, abs=0.15)


def _nan_on_call(monkeypatch, index):
    """Make the index-th quantize_symbol call (from 0) of the checks return NaNs.

    The checks quantize each symbol once, on the identity stack, so call
    i builds the matrix of the i-th mu or eps.
    """
    calls = []

    def poisoned(field, v):
        calls.append(1)
        return quantize_symbol(field, v) * (np.nan if len(calls) == index + 1 else 1.0)

    monkeypatch.setattr(symbols, "quantize_symbol", poisoned)


def test_parametrix_residual_nan_probe_raises(flat_family, monkeypatch):
    g = make_grid(1, 8.0, 64)
    for index, mu in enumerate(("2", "4")):
        _nan_on_call(monkeypatch, index)
        with pytest.raises(SolverError, match=f"at mu={mu} is not finite"):
            parametrix_residual(flat_family, g, mu_values=(2.0, 4.0))


def test_commutator_probe_nan_raises(flat_family, monkeypatch):
    g = make_grid(1, 8.0, 64)
    for index, eps in enumerate(("0.5", "0.25")):
        _nan_on_call(monkeypatch, index)
        with pytest.raises(SolverError, match=f"at eps={eps} is not finite"):
            commutator_probe(flat_family, g, mu=2.0, eps_values=(0.5, 0.25))


def test_exact_norms_match_dense_oracle():
    """Both norms equal the 2-norms of matrices built from the defining
    double sum and the closed-form Hamiltonian."""
    g = make_grid(1, 10.0, 64)
    fam = get_family("confined_quartic")
    t, mu_values = 0.7, (5.0, 20.0, 80.0)
    dense_h = dense_confined_quartic_hamiltonian(g, t)
    eye = np.eye(g.N)

    res = parametrix_residual(fam, g, t=t, mu_values=mu_values)
    want = []
    for mu in mu_values:
        p = dense_quantization_matrix(g, eval_symbol("p_mu", fam, g, t=t, mu=mu).values)
        want.append(np.linalg.norm(mu * p + dense_h @ p - eye, 2))
    np.testing.assert_allclose(res.residuals, want, rtol=1e-10)

    eps_values = (1.0, 0.25)
    probe = commutator_probe(fam, g, t=t, mu=0.5, eps_values=eps_values)
    want = []
    for eps in eps_values:
        chi = eval_symbol("chi_eps", fam, g, t=t, cutoff=CutoffSpec(eps=eps, mu=0.5))
        x = dense_quantization_matrix(g, chi.values)
        want.append(np.linalg.norm(x @ dense_h - dense_h @ x, 2))
    np.testing.assert_allclose(probe.bounds, want, rtol=1e-10)


def test_commutator_constant_potential_commutes(flat_family):
    g = make_grid(1, 8.0, 64)
    probe = commutator_probe(flat_family, g, mu=2.0, eps_values=(1.0, 0.5, 0.25))
    assert np.max(probe.bounds) <= 1e-10


def test_commutator_constant_potential_commutes_2d():
    flat_2d = PotentialFamily(name="flat_2d", v="3/2", a=("0", "0"),
                              growth_order=0, delta=1.0, dim=2)
    g = make_grid(2, 8.0, 16)
    probe = commutator_probe(flat_2d, g, mu=2.0)
    assert len(probe.bounds) == 7
    assert np.max(probe.bounds) <= 1e-10


def test_commutator_uniform_in_eps():
    g = make_grid(1, 10.0, 128)
    probe = commutator_probe(get_family("confined_quartic"), g, t=3 * np.pi / 2, mu=0.5)
    assert probe.max_min_ratio < 10.0


def test_commutator_is_linear_in_cutoff_symbol(rng):
    """Doubling the cutoff symbol doubles the commutator action."""
    g = make_grid(1, 8.0, 64)
    fam = get_family("confined_quartic")
    handle = HamiltonianHandle(fam, g)
    mu, t = 2.0, 0.4
    chi = eval_symbol("chi_eps", fam, g, t=t, cutoff=CutoffSpec(eps=0.5, mu=mu))
    chi2 = SymbolField(g, 2.0 * chi.values, chi.kind, chi.t, chi.rho)
    f = band_limited_state(g, rng)

    def commutator(sym, v):
        lam_v = handle.apply(t, v.values) + mu * v.values
        x_v = quantize_symbol(sym, v)
        term = quantize_symbol(sym, WaveFunction(g, lam_v)).values
        back = handle.apply(t, x_v.values) + mu * x_v.values
        return term - back

    once = commutator(chi, f)
    twice = commutator(chi2, f)
    np.testing.assert_allclose(twice, 2.0 * once, atol=1e-12 * np.max(np.abs(once)))


def test_symbol_field_records_metadata():
    g = make_grid(1, 6.0, 32)
    field = eval_symbol("h", get_family("harmonic"), g, t=0.25)
    assert field.kind == "h"
    assert field.t == 0.25
    assert field.values.shape == (g.N, g.N)


_LINE = make_grid(1, 10.0, 32)
# h = xi^2/2 vanishes at xi = 0 however large x is: no ellipticity constant exists
_FREE = PotentialFamily(name="free", v="0", a=("0",), growth_order=0, delta=1.0)


@pytest.mark.parametrize("build, error, message", [
    (lambda: SymbolField(_LINE, np.zeros((32, 16))), GridError,
     "symbol shape (32, 16), expected (32, 32)"),
    (lambda: eval_symbol("h", get_family("harmonic"), make_grid(1, 10.0, 8192)), GridError,
     "symbol field would need 67108864 entries (limit 16777216); "
     "use a coarser grid for symbol work"),
    (lambda: eval_symbol("chi_eps", get_family("harmonic"), _LINE), SymbolDomainError,
     "chi_eps needs a CutoffSpec"),
    (lambda: ellipticity_constants(_FREE, _LINE), SymbolDomainError,
     "symbol is not elliptic on the grid (nonpositive ratio to the weight)"),
])
def test_symbol_rejections_name_the_field(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message
