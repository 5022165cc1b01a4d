"""Shared fixtures and helpers for the test suite.

Random states used with spectral operators are band-limited: white noise
excites Nyquist-adjacent modes whose images under coordinate shifts alias,
which would contaminate comparisons that are exact for smooth data.
"""

import numpy as np
import pytest

from polyschro import PotentialFamily, WaveFunction, gaussian_packet, make_grid

ACCEPTANCE_LINES = []

# A magnetic family whose fields both move with rho.  H is quadratic in
# rho (A is linear, |A|^2 quadratic), so a central difference in rho of H
# equals dH/drho up to rounding.
RHO_MAGNETIC = PotentialFamily(
    name="rho_magnetic",
    v="(1 + x^2)^2 + rho * x^2",
    a=("rho * cos(t) * (1 + x^2)^(1/2)",),
    growth_order=1,
    delta=1.0,
    rho_interval=(-2.0, 2.0),
)

# A 2-D magnetic family with a non-unit mass.  A2 grows like |x|^2 along
# the diagonal, so it breaks the declared margin |A| <= C <x>^(M+1-delta).
MAGNETIC_2D = PotentialFamily(
    name="magnetic_2d", v="(1 + x1^2 + x2^2)^2",
    a=("sin(t) * x2", "cos(t) * x1 * (1 + x2^2)^(1/2)"),
    growth_order=1, delta=1.0, mass=2.0, dim=2,
)


def pytest_terminal_summary(terminalreporter):
    """Echo the per-criterion verdict lines past the capture plugin."""
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def dense_quantization_matrix(grid, symbol_values):
    """The Kohn-Nirenberg operator as an explicit matrix.

    (Sf)(x_j) = N^{-d} sum_k e^{i x_j . xi_k} s(x_j, xi_k) sum_l e^{-i xi_k . x_l} f(x_l)
    """
    if grid.d == 1:
        x, xi = grid.axis, grid.dual_axis
        phase_out = np.exp(1j * np.outer(x, xi))
        phase_in = np.exp(-1j * np.outer(xi, x))
        return (phase_out * symbol_values) @ phase_in / grid.N
    x, xi = grid.axis, grid.dual_axis
    e_out = np.exp(1j * np.outer(x, xi))
    s = symbol_values.reshape(grid.N, grid.N, grid.N, grid.N)
    mat = np.einsum("ak,bl,abkl,ck,dl->abcd", e_out, e_out, s,
                    np.conj(e_out), np.conj(e_out), optimize=True)
    return mat.reshape(grid.size, grid.size) / grid.N**2


def dense_confined_quartic_hamiltonian(grid, t):
    """H of `confined_quartic` at time t on a 1-D grid, as a dense matrix
    assembled from its closed-form fields and DFT momentum matrices."""
    x, xi = grid.axis, grid.dual_axis
    v_field = (2.0 + np.sin(t)) * (1.0 + x**2) ** 2
    a_field = np.cos(t) * np.sqrt(1.0 + x**2)
    ones = np.ones_like(x)
    momentum = dense_quantization_matrix(grid, np.outer(ones, xi))
    kinetic = dense_quantization_matrix(grid, np.outer(ones, xi**2 / 2.0))
    return (kinetic + np.diag(v_field + a_field**2 / 2.0)
            - (np.diag(a_field) @ momentum + momentum @ np.diag(a_field)) / 2.0)


def band_limited_state(grid, rng, keep=0.25):
    """Random smooth state: random spectrum with the outer modes zeroed."""
    spectrum = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    for axis in range(grid.d):
        k = np.fft.fftfreq(grid.N) * grid.N
        mask_1d = np.abs(k) <= keep * (grid.N // 2)
        shape = [1] * grid.d
        shape[axis] = grid.N
        spectrum = spectrum * mask_1d.reshape(shape)
    values = np.fft.ifftn(spectrum)
    wf = WaveFunction(grid, values)
    return wf.with_values(values / wf.norm())


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture(scope="session")
def grid_1d():
    """Default 1-d working grid."""
    return make_grid(1, 10.0, 256)


@pytest.fixture(scope="session")
def grid_small():
    """Small grid for dense-oracle comparisons."""
    return make_grid(1, 8.0, 64)


@pytest.fixture(scope="session")
def grid_2d():
    return make_grid(2, 6.0, 32)


@pytest.fixture()
def smooth_state(grid_1d, rng):
    return band_limited_state(grid_1d, rng)


@pytest.fixture(scope="session")
def ground_state_512():
    """Normalized harmonic-oscillator ground state on the reference grid."""
    grid = make_grid(1, 10.0, 512)
    wf = gaussian_packet(grid, center=0.0, width=1.0, momentum=0.0)
    return grid, wf
