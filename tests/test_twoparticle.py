"""Composite two-particle systems: operator, norms, propagation."""

from functools import partial

import numpy as np
import pytest

from polyschro import (
    HamiltonianHandle,
    InteractionFamily,
    PotentialFamily,
    PrimedNormOrder,
    PropagatorConfig,
    TwoParticleHandle,
    TwoParticleSystem,
    WaveFunction,
    exchange_asymmetry,
    gaussian_packet,
    get_family,
    get_interaction,
    make_grid,
    product_state,
    propagate,
    propagate_two_particle,
    sensitivity_sweep,
)
from polyschro.errors import ConfigError, FamilyError, GridError
from conftest import band_limited_state


@pytest.fixture(scope="module")
def pair_64():
    g2 = make_grid(2, 8.0, 64)
    g1 = make_grid(1, 8.0, 64)
    system = TwoParticleSystem(
        get_family("harmonic"), get_family("harmonic"),
        get_interaction("soft_pair"), g2,
    )
    return g1, g2, system


def test_system_guards(pair_64):
    g1, g2, system = pair_64
    soft = get_interaction("soft_pair")
    harm = get_family("harmonic")
    with pytest.raises(GridError, match="two-dimensional"):
        TwoParticleSystem(harm, harm, soft, g1)
    with pytest.raises(GridError, match="capped"):
        TwoParticleSystem(harm, harm, soft, make_grid(2, 10.0, 300))
    with pytest.raises(FamilyError):
        TwoParticleHandle(system, rho=5.0)
    param = get_family("parametric_quartic")
    mixed = TwoParticleSystem(param, harm, soft, g2)
    with pytest.raises(FamilyError):
        TwoParticleHandle(mixed, rho=0.1)


def test_relative_coordinate_is_wrapped(pair_64):
    g1, g2, system = pair_64
    r = system.relative_coordinate
    L = g2.L
    assert np.all(r >= -L) and np.all(r < L)
    assert np.all(np.diag(r) == 0.0)
    assert r[3, 1] == pytest.approx(2 * g2.dx)
    # a separation of exactly 1.5 L lands at the wrapped image -0.5 L
    j = round(1.5 * L / g2.dx)
    assert r[j, 0] == pytest.approx(-0.5 * L)


def test_noninteracting_product_of_ground_states_is_eigenstate(pair_64):
    g1, g2, system = pair_64
    handle = TwoParticleHandle(system, rho=0.0)
    phi = gaussian_packet(g1, width=1.0)
    u = product_state(g2, phi, phi)
    out = handle.apply(0.0, u.values)
    assert np.max(np.abs(out - 1.0 * u.values)) <= 1e-10


def test_constant_interaction_is_a_pure_shift(pair_64):
    g1, g2, system = pair_64
    const = InteractionFamily(name="const", w="3/2", growth_order=0, delta=1.0)
    shifted = TwoParticleSystem(system.fam1, system.fam2, const, g2)
    u = product_state(g2, gaussian_packet(g1, center=0.4, width=0.9),
                      gaussian_packet(g1, center=-0.2, width=1.1))
    base = TwoParticleHandle(system, rho=0.0).apply(0.0, u.values)
    with_w = TwoParticleHandle(shifted, rho=0.0).apply(0.0, u.values)
    assert np.max(np.abs(with_w - base - 1.5 * u.values)) <= 1e-13


def test_composite_operator_is_hermitian(rng):
    g2 = make_grid(2, 8.0, 64)
    system = TwoParticleSystem(
        get_family("confined_quartic"), get_family("harmonic"),
        get_interaction("soft_pair"), g2,
    )
    handle = TwoParticleHandle(system, rho=0.5)
    f = band_limited_state(g2, rng)
    g = band_limited_state(g2, rng)
    t = 0.7
    hf = WaveFunction(g2, handle.apply(t, f.values))
    hg = WaveFunction(g2, handle.apply(t, g.values))
    lhs = hf.inner(g)
    rhs = f.inner(hg)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_parameter_derivative_closed_form(pair_64):
    g1, g2, system = pair_64
    mixed = TwoParticleSystem(
        get_family("parametric_quartic"), get_family("harmonic"),
        get_interaction("soft_pair"), g2,
    )
    handle = TwoParticleHandle(mixed, rho=1.0)
    u = product_state(g2, gaussian_packet(g1, center=0.4, width=0.9),
                      gaussian_packet(g1, width=1.0))
    out = handle.apply_rho_derivative(0.0, u.values)
    x1 = g2.mesh[0]
    r = mixed.relative_coordinate
    expected = (x1**4 / 4.0 + 1.0 + r**2) * u.values
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_mollified_composite_flow_is_rejected(pair_64):
    g1, g2, system = pair_64
    handle = TwoParticleHandle(system, rho=0.0)
    with pytest.raises(ConfigError):
        handle.apply_mollified(0.0, np.zeros(g2.shape), None)


def test_primed_norm_product_gaussian_oracle():
    """Frozen closed form for the a=1 composite norm of a product Gaussian.

    Per-axis Hermite pieces: 1 (the state itself), sqrt(1/2) per first
    derivative, sqrt(3)/2 per second derivative, 1/2 for the mixed term,
    sqrt(11)/2 per coordinate weight; the total is 7.962889160297372.
    """
    g2 = make_grid(2, 10.0, 128)
    g1 = make_grid(1, 10.0, 128)
    phi = gaussian_packet(g1, width=1.0)
    prod = product_state(g2, phi, phi)
    order = PrimedNormOrder(a=1, growth_orders=(0, 0))
    assert order.norm(prod) == pytest.approx(7.962889160297372, abs=1e-6)


def test_primed_norm_zero_order_is_plain_l2(pair_64, rng):
    g1, g2, system = pair_64
    f = band_limited_state(g2, rng)
    order = PrimedNormOrder(a=0, growth_orders=system.growth_orders)
    assert order.norm(f) == pytest.approx(f.norm(), abs=1e-14)


def test_primed_norms_nest_monotonically(pair_64, rng):
    g1, g2, system = pair_64
    f = band_limited_state(g2, rng)
    vals = [PrimedNormOrder(a=a, growth_orders=(0, 1)).norm(f) for a in (0, 1, 2)]
    assert vals[0] < vals[1] < vals[2]


def test_primed_norm_validation():
    with pytest.raises(ValueError):
        PrimedNormOrder(a=-1, growth_orders=(0, 0))
    with pytest.raises(ValueError):
        PrimedNormOrder(a=0.5, growth_orders=(0, 0))
    with pytest.raises(ValueError):
        PrimedNormOrder(a=1, growth_orders=(-1, 0))
    order = PrimedNormOrder(a=1, growth_orders=(0, 1))
    assert order.weight_exponent(0) == 2.0
    assert order.weight_exponent(1) == 4.0


def test_product_state_rejects_off_axis_factors(pair_64):
    g1, g2, system = pair_64
    with pytest.raises(GridError):
        product_state(g2, np.ones(32), np.ones(64))


def test_exchange_symmetry_is_preserved(pair_64):
    g1, g2, system = pair_64
    phi = gaussian_packet(g1, center=0.8, width=0.9)
    u0 = product_state(g2, phi, phi)
    assert exchange_asymmetry(u0) <= 1e-15
    cfg = PropagatorConfig(dt=2.5e-3, t_final=0.05, save_every=10**9,
                           keep_states=False)
    run = propagate_two_particle(system, cfg, u0, rho=0.5)
    assert exchange_asymmetry(run.final) <= 1e-10
    assert run.max_norm_drift <= 1e-10


def test_zero_interaction_factorizes(pair_64):
    g1, g2, system = pair_64
    p1 = gaussian_packet(g1, center=0.5, width=0.9)
    p2 = gaussian_packet(g1, center=-0.3, width=1.1, momentum=0.4)
    u0 = product_state(g2, p1, p2)
    cfg = PropagatorConfig(scheme="lanczos_expmid", dt=2.5e-3, t_final=0.1,
                           save_every=10**9, keep_states=False, krylov_dim=32)
    composite = propagate_two_particle(system, cfg, u0, rho=0.0)
    h1 = HamiltonianHandle(system.fam1, g1)
    f1 = propagate(cfg, h1, p1).final.values
    f2 = propagate(cfg, h1, p2).final.values
    gap = np.max(np.abs(composite.final.values - np.outer(f1, f2)))
    assert gap <= 1e-8


def test_interaction_strength_sensitivity(pair_64):
    """Quotients in the coupling agree with the variational solve at O(tau^2)."""
    g1, g2, system = pair_64
    u0 = product_state(g2, gaussian_packet(g1, center=0.5, width=0.9),
                       gaussian_packet(g1, center=-0.3, width=1.1, momentum=0.4))
    cfg = PropagatorConfig(dt=5e-3, t_final=0.05, save_every=5, keep_states=False)
    sweep = sensitivity_sweep(system, u0, 0.5, (1e-1, 1e-2), cfg, a=0, central=True)
    assert sweep.discrepancies[0] > sweep.discrepancies[1]
    assert sweep.observed_orders()[0] >= 1.8


HEAVY_MAGNETIC = PotentialFamily(name="heavy_magnetic", v="(1 + x^2)^2",
                                 a=("sin(t) * x",), growth_order=1, delta=1.0, mass=2.0)

FAMILY_PAIRS = {
    "plain": ("harmonic", "harmonic"),
    "magnetic": ("confined_quartic", "confined_quartic"),
    "mixed": ("confined_quartic", "harmonic"),
    "heavy": ("harmonic", "heavy_magnetic"),
}


def _family(name):
    return HEAVY_MAGNETIC if name == HEAVY_MAGNETIC.name else get_family(name)


def _dense(apply, shape):
    """Matrix of a linear map on arrays of the given shape, column by column."""
    n = int(np.prod(shape))
    return np.column_stack([apply(e.reshape(shape)).ravel()
                            for e in np.eye(n, dtype=complex)])


@pytest.mark.parametrize("pair", sorted(FAMILY_PAIRS))
def test_composite_apply_matches_tensor_sum_oracle(pair):
    """H = H1 (x) I + I (x) H2 + W, with H1, H2 from the single-particle operator."""
    fams = [_family(name) for name in FAMILY_PAIRS[pair]]
    g1, g2 = make_grid(1, 6.0, 16), make_grid(2, 6.0, 16)
    system = TwoParticleSystem(*fams, get_interaction("soft_pair"), g2)
    t, rho = 0.7, 0.5
    handle = TwoParticleHandle(system, rho=rho)
    h1, h2 = (_dense(partial(HamiltonianHandle(fam, g1, rho=rho).apply, t), g1.shape)
              for fam in fams)
    eye = np.eye(g1.N)
    w = system.interaction.on(t, rho, system.relative_coordinate)
    oracle = np.kron(h1, eye) + np.kron(eye, h2) + np.diag(w.ravel())
    got = _dense(partial(handle.apply, t), g2.shape)
    assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)


@pytest.mark.parametrize("pair", sorted(FAMILY_PAIRS))
def test_composite_apply_is_symmetric_on_rough_states(pair):
    fams = [_family(name) for name in FAMILY_PAIRS[pair]]
    g2 = make_grid(2, 6.0, 32)
    handle = TwoParticleHandle(TwoParticleSystem(*fams, get_interaction("soft_pair"), g2),
                               rho=0.5)
    rng = np.random.default_rng(11)
    f, g = (WaveFunction(g2, rng.standard_normal(g2.shape) + 1j * rng.standard_normal(g2.shape))
            for _ in range(2))
    t = 0.7
    lhs = g.inner(f.with_values(handle.apply(t, f.values)))
    rhs = g.with_values(handle.apply(t, g.values)).inner(f)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
