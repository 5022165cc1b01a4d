"""Composite two-particle systems: operator, norms, propagation."""

import gc
import weakref
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from polyschro import operators
from polyschro import (
    HamiltonianHandle,
    InteractionFamily,
    NormOrder,
    PotentialFamily,
    PropagatorConfig,
    TwoParticleHandle,
    TwoParticleSystem,
    WaveFunction,
    apply_lambdaM_power,
    eval_potential,
    gaussian_packet,
    get_family,
    get_interaction,
    make_grid,
    product_state,
    propagate,
    weighted_norm,
)
from polyschro.errors import ConfigError, FamilyError, GridError
from polyschro.propagator import propagate_variational
from conftest import RHO_MAGNETIC, band_limited_state, lanczos_bound_ratios


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
    with pytest.raises(FamilyError, match="rho must be a number"):
        TwoParticleHandle(system, rho=True)
    assert type(TwoParticleHandle(system, rho=0).rho) is float
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


def test_mollified_composite_flow_is_rejected(pair_64, monkeypatch):
    """The run refuses before its first step, naming the handle."""
    g1, g2, system = pair_64
    applies = []
    apply = TwoParticleHandle.apply
    monkeypatch.setattr(TwoParticleHandle, "apply",
                        lambda handle, *args: applies.append(args) or apply(handle, *args))
    phi = gaussian_packet(g1, width=1.0)
    cfg = PropagatorConfig(dt=2.5e-3, t_final=0.01, eps=0.5, keep_states=False)
    with pytest.raises(ConfigError, match="single-particle only") as err:
        propagate(cfg, TwoParticleHandle(system, rho=0.0), product_state(g2, phi, phi))
    assert "TwoParticleHandle" in str(err.value)
    assert applies == []


def test_variational_composite_flow_is_rejected(pair_64, monkeypatch):
    """dH/drho is single-particle only: the run refuses before its first step."""
    g1, g2, system = pair_64
    applies = []
    apply = TwoParticleHandle.apply
    monkeypatch.setattr(TwoParticleHandle, "apply",
                        lambda handle, *args: applies.append(args) or apply(handle, *args))
    phi = gaussian_packet(g1, width=1.0)
    cfg = PropagatorConfig(dt=2.5e-3, t_final=0.01, keep_states=False)
    with pytest.raises(ConfigError) as err:
        propagate_variational(cfg, TwoParticleHandle(system, rho=0.5), product_state(g2, phi, phi))
    assert str(err.value) == ("the parameter derivative is single-particle only, "
                              "not for a TwoParticleHandle")
    assert applies == []


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
    order = NormOrder(a=1, growth_orders=(0, 0))
    assert order.norm(prod) == pytest.approx(7.962889160297372, abs=1e-6)


def test_primed_norm_zero_order_is_plain_l2(pair_64, rng):
    g1, g2, system = pair_64
    f = band_limited_state(g2, rng)
    order = TwoParticleHandle(system).norm_order(0)
    assert order == NormOrder(a=0, growth_orders=system.growth_orders)
    assert order.norm(f) == pytest.approx(f.norm(), abs=1e-14)


def test_primed_norms_nest_monotonically(pair_64, rng):
    g1, g2, system = pair_64
    f = band_limited_state(g2, rng)
    vals = [NormOrder(a=a, growth_orders=(0, 1)).norm(f) for a in (0, 1, 2)]
    assert vals[0] < vals[1] < vals[2]


def test_primed_norm_validation():
    with pytest.raises(ConfigError):
        NormOrder(a=0.5, growth_orders=(0, 0))
    with pytest.raises(ConfigError):
        NormOrder(a=1, growth_orders=(-1, 0))
    order = NormOrder(a=1, growth_orders=(0, 1))
    assert order.weight_exponent(0) == 2.0
    assert order.weight_exponent(1) == 4.0
    whole = NormOrder(a=2.0, growth_orders=[1.0, 0])
    assert whole == NormOrder(a=2, growth_orders=(1, 0))
    assert type(whole.a) is int and all(type(m) is int for m in whole.growth_orders)


@pytest.mark.parametrize("a, growth_orders, message", [
    (True, (0, 0), "order a must be an integer"),
    (0.5, (0, 0), "order a must be an integer"),
    (1, (0.5, 1), "growth_order must be a whole number, got 0.5"),
    (1, (1, True), "growth_order must be a whole number, got True"),
])
def test_primed_norm_orders_are_whole_numbers(a, growth_orders, message):
    with pytest.raises(ConfigError) as caught:
        NormOrder(a=a, growth_orders=growth_orders)
    assert str(caught.value) == message


@pytest.mark.parametrize("growth_orders", [(1,), (1, 1, 1)])
def test_composite_norms_take_one_growth_order_per_particle(pair_64, growth_orders, rng):
    """An order of another number of particles raises GridError rather
    than weighting a composite state by the full radius."""
    g1, g2, system = pair_64
    f = band_limited_state(g2, rng)
    message = (rf"^a norm order needs one growth order per axis: "
               rf"got {len(growth_orders)} for SpatialGrid\(d=2, L=8.0, N=64\)$")
    with pytest.raises(GridError, match=message):
        NormOrder(a=1, growth_orders=growth_orders).norm(f)


def test_product_state_rejects_off_axis_factors(pair_64):
    g1, g2, system = pair_64
    with pytest.raises(GridError):
        product_state(g2, np.ones(32), np.ones(64))


def test_exchange_symmetry_is_preserved(pair_64):
    g1, g2, system = pair_64
    phi = gaussian_packet(g1, center=0.8, width=0.9)
    u0 = product_state(g2, phi, phi)
    v = u0.values
    assert np.abs(v - v.T).max() / np.abs(v).max() <= 1e-15
    cfg = PropagatorConfig(dt=2.5e-3, t_final=0.05, save_every=10**9,
                           keep_states=False)
    run = propagate(cfg, TwoParticleHandle(system, rho=0.5), u0)
    v = run.final.values
    assert np.abs(v - v.T).max() / np.abs(v).max() <= 1e-10
    assert run.max_norm_drift <= 1e-10


def test_zero_interaction_factorizes(pair_64):
    g1, g2, system = pair_64
    p1 = gaussian_packet(g1, center=0.5, width=0.9)
    p2 = gaussian_packet(g1, center=-0.3, width=1.1, momentum=0.4)
    u0 = product_state(g2, p1, p2)
    cfg = PropagatorConfig(scheme="lanczos_expmid", dt=2.5e-3, t_final=0.1,
                           save_every=10**9, keep_states=False, krylov_dim=32)
    composite = propagate(cfg, TwoParticleHandle(system, rho=0.0), u0)
    h1 = HamiltonianHandle(system.fam1, g1)
    f1 = propagate(cfg, h1, p1).final.values
    f2 = propagate(cfg, h1, p2).final.values
    gap = np.max(np.abs(composite.final.values - np.outer(f1, f2)))
    assert gap <= 1e-8


@pytest.mark.parametrize("rho", [0.1, 0.0])
def test_composite_lanczos_bound_is_a_tight_upper_bound(rho):
    """The two_particle suite's coupled and free flows on a 16x16 grid: every
    step's reported residual bounds its true error from above, and by at
    most half again."""
    g1, g2 = make_grid(1, 6.0, 16), make_grid(2, 6.0, 16)
    fam = get_family("confined_quartic")
    system = TwoParticleSystem(fam, fam, get_interaction("soft_pair"), g2)
    u0 = product_state(g2, gaussian_packet(g1, center=1.0, width=0.8, momentum=0.5),
                       gaussian_packet(g1, center=-1.0, width=0.8, momentum=-0.5)).values
    cfg = PropagatorConfig(scheme="lanczos_expmid", dt=2e-3, t_final=0.01, krylov_dim=40)
    ratios = lanczos_bound_ratios(TwoParticleHandle(system, rho=rho), u0, cfg)
    assert ratios.size == 5
    assert np.all((1.0 <= ratios) & (ratios <= 1.5)), ratios


HEAVY_MAGNETIC = PotentialFamily(name="heavy_magnetic", v="(1 + x^2)^2",
                                 a=("sin(t) * x",), growth_order=1, delta=1.0, mass=2.0)

FAMILY_PAIRS = {
    "plain": ("harmonic", "harmonic"),
    "magnetic": ("confined_quartic", "confined_quartic"),
    "mixed": ("confined_quartic", "harmonic"),
    "heavy": ("harmonic", "heavy_magnetic"),
    "rho_magnetic": ("rho_magnetic", "confined_quartic"),
}

_TEST_FAMILIES = {fam.name: fam for fam in (HEAVY_MAGNETIC, RHO_MAGNETIC)}


def _family(name):
    return _TEST_FAMILIES.get(name) or get_family(name)


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


def test_dropped_composite_handle_is_freed_without_the_cycle_collector(pair_64):
    g1, g2, system = pair_64
    handle = TwoParticleHandle(system, rho=0.5)
    f = np.ones(g2.shape, dtype=complex)
    handle.apply(0.0, f)
    ref = weakref.ref(handle)
    gc.disable()
    try:
        del handle
        assert ref() is None
    finally:
        gc.enable()


def test_time_free_system_samples_its_fields_once(pair_64, monkeypatch):
    """W once, and each distinct particle's V and A once, through its own handle."""
    g1, g2, system = pair_64
    calls, particle_calls = [], []
    sample = InteractionFamily.on
    monkeypatch.setattr(InteractionFamily, "on",
                        lambda inter, t, *args: calls.append(t) or sample(inter, t, *args))
    monkeypatch.setattr(operators, "eval_potential",
                        lambda fam, t, *args: particle_calls.append(t) or eval_potential(fam, t, *args))
    u0 = product_state(g2, gaussian_packet(g1, center=0.5, width=0.9),
                       gaussian_packet(g1, center=-0.3, width=1.1))
    cfg = PropagatorConfig(dt=2.5e-3, t_final=0.025, save_every=10**9, keep_states=False)
    propagate(cfg, TwoParticleHandle(system, rho=0.5), u0)
    assert len(calls) == 1
    # both particles are harmonic: one shared handle
    assert len(particle_calls) == 1
    harm, quartic, soft = system.fam1, get_family("confined_quartic"), system.interaction
    mixed = TwoParticleSystem(get_family("parametric_quartic"), harm, soft, g2)
    propagate(cfg, TwoParticleHandle(mixed, rho=0.5), u0)
    assert len(calls) == 2
    assert len(particle_calls) == 3
    assert not TwoParticleHandle(system).time_dependent
    pulsed = InteractionFamily(name="pulsed", w="cos(t) * r^2", growth_order=1, delta=1.0)
    for parts in ((quartic, harm, soft), (harm, quartic, soft), (harm, harm, pulsed)):
        assert TwoParticleHandle(TwoParticleSystem(*parts, g2)).time_dependent


def _count_builds(monkeypatch):
    """Family names of the particle matrices built, one entry per matrix call."""
    names = []
    build = HamiltonianHandle.matrix

    def counted(handle, *args, **kwargs):
        names.append(handle.fam.name)
        return build(handle, *args, **kwargs)
    monkeypatch.setattr(HamiltonianHandle, "matrix", counted)
    return names


@pytest.mark.parametrize("scheme", ["crank_nicolson_midpoint", "lanczos_expmid"])
@pytest.mark.parametrize("names, builds", [
    (("confined_quartic", "confined_quartic"), {"confined_quartic": 5}),
    (("harmonic", "confined_quartic"), {"harmonic": 1, "confined_quartic": 5}),
    (("confined_quartic", "harmonic"), {"harmonic": 1, "confined_quartic": 5}),
    (("harmonic", "harmonic"), {"harmonic": 1}),
])
def test_each_distinct_particle_builds_once_per_own_time(names, builds, scheme, monkeypatch):
    """n steps make n builds of a family with t, shared by both particles
    of that family, and one build per run of a family without t."""
    built = _count_builds(monkeypatch)
    g1, g2 = make_grid(1, 6.0, 32), make_grid(2, 6.0, 32)
    system = TwoParticleSystem(*map(get_family, names), get_interaction("soft_pair"), g2)
    u0 = product_state(g2, gaussian_packet(g1, center=0.5, width=0.9),
                       gaussian_packet(g1, center=-0.3, width=1.1))
    cfg = PropagatorConfig(scheme=scheme, dt=1e-3, t_final=5e-3, keep_states=False)
    propagate(cfg, TwoParticleHandle(system, rho=0.5), u0)
    assert Counter(built) == builds


def test_zero_interaction_is_stored_as_none(pair_64):
    """At rho = 0 the soft pair vanishes; the apply and the split skip it."""
    g1, g2, system = pair_64
    handle = TwoParticleHandle(system, rho=0.0)
    rng = np.random.default_rng(14)
    f = rng.standard_normal(g2.shape) + 1j * rng.standard_normal(g2.shape)
    w, h1, h2t = handle._fields[0.0]
    assert w is None
    np.testing.assert_array_equal(handle.apply(0.0, f), h1 @ f + f @ h2t)
    _, v_g = handle.gauge_split(0.0)
    v = handle.particles[0].potential_multiplier(0.0)
    np.testing.assert_array_equal(v_g, v[:, None] + v[None, :])


def _kernel_apply(system, rho, t, f):
    """H f as W f plus each particle's FFT kernel along its own axis: the
    rows of f are states of the second particle, its columns states of
    the first."""
    g1 = make_grid(1, system.grid.L, system.grid.N)
    first, second = (HamiltonianHandle(fam, g1, rho=rho) for fam in (system.fam1, system.fam2))
    return (system.interaction.on(t, rho, system.relative_coordinate) * f
            + first.apply(t, f.T).T + second.apply(t, f))


# both particles magnetic with rho-dependent A, and of unequal masses
MAGNETIC_PAIR = (RHO_MAGNETIC, replace(RHO_MAGNETIC, name="heavy_rho_magnetic", mass=2.0))


def test_composite_matrices_match_the_fft_kernel():
    g2 = make_grid(2, 6.0, 32)
    system = TwoParticleSystem(*MAGNETIC_PAIR, get_interaction("soft_pair"), g2)
    rho, t = 0.5, 0.7
    handle = TwoParticleHandle(system, rho=rho)
    rng = np.random.default_rng(13)
    f = rng.standard_normal(g2.shape) + 1j * rng.standard_normal(g2.shape)
    want = _kernel_apply(system, rho, t, f)
    assert np.linalg.norm(handle.apply(t, f) - want) <= 1e-13 * np.linalg.norm(want)


def test_composite_matrix_is_hermitian():
    g2 = make_grid(2, 6.0, 8)
    system = TwoParticleSystem(*MAGNETIC_PAIR, get_interaction("soft_pair"), g2)
    H = _dense(partial(TwoParticleHandle(system, rho=0.5).apply, 0.7), g2.shape)
    assert np.linalg.norm(H - H.conj().T) <= 1e-12 * np.linalg.norm(H)


def test_batched_primed_norms_match_single_norms(rng):
    """A (R, N, N) stack gives the R primed norms of its composite states."""
    g2 = make_grid(2, 8.0, 32)
    stack = np.stack([band_limited_state(g2, rng).values for _ in range(3)])
    for a in range(4):
        order = NormOrder(a=a, growth_orders=(1, 0))
        got = order.norm(stack, g2)
        want = [order.norm(WaveFunction(g2, f)) for f in stack]
        assert got.shape == (3,)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def _composite_packet():
    phi = gaussian_packet(make_grid(1, 10.0, 32))
    return product_state(make_grid(2, 10.0, 32), phi, phi)


def _harmonic_pair():
    harm = get_family("harmonic")
    return TwoParticleSystem(harm, harm, get_interaction("soft_pair"), make_grid(2, 10.0, 32))


@pytest.mark.parametrize("build, error, message", [
    (lambda: weighted_norm(NormOrder(a=1, growth_orders=(0, 0)),
                           gaussian_packet(make_grid(1, 10.0, 32))),
     GridError, "a norm order needs one growth order per axis: "
                "got 2 for SpatialGrid(d=1, L=10.0, N=32)"),
    (lambda: weighted_norm(NormOrder(a=-1, growth_orders=(0, 0)), _composite_packet()),
     GridError, "order a=-1: Lambda_M acts on 1-D grids with one growth order, "
                "not on SpatialGrid(d=2, L=10.0, N=32) with (0, 0)"),
    (lambda: apply_lambdaM_power(NormOrder(a=1, growth_orders=(0, 1)), _composite_packet()),
     GridError, "order a=1: Lambda_M acts on 1-D grids with one growth order, "
                "not on SpatialGrid(d=2, L=10.0, N=32) with (0, 1)"),
    (lambda: apply_lambdaM_power(NormOrder(a=1, growth_orders=(0, 1)),
                                 gaussian_packet(make_grid(1, 10.0, 32))),
     GridError, "order a=1: Lambda_M acts on 1-D grids with one growth order, "
                "not on SpatialGrid(d=1, L=10.0, N=32) with (0, 1)"),
    (lambda: TwoParticleHandle(_harmonic_pair()).norm_order(-1),
     ConfigError, "composite norm orders must be nonnegative, got -1"),
])
def test_twoparticle_rejections_name_the_field(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message
