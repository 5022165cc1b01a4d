"""Spectral solvers and verification probes for Schrodinger equations
whose electromagnetic potentials grow polynomially in space."""

from .grid import (
    SpatialGrid,
    WaveFunction,
    gaussian_packet,
    l2_inner_product,
    l2_norm,
    make_grid,
    spectral_derivative,
)
from .operators import (
    HamiltonianHandle,
    NormOrder,
    apply_hamiltonian,
    apply_lambdaM_power,
    apply_mollified,
    apply_rho_derivative,
    weighted_norm,
)
from .potentials import (
    BUILTIN_FAMILIES,
    BUILTIN_INTERACTIONS,
    InteractionFamily,
    PotentialFamily,
    eval_potential,
    get_family,
    get_interaction,
    partial_rho,
    ramped_quartic_family,
    validate_assumption,
    validate_interaction,
)
from .propagator import (
    PropagationRun,
    PropagatorConfig,
    energy_estimate_check,
    propagate,
    propagate_inhomogeneous,
)
from .symbols import (
    CutoffSpec,
    SymbolField,
    adjoint_quantize_symbol,
    commutator_probe,
    ellipticity_constants,
    eval_symbol,
    parametrix_residual,
    quantize_symbol,
)
from .sensitivity import (
    SensitivityRun,
    continuity_modulus,
    difference_quotient,
    sensitivity_sweep,
    solve_variational,
)
from .twoparticle import (
    PrimedNormOrder,
    TwoParticleHandle,
    TwoParticleSystem,
    exchange_asymmetry,
    product_state,
    propagate_two_particle,
    weighted_norm_primed,
)
from .config import ExperimentConfig, SUITE_NAMES, load_config
from .report import emit_report
from .suites import run_suite

__version__ = "0.1.0"
