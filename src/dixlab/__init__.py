"""Numerical laboratory for logarithmic singular traces.

Sequence-side machinery (log averages, (1,inf) ideal membership,
Tauberian classification), function-space maps with commutator-defect
diagnostics, flat and noncommutative torus spectral models, three trace
estimators with cross-method measurability reports, and a reproducible
CLI harness.
"""

from .sequences import (
    IdealMembershipReport,
    LogAverageSeries,
    PowerLogTail,
    SingularSequence,
    TauberianVerdict,
    as_sequence,
    decreasing_rearrangement,
    dyadic_schedule,
    harmonic_sequence,
    ideal_membership,
    log_average,
    norm_1_inf,
    oscillator_model,
    oscillator_sequence,
    power_log_sequence,
    power_trace,
    riesz_seminorm_proxy,
    submajorizes,
    tauberian_classify,
    tilde_mu,
    zeta_norm_z1,
)
from .maps import (
    PiecewiseFunction,
    almost_convergence_test,
    cesaro_cont,
    cesaro_discrete,
    commutator_defect,
    conjugate_map,
    dilate_cont,
    dilate_discrete,
    evaluate,
    floor_embed,
    linear_embed,
    oscillation_K,
    restrict,
    shift_cont,
    shift_discrete,
    window_avg,
)
from .models import (
    BudgetError,
    CertificateError,
    FourierMultiplier,
    LatticeModel,
    NCTorusElement,
    TruncatedOperator,
    connes_rhs,
    cube_basis,
    domination_check,
    expectation_sequence,
    hermitian_decompose,
    lattice_count,
    multiplication_matrix,
    nc_element,
    nc_identity,
    nc_monomial,
    nc_product,
    nc_star,
    nc_tau0,
    nc_torus_spectrum,
    singular_values,
    torus_spectrum,
)
from .estimators import (
    ExplicitEigenvalues,
    HolderReport,
    MeasurabilityReport,
    MellinReport,
    SquaresEigenvalues,
    SublatticeProjection,
    TorusEigenvalues,
    TraceEstimate,
    dixmier_estimate,
    heat_estimate,
    heat_trace,
    holder_check,
    measurability_report,
    mellin_check,
    product_zeta_sequence,
    zeta_residue_estimate,
)
from .cli import ConfigError, ExperimentConfig, parse_config, run_experiment

__version__ = "0.1.0"

# every kernel has one numpy implementation; benchmark environment
# records read this flag to name the kernel path that ran
HAVE_NUMBA = False
