"""Numerical geometry of line bundles over the projective plane.

Constructs the sphere/projective-plane configuration spaces, the trivial and
nontrivial complex line bundles with their projectors and transition
functions, the correspondence between odd functions and sections, parallel
transport for projector connections with its Z2 holonomy, and the moving
two-spin basis with its exchange rule, then checks every identity
numerically.
"""

from .config_space import (
    ATLAS,
    ChartAtlas,
    GroupElement,
    IDENTITY,
    ProjectivePoint,
    SWAP,
    SpherePoint,
    antipode,
    chart_contains,
    chart_inverse,
    chart_map,
    partition_phi,
    project,
    sample_sphere,
)
from .errors import (
    BindingError,
    ChartDomainError,
    ConfigError,
    FiberMembershipError,
    GeometryError,
    ParityError,
)
from .line_bundle import (
    CHI_HARMONIC,
    ActionLabel,
    ChiVariant,
    GroupAction,
    ProjectorField,
    chi,
    constant_projector_field,
    generator_e,
    grassmann_field,
    group_act,
    linear_line_field,
    local_trivialization,
    projector_minus,
    tau_minus,
    tau_plus,
    tau_prime,
    tau_tilde,
    transition,
)
from .section_algebra import (
    PullbackSection,
    ScalarField,
    SectionXi,
    constant_field,
    coordinate_field,
    evaluate_fields,
    g_action_on_section,
    invariance_residual,
    odd_from_section,
    parity_decompose,
    polynomial_family,
    polynomial_field,
    pullback_T,
    random_polynomial,
    random_polynomial_families,
    section_from_odd,
    singlevaluedness_residuals,
)
from .transport import (
    Curve,
    antipodal_arc,
    flatness_report,
    great_circle,
    holonomy,
    parallel_transport,
    small_circle,
)
from .berry_robbins import (
    TwoSpinWaveFunction,
    br_parallel_residual,
    exchange_block,
    exchange_line_field,
    exchange_rule_residual,
    projector_P0,
    projector_Pm,
    singlet_field,
    spin_statistics_check,
    transported_basis,
)
from .experiments import (
    CheckResult,
    FiveStepReport,
    SuiteConfig,
    VerificationReport,
    five_step_experiment,
    five_step_from_coefficient,
    run_suite,
)
from .kernels import backend_name, numba_available

__all__ = [name for name in dir() if not name.startswith("_")]
