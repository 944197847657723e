"""Curvature of surfaces immersed in the pseudo-Galilean 3-space.

Modules: `core` (points, isotropic vectors, motions), `surface` (jet to
curvature pipeline), `factorable` (product-graph surfaces and closed
curvature formulas), `families` (classified constant-curvature families),
`reconstruct` (ODE re-derivations, residual fields, case checks, the
nonexistence probe) and `cli` (the pg-surf command).
"""

from .core import (
    Character,
    IsoVector,
    Motion,
    PGPoint,
    apply_motion,
    apply_motion_vector,
    causal_character,
    compose,
    minkowski_dot,
    pg_distance,
)
from .errors import (
    BlowUp,
    BranchViolation,
    ConfigError,
    DomainError,
    GridRejected,
    InadmissiblePatch,
    InvalidParams,
    LightlikeLocus,
    LightlikeSurface,
    PGSurfError,
)
from .factorable import (
    CrossCheckReport,
    FactorableSurface,
    GridSpec,
    ScalarC2,
    cross_check,
    default_grid,
    h_first,
    h_second,
    k_first,
    k_second,
    specialized_H,
    specialized_K,
)
from .families import (
    Fixture,
    family_surface,
    fixtures_flat_minimal,
    perturb_exponent,
    sample_params,
    thm31_family,
    thm32_family,
    thm42_family,
)
from .reconstruct import (
    FamilySpace,
    ODEProblem,
    ProbeReport,
    Reconstruction,
    ResidualReport,
    check_quartic_slope_identity,
    check_linear_factor_identity,
    quartic_slope_coefficients,
    log_derivative_profile_residual,
    integrate,
    nonexistence_probe,
    reconstruct_thm31,
    reconstruct_thm32,
    reconstruct_thm42,
    residual_field,
    solve_quintic_coefficient_system,
)
from .surface import (
    FirstForm,
    FundamentalData,
    Jet2,
    finite_difference_jet,
    first_form,
    fundamental_data,
    gaussian_curvature,
    mean_curvature,
    transform_jet,
)

__version__ = "0.1.0"
