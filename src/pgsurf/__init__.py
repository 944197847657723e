"""Curvature of surfaces immersed in the pseudo-Galilean 3-space.

Modules: `surface` (the motion group and the array kernel from jet
components to curvature), `factorable` (product-graph surfaces, their jet
component arrays, the closed curvature formulas and grid sweeps),
`families` (classified constant-curvature families), `reconstruct` (RK4
re-derivations of the families and the nonexistence probe), `render` (the
text of the tables) and `cli` (the pg-surf command).  A jet is
a dict of component arrays x1..z22; there is no scalar jet type.
"""

from .errors import (
    BlowUp,
    BranchViolation,
    ConfigError,
    DomainError,
    GridRejected,
    InvalidParams,
    PGSurfError,
)
from .factorable import (
    FactorableSurface,
    GridSpec,
    ScalarC2,
    cross_check,
    default_grid,
)
from .families import (
    family_surface,
    perturb_exponent,
    sample_params,
    thm31_family,
    thm32_family,
    thm42_family,
)
from .reconstruct import (
    FamilySpace,
    ProbeReport,
    Reconstruction,
    integrate,
    nonexistence_probe,
    reconstruct_thm31,
    reconstruct_thm32,
    reconstruct_thm42,
)
from .surface import transform_jet

__version__ = "0.1.0"
