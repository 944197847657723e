"""Exception hierarchy shared across the package."""


class PGSurfError(Exception):
    """Base class for all pg-surf errors."""


class InvalidParams(PGSurfError, ValueError):
    """A constructor received parameters outside its stated preconditions."""


class DomainError(PGSurfError):
    """An ODE corridor or start of `reconstruct` leaves the region where its
    radicand is positive.  A profile evaluated there is NaN instead."""


class BranchViolation(PGSurfError):
    """An ODE integration left (or started on) its declared causal branch."""


class BlowUp(PGSurfError):
    """The integrator state exceeded the blow-up guard mid-corridor."""


class GridRejected(PGSurfError):
    """A grid operation has nothing left to report: `cross_check` met an
    excluded point, or a grid command has no included point (`mesh`: no
    cell with four included corners).  A point is excluded where it is
    lightlike or inadmissible or has no finite K or H."""


class ConfigError(PGSurfError):
    """CLI configuration is malformed or violates an invariant."""
