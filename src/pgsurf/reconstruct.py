"""Independent verification paths for the classified families.

Contents:

  * a fixed-step RK4 integrator (deterministic, no adaptivity);
  * ODE re-derivations of the three families, each compared against the
    closed-form solution with matched initial conditions;
  * prescribed-curvature residual fields over grids;
  * numerical checks of the polynomial case-contradiction arguments;
  * a bounded derivative-free probe of the second-kind nonexistence claim
    for K != 0 (a property check over a declared family space, not a
    proof).

Branch bookkeeping: the prescribed mean curvature ODEs hold with an
orientation sign attached to the closed forms; the helpers below carry
that sign explicitly (README, "Errata") and never switch branch silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    BlowUp,
    BranchViolation,
    DomainError,
    GridRejected,
    InvalidParams,
)
from .factorable import (
    KIND_SECOND,
    FactorableSurface,
    GridSpec,
    ScalarC2,
    closed_K,
    default_grid,
    specialized_grid,
)
from . import families as _families

__all__ = [
    "ODEProblem",
    "integrate",
    "Reconstruction",
    "reconstruct_thm31",
    "reconstruct_thm32",
    "reconstruct_thm42",
    "log_derivative_profile_residual",
    "thm31_ode_residual",
    "thm32_ode_residual",
    "thm42_ode_residual",
    "ResidualReport",
    "residual_field",
    "CaseCoefficients",
    "quartic_slope_coefficients",
    "check_quartic_slope_identity",
    "check_linear_factor_identity",
    "solve_quintic_coefficient_system",
    "FamilySpace",
    "ProbeReport",
    "nonexistence_probe",
]

BLOWUP_LIMIT = 1e12


@dataclass(frozen=True)
class ODEProblem:
    """First-order system y' = rhs(t, y) on [t0, t1] with fixed step h."""

    rhs: Callable[[float, np.ndarray], np.ndarray]
    t0: float
    y0: np.ndarray
    t1: float
    h: float

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)) or self.t1 <= self.t0:
            raise InvalidParams("integration corridor must be finite with t1 > t0")
        if not (self.h > 0.0):
            raise InvalidParams("step h must be positive")
        object.__setattr__(self, "y0", np.atleast_1d(np.asarray(self.y0, dtype=float)))


def _rk4_step(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(problem: ODEProblem) -> tuple[np.ndarray, np.ndarray]:
    """Classic RK4 with n = round(span/h) equal steps.

    Returns (ts, ys) with ys[i] the state at ts[i]; deterministic for
    fixed inputs.  Raises BlowUp when the state leaves [-1e12, 1e12] or
    stops being finite mid-corridor.
    """
    span = problem.t1 - problem.t0
    n = max(1, int(round(span / problem.h)))
    h = span / n
    ts = problem.t0 + h * np.arange(n + 1)
    ys = np.empty((n + 1, problem.y0.size))
    y = problem.y0.copy()
    ys[0] = y
    for i in range(n):
        y = _rk4_step(problem.rhs, ts[i], y, h)
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > BLOWUP_LIMIT:
            raise BlowUp(f"state exceeded {BLOWUP_LIMIT:.0e} at t = {ts[i + 1]:.6g}")
        ys[i + 1] = y
    return ts, ys


@dataclass(frozen=True)
class Reconstruction:
    """RK4 samples next to the closed form, with the max gap."""

    ts: np.ndarray
    numeric: np.ndarray
    closed: np.ndarray
    max_error: float
    max_rel_error: float
    h: float
    meta: dict = field(default_factory=dict)


def reconstruct_thm31(k0: float, g0: float = 1.0, lam1: float = 0.0, sign: int = 1,
                      span: tuple[float, float] = (0.0, 2.0), h: float = 1e-3) -> Reconstruction:
    """Integrate f' = sign*sqrt(|k0|)*(1 - (g0 f)^2)/g0 and compare with
    the closed form f = sign*tanh(sqrt(|k0|) x + lam1)/g0."""
    if k0 == 0.0:
        raise InvalidParams("k0 must be nonzero")
    if g0 == 0.0:
        raise InvalidParams("g0 must be nonzero")
    if sign not in (1, -1):
        raise InvalidParams("sign must be +1 or -1")
    rho = math.sqrt(abs(k0))

    def rhs(t, y):
        return np.array([sign * rho * (1.0 - (g0 * y[0]) ** 2) / g0])

    f_init = sign * math.tanh(rho * span[0] + lam1) / g0
    ts, ys = integrate(ODEProblem(rhs, span[0], np.array([f_init]), span[1], h))
    closed = sign * np.tanh(rho * ts + lam1) / g0
    err = np.abs(ys[:, 0] - closed)
    rel = err / np.maximum(1e-300, np.abs(closed))
    return Reconstruction(ts, ys[:, 0], closed, float(err.max()), float(rel.max()), h,
                          meta={"theorem": "3.1", "k0": k0, "g0": g0, "lam1": lam1, "sign": sign})


_BOUNDARY_TOL = 1e-12


def reconstruct_thm32(h0: float, f0: float = 1.0, lam: Optional[float] = None,
                      causal: str = "spacelike", y0: float = 0.0, length: float = 1.0,
                      h: float = 1e-3, u0: Optional[float] = None) -> Reconstruction:
    """Integrate the prescribed-mean-curvature profile ODE as a first-order
    system in (g, u), u = f0*g', and compare g with the closed form.

    `causal` names the ODE branch by the initial slope: 'spacelike' means
    u^2 < 1 and the ODE u' = 2*h0*(1 - u^2)^(3/2); 'timelike' means
    u^2 > 1 and u' = 2*h0*(u^2 - 1)^(3/2).  Either pass `lam` to position
    the corridor (initial conditions are then read off the closed form) or
    pass the initial slope `u0` directly; a slope on the wrong side of
    u^2 = 1, or on it, raises BranchViolation.
    """
    if h0 == 0.0:
        raise InvalidParams("h0 must be nonzero")
    if f0 == 0.0:
        raise InvalidParams("f0 must be nonzero")
    if causal not in ("spacelike", "timelike"):
        raise InvalidParams(f"causal must be 'spacelike' or 'timelike', got {causal!r}")
    spacelike = causal == "spacelike"

    if u0 is not None:
        if abs(u0 * u0 - 1.0) <= _BOUNDARY_TOL:
            raise BranchViolation("initial slope sits on the lightlike boundary (f0 g')^2 = 1")
        if spacelike and u0 * u0 > 1.0:
            raise BranchViolation("timelike initial slope passed to the spacelike branch")
        if not spacelike and u0 * u0 < 1.0:
            raise BranchViolation("spacelike initial slope passed to the timelike branch")
        # Position the closed form so that it matches the given slope at y0.
        if spacelike:
            w0 = u0 / math.sqrt(1.0 - u0 * u0)
        else:
            w0 = -u0 / math.sqrt(u0 * u0 - 1.0)
        lam = w0 - 2.0 * h0 * y0
    else:
        if lam is None:
            lam = 0.0 if spacelike else 1.3
        w0 = 2.0 * h0 * y0 + lam
        if spacelike:
            u0 = w0 / math.sqrt(w0 * w0 + 1.0)
        else:
            if w0 * w0 <= 1.0:
                raise DomainError("timelike branch needs (2 h0 y0 + lam)^2 > 1")
            u0 = -w0 / math.sqrt(w0 * w0 - 1.0)

    def w(y):
        return 2.0 * h0 * y + lam

    if not spacelike:
        w_end = w(y0 + length)
        if min(abs(w0), abs(w_end)) <= 1.0 or (w0 > 0) != (w_end > 0):
            raise DomainError("corridor leaves the region |2 h0 y + lam| > 1")

    def base(y):
        if spacelike:
            return np.sqrt(w(y) ** 2 + 1.0) / (2.0 * h0)
        return -np.sqrt(w(y) ** 2 - 1.0) / (2.0 * h0)

    g_init = float(base(y0)) / f0

    def rhs(t, y):
        u = y[1]
        gap = 1.0 - u * u
        if spacelike:
            if gap <= 0.0:
                raise BranchViolation("integration crossed (f0 g')^2 = 1 (spacelike branch)")
            du = 2.0 * h0 * gap ** 1.5
        else:
            if gap >= 0.0:
                raise BranchViolation("integration crossed (f0 g')^2 = 1 (timelike branch)")
            du = 2.0 * h0 * (-gap) ** 1.5
        return np.array([u / f0, du])

    ts, ys = integrate(ODEProblem(rhs, y0, np.array([g_init, u0]), y0 + length, h))
    closed = base(ts) / f0 + (g_init - float(base(y0)) / f0)
    err = np.abs(ys[:, 0] - closed)
    rel = err / np.maximum(1e-300, np.abs(closed))
    return Reconstruction(ts, ys[:, 0], closed, float(err.max()), float(rel.max()), h,
                          meta={"theorem": "3.2", "h0": h0, "f0": f0, "lam": lam,
                                "causal": causal, "u0": u0})


def reconstruct_thm42(h0: float, lam1: float = 1.0, lam2: float = 0.0,
                      z0: float = 1.2, length: float = 0.8, h: float = 1e-3) -> Reconstruction:
    """Integrate v = g'/g through the log-derivative ODE

        v' = s * 2*h0 * (v^2 - lam1^2)^(3/2) / lam1^2,   s = -sign(lam1),

    recover g by one more quadrature (L = log g integrated alongside), and
    compare with g(z) = exp((lam1/(2 h0)) sqrt((2 h0 z + lam2)^2 - 1)).
    The corridor must keep |2 h0 z + lam2| > 1.
    """
    if h0 == 0.0:
        raise InvalidParams("h0 must be nonzero")
    if lam1 == 0.0:
        raise InvalidParams("lam1 must be nonzero")
    s = -1.0 if lam1 > 0 else 1.0

    def w(z):
        return 2.0 * h0 * z + lam2

    w0, w1 = w(z0), w(z0 + length)
    if min(abs(w0), abs(w1)) <= 1.0 or (w0 > 0) != (w1 > 0):
        raise DomainError("corridor leaves the region |2 h0 z + lam2| > 1")

    def closed_g(z):
        return np.exp(lam1 / (2.0 * h0) * np.sqrt(w(z) ** 2 - 1.0))

    v0 = lam1 * w0 / math.sqrt(w0 * w0 - 1.0)
    L0 = math.log(float(closed_g(z0)))

    def rhs(t, y):
        v = y[0]
        gap = v * v - lam1 * lam1
        if gap <= 0.0:
            raise BranchViolation("integration crossed (g'/g)^2 = lam1^2")
        return np.array([s * 2.0 * h0 * gap ** 1.5 / (lam1 * lam1), v])

    ts, ys = integrate(ODEProblem(rhs, z0, np.array([v0, L0]), z0 + length, h))
    numeric = np.exp(ys[:, 1])
    closed = closed_g(ts)
    err = np.abs(numeric - closed)
    rel = err / np.abs(closed)
    return Reconstruction(ts, numeric, closed, float(err.max()), float(rel.max()), h,
                          meta={"theorem": "4.2", "h0": h0, "lam1": lam1, "lam2": lam2,
                                "branch_sign": s})


def log_derivative_profile_residual(h0: float, lam1: float, lam2: float, zs) -> float:
    """Max pointwise residual of the closed log-derivative profile inside
    its source ODE (with the branch sign s = -sign(lam1) made explicit)."""
    if h0 == 0.0 or lam1 == 0.0:
        raise InvalidParams("h0 and lam1 must be nonzero")
    zs = np.asarray(zs, dtype=float)
    w = 2.0 * h0 * zs + lam2
    if np.any(w * w <= 1.0):
        raise DomainError("samples must satisfy (2 h0 z + lam2)^2 > 1")
    v = lam1 * w / np.sqrt(w * w - 1.0)
    dv = -2.0 * h0 * lam1 / (w * w - 1.0) ** 1.5
    s = -1.0 if lam1 > 0 else 1.0
    lhs = lam1 * lam1 * dv / np.abs(v * v - lam1 * lam1) ** 1.5
    return float(np.max(np.abs(lhs - s * 2.0 * h0)))


# ---------------------------------------------------------------------------
# Closed-form substitution residuals for the built families
# ---------------------------------------------------------------------------

def thm31_ode_residual(k0: float, lam1: float = 0.0, lam2: float = 0.0,
                       sign: int = 1, xs=None) -> float:
    """Residual of the tanh family inside g0*f'/(1 - (g0 f)^2) = sign*sqrt(|k0|)."""
    s = _families.thm31_family(k0, lam1, lam2, sign)
    xs = np.linspace(-1.5, 1.5, 41) if xs is None else np.asarray(xs, dtype=float)
    g0 = 1.0  # the family's g is y + lam2, slope one
    lhs = g0 * s.f.deriv(xs) / (1.0 - (g0 * s.f(xs)) ** 2)
    return float(np.max(np.abs(lhs - sign * math.sqrt(abs(k0)))))


def thm32_ode_residual(h0: float, lam1: float = 0.0, lam2: float = 0.0,
                       f0: float = 1.0, causal: str = "timelike", ys=None) -> float:
    """Residual of the sqrt family inside its profile ODE.

    The plus-radicand ('timelike'-named) variant solves the spacelike-slope
    form f0 g''/(1-(f0 g')^2)^(3/2) = 2*h0; the minus-radicand variant
    solves the timelike-slope form with orientation sign -1, i.e. target
    2*b*h0 with b the radicand sign.
    """
    s = _families.thm32_family(h0, lam1, lam2, f0, causal)
    b = 1.0 if causal == "timelike" else -1.0
    if ys is None:
        grid = default_grid(s, 41, 41).axes()[1]
    else:
        grid = np.asarray(ys, dtype=float)
    u = f0 * s.g.deriv(grid)
    num = f0 * s.g.deriv2(grid)
    gap = 1.0 - u * u
    lhs = num / np.abs(gap) ** 1.5
    return float(np.max(np.abs(lhs - 2.0 * b * h0)))


def thm42_ode_residual(h0: float, lam1: float = 1.0, lam2: float = 1.0,
                       lam3: float = 0.0, causal: str = "timelike", zs=None) -> float:
    """Residual of the exponential family's g inside the log-derivative ODE;
    target 2*b*sign(lam2)*h0 with b the radicand sign."""
    s = _families.thm42_family(h0, lam1, lam2, lam3, causal)
    b = 1.0 if causal == "timelike" else -1.0
    if zs is None:
        grid = default_grid(s, 41, 41).axes()[1]
    else:
        grid = np.asarray(zs, dtype=float)
    gv = s.g(grid)
    v = s.g.deriv(grid) / gv
    dv = s.g.deriv2(grid) / gv - v * v
    lhs = lam2 * lam2 * dv / np.abs(v * v - lam2 * lam2) ** 1.5
    target = 2.0 * b * math.copysign(1.0, lam2) * h0
    return float(np.max(np.abs(lhs - target)))


# ---------------------------------------------------------------------------
# Residual fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    """Pointwise |measured - target| statistics over a grid."""

    shape: tuple[int, int]
    target_kind: str
    target_value: float
    max_abs: float
    mean_abs: float
    argmax: tuple[float, float]

    def __post_init__(self):
        if self.max_abs < self.mean_abs:
            raise InvalidParams("max residual cannot be below the mean residual")


def residual_field(s: FactorableSurface, target: tuple[str, float], grid: GridSpec) -> ResidualReport:
    """Residual of a specialized curvature field against a constant target.

    The grid must be admissible and avoid lightlike loci, otherwise
    GridRejected is raised.
    """
    kind, value = target
    if kind not in ("K", "H"):
        raise InvalidParams(f"target kind must be 'K' or 'H', got {kind!r}")
    data = specialized_grid(s, grid)
    if np.any(data["excluded"]):
        raise GridRejected("grid crosses a lightlike locus")
    fieldv = data[kind]
    if not np.all(np.isfinite(fieldv)):
        raise GridRejected("curvature field is not finite on the grid")
    resid = np.abs(fieldv - value)
    idx = np.unravel_index(int(np.argmax(resid)), resid.shape)
    return ResidualReport(
        shape=resid.shape,
        target_kind=kind,
        target_value=float(value),
        max_abs=float(resid.max()),
        mean_abs=float(resid.mean()),
        argmax=(float(data["U1"][idx]), float(data["U2"][idx])),
    )


# ---------------------------------------------------------------------------
# Polynomial case-contradiction checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaseCoefficients:
    """Named coefficient evaluators of a polynomial identity."""

    names: tuple[str, ...]
    evaluators: dict

    def evaluate(self, name: str, t):
        return self.evaluators[name](np.asarray(t, dtype=float))


def quartic_slope_coefficients(f: ScalarC2, h: float = 1e-5) -> CaseCoefficients:
    """Coefficients of the quartic-slope identity c0 + c4*(g')^4 = 0:

        c0 = -(1/(f f''))',   c4 = (f^3/f'')'

    computed by central differences of the composite expressions (only f
    and f'' are needed at shifted points)."""

    def c0(t):
        q = lambda u: 1.0 / (f(u) * f.deriv2(u))
        return -(q(t + h) - q(t - h)) / (2.0 * h)

    def c4(t):
        q = lambda u: f(u) ** 3 / f.deriv2(u)
        return (q(t + h) - q(t - h)) / (2.0 * h)

    return CaseCoefficients(("c0", "c4"), {"c0": c0, "c4": c4})


def check_quartic_slope_identity(f: ScalarC2, samples, tol: float = 1e-8) -> dict:
    """Check whether both coefficients of the quartic-slope identity vanish
    on the samples; for non-constant f they cannot, which is the claimed
    contradiction.  When they do vanish, f must have been constant, which
    the report confirms via max |f'|."""
    coeffs = quartic_slope_coefficients(f)
    samples = np.asarray(samples, dtype=float)
    c0_max = float(np.max(np.abs(coeffs.evaluate("c0", samples))))
    c4_max = float(np.max(np.abs(coeffs.evaluate("c4", samples))))
    vanish = c0_max < tol and c4_max < tol
    fprime_max = float(np.max(np.abs(f.deriv(samples))))
    return {
        "c0_max": c0_max,
        "c4_max": c4_max,
        "coefficients_vanish": vanish,
        "f_prime_max": fprime_max,
        "consistent": vanish and fprime_max < tol,
        "conclusion": ("coefficients vanish only with f' = 0" if vanish
                       else "no contradiction-free solution: a coefficient is nonzero"),
    }


def check_linear_factor_identity(k0: float, f0: float, g: ScalarC2, samples, tol: float = 1e-10) -> dict:
    """Coefficients of the quartic identity in f for a linear f (slope f0):

        A4 = k0*(g')^4,  A2 = -2*k0*(f0 g g')^2,  A0 = (f0 g)^4 + (f0 g')^2.

    All must vanish for the identity to hold; the leading one already
    cannot unless k0 = 0."""
    samples = np.asarray(samples, dtype=float)
    gp = g.deriv(samples)
    gv = g(samples)
    a4 = k0 * gp ** 4
    a2 = -2.0 * k0 * (f0 * gv * gp) ** 2
    a0 = (f0 * gv) ** 4 + (f0 * gp) ** 2
    a4_max = float(np.max(np.abs(a4)))
    return {
        "a4_max": a4_max,
        "a2_max": float(np.max(np.abs(a2))),
        "a0_max": float(np.max(np.abs(a0))),
        "consistent": a4_max < tol and float(np.max(np.abs(a2))) < tol
                      and float(np.max(np.abs(a0))) < tol,
        "leading_nonzero": a4_max >= tol,
        "conclusion": ("inconsistent: leading coefficient k0*(g')^4 is nonzero"
                       if a4_max >= tol else "leading coefficient vanishes"),
    }


def solve_quintic_coefficient_system(lam1: float) -> dict:
    """Exactly solve the quintic-coefficient system

        lam4 - lam1*lam4^2 = 0,  2*(lam5 - lam1*lam4*lam5) = 0,  lam1*lam5^2 = 0

    under the side condition (lam4, lam5) != (0, 0).  For lam1 != 0 the
    forced relations are lam1*lam4 = 1 and lam5 = 0."""
    if lam1 == 0.0:
        raise InvalidParams("lam1 must be nonzero")
    lam5 = 0.0                      # third coefficient with lam1 != 0
    lam4 = 1.0 / lam1               # first coefficient, lam4 = 0 excluded by side condition
    residuals = (
        lam4 - lam1 * lam4 ** 2,
        2.0 * (lam5 - lam1 * lam4 * lam5),
        lam1 * lam5 ** 2,
    )
    return {
        "lambda4": lam4,
        "lambda5": lam5,
        "relations": {"lambda1*lambda4": lam1 * lam4, "lambda5": lam5},
        "residual": max(abs(r) for r in residuals),
    }


# ---------------------------------------------------------------------------
# Nonexistence probe (second kind, K0 != 0)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpace:
    """Search space: f(y) = exp(a*y)*P(y), g(z) = exp(b*z)*Q(z) with P, Q
    polynomials of bounded degree; rates omitted when exponential=False."""

    degree_f: int = 2
    degree_g: int = 2
    exponential: bool = True

    def __post_init__(self):
        for d in (self.degree_f, self.degree_g):
            if not (0 <= d <= 4):
                raise InvalidParams("polynomial degrees must lie in 0..4")

    @property
    def n_params(self) -> int:
        return self.degree_f + self.degree_g + 2 + (2 if self.exponential else 0)

    def describe(self) -> str:
        tail = "exp(a*y)*P, exp(b*z)*Q" if self.exponential else "P, Q (no exponential)"
        return f"f deg {self.degree_f}, g deg {self.degree_g}, {tail}"

    def split(self, thetas: np.ndarray):
        """P coefficients (m, degree_f+1), Q coefficients (m, degree_g+1)
        and the rates a, b (m,) of candidate rows `thetas` (m, n_params);
        the rates are zero when exponential=False."""
        nf, ng = self.degree_f + 1, self.degree_g + 1
        if self.exponential:
            a, b = thetas[:, nf + ng], thetas[:, nf + ng + 1]
        else:
            a = b = np.zeros(len(thetas))
        return thetas[:, :nf], thetas[:, nf:nf + ng], a, b


def _exp_poly_rows(c: np.ndarray, rate: np.ndarray, t: np.ndarray):
    """Value, first and second derivative of exp(rate*t)*P(t) at the nodes
    `t` (n,) for each coefficient row of `c` (m, d+1) and rate (m,), each
    of shape (m, n).  Horner order and derivative coefficients follow
    `npoly.polyval` and `npoly.polyder`, so each row is bit for bit the
    single-candidate evaluation."""

    def horner(coeffs):
        v = coeffs[:, -1:] + t * 0
        for i in range(2, coeffs.shape[1] + 1):
            v = coeffs[:, -i, None] + v * t
        return v

    zero = np.zeros((len(c), 1))
    d1c = np.arange(1, c.shape[1]) * c[:, 1:] if c.shape[1] > 1 else zero
    d2c = np.arange(1, d1c.shape[1]) * d1c[:, 1:] if c.shape[1] > 2 else zero
    r = rate[:, None]
    e = np.exp(r * t)
    p, p1, p2 = horner(c), horner(d1c), horner(d2c)
    return e * p, e * (r * p + p1), e * (r * r * p + 2.0 * r * p1 + p2)


# grid points evaluated per call of the probe objective; bounds its memory
# on large grids while a 9x9 sweep of any family space stays one call
_PROBE_POINTS_PER_CALL = 1 << 12


def _probe_objective(space: FamilySpace, k0: float, grid: GridSpec):
    """values(thetas) -> (m,): max-grid |K - k0| of each candidate row of
    `thetas` (m, n_params); inf for a candidate with a lightlike or
    non-finite point on the grid.

    f depends only on y and g only on z, so each profile is evaluated on
    its own axis and the two are broadcast over the grid."""
    y, z = grid.axes()
    rows = max(1, _PROBE_POINTS_PER_CALL // (y.size * z.size))

    def block(thetas: np.ndarray) -> np.ndarray:
        pc, qc, a, b = space.split(thetas)
        fv, f1, f2 = (v[:, :, None] for v in _exp_poly_rows(pc, a, y))
        gv, g1, g2 = (v[:, None, :] for v in _exp_poly_rows(qc, b, z))
        K, _ = closed_K(KIND_SECOND, fv, f1, f2, gv, g1, g2)
        out = np.max(np.abs(K - k0), axis=(1, 2))
        out[~np.all(np.isfinite(K), axis=(1, 2))] = np.inf
        return out

    def values(thetas: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            return np.concatenate([block(thetas[i:i + rows]) for i in range(0, len(thetas), rows)])

    return values


def _coordinate_search(values, theta0: np.ndarray, budget: int,
                       step0: float = 0.5, shrink: float = 0.5,
                       min_step: float = 1e-6) -> tuple[float, np.ndarray, int]:
    """Pattern search after Hooke & Jeeves (J. ACM, 1961): try +step, then
    -step, on each coordinate in turn, move to the first candidate that
    improves by more than 1e-15, and shrink every step after a sweep with
    no move; stop at `budget` evaluations or below `min_step`.

    The candidates left in a sweep are built from the current point and
    evaluated in one call.  Only the first improving one is taken and
    counted, and the sweep resumes after its coordinate, so the path and
    the count are those of trying the candidates one at a time."""
    theta = np.asarray(theta0, dtype=float).copy()
    best = values(theta[None])[0]
    evals = 1
    n = theta.size
    steps = np.full(n, step0)
    while evals < budget and float(steps.max()) > min_step:
        improved = False
        i = 0
        while i < n and evals < budget:
            left = budget - evals
            coords = np.repeat(np.arange(i, n), 2)[:left]
            deltas = np.stack([steps[i:], -steps[i:]], axis=1).ravel()[:left]
            cands = np.repeat(theta[None], coords.size, axis=0)
            cands[np.arange(coords.size), coords] += deltas
            vals = values(cands)
            hits = np.flatnonzero(vals < best - 1e-15)
            if hits.size == 0:
                evals += coords.size
                break
            k = hits[0]
            evals += k + 1
            best, theta = vals[k], cands[k]
            improved = True
            i = coords[k] + 1
        if not improved:
            steps *= shrink
    return best, theta, evals


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of the bounded search; `header` states its scope."""

    k0: float
    best_residual: float
    best_theta: tuple
    evaluations: int
    budget: int
    restarts: int
    space: FamilySpace
    grid: GridSpec
    header: str


def nonexistence_probe(k0: float, space: FamilySpace = FamilySpace(),
                       budget: int = 10_000, grid: Optional[GridSpec] = None,
                       seed: int = 0, restarts: int = 6) -> ProbeReport:
    """Minimize max-grid |K - k0| over the declared family space by a
    coordinate search with restarts.

    The result is a bounded-search property, not a proof: a large best
    residual for k0 != 0 only says the search found no near-counterexample
    within its scope.  The restarts (a generic start, the flat seed when
    the space has rates, then seeded uniform draws) share the budget
    equally and run one after another; the best residual wins, the
    earlier restart on a tie.  The outcome depends only on the arguments.

    With budget >= 1, `restarts` may not exceed `budget` (InvalidParams),
    so the evaluations never exceed the budget.  With budget <= 0 the
    initial guess of the first restart is evaluated and returned untouched.
    """
    if budget >= 1 and restarts > budget:
        raise InvalidParams(f"restarts ({restarts}) must not exceed budget ({budget})")
    if grid is None:
        grid = GridSpec((-0.5, 0.5), (-0.5, 0.5), 9, 9)
    values = _probe_objective(space, k0, grid)

    rng = np.random.default_rng(seed)
    n = space.n_params
    starts = [_generic_start(space)]
    if space.exponential:
        starts.append(_flat_seed(space))
    while len(starts) < max(1, restarts):
        starts.append(rng.uniform(-1.5, 1.5, size=n))
    starts = starts[: max(1, restarts)]

    if budget <= 0:
        value = values(starts[0][None])[0]
        return _probe_report(k0, value, starts[0], 1, budget, len(starts), space, grid)

    per = max(1, budget // len(starts))
    results = [_coordinate_search(values, start, per) for start in starts]
    best, theta, _ = min(results, key=lambda r: r[0])
    total_evals = sum(r[2] for r in results)
    return _probe_report(k0, best, theta, total_evals, budget, len(starts), space, grid)


def _generic_start(space: FamilySpace) -> np.ndarray:
    theta = np.zeros(space.n_params)
    theta[0] = 1.0                      # f constant term
    if space.degree_f >= 1:
        theta[1] = 0.3
    theta[space.degree_f + 1] = 1.0     # g constant term
    if space.degree_g >= 1:
        theta[space.degree_f + 2] = -0.4
    if space.exponential:
        theta[-2] = 0.5
        theta[-1] = -0.5
    return theta


def _flat_seed(space: FamilySpace) -> np.ndarray:
    """Equal-to-one polynomials with rates (1, 2): an exactly flat surface."""
    theta = np.zeros(space.n_params)
    theta[0] = 1.0
    theta[space.degree_f + 1] = 1.0
    theta[-2] = 1.0
    theta[-1] = 2.0
    return theta


def _probe_report(k0, best, theta, evals, budget, restarts, space, grid) -> ProbeReport:
    header = (
        f"bounded coordinate search, property check only (not a proof); "
        f"family space: {space.describe()}; "
        f"grid [{grid.u1[0]:g}, {grid.u1[1]:g}] x [{grid.u2[0]:g}, {grid.u2[1]:g}] "
        f"({grid.n1}x{grid.n2}); budget {budget}; restarts {restarts}; target K0 = {k0:g}"
    )
    return ProbeReport(
        k0=float(k0),
        best_residual=float(best),
        best_theta=tuple(float(v) for v in np.asarray(theta).ravel()),
        evaluations=int(evals),
        budget=int(budget),
        restarts=int(restarts),
        space=space,
        grid=grid,
        header=header,
    )
