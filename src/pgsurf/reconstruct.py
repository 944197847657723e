"""Independent verification paths for the classified families: what the
`reconstruct` and `probe` commands run.

Contents:

  * a fixed-step RK4 integrator (deterministic, no adaptivity) for a
    scalar driver s' = F(s) (3.1: f, 3.2: u, 4.2: v) and, for 3.2 and
    4.2, its quadrature q' = s/divisor (g' = u/f0, L' = v/1.0);
  * ODE re-derivations of the three families, each compared against the
    closed-form solution with matched initial conditions: the closed
    column is the profile `families` builds (3.1: `thm31_family`'s f;
    3.2: `thm32_family`'s g; 4.2: `log_profile`, phi = log g), and the
    integration starts from its first entry bit for bit.  This module
    writes no family profile, and leaves the checks of the family
    parameters to the family constructors, save the shifts it passes
    under other names (3.2's lam, 4.2's lam1 and lam2);
  * a bounded derivative-free probe of the second-kind nonexistence claim
    for K != 0 (a property check over a declared family space, not a
    proof).

The exact claims behind these checks (each family solves its ODE, the
polynomial case contradictions) are proven with sympy in
tests/test_exact_claims.py.

Branch bookkeeping: the prescribed mean curvature ODEs hold with an
orientation sign attached to the closed forms; the helpers below carry
that sign explicitly (README, "Errata") and never switch branch silently.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BlowUp, BranchViolation, DomainError, InvalidParams
from .factorable import KIND_SECOND, GridSpec, closed_K
from .families import (Causal, _branch_sign, _require_finite, log_profile, sqrt_profile,
                       thm31_family, thm32_family)

__all__ = [
    "integrate",
    "Reconstruction",
    "reconstruct_thm31",
    "reconstruct_thm32",
    "reconstruct_thm42",
    "FamilySpace",
    "ProbeReport",
    "nonexistence_probe",
]

BLOWUP_LIMIT = 1e12
# Largest step count `integrate` accepts; checked before any allocation.
MAX_STEPS = 10**6
# Largest restart count `nonexistence_probe` accepts; checked before any
# start is built.
MAX_RESTARTS = 10**4
# The grid `nonexistence_probe` and the `probe` command search on by default.
PROBE_GRID = GridSpec((-0.5, 0.5), (-0.5, 0.5), 9, 9)


def _steps(t0: float, t1: float, h: float) -> tuple[int, float]:
    """The step count n = round(span/h), at least 1, and the step span/n;
    it differs from `h` where h does not divide the corridor.  Raises
    InvalidParams unless the corridor is finite with t1 > t0, h > 0 and
    n <= MAX_STEPS, before anything is allocated."""
    if not (math.isfinite(t0) and math.isfinite(t1)) or t1 <= t0:
        raise InvalidParams("integration corridor must be finite with t1 > t0")
    if not (h > 0.0):
        raise InvalidParams("step h must be positive")
    span = t1 - t0
    # round(span/h) > MAX_STEPS, without round() overflowing on span/h = inf
    if span / h > MAX_STEPS + 0.5:
        raise InvalidParams(f"corridor {span:g} at step {h:g} needs more than {MAX_STEPS} steps")
    n = max(1, int(round(span / h)))
    return n, span / n


def integrate(slope: Callable[[float], float], t0: float, y0, t1: float, h: float,
              divisor: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Classic RK4 for the driver s' = slope(s) on [t0, t1], with the n
    equal steps of `_steps(t0, t1, h)`, from the finite state y0 = (s0,),
    or (s0, q0) with the quadrature q' = s / divisor.  A corridor `_steps`
    rejects, then a state of another size or with a component that is not
    finite, raises InvalidParams before `slope` is called.

    Steps on Python floats: `slope(s)` takes a driver stage value s1..s4
    as a float and returns its derivative as a float, four calls a step,
    and a quadrature q adds the same stages over `divisor`.
    There is one loop per state size, its stages written out in the
    operation order of the ndarray expressions y + (0.5*h)*k, y + h*k and
    y + (h/6)*(k1 + 2*k2 + 2*k3 + k4), so the trajectories pinned in
    tests/test_reconstruct.py hold bit for bit.  Returns (ts, ys) as
    float64 arrays of shapes (n+1,) and (n+1, dim), with ys[i] = (s, q),
    or (s,), at ts[i]; deterministic for fixed inputs.  Raises BlowUp when
    the state leaves [-1e12, 1e12] or stops being finite mid-corridor,
    which includes a slope whose float arithmetic raises ArithmeticError.
    """
    n, h = _steps(t0, t1, h)
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if y0.shape not in ((1,), (2,)):
        raise InvalidParams(f"state must have 1 or 2 components, got shape {y0.shape}")
    if not np.all(np.isfinite(y0)):
        raise InvalidParams(f"initial state y0 must be finite, got {y0.tolist()}")
    ts = t0 + h * np.arange(n + 1)
    half, sixth = 0.5 * h, h / 6.0
    trajectory = array("d", y0.tolist())
    # float arithmetic raises ArithmeticError (a power overflowing, a
    # division by an underflowed zero) where ndarray arithmetic yields inf
    # or nan; either ends the run as a BlowUp
    if len(trajectory) == 1:
        s, = trajectory
        for i in range(1, n + 1):
            try:
                k1 = slope(s)
                k2 = slope(s + half * k1)
                k3 = slope(s + half * k2)
                k4 = slope(s + h * k3)
                s = s + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            except ArithmeticError:
                s = math.nan
            if not abs(s) <= BLOWUP_LIMIT:
                raise BlowUp(f"state exceeded {BLOWUP_LIMIT:.0e} at t = {ts[i]:.6g}")
            trajectory.append(s)
    else:
        s, q = trajectory
        d = divisor
        for i in range(1, n + 1):
            try:
                k1 = slope(s)
                k2 = slope(s2 := s + half * k1)
                k3 = slope(s3 := s + half * k2)
                k4 = slope(s4 := s + h * k3)
                q = q + sixth * (s / d + 2.0 * (s2 / d) + 2.0 * (s3 / d) + s4 / d)
                s = s + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            except ArithmeticError:
                s = q = math.nan
            if not (abs(s) <= BLOWUP_LIMIT and abs(q) <= BLOWUP_LIMIT):
                raise BlowUp(f"state exceeded {BLOWUP_LIMIT:.0e} at t = {ts[i]:.6g}")
            trajectory.append(s)
            trajectory.append(q)
    return ts, np.frombuffer(trajectory).reshape(n + 1, len(y0))


@dataclass(frozen=True)
class Reconstruction:
    """RK4 samples next to the closed form, with the max gap; `h` is the
    step the integration took."""

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
    the closed form f/g0, f the profile of `thm31_family(k0, lam1,
    sign=sign)`."""
    f = thm31_family(k0, lam1, sign=sign).f
    if not (math.isfinite(g0) and g0 != 0.0):
        raise InvalidParams("g0 must be a nonzero finite real")
    _, step = _steps(span[0], span[1], h)
    rate = sign * math.sqrt(abs(k0))

    def slope(v):
        return rate * (1.0 - (g0 * v) ** 2) / g0

    def closed_f(x):
        return f(x) / g0

    return _compare(integrate(slope, span[0], [_seed(closed_f, span[0])], span[1], h),
                    closed_f, step,
                    {"theorem": "3.1", "k0": k0, "g0": g0, "lam1": lam1, "sign": sign})


@np.errstate(all="ignore")
def _column(closed_form, t):
    """`closed_form` on the array `t`, its float overflow silent (a
    profile's derivative parts overflow where its value does not)."""
    return closed_form(np.atleast_1d(np.asarray(t, dtype=float)))


def _seed(closed_form, t0: float) -> float:
    """The closed column's first entry, bit for bit: `closed_form` at the
    first node of `integrate`, t0 + 0*h, which is +0.0 where t0 is -0.0."""
    return float(_column(closed_form, t0 + 0.0)[0])


def _compare(trajectory, closed_form, step: float, meta: dict) -> Reconstruction:
    """Compare the last state component of the (ts, ys) `integrate`
    returned, with `step` the step it took, against `closed_form(ts)`,
    absolutely and relative to the closed value.  A closed column of one
    value (a saturated profile) raises InvalidParams: a trajectory that
    stays at its seed would match it, so the comparison checks nothing."""
    ts, ys = trajectory
    closed = _column(closed_form, ts)
    if (closed == closed[0]).all():
        raise InvalidParams(f"the closed form is {closed[0]:.17g} over the whole corridor, "
                            "so the comparison checks nothing there")
    err = np.abs(ys[:, -1] - closed)
    rel = err / np.maximum(1e-300, np.abs(closed))
    return Reconstruction(ts, ys[:, -1], closed, float(err.max()), float(rel.max()), step,
                          meta=meta)


def _corridor(w0: float, w1: float, w_text: str) -> None:
    """Raise DomainError unless |w| > 1 at both ends w0, w1 of the
    corridor, with one sign; w is affine in the coordinate, so the radicand
    w^2 - 1 is then positive on the whole corridor.  `w_text` names w."""
    if min(abs(w0), abs(w1)) <= 1.0 or (w0 > 0) != (w1 > 0):
        raise DomainError(f"corridor leaves the region |{w_text}| > 1")


_BOUNDARY_TOL = 1e-12


def reconstruct_thm32(h0: float, f0: float = 1.0, lam: Optional[float] = None,
                      causal: Causal = "spacelike", y0: float = 0.0, length: float = 1.0,
                      h: float = 1e-3, u0: Optional[float] = None) -> Reconstruction:
    """Integrate the prescribed-mean-curvature profile ODE as a first-order
    system in (u, g), u = f0*g', and compare g with the closed form
    b*g, g the profile of `thm32_family(h0, lam, f0=f0)` with the radicand
    w^2 + b, w = 2*h0*y + lam.

    `causal` names the ODE branch by the initial slope, and with it the
    sign b: 'spacelike' means u^2 < 1 and b = +1, 'timelike' means u^2 > 1
    and b = -1; the ODE is u' = 2*h0*(b*(1 - u^2))^(3/2).  Either pass `lam` to position
    the corridor (initial conditions are then read off the closed form) or
    pass the initial slope `u0` directly, not both (InvalidParams); a slope
    on the wrong side of u^2 = 1, or on it, raises BranchViolation.  A
    'timelike' corridor, its start included, must stay where
    |2*h0*y + lam| > 1 (DomainError).
    """
    b = -_branch_sign(causal)
    _, step = _steps(y0, y0 + length, h)
    if u0 is not None and lam is not None:
        raise InvalidParams("pass lam or u0, not both")

    if u0 is not None:
        _require_finite(u0=u0)
        if abs(u0 * u0 - 1.0) <= _BOUNDARY_TOL:
            raise BranchViolation("initial slope sits on the lightlike boundary (f0 g')^2 = 1")
        gap0 = b * (1.0 - u0 * u0)
        if gap0 < 0.0:
            other = "timelike" if b > 0 else "spacelike"
            raise BranchViolation(f"{other} initial slope passed to the {causal} branch")
        # Position the closed form so that it matches the given slope at y0.
        w0 = b * u0 / math.sqrt(gap0)
        lam = w0 - 2.0 * h0 * y0
        if not math.isfinite(lam):
            raise InvalidParams("h0, y0 and u0 give a shift lam = w0 - 2*h0*y0 that is not finite")
    elif lam is None:
        lam = 0.0 if b > 0 else 1.3
    else:
        _require_finite(lam=lam)
    # the README erratum: the spacelike slope (b = +1) is the sqrt
    # family's plus radicand, which the family names 'timelike'
    g = thm32_family(h0, lam, f0=f0, causal="timelike" if b > 0 else "spacelike").g
    if u0 is None:
        w0 = 2.0 * h0 * y0 + lam
        if not math.isfinite(w0):
            raise InvalidParams("h0 and y0 give a start w0 = 2*h0*y0 + lam that is not finite")
        # NaN on a timelike start with |w0| <= 1, which `_corridor` rejects
        u0 = b * float(_column(sqrt_profile(h0, lam, b).deriv, y0)[0])
    if b < 0:
        _corridor(w0, 2.0 * h0 * (y0 + length) + lam, "2 h0 y + lam")

    def closed_g(y):
        return b * g(y)

    rate = 2.0 * h0

    def slope(u):
        gap = b * (1.0 - u * u)
        if gap <= 0.0:
            raise BranchViolation(f"integration crossed (f0 g')^2 = 1 ({causal} branch)")
        return rate * gap ** 1.5

    return _compare(integrate(slope, y0, [u0, _seed(closed_g, y0)], y0 + length, h, f0),
                    closed_g, step,
                    {"theorem": "3.2", "h0": h0, "f0": f0, "lam": lam, "causal": causal,
                     "u0": u0})


def reconstruct_thm42(h0: float, lam1: float = 1.0, lam2: float = 0.0,
                      z0: float = 1.2, length: float = 0.8, h: float = 1e-3) -> Reconstruction:
    """Integrate v = g'/g through the log-derivative ODE

        v' = s * 2*h0 * (v^2 - lam1^2)^(3/2) / lam1^2,   s = -sign(lam1),

    recover L = log g by one more quadrature, and compare it with
    phi = (lam1/(2 h0)) sqrt((2 h0 z + lam2)^2 - 1), the exponent of the
    exponential family's g = exp(phi) (`families.log_profile`); the
    integration starts from phi and v = phi' at z0.  The corridor must
    keep |2 h0 z + lam2| > 1.

    The comparison is made in log space, so no error overflows where g
    exceeds the float range: `max_error` is the largest |L - L_closed| and
    `max_rel_error` the largest relative error of g, |expm1(L - L_closed)|.
    `numeric` and `closed` hold g itself, inf where it exceeds the range.
    """
    phi = log_profile(h0, lam1, lam2, -1)
    _require_finite(lam1=lam1, lam2=lam2)
    if lam1 == 0.0:
        raise InvalidParams("lam1 must be nonzero")
    s = -1.0 if lam1 > 0 else 1.0
    _, step = _steps(z0, z0 + length, h)
    w0 = 2.0 * h0 * z0 + lam2
    if not math.isfinite(w0):
        raise InvalidParams("h0, z0 and lam2 give a start w0 = 2*h0*z0 + lam2 that is not finite")
    _corridor(w0, 2.0 * h0 * (z0 + length) + lam2, "2 h0 z + lam2")
    v0, L0 = float(_column(phi.deriv, z0)[0]), _seed(phi, z0)
    if not (math.isfinite(v0) and math.isfinite(L0)):
        raise InvalidParams("h0, lam1, lam2 and z0 give seeds v0 = phi'(z0) and phi(z0) "
                            "that are not finite")

    rate, lam1_sq = s * 2.0 * h0, lam1 * lam1

    def slope(v):
        gap = v * v - lam1_sq
        if gap <= 0.0:
            raise BranchViolation("integration crossed (g'/g)^2 = lam1^2")
        return rate * gap ** 1.5 / lam1_sq

    ts, ys = integrate(slope, z0, [v0, L0], z0 + length, h)
    L, L_closed = ys[:, 1], _column(phi, ts)
    with np.errstate(over="ignore"):
        numeric, closed = np.exp(L), np.exp(L_closed)
    err = np.abs(L - L_closed)
    rel = np.abs(np.expm1(L - L_closed))
    return Reconstruction(ts, numeric, closed, float(err.max()), float(rel.max()), step,
                          meta={"theorem": "4.2", "h0": h0, "lam1": lam1, "lam2": lam2,
                                "branch_sign": s})


# ---------------------------------------------------------------------------
# Nonexistence probe (second kind, K0 != 0)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpace:
    """Search space: f(y) = exp(a*y)*P(y), g(z) = exp(b*z)*Q(z) with P, Q
    polynomials of bounded degree.  A candidate is one row of n_params
    reals, laid out [P coefficients, Q coefficients, a, b], coefficients
    lowest degree first; the rates are left out when exponential=False.
    `theta` writes this layout and `split` reads it."""

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

    def theta(self, p, q, rates) -> np.ndarray:
        """The candidate (n_params,) of the coefficients `p` and `q`, each
        cut or zero-padded to its degree, and the `rates` (a, b), dropped
        when exponential=False."""
        nf, ng = self.degree_f + 1, self.degree_g + 1
        return np.array(([*p] + [0.0] * nf)[:nf] + ([*q] + [0.0] * ng)[:ng]
                        + ([*rates] if self.exponential else []), dtype=float)

    def split(self, thetas: np.ndarray):
        """Candidate rows `thetas` (m, n_params) as `_exp_poly_rows` reads
        them: the P and Q coefficients, zero-padded to the larger degree,
        (max degree + 1, 2, 1, m), and the rates a, b (2, 1, m), zero when
        exponential=False."""
        nf, ng = self.degree_f + 1, self.degree_g + 1
        c, rates = np.zeros((max(nf, ng), 2, 1, len(thetas))), np.zeros((2, 1, len(thetas)))
        c[:nf, 0, 0], c[:ng, 1, 0] = thetas[:, :nf].T, thetas[:, nf:nf + ng].T
        if self.exponential:
            rates[:, 0] = thetas[:, nf + ng:].T
        return c, rates


def _exp_poly_rows(c: np.ndarray, rate: np.ndarray, t: np.ndarray):
    """Value, first and second derivative of exp(rate*t)*P(t) for the
    coefficients `c` (d+1, *rows), lowest degree first, and the rates
    `rate` (rows), at the nodes `t`, which broadcast against the rows; each
    result has the broadcast shape.  P, P' and P'' share one Horner
    recurrence.  Horner order and derivative coefficients follow
    `npoly.polyval` and `npoly.polyder`, and a leading zero coefficient
    leaves every Horner step bit-identical at finite nodes, so rows of
    lower degree may be zero-padded: each row is bit for bit the
    single-candidate evaluation."""
    d = len(c) - 1
    degrees = np.arange(1.0, d + 1.0).reshape((-1,) + (1,) * (c.ndim - 1))
    coeffs = np.zeros((3,) + c.shape)
    coeffs[0] = c
    coeffs[1, :d] = degrees * c[1:]
    coeffs[2, :max(d - 1, 0)] = degrees[:d - 1] * coeffs[1, 1:d]
    v = coeffs[:, d] + t * 0
    for k in range(d - 1, -1, -1):
        v = coeffs[:, k] + v * t
    p, p1, p2 = v
    e = np.exp(rate * t)
    return e * p, e * (rate * p + p1), e * (rate * rate * p + 2.0 * rate * p1 + p2)


# grid points evaluated per call of the probe objective; bounds its memory
# on large grids while one round of a default 9x9 probe stays one call
_PROBE_POINTS_PER_CALL = 1 << 13


def _spans(m: int, most: int) -> list[tuple[int, int]]:
    """The [lo, hi) spans that split range(m) into the fewest parts of at
    most `most` rows, balanced to within one row."""
    parts = -(-m // most)
    return [(-(-m * j // parts), -(-m * (j + 1) // parts)) for j in range(parts)]


def _probe_objective(space: FamilySpace, k0: float, grid: GridSpec):
    """values(thetas) -> (m,): max-grid |K - k0| of each candidate row of
    `thetas` (m, n_params); inf for a candidate with a lightlike or
    non-finite point on the grid.

    f depends only on y and g only on z, so each profile is evaluated on
    its own axis, both in one `_exp_poly_rows` call per chunk of candidate
    rows: `FamilySpace.split` zero-pads the f and g coefficients to the
    larger degree, and the shorter axis is padded to the longer one.  The
    profiles are broadcast over the grid one block of rows at a time,
    candidates last, so K is (n1, n2, rows).  Chunks and blocks are
    balanced, and `_PROBE_POINTS_PER_CALL` bounds the elements of each
    profile array (rows x 2 x the longer axis) and of each grid block
    (rows x grid points).  Rows are evaluated independently, so a row's
    value does not depend on the rows beside it."""
    y, z = grid.axes()
    nodes = np.zeros((2, max(y.size, z.size), 1))
    nodes[0, :y.size, 0], nodes[1, :z.size, 0] = y, z
    chunk = max(1, _PROBE_POINTS_PER_CALL // nodes.size)
    block = max(1, _PROBE_POINTS_PER_CALL // (y.size * z.size))

    def values(thetas: np.ndarray) -> np.ndarray:
        out = np.empty(len(thetas))
        with np.errstate(all="ignore"):
            for lo, hi in _spans(len(thetas), chunk):
                jet = _exp_poly_rows(*space.split(thetas[lo:hi]), nodes)
                f = [v[0, :y.size, None] for v in jet]
                g = [v[1, None, :z.size] for v in jet]
                for r0, r1 in _spans(hi - lo, block):
                    K, _ = closed_K(KIND_SECOND, *(v[..., r0:r1] for v in f),
                                    *(v[..., r0:r1] for v in g))
                    res = np.max(np.abs(K - k0), axis=(0, 1))
                    res[np.isnan(res)] = np.inf
                    out[lo + r0:lo + r1] = res
        return out

    return values


# the pattern search's initial step, its shrink factor after a sweep with
# no move, and the step below which it stops
_STEP0, _SHRINK, _MIN_STEP = 0.5, 0.5, 1e-6


def _pattern_search(values, starts: np.ndarray, budget: int):
    """Pattern search after Hooke & Jeeves (J. ACM, 1961) from every row of
    `starts` (R, n) at once, each restart with `budget` evaluations; returns
    each restart's best value (R,), point (R, n) and evaluation count (R,).

    A restart tries +step, then -step, on each coordinate in turn, moves to
    the first candidate that improves by more than 1e-15, and resumes the
    sweep after that coordinate; it shrinks its step after a sweep with no
    move, and stops at `budget` evaluations or below `_MIN_STEP`.

    The restarts' states are arrays, and each round makes one `values` call
    on one cycle of every running restart, in restart order: 2n candidates
    (fewer at the budget) from its current point and step, candidate j
    moving coordinate (i + j // 2) % n by +step (j even) or -step (j odd),
    i the sweep's next coordinate.  That is the rest of the sweep, then
    the next sweep's coordinates before i: a sweep that moved and then
    finds nothing goes on from the same point and step, so its successor
    tries the same candidates there.  Only a restart's first improving
    candidate, at slot k, is taken; it counts k + 1 evaluations and the
    sweep resumes at (i + k // 2 + 1) % n.  A cycle with no move counts
    the rest, the next sweep's first i coordinates and its repeat of the
    rest (the whole of one sweep where i = 0), capped at the budget, then
    shrinks the step and restarts the sweep at 0.  So each restart's path
    and count are those of trying its candidates one at a time, alone."""
    theta = np.array(starts, dtype=float)
    R, n = theta.shape
    best = values(theta)
    evals = np.ones(R, dtype=np.int64)
    step = np.full(R, _STEP0)
    i = np.zeros(R, dtype=np.int64)          # the sweep's next coordinate; > 0 once it moved
    running = (evals < budget) & (step > _MIN_STEP)
    while running.any():
        live = np.flatnonzero(running)
        count = np.minimum(2 * n, budget - evals[live])
        who = np.repeat(np.arange(live.size), count)
        first = np.cumsum(count) - count
        j = np.arange(who.size) - first[who]
        owner = live[who]
        cands = theta[owner]
        s = step[owner]
        cands[np.arange(who.size), (i[owner] + j // 2) % n] += np.where(j % 2 == 0, s, -s)
        vals = np.full((live.size, 2 * n), np.nan)
        vals[who, j] = values(cands)
        hits = vals < best[live, None] - 1e-15
        hit, k = hits.any(1), hits.argmax(1)
        moved, k = live[hit], k[hit]
        theta[moved] = cands[first[hit] + k]
        best[moved] = vals[hit, k]
        evals[moved] += k + 1
        i[moved] = (i[moved] + k // 2 + 1) % n
        stuck = live[~hit]
        rest = np.where(i[stuck] > 0, 2 * (n - i[stuck]), 0)
        evals[stuck] = np.minimum(evals[stuck] + 2 * n + rest, budget)
        step[stuck] *= _SHRINK
        i[stuck] = 0
        running[live] = (evals[live] < budget) & (step[live] > _MIN_STEP)
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
    header: str


def nonexistence_probe(k0: float, space: FamilySpace = FamilySpace(),
                       budget: int = 10_000, grid: GridSpec = PROBE_GRID,
                       seed: int = 0, restarts: int = 6) -> ProbeReport:
    """Minimize max-grid |K - k0| over the declared family space by a
    coordinate search with restarts.

    The result is a bounded-search property, not a proof: a large best
    residual for k0 != 0 only says the search found no near-counterexample
    within its scope.  The restarts (a generic start, the flat seed when
    the space has rates, then seeded uniform draws) share the budget
    equally and are searched together by `_pattern_search`, which keeps
    their points, steps and sweep positions as arrays and evaluates one
    cycle of 2 * n_params candidates of every running restart in one
    objective call per round; the results are those of running the
    restarts one after another.  The best residual wins, the earlier
    restart on a tie.  The outcome depends only on the arguments.

    `k0` must be finite, `restarts` may not exceed MAX_RESTARTS, and
    1 <= restarts <= budget must hold (InvalidParams), so every restart
    gets at least one evaluation and the evaluations never exceed the
    budget.
    """
    if not math.isfinite(k0):
        raise InvalidParams(f"k0 must be finite, got {k0!r}")
    if restarts > MAX_RESTARTS:
        raise InvalidParams(f"restarts ({restarts}) must not exceed {MAX_RESTARTS}")
    if not 1 <= restarts <= budget:
        raise InvalidParams(f"restarts ({restarts}) must lie between 1 and budget ({budget})")

    rng = np.random.default_rng(seed)
    starts = [_generic_start(space)]
    if space.exponential:
        starts.append(_flat_seed(space))
    while len(starts) < restarts:
        starts.append(rng.uniform(-1.5, 1.5, size=space.n_params))
    best, theta, evals = _pattern_search(_probe_objective(space, k0, grid), starts[:restarts],
                                         budget // restarts)
    # argmin takes the first of equal residuals: the earlier restart
    w = int(np.argmin(best))
    header = (
        f"bounded coordinate search, property check only (not a proof); "
        f"family space: {space.describe()}; "
        f"grid [{grid.u1[0]:g}, {grid.u1[1]:g}] x [{grid.u2[0]:g}, {grid.u2[1]:g}] "
        f"({grid.n1}x{grid.n2}); budget {budget}; restarts {restarts}; target K0 = {k0:g}"
    )
    return ProbeReport(k0=float(k0), best_residual=float(best[w]),
                       best_theta=tuple(float(v) for v in theta[w]),
                       evaluations=int(evals.sum()), budget=int(budget),
                       restarts=int(restarts), header=header)


def _generic_start(space: FamilySpace) -> np.ndarray:
    """Constant terms 1, linear terms 0.3 (f) and -0.4 (g), rates (0.5, -0.5)."""
    return space.theta([1.0, 0.3], [1.0, -0.4], [0.5, -0.5])


def _flat_seed(space: FamilySpace) -> np.ndarray:
    """Equal-to-one polynomials with rates (1, 2): an exactly flat surface."""
    return space.theta([1.0], [1.0], [1.0, 2.0])
