"""Factorable surfaces and their specialized curvature formulas.

Two kinds exist here: first kind z(x, y) = f(x)*g(y) and second kind
x(y, z) = f(y)*g(z).  The closed curvature formulas are

    first:   K = (f*g*f''*g'' - (f'*g')^2) / (1 - (f*g')^2)^2
             H = f*g'' / (2*|1 - (f*g')^2|^(3/2))
    second:  K = (f*g*f''*g'' - (f'*g')^2) / ((f*g')^2 - (f'*g)^2)^2
             H = ((f*g')^2*f''*g - 2*f*g*(f'*g')^2 + (f'*g)^2*f*g'')
                 / (2*|(f*g')^2 - (f'*g)^2|^(3/2))

`closed_K` and `closed_H` are the one implementation of these, over
arrays of profile values; the scalar and grid APIs call them.  The general
pipeline of `surface` computes K with an extra factor -eps relative to
these and H with factor +1 (proven in tests/test_sign_contract.py, see
README, "Sign conventions"); `cross_check` compares two sweeps under
these factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridRejected, InvalidParams, LightlikeLocus
from .surface import FD_STEP, Jet2, curvature_arrays, fd_components, jet_from_components

__all__ = [
    "ScalarC2",
    "FactorableSurface",
    "GridSpec",
    "CrossCheckReport",
    "closed_K",
    "closed_H",
    "k_first",
    "h_first",
    "k_second",
    "h_second",
    "specialized_K",
    "specialized_H",
    "jet_component_arrays",
    "pipeline_grid",
    "specialized_grid",
    "cross_check",
    "KIND_FIRST",
    "KIND_SECOND",
]

KIND_FIRST = "first"
KIND_SECOND = "second"

# Denominator deadband for the specialized formulas (scale-aware).
_DENOM_TOL = 1e-12
# Numerator deadband for the documented flat-limit convention (second kind).
_FLAT_TOL = 1e-12

_INF = float("inf")


@dataclass(frozen=True)
class ScalarC2:
    """Twice-differentiable scalar function with analytic derivatives.

    Evaluators must accept numpy arrays.  `domain` is the open interval on
    which the evaluators are valid; infinite ends are allowed.
    """

    fn: Callable
    d1: Callable
    d2: Callable
    domain: tuple[float, float] = (-_INF, _INF)
    name: str = ""

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))

    def deriv(self, t):
        return self.d1(np.asarray(t, dtype=float))

    def deriv2(self, t):
        return self.d2(np.asarray(t, dtype=float))

    def derivative_gap(self, t: float, h: float = 1e-6) -> float:
        """|d1 - central difference of fn| at t; O(h^2) for consistent pairs."""
        fd = (self(t + h) - self(t - h)) / (2.0 * h)
        return float(abs(self.deriv(t) - fd))

    @staticmethod
    def constant(c: float, name: str = "") -> "ScalarC2":
        return ScalarC2(
            fn=lambda t: c + 0.0 * t,
            d1=lambda t: 0.0 * t,
            d2=lambda t: 0.0 * t,
            name=name or f"const({c})",
        )

    @staticmethod
    def linear(a: float, b: float = 0.0, name: str = "") -> "ScalarC2":
        """t -> a*t + b."""
        return ScalarC2(
            fn=lambda t: a * t + b,
            d1=lambda t: a + 0.0 * t,
            d2=lambda t: 0.0 * t,
            name=name or f"linear({a},{b})",
        )


@dataclass(frozen=True)
class FactorableSurface:
    """Pair (f, g) with a kind tag selecting the graph direction.

    First kind is parametrized by (x, y), second kind by (y, z); both
    parametrizations keep the two graph coordinates as parameters, so the
    jets below are exact once f and g carry analytic derivatives.
    """

    kind: str
    f: ScalarC2
    g: ScalarC2

    def __post_init__(self):
        if self.kind not in (KIND_FIRST, KIND_SECOND):
            raise InvalidParams(f"kind must be 'first' or 'second', got {self.kind!r}")

    @property
    def domain(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return self.f.domain, self.g.domain

    def value_arrays(self, u1, u2):
        """Position components (x, y, z) for array parameters."""
        u1 = np.asarray(u1, dtype=float)
        u2 = np.asarray(u2, dtype=float)
        prod = self.f(u1) * self.g(u2)
        if self.kind == KIND_FIRST:
            return u1 + 0.0 * prod, u2 + 0.0 * prod, prod
        return prod, u1 + 0.0 * prod, u2 + 0.0 * prod

    def position(self, u1: float, u2: float) -> np.ndarray:
        x, y, z = self.value_arrays(u1, u2)
        return np.array([float(x), float(y), float(z)])

    def jet(self, u1: float, u2: float) -> Jet2:
        """The jet at one point: a one-point call of `jet_component_arrays`."""
        return jet_from_components(self.position(u1, u2), jet_component_arrays(self, [u1], [u2]))


# ---------------------------------------------------------------------------
# Closed formulas
# ---------------------------------------------------------------------------

def _parts(s: FactorableSurface, u1, u2):
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    return (s.f(u1), s.f.deriv(u1), s.f.deriv2(u1),
            s.g(u2), s.g.deriv(u2), s.g.deriv2(u2))


def _denominator(kind: str, fv, f1, gv, g1):
    """The base D of both closed denominators, its vanishing mask and the
    squares qa = (f g')^2, qb = (f' g)^2 (qb only for the second kind).

    D = 1 - qa (first kind) or qa - qb (second kind); it counts as zero
    below a deadband scaled by the larger of 1 and its terms.
    """
    qa = (fv * g1) ** 2
    if kind == KIND_FIRST:
        qb = None
        den, scale = 1.0 - qa, np.maximum(1.0, qa)
    else:
        qb = (f1 * gv) ** 2
        den, scale = qa - qb, np.maximum(1.0, np.maximum(qa, qb))
    return den, np.abs(den) <= _DENOM_TOL * scale, qa, qb


def _quotient(num, num_scale, den, den_zero, power):
    """num / power(D) and its undefined mask.

    Where D vanishes the value is undefined (NaN), except where the
    numerator vanishes too, relative to `num_scale` (the sum of the
    magnitudes of its terms): there it takes the flat limit 0.  With
    `num_scale` None (the first kind) there is no flat limit.
    """
    value = num / power(np.where(den_zero, 1.0, den))
    if num_scale is None:
        return np.where(den_zero, np.nan, value), den_zero
    flat = den_zero & (np.abs(num) <= _FLAT_TOL * np.maximum(1.0, num_scale))
    undefined = den_zero & ~flat
    return np.where(undefined, np.nan, np.where(flat, 0.0, value)), undefined


def _closed_K(kind: str, parts, den):
    """`closed_K` over the profile values `parts` and their `_denominator`."""
    fv, f1, f2, gv, g1, g2 = parts
    lead, cross = fv * gv * f2 * g2, (f1 * g1) ** 2
    num_scale = np.abs(lead) + cross if kind == KIND_SECOND else None
    den, den_zero, _, _ = den
    return _quotient(lead - cross, num_scale, den, den_zero, lambda d: d ** 2)


def _closed_H(kind: str, parts, den):
    """`closed_H` over the profile values `parts` and their `_denominator`."""
    fv, f1, f2, gv, g1, g2 = parts
    den, den_zero, qa, qb = den
    if kind == KIND_FIRST:
        num, num_scale = fv * g2, None
    else:
        t1, t2, t3 = qa * f2 * gv, 2.0 * fv * gv * (f1 * g1) ** 2, qb * fv * g2
        num, num_scale = t1 - t2 + t3, np.abs(t1) + np.abs(t2) + np.abs(t3)
    return _quotient(num, num_scale, den, den_zero, lambda d: 2.0 * np.abs(d) ** 1.5)


@np.errstate(all="ignore")
def closed_K(kind: str, fv, f1, f2, gv, g1, g2):
    """Closed-formula Gaussian curvature over arrays of the profile values
    f, f', f'', g, g', g'': (K, undefined), K NaN where undefined.
    Overflow ends as a non-finite K, silently."""
    return _closed_K(kind, (fv, f1, f2, gv, g1, g2), _denominator(kind, fv, f1, gv, g1))


@np.errstate(all="ignore")
def closed_H(kind: str, fv, f1, f2, gv, g1, g2):
    """Closed-formula mean curvature over arrays of the profile values:
    (H, undefined), H NaN where undefined; |D|^(3/2) covers timelike
    patches.  Overflow ends as a non-finite H, silently."""
    return _closed_H(kind, (fv, f1, f2, gv, g1, g2), _denominator(kind, fv, f1, gv, g1))


def _at_point(kernel, s: FactorableSurface, u1: float, u2: float) -> float:
    """`kernel` at one point, on one-element arrays like a grid row's (numpy
    may round a power of a 0-d array differently); raises where undefined."""
    value, undefined = kernel(s.kind, *_parts(s, [u1], [u2]))
    if undefined[0]:
        raise LightlikeLocus(f"{s.kind}-kind denominator vanishes at ({u1}, {u2})")
    return float(value[0])


def _require_kind(s: FactorableSurface, kind: str, name: str) -> None:
    if s.kind != kind:
        raise InvalidParams(f"{name} requires a {kind}-kind surface")


def specialized_K(s: FactorableSurface, u1: float, u2: float) -> float:
    """Closed-formula K at one point; raises LightlikeLocus where undefined."""
    return _at_point(closed_K, s, u1, u2)


def specialized_H(s: FactorableSurface, u1: float, u2: float) -> float:
    """Closed-formula H at one point; raises LightlikeLocus where undefined."""
    return _at_point(closed_H, s, u1, u2)


def k_first(s: FactorableSurface, x: float, y: float) -> float:
    """Gaussian curvature of z = f(x)*g(y) from the closed formula."""
    _require_kind(s, KIND_FIRST, "k_first")
    return specialized_K(s, x, y)


def h_first(s: FactorableSurface, x: float, y: float) -> float:
    """Mean curvature of z = f(x)*g(y) from the closed formula."""
    _require_kind(s, KIND_FIRST, "h_first")
    return specialized_H(s, x, y)


def k_second(s: FactorableSurface, y: float, z: float) -> float:
    """Gaussian curvature of x = f(y)*g(z) from the closed formula.

    Where the K numerator vanishes with the denominator (the
    exponential-times-exponential surfaces of equal rate) the flat limit 0
    is returned; a vanishing denominator alone raises LightlikeLocus.
    """
    _require_kind(s, KIND_SECOND, "k_second")
    return specialized_K(s, y, z)


def h_second(s: FactorableSurface, y: float, z: float) -> float:
    """Mean curvature of x = f(y)*g(z), with the flat-limit rule of
    `k_second` applied to the H numerator."""
    _require_kind(s, KIND_SECOND, "h_second")
    return specialized_H(s, y, z)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Rectangular parameter grid: ranges plus per-axis resolution."""

    u1: tuple[float, float]
    u2: tuple[float, float]
    n1: int = 20
    n2: int = 20

    def __post_init__(self):
        for lo, hi in (self.u1, self.u2):
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
                raise InvalidParams(f"grid range must be finite and increasing, got ({lo}, {hi})")
        if self.n1 < 2 or self.n2 < 2:
            raise InvalidParams("grid resolution must be >= 2 per axis")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.linspace(self.u1[0], self.u1[1], self.n1),
                np.linspace(self.u2[0], self.u2[1], self.n2))

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        a1, a2 = self.axes()
        return np.meshgrid(a1, a2, indexing="ij")


def _clip_axis(dom: tuple[float, float], span: float, margin: float) -> tuple[float, float]:
    lo, hi = dom
    if math.isinf(lo) and math.isinf(hi):
        return (-span / 2.0, span / 2.0)
    if math.isinf(hi):
        lo = lo + margin * span
        return (lo, lo + span)
    if math.isinf(lo):
        hi = hi - margin * span
        return (hi - span, hi)
    pad = margin * (hi - lo)
    return (lo + pad, hi - pad)


def default_grid(s: FactorableSurface, n1: int = 20, n2: int = 20,
                 span: float = 3.0, margin: float = 0.05) -> GridSpec:
    """Finite grid inside the surface domain, keeping a margin from the
    domain ends (radicand zeros sit exactly on those ends for the built-in
    families)."""
    (d1, d2) = s.domain
    return GridSpec(_clip_axis(d1, span, margin), _clip_axis(d2, span, margin), n1, n2)


def jet_component_arrays(s: FactorableSurface, U1, U2,
                         mode: str = "analytic", fd_step: float = FD_STEP) -> dict:
    """Component arrays x1..z22 over broadcast-compatible parameter arrays,
    analytic or FD.  The analytic components that are 0 or 1 everywhere
    are 0-d arrays; the others take the broadcast shape of U1 and U2."""
    U1 = np.asarray(U1, dtype=float)
    U2 = np.asarray(U2, dtype=float)
    if mode == "analytic":
        fv, f1, f2, gv, g1, g2 = _parts(s, U1, U2)
        zero, one = np.zeros(()), np.ones(())
        if s.kind == KIND_FIRST:
            return {
                "x1": one, "y1": zero, "z1": f1 * gv + zero,
                "x2": zero, "y2": one, "z2": fv * g1 + zero,
                "x11": zero, "y11": zero, "z11": f2 * gv + zero,
                "x12": zero, "y12": zero, "z12": f1 * g1 + zero,
                "x22": zero, "y22": zero, "z22": fv * g2 + zero,
            }
        return {
            "x1": f1 * gv + zero, "y1": one, "z1": zero,
            "x2": fv * g1 + zero, "y2": zero, "z2": one,
            "x11": f2 * gv + zero, "y11": zero, "z11": zero,
            "x12": f1 * g1 + zero, "y12": zero, "z12": zero,
            "x22": fv * g2 + zero, "y22": zero, "z22": zero,
        }
    if mode != "fd":
        raise InvalidParams(f"mode must be 'analytic' or 'fd', got {mode!r}")

    return fd_components(s.value_arrays, U1, U2, fd_step)[1]


def _axes(grid: GridSpec):
    """The grid axes as a column (n1, 1) and a row (1, n2), and the U1, U2
    entries of a sweep, read-only grid views of them.  f depends only on
    u1 and g only on u2, so each profile is evaluated on its own axis and
    the kernels broadcast it over the grid."""
    a1, a2 = grid.axes()
    u1, u2 = a1[:, None], a2[None, :]
    shape = (a1.size, a2.size)
    return u1, u2, {"U1": np.broadcast_to(u1, shape), "U2": np.broadcast_to(u2, shape)}


def pipeline_grid(s: FactorableSurface, grid: GridSpec,
                  mode: str = "analytic", fd_step: float = FD_STEP) -> dict:
    """General-pipeline sweep: positions, K, H, eps, W and exclusion mask."""
    u1, u2, params = _axes(grid)
    out = curvature_arrays(jet_component_arrays(s, u1, u2, mode=mode, fd_step=fd_step))
    x, y, z = s.value_arrays(u1, u2)
    excluded = out["lightlike"] | out["inadmissible"] | ~np.isfinite(out["K"]) | ~np.isfinite(out["H"])
    return {
        **params, "x": x, "y": y, "z": z,
        "K": out["K"], "H": out["H"], "eps": out["eps"], "W": out["W"],
        "excluded": excluded,
    }


def specialized_grid(s: FactorableSurface, grid: GridSpec) -> dict:
    """Closed-formula sweep; a point is excluded where K or H is undefined.
    K and H share one closed denominator."""
    u1, u2, params = _axes(grid)
    parts = _parts(s, u1, u2)
    fv, f1, _, gv, g1, _ = parts
    with np.errstate(all="ignore"):
        den = _denominator(s.kind, fv, f1, gv, g1)
        K, k_undefined = _closed_K(s.kind, parts, den)
        H, h_undefined = _closed_H(s.kind, parts, den)
    x, y, z = s.value_arrays(u1, u2)
    return {**params, "x": x, "y": y, "z": z, "K": K, "H": H,
            "excluded": k_undefined | h_undefined}


# ---------------------------------------------------------------------------
# Cross-check between specialized formulas and the general pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossCheckReport:
    """Points compared and the largest gap from the proven sign contract."""

    n_points: int
    max_discrepancy: float


def cross_check(pipe: dict, closed: dict) -> CrossCheckReport:
    """Compare a `pipeline_grid` sweep with the `specialized_grid` sweep of
    the same grid under the proven contract K_pipeline = -eps*K_closed,
    H_pipeline = H_closed: the largest of |K_pipe + eps*K_closed| and
    |H_pipe - H_closed| over the grid.

    Raises GridRejected when either sweep excludes a point.
    """
    if np.any(pipe["excluded"]) or np.any(closed["excluded"]):
        raise GridRejected("grid crosses a lightlike or inadmissible locus")
    k_gap = np.max(np.abs(pipe["K"] + pipe["eps"] * closed["K"]))
    h_gap = np.max(np.abs(pipe["H"] - closed["H"]))
    return CrossCheckReport(n_points=int(pipe["K"].size), max_discrepancy=float(max(k_gap, h_gap)))
