"""Constructors for the classified constant-curvature families.

Each constructor returns a `FactorableSurface` with exact analytic
derivatives, domains already restricted to the valid branch:

  * tanh family (first kind, prescribed Gaussian curvature K0 != 0):
        z = sign * tanh(sqrt(|K0|) x + lam1) * (y + lam2)
    The measured Gaussian curvature is the constant -|K0|.

  * sqrt family (first kind, prescribed mean curvature H0 != 0):
        z = (1/(2 H0)) * sqrt((2 H0 y + lam1)^2 +/- 1) + lam2
    `causal='timelike'` selects the plus radicand (valid for all y),
    `causal='spacelike'` the minus radicand (needs (2 H0 y + lam1)^2 > 1).
    Measured |H| == |H0|; note that the measured causal sign eps is
    opposite to the variant name (see README, "Errata").

  * exp family (second kind, prescribed mean curvature H0 != 0):
        x = lam1 * exp(lam2 y + (lam2/(2 H0)) sqrt((2 H0 z + lam3)^2 +/- 1))
    plus radicand for 'timelike', minus for 'spacelike'; here the names do
    agree with the measured eps.  Measured |H| == |H0|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InvalidParams
from .factorable import FactorableSurface, ScalarC2, KIND_FIRST, KIND_SECOND

__all__ = [
    "thm31_family",
    "thm32_family",
    "thm42_family",
    "fixtures_flat_minimal",
    "Fixture",
    "family_surface",
    "sample_params",
    "perturb_exponent",
    "FAMILY_NAMES",
]

_INF = float("inf")


def _branch_sign(causal: str) -> int:
    if causal == "timelike":
        return 1
    if causal == "spacelike":
        return -1
    raise InvalidParams(f"causal must be 'spacelike' or 'timelike', got {causal!r}")


def thm31_family(k0: float, lam1: float = 0.0, lam2: float = 0.0, sign: int = 1) -> FactorableSurface:
    """Tanh family with constant Gaussian curvature of magnitude |k0|.

    f(x) = sign*tanh(sqrt(|k0|)x + lam1), g(y) = y + lam2.  The surface is
    spacelike everywhere (|f*g'| = |f| < 1) and the measured K is -|k0|.
    """
    if k0 == 0.0 or not math.isfinite(k0):
        raise InvalidParams("k0 must be a nonzero finite real")
    if sign not in (1, -1):
        raise InvalidParams(f"sign must be +1 or -1, got {sign!r}")
    rho = math.sqrt(abs(k0))

    def w(x):
        return rho * x + lam1

    f = ScalarC2(
        fn=lambda x: sign * np.tanh(w(x)),
        d1=lambda x: sign * rho / np.cosh(w(x)) ** 2,
        d2=lambda x: -2.0 * sign * rho * rho * np.tanh(w(x)) / np.cosh(w(x)) ** 2,
        name=f"{'+' if sign > 0 else '-'}tanh({rho:g}x{lam1:+g})",
    )
    g = ScalarC2.linear(1.0, lam2, name=f"y{lam2:+g}")
    return FactorableSurface(KIND_FIRST, f, g)


def _radicand_domain(h0: float, shift: float, branch: int) -> tuple[float, float]:
    """Domain in the grid coordinate where (2*h0*t + shift)^2 + branch > 0.

    Plus branch: all reals.  Minus branch: the component with w > 1.
    """
    if branch > 0:
        return (-_INF, _INF)
    t_star = (1.0 - shift) / (2.0 * h0)
    return (t_star, _INF) if h0 > 0 else (-_INF, t_star)


def thm32_family(h0: float, lam1: float = 0.0, lam2: float = 0.0,
                 f0: float = 1.0, causal: str = "timelike") -> FactorableSurface:
    """Sqrt family with constant |H| == |h0| (first kind).

    z = f0*g(y) with f0 constant; the split is internal, the graph is
    z(y) = (1/(2 h0)) sqrt((2 h0 y + lam1)^2 + b) + lam2 where b = +1 for
    the 'timelike'-named variant and -1 for the 'spacelike'-named one.
    The signed mean curvature the pipeline measures is b*h0.
    """
    if h0 == 0.0 or not math.isfinite(h0):
        raise InvalidParams("h0 must be a nonzero finite real")
    if f0 == 0.0 or not math.isfinite(f0):
        raise InvalidParams("f0 must be a nonzero finite real")
    b = _branch_sign(causal)
    dom = _radicand_domain(h0, lam1, b)

    def w(y):
        return 2.0 * h0 * y + lam1

    def rad(y):
        r = w(y) ** 2 + b
        if np.any(r <= 0.0):
            raise DomainError("radicand (2 h0 y + lam1)^2 - 1 not positive on the requested points")
        return r

    def zeta(y):
        return np.sqrt(rad(y)) / (2.0 * h0) + lam2

    def zeta1(y):
        return w(y) / np.sqrt(rad(y))

    def zeta2(y):
        return 2.0 * h0 * b / rad(y) ** 1.5

    f = ScalarC2.constant(f0, name=f"const({f0:g})")
    g = ScalarC2(
        fn=lambda y: zeta(y) / f0,
        d1=lambda y: zeta1(y) / f0,
        d2=lambda y: zeta2(y) / f0,
        domain=dom,
        name=f"sqrt-profile({causal})",
    )
    return FactorableSurface(KIND_FIRST, f, g)


def thm42_family(h0: float, lam1: float = 1.0, lam2: float = 1.0,
                 lam3: float = 0.0, causal: str = "timelike") -> FactorableSurface:
    """Exponential family with constant |H| == |h0| (second kind).

    f(y) = lam1*exp(lam2 y) and g(z) = exp((lam2/(2 h0)) sqrt(w^2 + b)),
    w = 2 h0 z + lam3, b = +1 ('timelike') or -1 ('spacelike').
    """
    if h0 == 0.0 or not math.isfinite(h0):
        raise InvalidParams("h0 must be a nonzero finite real")
    if lam1 == 0.0 or lam2 == 0.0:
        raise InvalidParams("lam1 and lam2 must be nonzero")
    b = _branch_sign(causal)
    dom = _radicand_domain(h0, lam3, b)

    f = ScalarC2(
        fn=lambda y: lam1 * np.exp(lam2 * y),
        d1=lambda y: lam1 * lam2 * np.exp(lam2 * y),
        d2=lambda y: lam1 * lam2 * lam2 * np.exp(lam2 * y),
        name=f"{lam1:g}*exp({lam2:g}y)",
    )

    def w(z):
        return 2.0 * h0 * z + lam3

    def rad(z):
        r = w(z) ** 2 + b
        if np.any(r <= 0.0):
            raise DomainError("radicand (2 h0 z + lam3)^2 - 1 not positive on the requested points")
        return r

    def phi(z):
        return lam2 / (2.0 * h0) * np.sqrt(rad(z))

    def phi1(z):
        return lam2 * w(z) / np.sqrt(rad(z))

    def phi2(z):
        return 2.0 * h0 * lam2 * b / rad(z) ** 1.5

    g = ScalarC2(
        fn=lambda z: np.exp(phi(z)),
        d1=lambda z: phi1(z) * np.exp(phi(z)),
        d2=lambda z: (phi2(z) + phi1(z) ** 2) * np.exp(phi(z)),
        domain=dom,
        name=f"exp-profile({causal})",
    )
    return FactorableSurface(KIND_SECOND, f, g)


@dataclass(frozen=True)
class Fixture:
    """Flat/minimal test surface with its expected constant curvatures."""

    label: str
    surface: FactorableSurface
    expected_K: Optional[float]
    expected_H: Optional[float]
    note: str = ""


def fixtures_flat_minimal() -> list[Fixture]:
    """Zero-curvature fixtures: a plane, the saddle, and the equal-rate
    exponential graph (the latter is lightlike for the general pipeline,
    its K = 0 comes from the documented flat-limit convention)."""
    linear = FactorableSurface(KIND_FIRST, ScalarC2.constant(2.0), ScalarC2.linear(1.0, 3.0))
    saddle = FactorableSurface(KIND_FIRST, ScalarC2.linear(1.0, 0.0), ScalarC2.linear(1.0, 0.0))
    exp1 = ScalarC2(fn=np.exp, d1=np.exp, d2=np.exp, name="exp")
    exp_exp = FactorableSurface(KIND_SECOND, exp1, exp1)
    return [
        Fixture("linear", linear, expected_K=0.0, expected_H=0.0,
                note="z = 2(y+3): a plane, flat and minimal"),
        Fixture("saddle", saddle, expected_K=None, expected_H=0.0,
                note="z = xy: minimal; K = -1 at the origin, non-constant"),
        Fixture("exp_exp", exp_exp, expected_K=0.0, expected_H=0.0,
                note="x = exp(y)exp(z): flat limit; W == 0 for the pipeline"),
    ]


FAMILY_NAMES = ("thm31", "thm32", "thm42", "linear", "saddle", "exp_exp")


def family_surface(name: str, params: dict | None = None) -> FactorableSurface:
    """Build a family or fixture surface by name."""
    params = dict(params or {})
    if name == "thm31":
        return thm31_family(**params)
    if name == "thm32":
        return thm32_family(**params)
    if name == "thm42":
        return thm42_family(**params)
    fixtures = {fx.label: fx.surface for fx in fixtures_flat_minimal()}
    if name in fixtures:
        if params:
            raise InvalidParams(f"fixture {name!r} takes no parameters")
        return fixtures[name]
    raise InvalidParams(f"unknown family {name!r}; expected one of {FAMILY_NAMES}")


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _signed_magnitude(rng: np.random.Generator, lo: float = 0.1, hi: float = 10.0) -> float:
    return (1.0 if rng.random() < 0.5 else -1.0) * _log_uniform(rng, lo, hi)


def _bounded_away(rng: np.random.Generator, bound: float = 2.0, floor: float = 0.25) -> float:
    """Uniform on [-bound, bound] resampled until |value| >= floor."""
    while True:
        v = float(rng.uniform(-bound, bound))
        if abs(v) >= floor:
            return v


def sample_params(family: str, rng: np.random.Generator, causal: str = "timelike") -> dict:
    """Random constructor kwargs: log-uniform magnitudes in [0.1, 10] for
    k0/h0, shifts in [-2, 2]; rate-like parameters stay away from zero."""
    if family == "thm31":
        return {
            "k0": _signed_magnitude(rng),
            "lam1": float(rng.uniform(-2, 2)),
            "lam2": float(rng.uniform(-2, 2)),
            "sign": 1 if rng.random() < 0.5 else -1,
        }
    if family == "thm32":
        return {
            "h0": _signed_magnitude(rng),
            "lam1": float(rng.uniform(-2, 2)),
            "lam2": float(rng.uniform(-2, 2)),
            "f0": (1.0 if rng.random() < 0.5 else -1.0) * _log_uniform(rng, 0.5, 2.0),
            "causal": causal,
        }
    if family == "thm42":
        return {
            "h0": _signed_magnitude(rng),
            "lam1": _bounded_away(rng),
            "lam2": _bounded_away(rng),
            "lam3": float(rng.uniform(-2, 2)),
            "causal": causal,
        }
    raise InvalidParams(f"no parameter sampler for {family!r}")


def perturb_exponent(s: FactorableSurface, scale: float) -> FactorableSurface:
    """Replace g by g**scale (g must stay positive on its domain).

    Used to break the constant-curvature property deliberately; scale 1.0
    returns an equivalent surface.
    """
    base = s.g

    def check(gv):
        if np.any(gv <= 0.0):
            raise DomainError("exponent perturbation requires g > 0")
        return gv

    def fn(t):
        return check(base(t)) ** scale

    def d1(t):
        gv = check(base(t))
        return scale * gv ** (scale - 1.0) * base.deriv(t)

    def d2(t):
        gv = check(base(t))
        gp = base.deriv(t)
        return (scale * (scale - 1.0) * gv ** (scale - 2.0) * gp ** 2
                + scale * gv ** (scale - 1.0) * base.deriv2(t))

    g = ScalarC2(fn=fn, d1=d1, d2=d2, domain=base.domain, name=f"({base.name})^{scale:g}")
    return FactorableSurface(s.kind, s.f, g)
