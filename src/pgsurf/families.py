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

The sqrt and exp families share `radicand` (and its h0 check) and build
on `sqrt_profile` and `log_profile` (phi = log g); `reconstruct`
integrates against these profiles, so each family is stated only here.

`FAMILIES` has a row per family and fixture: its constructor, the field `verify`
checks and its sampler; `family_surface`, `sample_params` and the CLI read it.
"""

from __future__ import annotations

import inspect
import math
import numbers
from collections import namedtuple
from typing import Literal

import numpy as np

from .errors import InvalidParams
from .factorable import FactorableSurface, ScalarC2, KIND_FIRST, KIND_SECOND

__all__ = [
    "thm31_family",
    "thm32_family",
    "thm42_family",
    "family_surface",
    "sample_params",
    "perturb_exponent",
    "FAMILIES",
    "Causal",
]

_INF = float("inf")
Causal = Literal["timelike", "spacelike"]


def _branch_sign(causal: Causal) -> int:
    if causal == "timelike":
        return 1
    if causal == "spacelike":
        return -1
    raise InvalidParams(f"causal must be 'spacelike' or 'timelike', got {causal!r}")


def _require_finite(**values: float) -> None:
    """Raise InvalidParams naming, by its keyword, the first of `values`
    that is not a finite real."""
    for key, value in values.items():
        if not math.isfinite(value):
            raise InvalidParams(f"{key} must be a finite real")


def thm31_family(k0: float, lam1: float = 0.0, lam2: float = 0.0, sign: int = 1) -> FactorableSurface:
    """Tanh family with constant Gaussian curvature of magnitude |k0|.

    f(x) = sign*tanh(sqrt(|k0|)x + lam1), g(y) = y + lam2.  The surface is
    spacelike everywhere (|f*g'| = |f| < 1) and the measured K is -|k0|.
    """
    if k0 == 0.0 or not math.isfinite(k0):
        raise InvalidParams("k0 must be a nonzero finite real")
    if sign not in (1, -1):
        raise InvalidParams(f"sign must be +1 or -1, got {sign!r}")
    _require_finite(lam1=lam1, lam2=lam2)
    rho = math.sqrt(abs(k0))

    def f(x):
        w = rho * x + lam1
        th, c2 = np.tanh(w), np.cosh(w) ** 2
        return sign * th, sign * rho / c2, -2.0 * sign * rho * rho * th / c2

    return FactorableSurface(KIND_FIRST, ScalarC2(f), ScalarC2.linear(1.0, lam2))


def radicand(h0: float, shift: float, b: int):
    """The radicand r = w^2 + b of w = 2*h0*t + shift: its domain in the
    grid coordinate t, all reals for b = +1 and the component with w > 1
    for b = -1, and the map t -> (w, r), r NaN where w^2 + b is not
    positive.  The profiles built on it are NaN there, with no
    floating-point warning, so a grid sweep excludes such a point as it
    excludes any other non-finite K or H.  h0 must be a nonzero finite
    real (InvalidParams)."""
    if h0 == 0.0 or not math.isfinite(h0):
        raise InvalidParams("h0 must be a nonzero finite real")
    if b > 0:
        dom = (-_INF, _INF)
    else:
        t_star = (1.0 - shift) / (2.0 * h0)
        dom = (t_star, _INF) if h0 > 0 else (-_INF, t_star)

    def at(t):
        w = 2.0 * h0 * t + shift
        r = w ** 2 + b
        return w, np.where(r > 0.0, r, np.nan)

    return dom, at


def sqrt_profile(h0: float, shift: float, b: int) -> ScalarC2:
    """p = sqrt(w^2 + b)/(2 h0), w = 2*h0*t + shift, on the domain of
    `radicand`: the square-root family's graph before its shift and split,
    with slope p' = w/sqrt(w^2 + b)."""
    dom, at = radicand(h0, shift, b)

    def jet(t):
        w, r = at(t)
        root = np.sqrt(r)
        return root / (2.0 * h0), w / root, 2.0 * h0 * b / r ** 1.5

    return ScalarC2(jet, dom)


def log_profile(h0: float, rate: float, shift: float, b: int) -> ScalarC2:
    """phi = (rate/(2 h0)) sqrt(w^2 + b), w = 2*h0*t + shift, on the domain
    of `radicand`: the exponent of the exponential family's g = exp(phi),
    with phi' = rate*w/sqrt(w^2 + b)."""
    dom, at = radicand(h0, shift, b)

    def jet(t):
        w, r = at(t)
        root = np.sqrt(r)
        return rate / (2.0 * h0) * root, rate * w / root, 2.0 * h0 * rate * b / r ** 1.5

    return ScalarC2(jet, dom)


def thm32_family(h0: float, lam1: float = 0.0, lam2: float = 0.0,
                 f0: float = 1.0, causal: Causal = "timelike") -> FactorableSurface:
    """Sqrt family with constant |H| == |h0| (first kind).

    z = f0*g(y) with f0 constant; the split is internal, the graph is
    z(y) = (1/(2 h0)) sqrt((2 h0 y + lam1)^2 + b) + lam2 where b = +1 for
    the 'timelike'-named variant and -1 for the 'spacelike'-named one.
    The signed mean curvature the pipeline measures is b*h0.
    """
    if f0 == 0.0 or not math.isfinite(f0):
        raise InvalidParams("f0 must be a nonzero finite real")
    _require_finite(lam1=lam1, lam2=lam2)
    p = sqrt_profile(h0, lam1, _branch_sign(causal))

    def g(y):
        v, v1, v2 = p.jet(y)
        return (v + lam2) / f0, v1 / f0, v2 / f0

    return FactorableSurface(KIND_FIRST, ScalarC2.constant(f0), ScalarC2(g, p.domain))


def thm42_family(h0: float, lam1: float = 1.0, lam2: float = 1.0,
                 lam3: float = 0.0, causal: Causal = "timelike") -> FactorableSurface:
    """Exponential family with constant |H| == |h0| (second kind).

    f(y) = lam1*exp(lam2 y) and g(z) = exp((lam2/(2 h0)) sqrt(w^2 + b)),
    w = 2 h0 z + lam3, b = +1 ('timelike') or -1 ('spacelike').
    """
    _require_finite(lam1=lam1, lam2=lam2, lam3=lam3)
    if lam1 == 0.0 or lam2 == 0.0:
        raise InvalidParams("lam1 and lam2 must be nonzero")
    phi = log_profile(h0, lam2, lam3, _branch_sign(causal))

    def f(y):
        e = np.exp(lam2 * y)
        return lam1 * e, lam1 * lam2 * e, lam1 * lam2 * lam2 * e

    def g(z):
        v, v1, v2 = phi.jet(z)
        e = np.exp(v)
        return e, v1 * e, (v2 + v1 ** 2) * e

    return FactorableSurface(KIND_SECOND, ScalarC2(f), ScalarC2(g, phi.domain))


def _linear() -> FactorableSurface:
    """Fixture z = 2(y+3): a plane, flat and minimal."""
    return FactorableSurface(KIND_FIRST, ScalarC2.constant(2.0), ScalarC2.linear(1.0, 3.0))


def _saddle() -> FactorableSurface:
    """Fixture z = xy: minimal; K = -1 at the origin, non-constant."""
    return FactorableSurface(KIND_FIRST, ScalarC2.linear(1.0, 0.0), ScalarC2.linear(1.0, 0.0))


def _exp_exp() -> FactorableSurface:
    """Fixture x = exp(y)exp(z), the equal-rate exponential graph: W == 0
    for the pipeline, so it is lightlike there; its K = 0 comes from the
    documented flat-limit convention of the closed formulas."""
    exp1 = ScalarC2(lambda t: (np.exp(t),) * 3)
    return FactorableSurface(KIND_SECOND, exp1, exp1)


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


# a row of `FAMILIES`; a fixture has no field (`K` or `absH`) and no sampler
Family = namedtuple("Family", "build field sample", defaults=(None, None))
FAMILIES = {
    "thm31": Family(thm31_family, "K", lambda rng, causal: {
        "k0": _signed_magnitude(rng),
        "lam1": float(rng.uniform(-2, 2)),
        "lam2": float(rng.uniform(-2, 2)),
        "sign": 1 if rng.random() < 0.5 else -1,
    }),
    "thm32": Family(thm32_family, "absH", lambda rng, causal: {
        "h0": _signed_magnitude(rng),
        "lam1": float(rng.uniform(-2, 2)),
        "lam2": float(rng.uniform(-2, 2)),
        "f0": _signed_magnitude(rng, 0.5, 2.0),
        "causal": causal,
    }),
    "thm42": Family(thm42_family, "absH", lambda rng, causal: {
        "h0": _signed_magnitude(rng),
        "lam1": _bounded_away(rng),
        "lam2": _bounded_away(rng),
        "lam3": float(rng.uniform(-2, 2)),
        "causal": causal,
    }),
    "linear": Family(_linear),
    "saddle": Family(_saddle),
    "exp_exp": Family(_exp_exp),
}


# each row's constructor parameters, read once: a signature read per
# `family_surface` call costs more than building the surface
_PARAMETERS = {name: inspect.signature(row.build, eval_str=True).parameters
               for name, row in FAMILIES.items()}
# what a constructor parameter annotated `float` or `int` takes
_NUMBERS = {float: (numbers.Real, "a real number"), int: (numbers.Integral, "an integer")}


def family_surface(name: str, params: dict | None = None) -> FactorableSurface:
    """Build a family or fixture surface by name.  `params` holds keyword
    arguments of its constructor, a real number for each `float` parameter
    and an integer for each `int` one; any other key or value raises
    `InvalidParams`, as the constructor's own checks do."""
    if name not in FAMILIES:
        raise InvalidParams(f"unknown family {name!r}; expected one of {tuple(FAMILIES)}")
    known = _PARAMETERS[name]
    for key, value in (params or {}).items():
        if key not in known:
            raise InvalidParams(f"{name!r} takes no parameter {key!r}; "
                                f"known: {', '.join(known) or 'none'}")
        number = _NUMBERS.get(known[key].annotation)
        if number and (isinstance(value, bool) or not isinstance(value, number[0])):
            raise InvalidParams(f"{name!r} parameter {key!r} must be {number[1]}, got {value!r}")
    return FAMILIES[name].build(**(params or {}))


def sample_params(family: str, rng: np.random.Generator, causal: Causal = "timelike") -> dict:
    """Random constructor kwargs: log-uniform magnitudes in [0.1, 10] for
    k0/h0, shifts in [-2, 2]; rate-like parameters stay away from zero."""
    if family not in FAMILIES or FAMILIES[family].sample is None:
        raise InvalidParams(f"no parameter sampler for {family!r}")
    return FAMILIES[family].sample(rng, causal)


def perturb_exponent(s: FactorableSurface, scale: float) -> FactorableSurface:
    """Replace g by g**scale; g must be positive wherever it is evaluated,
    else the evaluation raises InvalidParams (the surface cannot take the
    perturbation there).

    Used to break the constant-curvature property deliberately; scale 1.0
    returns an equivalent surface.
    """
    base = s.g.jet

    def g(t):
        gv, gp, gpp = base(t)
        if np.any(gv <= 0.0):
            raise InvalidParams("exponent perturbation requires g > 0")
        return (gv ** scale, scale * gv ** (scale - 1.0) * gp,
                scale * (scale - 1.0) * gv ** (scale - 2.0) * gp ** 2
                + scale * gv ** (scale - 1.0) * gpp)

    return FactorableSurface(s.kind, s.f, ScalarC2(g, s.g.domain))
