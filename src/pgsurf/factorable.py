"""Factorable surfaces and their specialized curvature formulas.

Two kinds exist here: first kind z(x, y) = f(x)*g(y) and second kind
x(y, z) = f(y)*g(z).  The closed curvature formulas are

    first:   K = (f*g*f''*g'' - (f'*g')^2) / (1 - (f*g')^2)^2
             H = f*g'' / (2*|1 - (f*g')^2|^(3/2))
    second:  K = (f*g*f''*g'' - (f'*g')^2) / ((f*g')^2 - (f'*g)^2)^2
             H = ((f*g')^2*f''*g - 2*f*g*(f'*g')^2 + (f'*g)^2*f*g'')
                 / (2*|(f*g')^2 - (f'*g)^2|^(3/2))

`closed_K` and `closed_H` are the one implementation of these, over
arrays of profile values; `specialized_grid` sweeps them, with eps and W
of their one denominator by the pipeline's rule, and shares no curvature
kernel with `pipeline_grid`, the general pipeline's sweep.  Both sweep a
block of the grid, the whole grid by default; `row_spans` cuts a grid
into bounded blocks, so a command streams a large grid, and its text,
block by block.  Neither computes positions.  The general pipeline
computes K with an extra factor -eps relative to these and H with factor
+1 (proven in tests/test_sign_contract.py, see README, "Sign
conventions"); `cross_check` compares two sweeps under these factors.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GridRejected, InvalidParams
from .surface import FD_STEP, curvature_arrays, fd_components, sign_and_norm, spare

__all__ = [
    "ScalarC2",
    "FactorableSurface",
    "GridSpec",
    "closed_K",
    "closed_H",
    "jet_component_arrays",
    "row_spans",
    "pipeline_grid",
    "specialized_grid",
    "cross_check",
    "KIND_FIRST",
    "KIND_SECOND",
]

KIND_FIRST = "first"
KIND_SECOND = "second"

# Denominator deadband of the first kind's closed formulas (scale-aware).
_DENOM_TOL = 1e-12
# The second kind's D = qa - qb is zero within gamma_3 * (qa + qb), the
# rounding bound of its three operations, u = 2**-53 the unit roundoff.
_GAMMA3 = 3 * 2.0**-53 / (1 - 3 * 2.0**-53)
# ... and below 2**-511, where D**2 underflows: K and H would divide by a
# subnormal or zero D**2 or |D|**1.5, a NaN or infinite value not undefined.
_TINY_D = 2.0**-511
# Numerator deadband for the documented flat-limit convention (second kind).
_FLAT_TOL = 1e-12
# `default_grid`'s clearance from a domain end, a share of the axis's width.
_MARGIN = 0.05

_INF = float("inf")


@dataclass(frozen=True)
class ScalarC2:
    """Twice-differentiable scalar function given by its 2-jet.

    `jet(t)` returns the tuple (f, f', f'') at t and must accept numpy
    arrays.  `domain` is the open interval on which `jet` is valid;
    infinite ends are allowed.  Calling the profile, `deriv` and `deriv2`
    are one-component views of `jet`.
    """

    jet: Callable
    domain: tuple[float, float] = (-_INF, _INF)

    def __call__(self, t):
        return self.jet(np.asarray(t, dtype=float))[0]

    def deriv(self, t):
        return self.jet(np.asarray(t, dtype=float))[1]

    def deriv2(self, t):
        return self.jet(np.asarray(t, dtype=float))[2]

    @staticmethod
    def constant(c: float) -> "ScalarC2":
        return ScalarC2(lambda t: (c + 0.0 * t, 0.0 * t, 0.0 * t))

    @staticmethod
    def linear(a: float, b: float = 0.0) -> "ScalarC2":
        """t -> a*t + b."""
        return ScalarC2(lambda t: (a * t + b, a + 0.0 * t, 0.0 * t))


@dataclass(frozen=True)
class FactorableSurface:
    """Pair (f, g) with a kind tag selecting the graph direction.

    First kind is parametrized by (x, y), second kind by (y, z); both
    parametrizations keep the two graph coordinates as parameters, so the
    analytic jets of `jet_component_arrays` are exact once f and g carry
    analytic derivatives.
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
        """Position components (x, y, z) for array parameters, placed by
        `_place`: the two parameter components are read-only views of u1
        and u2 in their own shapes, the product f(u1)*g(u2) takes their
        broadcast shape.  A u1 column and a u2 row keep their axes, so
        `fd_components` differences each coordinate on its own axis."""
        u1, u2 = (np.asarray(u, dtype=float).view() for u in (u1, u2))
        u1.flags.writeable = u2.flags.writeable = False
        return _place(self.kind, u1, u2, self.f(u1) * self.g(u2))


def _place(kind: str, a, b, prod) -> tuple:
    """(x, y, z) of the u1 coordinate `a`, the u2 coordinate `b` and the
    product f*g: the product is z on the first kind, x on the second."""
    return (a, b, prod) if kind == KIND_FIRST else (prod, a, b)


# ---------------------------------------------------------------------------
# Closed formulas
# ---------------------------------------------------------------------------

def _square(t, shape: tuple):
    """t ** 2 of a temporary `t`, written over `t` where `spare` allows;
    numpy's ** squares an array with np.square."""
    out = spare(t, shape)
    return t ** 2 if out is None else np.square(t, out=out)


def _denominator(kind: str, parts, shape: tuple):
    """The base D of both closed denominators, a safe D (D itself, or 1
    where D vanishes), its vanishing mask, whether it vanishes anywhere
    and the squares qa = (f g')^2, qb = (f' g)^2 (qb only for the second
    kind), over the profile values `parts` of the broadcast `shape`.

    D = 1 - qa (first kind) or qa - qb (second kind).  The first kind's D
    counts as zero below a deadband scaled by the larger of 1 and qa.  The
    second kind's counts as zero only within the rounding bound of its
    terms, |D| <= gamma_3 * (qa + qb), or where D**2 underflows, |D| <=
    2**-511: its K and H obey a scaling law (D -> a^2 b^2 D under (f, g)
    -> (a f, b g)), and scaling by powers of two leaves this test as it
    is while D stays above that floor.
    """
    fv, f1, _, gv, g1, _ = parts
    qa = _square(fv * g1, shape)
    if kind == KIND_FIRST:
        qb = None
        den, scale = 1.0 - qa, np.maximum(1.0, qa)
        bound = np.multiply(_DENOM_TOL, scale, out=spare(scale, shape))
    else:
        qb = _square(f1 * gv, shape)
        den, bound = qa - qb, qa + qb
        bound = np.multiply(_GAMMA3, bound, out=spare(bound, shape))
        bound = np.maximum(bound, _TINY_D, out=spare(bound, shape))
    den_zero = np.abs(den) <= bound
    vanishes = den_zero.any()
    safe = np.where(den_zero, 1.0, den) if vanishes else den
    return den, safe, den_zero, vanishes, qa, qb


def _quotient(num, terms, divisor, den_zero, vanishes, shape: tuple):
    """num / divisor, a power of the safe D, and its undefined mask.

    Where D vanishes the value is undefined (NaN), except where the
    numerator vanishes too, relative to the sum of the magnitudes of its
    `terms`: there it takes the flat limit 0.  With `terms` None (the
    first kind) there is no flat limit.  The quotient is written over
    `divisor`, or over `num` where D vanishes nowhere, both temporaries of
    the caller's (`num` none of its `terms`); the safe D is D there, so
    the bits are those of the masked path.
    """
    if not vanishes:
        return np.divide(num, divisor, out=spare(num, shape)), den_zero
    value = np.divide(num, divisor, out=spare(divisor, shape))
    if terms is None:
        return np.where(den_zero, np.nan, value), den_zero
    num_scale = sum(np.abs(t) for t in terms)
    flat = den_zero & (np.abs(num) <= _FLAT_TOL * np.maximum(1.0, num_scale))
    undefined = den_zero & ~flat
    return np.where(undefined, np.nan, np.where(flat, 0.0, value)), undefined


def _product(a, b, c, shape: tuple):
    """a * b * c, the second product written over the first where `spare`
    allows."""
    t = a * b
    return np.multiply(t, c, out=spare(t, shape))


def _closed_K(kind: str, parts, den, shape: tuple):
    """`closed_K` over the profile values `parts`, of the broadcast
    `shape`, and their `_denominator`."""
    fv, f1, f2, gv, g1, g2 = parts
    # K reads neither qa nor qb: dropping the tuple frees them before K's
    # temporaries where no caller holds it (a call from `_closed`)
    safe, den_zero, vanishes = den[1:4]
    del den
    lead = _product(fv, gv, f2, shape)
    lead = np.multiply(lead, g2, out=spare(lead, shape))
    cross = _square(f1 * g1, shape)
    # the second kind's terms are kept for its flat limit
    terms = (lead, cross) if kind == KIND_SECOND else None
    num = np.subtract(lead, cross, out=None if terms else spare(lead, shape))
    return _quotient(num, terms, np.square(safe), den_zero, vanishes, shape)


def _closed_H(kind: str, parts, den, shape: tuple):
    """`closed_H` over the profile values `parts`, of the broadcast
    `shape`, and their `_denominator`."""
    fv, f1, f2, gv, g1, g2 = parts
    _, safe, den_zero, vanishes, qa, qb = den
    if kind == KIND_FIRST:
        num, terms = fv * g2, None
    else:
        t1 = _product(qa, f2, gv, shape)
        t2 = _product(2.0, fv, gv, shape)
        t2 = np.multiply(t2, _square(f1 * g1, shape), out=spare(t2, shape))
        t3 = _product(qb, fv, g2, shape)
        terms = t1, t2, t3
        num = t1 - t2
        num = np.add(num, t3, out=spare(num, shape))
    # 2.0 * np.abs(safe) ** 1.5, over a new array
    t = np.abs(safe)
    out = spare(t, shape)
    t = t ** 1.5 if out is None else np.power(t, 1.5, out=out)
    return _quotient(num, terms, np.multiply(2.0, t, out=spare(t, shape)), den_zero, vanishes, shape)


def _closed(kernel, kind: str, parts):
    """`kernel`, `_closed_K` or `_closed_H`, over the profile values
    `parts`, scalars or arrays, at their broadcast shape."""
    shape = np.broadcast(*parts).shape
    return kernel(kind, parts, _denominator(kind, parts, shape), shape)


@np.errstate(all="ignore")
def closed_K(kind: str, fv, f1, f2, gv, g1, g2):
    """Closed-formula Gaussian curvature over arrays of the profile values
    f, f', f'', g, g', g'': (K, undefined), K NaN where undefined.  Only
    a block where D vanishes somewhere pays for the masking (`_quotient`).
    Overflow ends as a non-finite K, silently."""
    return _closed(_closed_K, kind, (fv, f1, f2, gv, g1, g2))


@np.errstate(all="ignore")
def closed_H(kind: str, fv, f1, f2, gv, g1, g2):
    """Closed-formula mean curvature over arrays of the profile values:
    (H, undefined), H NaN where undefined; |D|^(3/2) covers timelike
    patches.  Only a block where D vanishes somewhere pays for the
    masking, as in `closed_K`.  Overflow ends as a non-finite H, silently."""
    return _closed(_closed_H, kind, (fv, f1, f2, gv, g1, g2))


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
            # a finite width keeps every linspace node finite
            if not (math.isfinite(hi - lo) and lo < hi):
                raise InvalidParams(f"grid range must be finite and increasing, got ({lo}, {hi})")
        if self.n1 < 2 or self.n2 < 2:
            raise InvalidParams("grid resolution must be >= 2 per axis")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The u1 and u2 nodes, read-only arrays built once, on first use:
        a spec is made before its size is checked."""
        return self._nodes

    @functools.cached_property
    def _nodes(self) -> tuple[np.ndarray, np.ndarray]:
        nodes = np.linspace(*self.u1, self.n1), np.linspace(*self.u2, self.n2)
        for axis in nodes:
            axis.flags.writeable = False
        return nodes


def _clip_axis(dom: tuple[float, float], span: float) -> tuple[float, float]:
    lo, hi = dom
    if math.isinf(lo) and math.isinf(hi):
        return (-span / 2.0, span / 2.0)
    if math.isinf(hi):
        lo = lo + _MARGIN * span
        return (lo, lo + span)
    if math.isinf(lo):
        hi = hi - _MARGIN * span
        return (hi - span, hi)
    pad = _MARGIN * (hi - lo)
    return (lo + pad, hi - pad)


def default_grid(s: FactorableSurface, n1: int = 20, n2: int = 20,
                 span: float = 3.0) -> GridSpec:
    """Finite grid inside the surface domain, keeping `_MARGIN` from the
    domain ends (radicand zeros sit exactly on those ends for the built-in
    families)."""
    (d1, d2) = s.domain
    return GridSpec(_clip_axis(d1, span), _clip_axis(d2, span), n1, n2)


def _analytic_components(kind: str, parts, shape: tuple) -> dict:
    """The analytic jet components x1..z22 from the profile values `parts`
    (f, f', f'', g, g', g''), of the broadcast `shape`: per slot, the
    partials of the u1 coordinate, the u2 coordinate and the product,
    placed by `_place`; see `jet_component_arrays`."""
    fv, f1, f2, gv, g1, g2 = parts
    zero, one = np.zeros(()), np.ones(())

    def product(a, b):
        # `+ zero` turns a product of -0.0 into +0.0, so a curvature that
        # is zero prints as 0, not -0
        t = a * b
        return np.add(t, zero, out=spare(t, shape))

    slots = {"1": (one, zero, product(f1, gv)), "2": (zero, one, product(fv, g1)),
             "11": (zero, zero, product(f2, gv)), "12": (zero, zero, product(f1, g1)),
             "22": (zero, zero, product(fv, g2))}
    return {f"{axis}{slot}": v for slot, (a, b, prod) in slots.items()
            for axis, v in zip("xyz", _place(kind, a, b, prod))}


@np.errstate(all="ignore")
def jet_component_arrays(s: FactorableSurface, U1, U2,
                         mode: str = "analytic", fd_step: float = FD_STEP) -> dict:
    """Component arrays x1..z22 over broadcast-compatible parameter arrays,
    analytic or FD.  The analytic components that are 0 or 1 everywhere
    are 0-d arrays; the FD partials of a parameter coordinate along its
    own axis keep its shape (U1's or U2's); the others take the broadcast
    shape of U1 and U2.  A profile value that overflows ends as a
    non-finite component, silently."""
    U1 = np.asarray(U1, dtype=float)
    U2 = np.asarray(U2, dtype=float)
    if mode == "analytic":
        return _analytic_components(s.kind, s.f.jet(U1) + s.g.jet(U2), np.broadcast(U1, U2).shape)
    if mode != "fd":
        raise InvalidParams(f"mode must be 'analytic' or 'fd', got {mode!r}")

    return fd_components(s.value_arrays, U1, U2, fd_step)


# Grid points per block of `row_spans`: a block's kernel temporaries and
# its text stay small enough to be reused from cache.
_BLOCK_POINTS = 2 ** 15


def row_spans(n1: int, n2: int, points: Optional[int] = None):
    """An n1 x n2 grid in blocks of at most `points` (`_BLOCK_POINTS`)
    points, in C order: a `(rows, cols)` pair of slices per block, as many
    whole rows as fit, or a span of one row where the row is longer: the
    `block`s of the sweeps, and `render`'s chunks of text."""
    points = points or _BLOCK_POINTS
    step = max(1, points // n2)
    for i, j in itertools.product(range(0, n1, step), range(0, n2, points)):
        yield slice(i, i + step), slice(j, j + points)


def _axes(grid: GridSpec, block: tuple[slice, slice]):
    """The `block`'s u1 values as a column and u2 values as a row, and the
    U1, U2 entries of a sweep, read-only views of them broadcast over the
    block.  f depends only on u1 and g only on u2, so each profile is
    evaluated on its own axis; the kernels broadcast it point by point, so
    a sweep of a block is that block of the whole sweep bit for bit."""
    rows, cols = block
    a1, a2 = grid.axes()
    u1, u2 = a1[rows, None], a2[None, cols]
    shape = (u1.size, u2.size)
    return u1, u2, {"U1": np.broadcast_to(u1, shape), "U2": np.broadcast_to(u2, shape)}


def _excluded(K, H, shape: tuple):
    """The exclusion mask of both sweeps of a block of `shape`: where K or
    H is not finite."""
    ok = np.isfinite(K)
    ok = np.bitwise_and(ok, np.isfinite(H), out=spare(ok, shape))
    return np.invert(ok, out=spare(ok, shape))


def pipeline_grid(s: FactorableSurface, grid: GridSpec, mode: str = "analytic",
                  fd_step: float = FD_STEP, block: tuple[slice, slice] = np.s_[:, :]) -> dict:
    """General-pipeline sweep of the grid `block`: U1, U2, K, H, eps, W,
    the mask of the lightlike and inadmissible points and the exclusion
    mask; a point is excluded where its K or H is not finite, as in
    `specialized_grid`, which covers the masked points (NaN there).  No
    positions: `FactorableSurface.value_arrays` gives them."""
    u1, u2, params = _axes(grid, block)
    out = curvature_arrays(jet_component_arrays(s, u1, u2, mode=mode, fd_step=fd_step))
    K, H = out["K"], out["H"]
    return {**params, "K": K, "H": H, "eps": out["eps"], "W": out["W"],
            "masked": out["lightlike"] | out["inadmissible"],
            "excluded": _excluded(K, H, params["U1"].shape)}


@np.errstate(all="ignore")
def specialized_grid(s: FactorableSurface, grid: GridSpec,
                     block: tuple[slice, slice] = np.s_[:, :]) -> dict:
    """Closed-formula sweep of the grid `block`: U1, U2, K, H, eps, W,
    the mask of the points where D vanishes and the exclusion mask, no
    positions.  K and H share one closed denominator D, which is the
    pipeline's q = Y^2 - Z^2 (proven in tests/test_sign_contract.py), so
    `sign_and_norm` of D gives the pipeline's eps and W, and D vanishes at
    the lightlike and inadmissible points.  A point is excluded where K
    or H is not finite, which covers the undefined points (NaN there)."""
    u1, u2, params = _axes(grid, block)
    shape = params["U1"].shape
    parts = s.f.jet(u1) + s.g.jet(u2)
    den = _denominator(s.kind, parts, shape)
    K, _ = _closed_K(s.kind, parts, den, shape)
    H, _ = _closed_H(s.kind, parts, den, shape)
    eps, W = sign_and_norm(den[0], shape)
    return {**params, "K": K, "H": H, "eps": eps, "W": W, "masked": den[2],
            "excluded": _excluded(K, H, shape)}


# ---------------------------------------------------------------------------
# Cross-check between specialized formulas and the general pipeline
# ---------------------------------------------------------------------------

def cross_check(pipe: dict, closed: dict) -> float:
    """The largest gap of a `pipeline_grid` sweep from the `specialized_grid`
    sweep of the same grid under the proven contract K_pipeline =
    -eps*K_closed, H_pipeline = H_closed: the largest of
    |K_pipe + eps*K_closed| and |H_pipe - H_closed| over the grid, eps the
    closed sweep's (the two sweeps' eps are equal, proven in
    tests/test_sign_contract.py).

    Raises GridRejected when either sweep excludes a point.  The reason
    is that of the first such point in row-major order: either sweep's
    `masked`, a lightlike or inadmissible point, else a K or H that is
    not finite.
    """
    if np.any(pipe["excluded"]) or np.any(closed["excluded"]):
        first = np.argmax(pipe["excluded"] | closed["excluded"])
        if pipe["masked"].flat[first] or closed["masked"].flat[first]:
            raise GridRejected("grid crosses a lightlike or inadmissible locus")
        raise GridRejected("grid has a point where K or H is not finite")
    shape = pipe["U1"].shape
    k_gap = closed["eps"] * closed["K"]
    k_gap = np.add(pipe["K"], k_gap, out=spare(k_gap, shape))
    k_gap = np.max(np.abs(k_gap, out=spare(k_gap, shape)))
    h_gap = pipe["H"] - closed["H"]
    h_gap = np.max(np.abs(h_gap, out=spare(h_gap, shape)))
    return float(max(k_gap, h_gap))
