"""Factorable surfaces and their specialized curvature formulas.

Two kinds exist here: first kind z(x, y) = f(x)*g(y) and second kind
x(y, z) = f(y)*g(z).  The closed curvature formulas are

    first:   K = (f*g*f''*g'' - (f'*g')^2) / (1 - (f*g')^2)^2
             H = f*g'' / (2*|1 - (f*g')^2|^(3/2))
    second:  K = (f*g*f''*g'' - (f'*g')^2) / ((f*g')^2 - (f'*g)^2)^2
             H = ((f*g')^2*f''*g - 2*f*g*(f'*g')^2 + (f'*g)^2*f*g'')
                 / (2*|(f*g')^2 - (f'*g)^2|^(3/2))

`closed_K` and `closed_H` are the one implementation of these, over
arrays of profile values; `specialized_grid` sweeps them, and takes
eps and W from the same denominator, so it shares no kernel with
`pipeline_grid`, the sweep of the general pipeline of `surface`.  Both
sweep a block of the grid, the whole grid by default; `row_spans` cuts
a grid into bounded blocks, so a command streams a large grid, and its
text, block by block.  Neither computes positions.  The general pipeline
computes K with an extra factor -eps relative to these and H with
factor +1 (proven in tests/test_sign_contract.py, see README, "Sign
conventions"); `cross_check` compares two sweeps under these factors.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridRejected, InvalidParams
from .surface import FD_STEP, curvature_arrays, fd_components

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

# Denominator deadband for the specialized formulas (scale-aware).
_DENOM_TOL = 1e-12
# Numerator deadband for the documented flat-limit convention (second kind).
_FLAT_TOL = 1e-12

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
        `_place`; the two parameter components are read-only views of u1
        and u2 broadcast to the shape of the product."""
        u1 = np.asarray(u1, dtype=float)
        u2 = np.asarray(u2, dtype=float)
        prod = self.f(u1) * self.g(u2)
        return _place(self.kind, *(np.broadcast_to(u, prod.shape) for u in (u1, u2)), prod)


def _place(kind: str, a, b, prod) -> tuple:
    """(x, y, z) of the u1 coordinate `a`, the u2 coordinate `b` and the
    product f*g: the product is z on the first kind, x on the second."""
    return (a, b, prod) if kind == KIND_FIRST else (prod, a, b)


# ---------------------------------------------------------------------------
# Closed formulas
# ---------------------------------------------------------------------------

def _parts(s: FactorableSurface, u1, u2):
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    return s.f.jet(u1) + s.g.jet(u2)


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


def _quotient(num, terms, den, den_zero, power):
    """num / power(D) and its undefined mask.

    Where D vanishes the value is undefined (NaN), except where the
    numerator vanishes too, relative to the sum of the magnitudes of its
    `terms`: there it takes the flat limit 0.  With `terms` None (the
    first kind) there is no flat limit.  A block where D vanishes nowhere
    returns num / power(D) directly: each substitution is the identity
    there, so the bits are those of the masked path.
    """
    if not den_zero.any():
        return num / power(den), den_zero
    value = num / power(np.where(den_zero, 1.0, den))
    if terms is None:
        return np.where(den_zero, np.nan, value), den_zero
    num_scale = sum(np.abs(t) for t in terms)
    flat = den_zero & (np.abs(num) <= _FLAT_TOL * np.maximum(1.0, num_scale))
    undefined = den_zero & ~flat
    return np.where(undefined, np.nan, np.where(flat, 0.0, value)), undefined


def _closed_K(kind: str, parts, den):
    """`closed_K` over the profile values `parts` and their `_denominator`."""
    fv, f1, f2, gv, g1, g2 = parts
    lead, cross = fv * gv * f2 * g2, (f1 * g1) ** 2
    den, den_zero, _, _ = den
    terms = (lead, cross) if kind == KIND_SECOND else None
    return _quotient(lead - cross, terms, den, den_zero, np.square)


def _closed_H(kind: str, parts, den):
    """`closed_H` over the profile values `parts` and their `_denominator`."""
    fv, f1, f2, gv, g1, g2 = parts
    den, den_zero, qa, qb = den
    if kind == KIND_FIRST:
        num, terms = fv * g2, None
    else:
        terms = t1, t2, t3 = qa * f2 * gv, 2.0 * fv * gv * (f1 * g1) ** 2, qb * fv * g2
        num = t1 - t2 + t3
    return _quotient(num, terms, den, den_zero, lambda d: 2.0 * np.abs(d) ** 1.5)


@np.errstate(all="ignore")
def closed_K(kind: str, fv, f1, f2, gv, g1, g2):
    """Closed-formula Gaussian curvature over arrays of the profile values
    f, f', f'', g, g', g'': (K, undefined), K NaN where undefined.  Only
    a block where D vanishes somewhere pays for the masking (`_quotient`).
    Overflow ends as a non-finite K, silently."""
    return _closed_K(kind, (fv, f1, f2, gv, g1, g2), _denominator(kind, fv, f1, gv, g1))


@np.errstate(all="ignore")
def closed_H(kind: str, fv, f1, f2, gv, g1, g2):
    """Closed-formula mean curvature over arrays of the profile values:
    (H, undefined), H NaN where undefined; |D|^(3/2) covers timelike
    patches.  Only a block where D vanishes somewhere pays for the
    masking, as in `closed_K`.  Overflow ends as a non-finite H, silently."""
    return _closed_H(kind, (fv, f1, f2, gv, g1, g2), _denominator(kind, fv, f1, gv, g1))


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


def _analytic_components(kind: str, parts) -> dict:
    """The analytic jet components x1..z22 from the profile values `parts`
    (f, f', f'', g, g', g''): per slot, the partials of the u1 coordinate,
    the u2 coordinate and the product, placed by `_place`; see
    `jet_component_arrays`."""
    fv, f1, f2, gv, g1, g2 = parts
    zero, one = np.zeros(()), np.ones(())
    # `+ zero` as each product is formed frees its temporary at once
    slots = {"1": (one, zero, f1 * gv + zero), "2": (zero, one, fv * g1 + zero),
             "11": (zero, zero, f2 * gv + zero), "12": (zero, zero, f1 * g1 + zero),
             "22": (zero, zero, fv * g2 + zero)}
    return {f"{axis}{slot}": v for slot, (a, b, prod) in slots.items()
            for axis, v in zip("xyz", _place(kind, a, b, prod))}


@np.errstate(all="ignore")
def jet_component_arrays(s: FactorableSurface, U1, U2,
                         mode: str = "analytic", fd_step: float = FD_STEP) -> dict:
    """Component arrays x1..z22 over broadcast-compatible parameter arrays,
    analytic or FD.  The analytic components that are 0 or 1 everywhere
    are 0-d arrays; the others take the broadcast shape of U1 and U2.  A
    profile value that overflows ends as a non-finite component, silently."""
    U1 = np.asarray(U1, dtype=float)
    U2 = np.asarray(U2, dtype=float)
    if mode == "analytic":
        return _analytic_components(s.kind, _parts(s, U1, U2))
    if mode != "fd":
        raise InvalidParams(f"mode must be 'analytic' or 'fd', got {mode!r}")

    return fd_components(s.value_arrays, U1, U2, fd_step)[1]


# Grid points per block of `row_spans`: a block's kernel temporaries and
# its text stay small enough to be reused from cache.
_BLOCK_POINTS = 2 ** 15


def row_spans(n1: int, n2: int):
    """An n1 x n2 grid in blocks of at most `_BLOCK_POINTS` points, in C
    order: a `(rows, cols)` pair of slices per block, as many whole rows as
    fit, or a span of one row where the row is longer: the `block`s of
    `pipeline_grid` and `specialized_grid`, and of a mesh's faces."""
    step = max(1, _BLOCK_POINTS // n2)
    for i, j in itertools.product(range(0, n1, step), range(0, n2, _BLOCK_POINTS)):
        yield slice(i, i + step), slice(j, j + _BLOCK_POINTS)


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


@np.errstate(all="ignore")
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
            "excluded": ~(np.isfinite(K) & np.isfinite(H))}


@np.errstate(all="ignore")
def specialized_grid(s: FactorableSurface, grid: GridSpec,
                     block: tuple[slice, slice] = np.s_[:, :]) -> dict:
    """Closed-formula sweep of the grid `block`: U1, U2, K, H, eps, W and
    the exclusion mask, no positions.  K and H share one closed
    denominator D, which is the pipeline's q = Y^2 - Z^2 (proven in
    tests/test_sign_contract.py), so eps = sign of D (-1 where D <= 0)
    and W = sqrt(|D|) are the pipeline's.  A point is excluded where K
    or H is not finite, which covers the undefined points (NaN there)."""
    u1, u2, params = _axes(grid, block)
    parts = _parts(s, u1, u2)
    fv, f1, _, gv, g1, _ = parts
    den = _denominator(s.kind, fv, f1, gv, g1)
    K, _ = _closed_K(s.kind, parts, den)
    H, _ = _closed_H(s.kind, parts, den)
    D = den[0]
    return {**params, "K": K, "H": H, "eps": np.where(D > 0.0, 1.0, -1.0), "W": np.sqrt(np.abs(D)),
            "excluded": ~(np.isfinite(K) & np.isfinite(H))}


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
    is that of the first such point in row-major order: the pipeline's
    lightlike or inadmissible mask, else a K or H that is not finite.
    """
    if np.any(pipe["excluded"]) or np.any(closed["excluded"]):
        first = np.argmax(pipe["excluded"] | closed["excluded"])
        if pipe["masked"].flat[first]:
            raise GridRejected("grid crosses a lightlike or inadmissible locus")
        raise GridRejected("grid has a point where K or H is not finite")
    k_gap = np.max(np.abs(pipe["K"] + closed["eps"] * closed["K"]))
    h_gap = np.max(np.abs(pipe["H"] - closed["H"]))
    return float(max(k_gap, h_gap))
