"""Curvature pipeline for admissible surfaces.

Everything downstream of a 2-jet lives here: first fundamental form, the
side tangent norm W, the causal sign epsilon with the normal N, the second
fundamental form, and the Gaussian and mean curvatures

    K = -eps * (L11*L22 - L12^2) / W^2
    H = -eps * (g2^2*L11 - 2*g1*g2*L12 + g1^2*L22) / (2*W^2)

`curvature_arrays` is the one implementation: it works on arrays of jet
components and returns masks for lightlike and inadmissible points.  The
scalar API (`fundamental_data`, `gaussian_curvature`, `mean_curvature`)
is a one-point call into it that raises at those points instead
(`require_unmasked`).  `transform_jet` moves jet component arrays by a
batch of motions in one broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import IsoVector, Motion
from .errors import InadmissiblePatch, LightlikeSurface

__all__ = [
    "Jet2",
    "FundamentalData",
    "FirstForm",
    "first_form",
    "fundamental_data",
    "gaussian_curvature",
    "mean_curvature",
    "transform_jet",
    "require_unmasked",
    "jet_components",
    "jet_from_components",
    "fd_components",
    "finite_difference_jet",
    "curvature_arrays",
    "W_TOL",
    "ADMISSIBLE_TOL",
    "FD_STEP",
]

W_TOL = 1e-10          # W below this counts as lightlike; curvature calls fail loudly
ADMISSIBLE_TOL = 1e-12  # |x_,i| threshold for admissibility
FD_STEP = 1e-4          # default finite-difference step scale


@dataclass(frozen=True)
class Jet2:
    """Value and first/second partials of an immersion at one point.

    The single ``r12`` slot serves both mixed partials.
    """

    r: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    r11: np.ndarray
    r12: np.ndarray
    r22: np.ndarray

    def __post_init__(self):
        for name in ("r", "r1", "r2", "r11", "r12", "r22"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (3,):
                raise ValueError(f"Jet2.{name} must have shape (3,), got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"Jet2.{name} must be finite, got {arr}")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class FirstForm:
    """Coefficients of ds^2 = (g1 du1 + g2 du2)^2 on non-isotropic
    directions; h11, h12, h22 are those of the transverse part."""

    g1: float
    g2: float
    h11: float
    h12: float
    h22: float


@dataclass(frozen=True)
class FundamentalData:
    """Per-point bundle: first/second form coefficients, W, epsilon, N."""

    g1: float
    g2: float
    h11: float
    h12: float
    h22: float
    W: float
    epsilon: int
    N: IsoVector
    L11: float
    L12: float
    L22: float


def first_form(j: Jet2) -> FirstForm:
    """First fundamental form coefficients of a jet."""
    _, y1, z1 = j.r1
    _, y2, z2 = j.r2
    return FirstForm(
        g1=float(j.r1[0]),
        g2=float(j.r2[0]),
        h11=float(y1 * y1 + z1 * z1),
        h12=float(y1 * y2 + z1 * z2),
        h22=float(y2 * y2 + z2 * z2),
    )


_SLOTS = ("1", "2", "11", "12", "22")
_COMPONENT_KEYS = tuple(f"{axis}{slot}" for slot in _SLOTS for axis in "xyz")


def jet_components(jets: Sequence[Jet2]) -> dict:
    """The component arrays x1..z22 of `curvature_arrays`, one entry per jet."""
    d = np.array([(j.r1, j.r2, j.r11, j.r12, j.r22) for j in jets])
    return {f"{axis}{slot}": d[:, i, a] for i, slot in enumerate(_SLOTS)
            for a, axis in enumerate("xyz")}


def jet_from_components(r, comp: dict) -> Jet2:
    """The jet with value `r` and the one-point components x1..z22 of `comp`,
    each of one element in any shape."""
    return Jet2(r, *(np.concatenate([np.ravel(comp[f"{a}{s}"]) for a in "xyz"]) for s in _SLOTS))


def require_unmasked(out: dict, i) -> None:
    """Raise the scalar API's error if the `curvature_arrays` output `out`
    masks point `i`: `InadmissiblePatch` first, then `LightlikeSurface`."""
    if out["inadmissible"][i]:
        raise InadmissiblePatch("both x-partials vanish; patch is pseudo-Euclidean")
    if out["lightlike"][i]:
        raise LightlikeSurface(f"W = {out['W'][i]:.3e} below tolerance {W_TOL:.1e}; "
                               "curvature undefined")


def _at_point(j: Jet2) -> dict:
    """`curvature_arrays` of one jet; raises where it would mask the point."""
    out = curvature_arrays(jet_components([j]))
    require_unmasked(out, 0)
    return out


def fundamental_data(j: Jet2) -> FundamentalData:
    ff = first_form(j)
    out = _at_point(j)
    return FundamentalData(
        g1=ff.g1, g2=ff.g2, h11=ff.h11, h12=ff.h12, h22=ff.h22,
        W=float(out["W"][0]), epsilon=int(out["eps"][0]),
        N=IsoVector(float(out["ny"][0]), float(out["nz"][0])),
        L11=float(out["L11"][0]), L12=float(out["L12"][0]), L22=float(out["L22"][0]),
    )


def gaussian_curvature(j: Jet2) -> float:
    return float(_at_point(j)["K"][0])


def mean_curvature(j: Jet2) -> float:
    return float(_at_point(j)["H"][0])


def transform_jet(motions: Sequence[Motion], comp: dict) -> dict:
    """The jet components x1..z22 of `comp`, broadcast-compatible arrays
    whose broadcast shape is S, moved by each motion: read-only arrays of
    shape (len(motions), *S).

    A motion acts on every derivative by its linear part (`core.Motion`):
    x' = x, y' = a3*x + cosh(theta)*y + sinh(theta)*z and
    z' = a5*x + sinh(theta)*y + cosh(theta)*z.  Its translation moves only
    the value, which curvature does not read.  The moved x components are
    broadcast views of the input.
    """
    comp = {k: np.asarray(comp[k], dtype=float) for k in _COMPONENT_KEYS}
    shape = (len(motions),) + np.broadcast_shapes(*(v.shape for v in comp.values()))

    def column(values):
        return np.array(values, dtype=float).reshape((-1,) + (1,) * (len(shape) - 1))

    ch = column([math.cosh(m.theta) for m in motions])
    sh = column([math.sinh(m.theta) for m in motions])
    a3 = column([m.a3 for m in motions])
    a5 = column([m.a5 for m in motions])
    out = {}
    for s in _SLOTS:
        x, y, z = (comp[f"{axis}{s}"] for axis in "xyz")
        out[f"x{s}"] = np.broadcast_to(x, shape)
        out[f"y{s}"] = np.broadcast_to(a3 * x + ch * y + sh * z, shape)
        out[f"z{s}"] = np.broadcast_to(a5 * x + sh * y + ch * z, shape)
    return out


def fd_components(value: Callable, u1, u2, step: float = FD_STEP) -> tuple:
    """Central differences of `value(u1, u2) -> (x, y, z)` at scalar or
    array parameters: the value triple and the components x1..z22.

    Steps scale with the coordinate: h_i = step * max(1, |u_i|).  Second
    partials use the compact three-point / four-point cross stencils.
    """
    h1 = step * np.maximum(1.0, np.abs(u1))
    h2 = step * np.maximum(1.0, np.abs(u2))
    c = value(u1, u2)
    p0 = value(u1 + h1, u2)
    m0 = value(u1 - h1, u2)
    zp = value(u1, u2 + h2)
    zm = value(u1, u2 - h2)
    pp = value(u1 + h1, u2 + h2)
    pm = value(u1 + h1, u2 - h2)
    mp = value(u1 - h1, u2 + h2)
    mm = value(u1 - h1, u2 - h2)

    out = {}
    for i, axis in enumerate("xyz"):
        out[f"{axis}1"] = (p0[i] - m0[i]) / (2.0 * h1)
        out[f"{axis}2"] = (zp[i] - zm[i]) / (2.0 * h2)
        out[f"{axis}11"] = (p0[i] - 2.0 * c[i] + m0[i]) / h1 ** 2
        out[f"{axis}22"] = (zp[i] - 2.0 * c[i] + zm[i]) / h2 ** 2
        out[f"{axis}12"] = (pp[i] - pm[i] - mp[i] + mm[i]) / (4.0 * h1 * h2)
    return c, out


def finite_difference_jet(value: Callable[[float, float], np.ndarray],
                          u1: float, u2: float,
                          step: float = FD_STEP) -> Jet2:
    """Jet from the central differences of `fd_components`."""
    return jet_from_components(*fd_components(
        lambda a, b: np.asarray(value(a, b), dtype=float), u1, u2, step))


# ---------------------------------------------------------------------------
# Vectorized kernel
# ---------------------------------------------------------------------------

@np.errstate(all="ignore")
def curvature_arrays(comp: dict) -> dict:
    """Vectorized pipeline over arrays of jet components.

    `comp` maps the keys x1..z22 to broadcast-compatible arrays, so a
    component that is constant over the points may be a 0-d array and
    costs no per-point work.  Returns g1, g2, W, eps, ny, nz, L11, L12,
    L22, K, H plus boolean masks `lightlike` and `inadmissible`, each a
    read-only array of the broadcast shape of the components; K and H are
    NaN at masked points.  Floating-point warnings are silenced: overflow
    and invalid values end as non-finite K or H, which callers mask.
    """
    c = {k: np.asarray(comp[k], dtype=float) for k in _COMPONENT_KEYS}
    shape = np.broadcast_shapes(*(v.shape for v in c.values()))
    x1, y1, z1 = c["x1"], c["y1"], c["z1"]
    x2, y2, z2 = c["x2"], c["y2"], c["z2"]

    Y = x1 * y2 - x2 * y1
    Z = x1 * z2 - x2 * z1
    q = Y * Y - Z * Z
    W = np.sqrt(np.abs(q))
    lightlike = W < W_TOL
    inadmissible = np.maximum(np.abs(x1), np.abs(x2)) <= ADMISSIBLE_TOL
    bad = lightlike | inadmissible

    eps = np.where(q > 0.0, 1.0, -1.0)
    Wsafe = np.where(bad, 1.0, W)
    ny = Z / Wsafe
    nz = Y / Wsafe

    # the second form from the branch with the larger |x-partial|
    use1 = np.abs(x1) >= np.abs(x2)
    gs = np.where(use1, x1, x2)
    ys = np.where(use1, y1, y2)
    zs = np.where(use1, z1, z2)
    gsafe = np.where(np.abs(gs) <= ADMISSIBLE_TOL, 1.0, gs)

    def coeff(xij, yij, zij):
        t = xij / gsafe
        return eps * ((yij - t * ys) * ny - (zij - t * zs) * nz)

    L11 = coeff(c["x11"], c["y11"], c["z11"])
    L12 = coeff(c["x12"], c["y12"], c["z12"])
    L22 = coeff(c["x22"], c["y22"], c["z22"])

    W2 = Wsafe * Wsafe
    K = -eps * (L11 * L22 - L12 * L12) / W2
    H = -eps * (x2 * x2 * L11 - 2.0 * x1 * x2 * L12 + x1 * x1 * L22) / (2.0 * W2)
    K = np.where(bad, np.nan, K)
    H = np.where(bad, np.nan, H)

    out = {
        "g1": x1, "g2": x2, "W": W, "eps": eps, "ny": ny, "nz": nz,
        "L11": L11, "L12": L12, "L22": L22, "K": K, "H": H,
        "lightlike": lightlike, "inadmissible": inadmissible,
    }
    return {k: np.broadcast_to(v, shape) for k, v in out.items()}
