"""Curvature pipeline for admissible surfaces.

Everything downstream of a 2-jet lives here: first fundamental form, the
side tangent norm W, the causal sign epsilon with the normal N, the second
fundamental form, and the Gaussian and mean curvatures

    K = -eps * (L11*L22 - L12^2) / W^2
    H = -eps * (g2^2*L11 - 2*g1*g2*L12 + g1^2*L22) / (2*W^2)

A jet is a dict of component arrays: the keys x1..z22 hold the first and
second partials of (x, y, z), as `factorable.jet_component_arrays` and
`fd_components` return them.  `curvature_arrays` is the one implementation:
it works on those arrays and returns masks for lightlike and inadmissible
points, eps and W by `sign_and_norm` as in the closed sweep.  Its one-point
views `gaussian_curvature` and `mean_curvature` raise there instead.
`transform_jet` moves jet component arrays by an (m, 6) array of motions
of the six-parameter group, one motion per row, in one broadcast;
`uniform_draws` gives seeded motions (and the probe's random starts)
from SplitMix64, in exact uint64 arithmetic.  The
transverse plane x = 0 carries the Minkowskian scalar product with
signature (+, -) on (y, z) that `curvature_arrays` evaluates inline.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import InadmissiblePatch, InvalidParams, LightlikeSurface

__all__ = [
    "gaussian_curvature",
    "mean_curvature",
    "transform_jet",
    "uniform_draws",
    "require_unmasked",
    "fd_components",
    "curvature_arrays",
    "W_TOL",
    "ADMISSIBLE_TOL",
    "FD_STEP",
    "SEED_MAX",
]

W_TOL = 1e-10          # W below this counts as lightlike; curvature calls fail loudly
ADMISSIBLE_TOL = 1e-12  # |x_,i| threshold for admissibility
FD_STEP = 1e-4          # default finite-difference step scale
SEED_MAX = 2**64 - 1    # largest seed of `uniform_draws`: its state is 64 bits

_SLOTS = ("1", "2", "11", "12", "22")
_COMPONENT_KEYS = tuple(f"{axis}{slot}" for slot in _SLOTS for axis in "xyz")


def _read_only(v, shape: tuple) -> np.ndarray:
    """`v` as a read-only array of `shape`: a broadcast view where its
    shape differs, else a read-only view.  The flag of `v` itself, which
    may be a caller's input, is never cleared."""
    v = np.asarray(v)
    if v.shape != shape:
        return np.broadcast_to(v, shape)
    v = v.view()
    v.flags.writeable = False
    return v


def spare(t, shape: tuple):
    """The `out=` of an operation that may overwrite its operand `t`, a
    temporary the calling kernel made itself, never an input: `t` where
    it is an array of the kernel's broadcast `shape` (the result's shape
    then), else None, a new array; a numpy scalar cannot take `out=`.
    The operation and its operands stay the same, so do the bits."""
    return t if isinstance(t, np.ndarray) and t.shape == shape else None


def sign_and_norm(q, shape: tuple):
    """eps (+1 where q > 0, else -1) and W = sqrt(|q|), new arrays, of q or of the closed D."""
    W = np.abs(q)
    return np.where(q > 0.0, 1.0, -1.0), np.sqrt(W, out=spare(W, shape))


def require_unmasked(out: dict, i) -> None:
    """Raise the error of the one-point views if the `curvature_arrays`
    output `out` masks point `i`: `InadmissiblePatch` first, then
    `LightlikeSurface`."""
    if out["inadmissible"][i]:
        raise InadmissiblePatch("both x-partials vanish; patch is pseudo-Euclidean")
    if out["lightlike"][i]:
        raise LightlikeSurface(f"W = {out['W'][i]:.3e} below tolerance {W_TOL:.1e}; "
                               "curvature undefined")


def gaussian_curvature(comp: dict) -> float:
    """K of the one-point jet `comp`, components whose broadcast shape is
    (1,); raises where `curvature_arrays` masks the point."""
    out = curvature_arrays(comp)
    require_unmasked(out, 0)
    return float(out["K"][0])


def mean_curvature(comp: dict) -> float:
    """H of the one-point jet `comp`; raises like `gaussian_curvature`."""
    out = curvature_arrays(comp)
    require_unmasked(out, 0)
    return float(out["H"][0])


def transform_jet(motions: np.ndarray, comp: dict) -> dict:
    """The jet components x1..z22 of `comp`, broadcast-compatible arrays
    whose broadcast shape is S, moved by each of m motions: read-only
    arrays of shape (m, *S).

    `motions` is an (m, 6) array, or a sequence of m rows, each the
    parameters a1..a5, theta of one motion of the pseudo-Galilean
    3-space: translations, two shears along the absolute direction x and
    a hyperbolic rotation of the (y, z) plane,

        x' = a1 + x
        y' = a2 + a3*x + cosh(theta)*y + sinh(theta)*z
        z' = a4 + a5*x + sinh(theta)*y + cosh(theta)*z

    with the zero row the identity; any other shape raises
    `InvalidParams`.  A motion acts on every derivative by its linear
    part, the above without a1, a2 and a4; its translation moves only the
    value, which curvature does not read.  The moved x components are
    broadcast views of the input; a moved y or z component is broadcast
    only where it lacks the shape (m, *S).
    """
    motions = np.asarray(motions, dtype=float)
    if motions.shape == (0,):  # an empty sequence of motions
        motions = motions.reshape(0, 6)
    if motions.ndim != 2 or motions.shape[1] != 6:
        raise InvalidParams(f"motions must be an (m, 6) array, got shape {motions.shape}")
    comp = {k: np.asarray(comp[k], dtype=float) for k in _COMPONENT_KEYS}
    shape = (len(motions),) + np.broadcast_shapes(*(v.shape for v in comp.values()))
    column = (-1,) + (1,) * (len(shape) - 1)

    # math.cosh and math.sinh, not numpy's, whose SIMD loops may differ
    # in the last bit
    theta = motions[:, 5].tolist()
    ch = np.array(list(map(math.cosh, theta))).reshape(column)
    sh = np.array(list(map(math.sinh, theta))).reshape(column)
    a3 = motions[:, 2].reshape(column)
    a5 = motions[:, 4].reshape(column)
    out = {}
    for s in _SLOTS:
        x, y, z = (comp[f"{axis}{s}"] for axis in "xyz")
        out[f"x{s}"] = np.broadcast_to(x, shape)
        out[f"y{s}"] = _read_only(a3 * x + ch * y + sh * z, shape)
        out[f"z{s}"] = _read_only(a5 * x + sh * y + ch * z, shape)
    return out


def uniform_draws(seed: int, count: int, low: float, high: float) -> np.ndarray:
    """`count` uniform draws on [low, high] from the SplitMix64 generator
    (G. L. Steele, D. Lea and C. H. Flood, "Fast splittable pseudorandom
    number generators", OOPSLA 2014) seeded with `seed`: a float array of
    shape (count,), each draw from the top 53 bits of one output.

    The k-th output (k = 1..count) mixes the state seed + k * 0x9E3779B97F4A7C15
    mod 2**64.  Integer operations on uint64 arrays wrap silently and do
    not depend on the CPU, nor on the numpy or Python version, so neither
    do the draws; the first n of `count` draws are the draws of n.
    `seed` must be an integer in 0..SEED_MAX (InvalidParams): a larger
    one would alias a smaller.
    """
    integer = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    if not (integer and 0 <= seed <= SEED_MAX):
        raise InvalidParams(f"seed must be an integer in 0..{SEED_MAX}, got {seed!r}")
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return low + (high - low) * ((z >> np.uint64(11)) * 2.0**-53)


def fd_components(value: Callable, u1, u2, step: float = FD_STEP) -> dict:
    """Central differences of `value(u1, u2) -> (x, y, z)` at scalar or
    array parameters: the components x1..z22.

    Steps scale with the coordinate: h_i = step * max(1, |u_i|).  Second
    partials use the compact three-point / four-point cross stencils.
    The stencils broadcast, so a component `value` returns in a smaller
    shape (a parameter coordinate on its own axis) is differenced there.
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

    # each stencil's divisor, formed once for the three axes
    d1, d2, d11, d22, d12 = 2.0 * h1, 2.0 * h2, h1 ** 2, h2 ** 2, 4.0 * h1 * h2
    out = {}
    for i, axis in enumerate("xyz"):
        out[f"{axis}1"] = (p0[i] - m0[i]) / d1
        out[f"{axis}2"] = (zp[i] - zm[i]) / d2
        out[f"{axis}11"] = (p0[i] - 2.0 * c[i] + m0[i]) / d11
        out[f"{axis}22"] = (zp[i] - 2.0 * c[i] + zm[i]) / d22
        out[f"{axis}12"] = (pp[i] - pm[i] - mp[i] + mm[i]) / d12
    return out


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
    read-only array of the broadcast shape of the components: a broadcast
    view where the output's own shape differs, else a read-only view (g1
    and g2 view the caller's x1 and x2, whose flags are left alone).  K
    and H are NaN at masked points.  The safe divisors and the NaNs are
    substituted only in a block that needs them, so a block with no
    masked point pays for its arithmetic alone; each substitution is the
    identity at an unmasked point, so the bits do not depend on the
    block.  Floating-point warnings are
    silenced: overflow and invalid values end as non-finite K or H,
    which callers mask.
    """
    c = {k: np.asarray(comp[k], dtype=float) for k in _COMPONENT_KEYS}
    shape = np.broadcast_shapes(*(v.shape for v in c.values()))
    x1, y1, z1 = c["x1"], c["y1"], c["z1"]
    x2, y2, z2 = c["x2"], c["y2"], c["z2"]

    # the formulas' operations in their order, each result written over
    # a temporary made here where `spare` allows it
    Y = x1 * y2
    Y = np.subtract(Y, x2 * y1, out=spare(Y, shape))
    Z = x1 * z2
    Z = np.subtract(Z, x2 * z1, out=spare(Z, shape))
    q = Y * Y
    q = np.subtract(q, Z * Z, out=spare(q, shape))
    eps, W = sign_and_norm(q, shape)
    lightlike = W < W_TOL
    a1, a2 = np.abs(x1), np.abs(x2)
    inadmissible = np.maximum(a1, a2) <= ADMISSIBLE_TOL
    bad = lightlike | inadmissible
    masked = bad.any()

    Wsafe = np.where(bad, 1.0, W) if masked else W
    ny = np.divide(Z, Wsafe, out=spare(Z, shape))
    nz = np.divide(Y, Wsafe, out=spare(Y, shape))

    # the second form from the branch with the larger |x-partial| gs, so
    # `inadmissible` guards its divisor (where an x-partial is NaN, so are K, H)
    use1 = a1 >= a2
    gs = np.where(use1, x1, x2)
    ys = np.where(use1, y1, y2)
    zs = np.where(use1, z1, z2)
    gsafe = np.where(inadmissible, 1.0, gs) if masked else gs

    def coeff(xij, yij, zij):
        # eps * ((yij - t * ys) * ny - (zij - t * zs) * nz), t = xij / gsafe
        t = xij / gsafe
        a = t * ys
        a = np.subtract(yij, a, out=spare(a, shape))
        a = np.multiply(a, ny, out=spare(a, shape))
        b = np.multiply(t, zs, out=spare(t, shape))
        b = np.subtract(zij, b, out=spare(b, shape))
        b = np.multiply(b, nz, out=spare(b, shape))
        a = np.subtract(a, b, out=spare(a, shape))
        return np.multiply(eps, a, out=spare(a, shape))

    L11 = coeff(c["x11"], c["y11"], c["z11"])
    L12 = coeff(c["x12"], c["y12"], c["z12"])
    L22 = coeff(c["x22"], c["y22"], c["z22"])

    W2 = Wsafe * Wsafe
    neg = -eps
    # K = -eps * (L11 * L22 - L12 * L12) / W2
    K = L11 * L22
    K = np.subtract(K, L12 * L12, out=spare(K, shape))
    K = np.multiply(neg, K, out=spare(K, shape))
    K = np.divide(K, W2, out=spare(K, shape))
    # H = -eps * (x2 * x2 * L11 - 2.0 * x1 * x2 * L12 + x1 * x1 * L22) / (2.0 * W2)
    H = x2 * x2
    H = np.multiply(H, L11, out=spare(H, shape))
    t = 2.0 * x1
    t = np.multiply(t, x2, out=spare(t, shape))
    t = np.multiply(t, L12, out=spare(t, shape))
    H = np.subtract(H, t, out=spare(H, shape))
    t = x1 * x1
    t = np.multiply(t, L22, out=spare(t, shape))
    H = np.add(H, t, out=spare(H, shape))
    H = np.multiply(neg, H, out=spare(H, shape))
    W2 = np.multiply(2.0, W2, out=spare(W2, shape))
    H = np.divide(H, W2, out=spare(H, shape))
    if masked:
        K = np.where(bad, np.nan, K)
        H = np.where(bad, np.nan, H)

    out = {
        "g1": x1, "g2": x2, "W": W, "eps": eps, "ny": ny, "nz": nz,
        "L11": L11, "L12": L12, "L22": L22, "K": K, "H": H,
        "lightlike": lightlike, "inadmissible": inadmissible,
    }
    return {k: _read_only(v, shape) for k, v in out.items()}
