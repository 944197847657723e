"""One-point calls of the array kernels, for tests that check single points.

A jet is the component dict x1..z22 of `jet_component_arrays`; the closed
formulas run on one-element profile arrays, like a grid row's (numpy may
round a power of a 0-d array differently).
"""

import numpy as np

from pgsurf.factorable import jet_component_arrays
from pgsurf.surface import curvature_arrays, require_unmasked, transform_jet


def jet(s, u1, u2, mode="analytic"):
    """The one-point jet of the surface `s` at (u1, u2)."""
    return jet_component_arrays(s, [u1], [u2], mode=mode)


def point_data(comp):
    """The `curvature_arrays` outputs at the one point of `comp`, as floats;
    raises where the kernel masks the point."""
    out = curvature_arrays(comp)
    require_unmasked(out, 0)
    return {k: float(v[0]) for k, v in out.items()}


def moved(m, comp):
    """The jet `comp` moved by the one motion `m` through `transform_jet`."""
    return {k: v[0] for k, v in transform_jet([m], comp).items()}


def closed(kernel, s, u1, u2):
    """`closed_K` or `closed_H` of `s` at (u1, u2): the value and the
    undefined flag, as a float and a bool."""
    a1, a2 = np.array([float(u1)]), np.array([float(u2)])
    value, undefined = kernel(s.kind, *s.f.jet(a1), *s.g.jet(a2))
    return float(value[0]), bool(undefined[0])


def closed_value(kernel, s, u1, u2):
    """`closed` at a point where the formula is defined."""
    value, undefined = closed(kernel, s, u1, u2)
    assert not undefined, f"{s.kind}-kind denominator vanishes at ({u1}, {u2})"
    return value
