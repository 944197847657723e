"""Motions of the pseudo-Galilean 3-space.

Points carry an absolute coordinate x; the transverse plane x = 0 carries
a Minkowskian scalar product with signature (+, -) on (y, z), which
`surface.curvature_arrays` evaluates inline.  The six-parameter motion
group combines translations, two shears along the absolute direction and
a hyperbolic rotation of the (y, z) plane; `surface.transform_jet`
applies it to jet components.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Motion"]


@dataclass(frozen=True)
class Motion:
    """Motion with parameters a1..a5 and hyperbolic angle theta.

    x' = a1 + x
    y' = a2 + a3*x + cosh(theta)*y + sinh(theta)*z
    z' = a4 + a5*x + sinh(theta)*y + cosh(theta)*z

    The default is the identity.
    """

    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0
    a4: float = 0.0
    a5: float = 0.0
    theta: float = 0.0
