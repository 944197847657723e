"""Exact proof that the pipeline's curvatures are invariants of the motion
group (README, "Conditioning of the motion-invariance suite").

`transform_jet` moves a jet by a motion's linear part: x' = x,
y' = a3*x + cosh(theta)*y + sinh(theta)*z and
z' = a5*x + sinh(theta)*y + cosh(theta)*z.  Writing cosh and sinh as
(r + 1/r)/2 and (r - 1/r)/2, r = e^theta, makes every identity rational.
On a generic symbolic jet, and on both second-form branches, the formulas
of `curvature_arrays` (`test_sign_contract.pipeline`, with W and eps as
symbols) give the same q, so the same W and eps, and the same L11, L12
and L22.  The x-partials are not moved, so the kernel takes the same
branch.  K and H depend on nothing else, so every motion leaves them
unchanged, and `verify`'s numerical motion suite measures rounding only.
"""

import math

import numpy as np
import pytest
import sympy as sp

from pgsurf.surface import transform_jet

from test_sign_contract import pipeline

SLOTS = ("1", "2", "11", "12", "22")
JET = {f"{a}{s}": sp.Symbol(f"{a}{s}", real=True) for s in SLOTS for a in "xyz"}
a3, a5 = sp.symbols("a3 a5", real=True)
r = sp.Symbol("r", positive=True)
CH, SH = (r + 1 / r) / 2, (r - 1 / r) / 2


def moved(c):
    """The jet `c` moved by the linear part of the motion (a3, a5, log r)."""
    out = {}
    for s in SLOTS:
        x, y, z = (c[f"{a}{s}"] for a in "xyz")
        out.update({f"x{s}": x, f"y{s}": a3 * x + CH * y + SH * z,
                    f"z{s}": a5 * x + SH * y + CH * z})
    return out


@pytest.mark.parametrize("branch", ["1", "2"])
def test_motions_leave_the_pipeline_unchanged(branch):
    comp = moved(JET)
    assert all(comp[f"x{s}"] == JET[f"x{s}"] for s in SLOTS)
    q, _, _, second = pipeline(JET, branch)
    q_moved, _, _, second_moved = pipeline(comp, branch)
    assert sp.cancel(q_moved - q) == 0
    for before, after in zip(second, second_moved):
        assert sp.cancel(after - before) == 0


def test_written_out_motion_is_transform_jet():
    rng = np.random.default_rng(5)
    values = {k: rng.normal(size=40) for k in JET}
    m = rng.uniform(-1.0, 1.0, size=6)
    got = transform_jet([m], values)
    symbols = (*JET.values(), a3, a5, r)
    args = (*values.values(), m[2], m[4], math.exp(m[5]))
    for key, expr in moved(JET).items():
        want = sp.lambdify(symbols, expr)(*args)
        np.testing.assert_allclose(got[key][0], want, rtol=1e-13, atol=1e-13, err_msg=key)
