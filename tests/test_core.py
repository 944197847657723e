import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsurf.surface import Motion, curvature_arrays

from one_point import moved

coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
angle = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
motion_st = st.tuples(coord, coord, coord, coord, coord, angle).map(lambda t: Motion(*t))

SLOTS = ("1", "2", "11", "12", "22")


def random_jet(seed, n=5):
    rng = np.random.default_rng(seed)
    return {f"{a}{s}": rng.normal(size=n) for s in SLOTS for a in "xyz"}


def side_jet(y, z):
    """A one-point jet with x1 = 1 and x2 = 0, whose side tangent
    (0, Y, Z) = (0, x1*y2 - x2*y1, x1*z2 - x2*z1) is (0, y, z)."""
    comp = {f"{a}{s}": np.zeros(1) for s in SLOTS for a in "xyz"}
    comp.update(x1=np.ones(1), y2=np.array([float(y)]), z2=np.array([float(z)]))
    return comp


def side_character(comp) -> str:
    """The kernel's causal character of the side tangent of a one-point jet."""
    out = curvature_arrays(comp)
    if out["lightlike"][0]:
        return "lightlike"
    return "spacelike" if out["eps"][0] == 1.0 else "timelike"


class TestMotion:
    def test_identity(self):
        comp = random_jet(0)
        for key, value in moved(Motion(), comp).items():
            assert np.array_equal(value, comp[key]), key

    def test_absolute_translation(self):
        # a translation moves only the value, which a jet does not carry
        comp = random_jet(1)
        for key, value in moved(Motion(a1=1.0, a2=-2.0, a4=0.5), comp).items():
            assert np.array_equal(value, comp[key]), key

    @settings(max_examples=60, deadline=None)
    @given(motion_st, motion_st)
    def test_group_law(self, m1, m2):
        # moving a jet by m1 and then by m2 equals moving it by the
        # composite, whose linear part is that of m2 after m1
        ch, sh = math.cosh(m2.theta), math.sinh(m2.theta)
        composite = Motion(a3=m2.a3 + ch * m1.a3 + sh * m1.a5,
                           a5=m2.a5 + sh * m1.a3 + ch * m1.a5,
                           theta=m2.theta + m1.theta)
        comp = random_jet(2)
        via_steps, direct = moved(m2, moved(m1, comp)), moved(composite, comp)
        for key, value in direct.items():
            assert np.allclose(via_steps[key], value, rtol=0.0, atol=1e-12), key


class TestMinkowski:
    """The kernel's scalar product y*y - z*z on the side tangent."""

    def test_spacelike_unit(self):
        out = curvature_arrays(side_jet(1, 0))
        assert (out["W"][0], out["eps"][0]) == (1.0, 1.0)

    def test_lightlike(self):
        assert curvature_arrays(side_jet(1, 1))["lightlike"][0]

    def test_timelike_unit(self):
        out = curvature_arrays(side_jet(0, 1))
        assert (out["W"][0], out["eps"][0]) == (1.0, -1.0)

    @pytest.mark.parametrize("vec,expected", [((1, 0), "spacelike"), ((0, 1), "timelike"),
                                              ((2, 2), "lightlike")])
    def test_causal_character(self, vec, expected):
        assert side_character(side_jet(*vec)) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(coord, coord), angle)
    def test_boost_preserves_character(self, yz, theta):
        y, z = yz
        # stay clear of the lightlike deadband, where rounding may flip the label
        if abs(y * y - z * z) < 1e-6 * max(1.0, y * y + z * z):
            return
        comp = side_jet(y, z)
        assert side_character(moved(Motion(theta=theta), comp)) == side_character(comp)

    def test_boost_preserves_quadratic_form(self):
        y, z = 1.3, -0.4
        boosted = moved(Motion(theta=0.8), side_jet(y, z))
        y2, z2 = float(boosted["y2"][0]), float(boosted["z2"][0])
        assert y2 * y2 - z2 * z2 == pytest.approx(y * y - z * z, abs=1e-12)
