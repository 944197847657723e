import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsurf.surface import curvature_arrays

from one_point import moved

coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
angle = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
# a motion as a row a1..a5, theta
motion_st = st.tuples(coord, coord, coord, coord, coord, angle)

SLOTS = ("1", "2", "11", "12", "22")
IDENTITY = (0.0,) * 6


def boost(theta):
    """The hyperbolic rotation of the (y, z) plane by `theta`."""
    return (0.0, 0.0, 0.0, 0.0, 0.0, theta)


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
        for key, value in moved(IDENTITY, comp).items():
            assert np.array_equal(value, comp[key]), key

    def test_absolute_translation(self):
        # a translation moves only the value, which a jet does not carry
        comp = random_jet(1)
        for key, value in moved((1.0, -2.0, 0.0, 0.5, 0.0, 0.0), comp).items():
            assert np.array_equal(value, comp[key]), key

    @settings(max_examples=60, deadline=None)
    @given(motion_st, motion_st)
    def test_group_law(self, m1, m2):
        # moving a jet by m1 and then by m2 equals moving it by the
        # composite, whose linear part is that of m2 after m1
        (_, _, a3_1, _, a5_1, theta1), (_, _, a3_2, _, a5_2, theta2) = m1, m2
        ch, sh = math.cosh(theta2), math.sinh(theta2)
        composite = (0.0, 0.0, a3_2 + ch * a3_1 + sh * a5_1, 0.0, a5_2 + sh * a3_1 + ch * a5_1,
                     theta2 + theta1)
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
        assert side_character(moved(boost(theta), comp)) == side_character(comp)

    def test_boost_preserves_quadratic_form(self):
        y, z = 1.3, -0.4
        boosted = moved(boost(0.8), side_jet(y, z))
        y2, z2 = float(boosted["y2"][0]), float(boosted["z2"][0])
        assert y2 * y2 - z2 * z2 == pytest.approx(y * y - z * z, abs=1e-12)
