import math

import numpy as np
import pytest

from pgsurf.core import IsoVector, Motion, minkowski_dot
from pgsurf.errors import InadmissiblePatch, LightlikeSurface
from pgsurf.factorable import FactorableSurface, ScalarC2
from pgsurf.families import thm31_family, thm32_family, thm42_family
from pgsurf.surface import (
    Jet2,
    curvature_arrays,
    finite_difference_jet,
    first_form,
    fundamental_data,
    gaussian_curvature,
    jet_components,
    jet_from_components,
    mean_curvature,
    require_unmasked,
    transform_jet,
)

# generic smooth factor functions with analytic derivatives
QUAD = ScalarC2(lambda t: t**2 + 1.0, lambda t: 2.0 * t, lambda t: 2.0 + 0.0 * t)
CUBIC = ScalarC2(lambda t: t**3 - 2.0 * t, lambda t: 3.0 * t**2 - 2.0, lambda t: 6.0 * t)
SADDLE = FactorableSurface("first", ScalarC2.linear(1.0), ScalarC2.linear(1.0))
PLANE_JET = Jet2([0.3, 0.7, 0.0], [1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0])


def omega1(f=QUAD, g=CUBIC):
    return FactorableSurface("first", f, g)


def admissible(jet):
    return not curvature_arrays(jet_components([jet]))["inadmissible"][0]


class TestAdmissible:
    def test_first_kind_graph_always_admissible(self):
        assert admissible(omega1().jet(0.4, -1.1))

    def test_pseudo_euclidean_patch(self):
        jet = Jet2([1.0, 0.2, 0.5], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0])
        assert not admissible(jet)
        with pytest.raises(InadmissiblePatch):
            fundamental_data(jet)

    def test_second_kind_condition(self):
        # x = f(y) g(z) is admissible exactly where f'g or fg' is nonzero
        s = FactorableSurface("second", QUAD, QUAD)
        assert not admissible(s.jet(0.0, 0.0))  # f' = 0 and g' = 0 there
        assert admissible(s.jet(1.0, 1.0))


class TestFirstForm:
    def test_omega1_coefficients(self):
        f, g = QUAD, CUBIC
        x, y = 0.7, -0.4
        ff = first_form(omega1().jet(x, y))
        fp_g = float(f.deriv(x) * g(y))
        f_gp = float(f(x) * g.deriv(y))
        assert ff.g1 == 1.0 and ff.g2 == 0.0
        assert ff.h11 == pytest.approx(fp_g**2, rel=1e-14)
        assert ff.h12 == pytest.approx(fp_g * f_gp, rel=1e-14)
        assert ff.h22 == pytest.approx(1.0 + f_gp**2, rel=1e-14)

    def test_plane(self):
        ff = first_form(PLANE_JET)
        assert (ff.g1, ff.g2, ff.h11, ff.h12, ff.h22) == (1.0, 0.0, 0.0, 0.0, 1.0)


class TestSideNorm:
    def test_omega1_formula(self):
        x, y = 0.25, 0.5
        f_gp = float(QUAD(x) * CUBIC.deriv(y))
        expected = np.sqrt(abs(1.0 - f_gp**2))
        assert fundamental_data(omega1().jet(x, y)).W == pytest.approx(expected, rel=1e-14)

    def test_saddle_origin(self):
        assert fundamental_data(SADDLE.jet(0.0, 0.0)).W == 1.0

    def test_lightlike_raises(self):
        # z = y has f g' = 1 everywhere
        s = FactorableSurface("first", ScalarC2.constant(1.0), ScalarC2.linear(1.0))
        with pytest.raises(LightlikeSurface):
            fundamental_data(s.jet(0.0, 0.0))


def epsilon_and_normal(jet):
    d = fundamental_data(jet)
    return d.epsilon, d.N


class TestEpsilonNormal:
    def test_spacelike_patch(self):
        s = SADDLE  # f g' = x, spacelike for |x| < 1
        eps, n = epsilon_and_normal(s.jet(0.2, 5.0))
        assert eps == 1
        assert minkowski_dot(n, n) == pytest.approx(-1.0, abs=1e-12)

    def test_timelike_patch(self):
        eps, n = epsilon_and_normal(SADDLE.jet(2.0, 5.0))
        assert eps == -1
        assert minkowski_dot(n, n) == pytest.approx(1.0, abs=1e-12)

    def test_plane_normal(self):
        eps, n = epsilon_and_normal(PLANE_JET)
        assert eps == 1
        assert (n.y, n.z) == (0.0, 1.0)
        assert minkowski_dot(n, n) == -1.0

    @pytest.mark.parametrize("u1,u2", [(0.3, -0.2), (1.7, 0.4), (-0.8, 1.3)])
    def test_s_and_n_products(self, u1, u2):
        eps, n = epsilon_and_normal(omega1().jet(u1, u2))
        s_vec = IsoVector(n.z, n.y)  # S = (0, Y, Z)/W mirrors N = (0, Z, Y)/W
        assert minkowski_dot(s_vec, s_vec) == pytest.approx(eps, abs=1e-9)
        assert minkowski_dot(n, n) == pytest.approx(-eps, abs=1e-9)


class TestSecondForm:
    def test_omega1_hand_formula(self):
        # with g1 = 1 and vanishing x-second-partials the coefficients are
        # L_ij = -eps * z_ij / W
        f, g = QUAD, CUBIC
        x, y = 0.3, 0.9
        d = fundamental_data(omega1().jet(x, y))
        eps, W, L11, L12, L22 = d.epsilon, d.W, d.L11, d.L12, d.L22
        assert L11 == pytest.approx(-eps * float(f.deriv2(x) * g(y)) / W, rel=1e-12)
        assert L12 == pytest.approx(-eps * float(f.deriv(x) * g.deriv(y)) / W, rel=1e-12)
        assert L22 == pytest.approx(-eps * float(f(x) * g.deriv2(y)) / W, rel=1e-12)

    def test_plane_vanishes(self):
        d = fundamental_data(PLANE_JET)
        assert (d.L11, d.L12, d.L22) == (0.0, 0.0, 0.0)

    def test_inadmissible_raises(self):
        jet = Jet2([1.0, 0.2, 0.5], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0])
        with pytest.raises(InadmissiblePatch):
            fundamental_data(jet)


class TestCurvatures:
    def test_plane_flat_minimal(self):
        assert gaussian_curvature(PLANE_JET) == 0.0
        assert mean_curvature(PLANE_JET) == 0.0

    def test_saddle_origin(self):
        # the pipeline K carries the factor -eps relative to the closed
        # first-kind formula, whose value here is -1 (see README)
        assert gaussian_curvature(SADDLE.jet(0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("u1,u2", [(0.1, 0.4), (0.5, -2.0), (3.0, 1.0)])
    def test_saddle_minimal_everywhere(self, u1, u2):
        assert mean_curvature(SADDLE.jet(u1, u2)) == pytest.approx(0.0, abs=1e-12)

    def test_tanh_family_constant_magnitude(self):
        s = thm31_family(1.0)
        values = [gaussian_curvature(s.jet(x, y))
                  for x in (-1.0, 0.0, 0.7) for y in (-0.5, 1.2)]
        assert np.allclose(values, 1.0, atol=1e-10)

    def test_lightlike_raises(self):
        s = FactorableSurface("first", ScalarC2.constant(1.0), ScalarC2.linear(1.0))
        with pytest.raises(LightlikeSurface):
            gaussian_curvature(s.jet(0.0, 0.0))

    def test_fundamental_data_bundle(self):
        d = fundamental_data(omega1().jet(0.2, 0.3))
        assert d.W > 0 and d.epsilon in (-1, 1)
        assert minkowski_dot(d.N, d.N) == pytest.approx(-d.epsilon, abs=1e-9)


class TestFiniteDifferences:
    @pytest.mark.parametrize(
        "surface,u1,u2",
        [
            (thm31_family(1.0), 0.4, -0.3),
            (thm32_family(0.5, causal="timelike"), 0.8, 0.2),
            (thm42_family(0.5, causal="timelike"), 0.3, -0.4),
            (SADDLE, 0.35, 0.15),
        ],
    )
    def test_fd_matches_analytic_curvatures(self, surface, u1, u2):
        analytic = surface.jet(u1, u2)
        fd = finite_difference_jet(surface.position, u1, u2)
        assert gaussian_curvature(fd) == pytest.approx(gaussian_curvature(analytic), rel=1e-5, abs=1e-7)
        assert mean_curvature(fd) == pytest.approx(mean_curvature(analytic), rel=1e-5, abs=1e-7)

    def test_fd_jet_close_to_analytic(self):
        s = omega1()
        fd = finite_difference_jet(s.position, 0.5, 0.25)
        an = s.jet(0.5, 0.25)
        for name in ("r", "r1", "r2", "r11", "r12", "r22"):
            assert np.allclose(getattr(fd, name), getattr(an, name), atol=1e-6)


def moved_jet(m, jet):
    """`jet` moved by one motion through the batched `transform_jet`; the
    value `r` is kept, since curvature does not read it."""
    return jet_from_components(jet.r, transform_jet([m], jet_components([jet])))


class TestMotionInvariance:
    def test_curvature_fields_invariant(self):
        rng = np.random.default_rng(7)
        s = omega1()
        for _ in range(8):
            m = Motion(*rng.uniform(-1, 1, size=6))
            for u1, u2 in [(0.3, 0.4), (-0.6, 1.0), (1.1, -0.9)]:
                jet = s.jet(u1, u2)
                moved = moved_jet(m, jet)
                assert gaussian_curvature(moved) == pytest.approx(gaussian_curvature(jet), abs=1e-8)
                assert mean_curvature(moved) == pytest.approx(mean_curvature(jet), abs=1e-8)

    def test_transform_jet_matches_fd_of_moved_surface(self):
        s = omega1()
        m = Motion(0.3, -0.2, 0.5, 0.1, -0.7, 0.4)
        ch, sh = math.cosh(m.theta), math.sinh(m.theta)

        def moved_value(u1, u2):
            x, y, z = s.position(u1, u2)
            return np.array([m.a1 + x, m.a2 + m.a3 * x + ch * y + sh * z,
                             m.a4 + m.a5 * x + sh * y + ch * z])

        direct = moved_jet(m, s.jet(0.4, 0.7))
        fd = finite_difference_jet(moved_value, 0.4, 0.7)
        for name in ("r1", "r2", "r11", "r12", "r22"):
            assert np.allclose(getattr(fd, name), getattr(direct, name), atol=1e-6)

    def test_w_and_epsilon_invariant(self):
        jet = omega1().jet(0.9, -0.3)
        m = Motion(1.0, 2.0, -0.8, 0.5, 0.3, 1.1)
        d, moved = fundamental_data(jet), fundamental_data(moved_jet(m, jet))
        assert moved.W == pytest.approx(d.W, rel=1e-12)
        assert moved.epsilon == d.epsilon


SLOTS = ("1", "2", "11", "12", "22")


class TestTransformJet:
    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
    def test_equals_the_per_point_float_arithmetic(self, shape):
        rng = np.random.default_rng(len(shape))
        comp = {f"{a}{s}": rng.normal(size=shape) for s in SLOTS for a in "xyz"}
        motions = [Motion(*(float(v) for v in rng.uniform(-1.0, 1.0, size=6))) for _ in range(4)]
        moved = transform_jet(motions, comp)
        assert sorted(moved) == sorted(comp)
        assert all(v.shape == (4, *shape) for v in moved.values())
        for i, m in enumerate(motions):
            ch, sh = math.cosh(m.theta), math.sinh(m.theta)
            for idx in np.ndindex(*shape):
                for s in SLOTS:
                    x, y, z = (float(comp[f"{a}{s}"][idx]) for a in "xyz")
                    expect = (x, m.a3 * x + ch * y + sh * z, m.a5 * x + sh * y + ch * z)
                    got = tuple(float(moved[f"{a}{s}"][(i, *idx)]) for a in "xyz")
                    assert [v.hex() for v in got] == [v.hex() for v in expect]


def _mixed(z1, z2, x1=1.0, x2=0.0):
    """First-kind-like components: x and y parts 0-d, z parts (n, 1) and (1, m)."""
    comp = {f"{a}{slot}": np.array(0.0) for slot in SLOTS for a in "xyz"}
    comp.update(x1=np.array(x1), x2=np.array(x2), y2=np.array(1.0), z1=z1, z2=z2,
                z11=z1 * z1, z12=z1 * z2, z22=z2 + 0.5)
    return comp


def _materialised(comp):
    shape = np.broadcast_shapes(*(np.shape(v) for v in comp.values()))
    return {k: np.broadcast_to(v, shape).copy() for k, v in comp.items()}


class TestBroadcastComponents:
    """`curvature_arrays` and `transform_jet` take components of any
    broadcast-compatible shapes, 0-d ones included."""

    Z1 = np.array([[-0.4], [0.0], [0.3], [1.7]])
    Z2 = np.array([[0.25, -1.0, 2.0]])

    def test_kernel_outputs_take_the_broadcast_shape(self):
        comp = _mixed(self.Z1, self.Z2)
        out, ref = curvature_arrays(comp), curvature_arrays(_materialised(comp))
        assert sorted(out) == sorted(ref)
        for key, value in ref.items():
            assert out[key].shape == (4, 3) and out[key].dtype == value.dtype, key
            assert out[key].tobytes() == value.tobytes(), key

    def test_require_unmasked_raises_the_scalar_errors(self):
        # Y = 1 and Z = z2 here, so the column with z2 = -1 is lightlike
        out = curvature_arrays(_mixed(self.Z1, self.Z2))
        assert out["lightlike"][:, 1].all() and not out["lightlike"][:, [0, 2]].any()
        require_unmasked(out, (2, 0))
        with pytest.raises(LightlikeSurface):
            require_unmasked(out, (2, 1))
        out = curvature_arrays(_mixed(self.Z1, self.Z2, x1=0.0))
        assert out["inadmissible"].shape == (4, 3) and out["inadmissible"].all()
        with pytest.raises(InadmissiblePatch):
            require_unmasked(out, (3, 2))

    def test_transform_jet_takes_the_broadcast_shape(self):
        comp = _mixed(self.Z1, self.Z2)
        motions = [Motion(0.1, -0.2, 0.3, 0.4, -0.5, 0.6), Motion(0.0, 0.0, -0.7, 0.0, 0.2, -0.3)]
        moved, ref = transform_jet(motions, comp), transform_jet(motions, _materialised(comp))
        for key, value in ref.items():
            assert moved[key].shape == (2, 4, 3), key
            assert moved[key].tobytes() == value.tobytes(), key
