import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsurf.errors import InvalidParams
from pgsurf.factorable import FactorableSurface, ScalarC2, jet_component_arrays
from pgsurf.families import thm31_family, thm32_family, thm42_family
from pgsurf.surface import (
    curvature_arrays,
    fd_components,
    gaussian_curvature,
    mean_curvature,
    transform_jet,
    uniform_draws,
)

from one_point import jet, moved, point_data
from splitmix import splitmix64, uniforms

SLOTS = ("1", "2", "11", "12", "22")

# generic smooth factor functions with analytic derivatives
QUAD = ScalarC2(lambda t: (t**2 + 1.0, 2.0 * t, 2.0 + 0.0 * t))
CUBIC = ScalarC2(lambda t: (t**3 - 2.0 * t, 3.0 * t**2 - 2.0, 6.0 * t))
SADDLE = FactorableSurface("first", ScalarC2.linear(1.0), ScalarC2.linear(1.0))


def components(r1, r2, r11, r12, r22):
    """The one-point jet with these partials, each an (x, y, z) triple."""
    return {f"{a}{slot}": np.array([float(v[i])])
            for slot, v in zip(SLOTS, (r1, r2, r11, r12, r22)) for i, a in enumerate("xyz")}


PLANE_JET = components([1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0])
PSEUDO_EUCLIDEAN_JET = components([0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0])


def omega1(f=QUAD, g=CUBIC):
    return FactorableSurface("first", f, g)


def admissible(comp):
    return not curvature_arrays(comp)["inadmissible"][0]


def assert_masked(comp, mask):
    """The kernel masks the one point of `comp` by `mask` ("lightlike" or
    "inadmissible"), and both one-point views read NaN there."""
    assert curvature_arrays(comp)[mask][0]
    assert math.isnan(gaussian_curvature(comp)) and math.isnan(mean_curvature(comp))


class TestAdmissible:
    def test_first_kind_graph_always_admissible(self):
        assert admissible(jet(omega1(), 0.4, -1.1))

    def test_pseudo_euclidean_patch(self):
        assert not admissible(PSEUDO_EUCLIDEAN_JET)

    def test_second_kind_condition(self):
        # x = f(y) g(z) is admissible exactly where f'g or fg' is nonzero
        s = FactorableSurface("second", QUAD, QUAD)
        assert not admissible(jet(s, 0.0, 0.0))  # f' = 0 and g' = 0 there
        assert admissible(jet(s, 1.0, 1.0))


class TestFirstForm:
    def test_omega1_coefficients(self):
        # g1, g2 from the kernel; the transverse coefficients h11, h12, h22
        # from the jet components
        f, g = QUAD, CUBIC
        x, y = 0.7, -0.4
        comp = jet(omega1(), x, y)
        d = point_data(comp)
        y1, z1, y2, z2 = (float(np.ravel(comp[k])[0]) for k in ("y1", "z1", "y2", "z2"))
        fp_g = float(f.deriv(x) * g(y))
        f_gp = float(f(x) * g.deriv(y))
        assert d["g1"] == 1.0 and d["g2"] == 0.0
        assert y1 * y1 + z1 * z1 == pytest.approx(fp_g**2, rel=1e-14)
        assert y1 * y2 + z1 * z2 == pytest.approx(fp_g * f_gp, rel=1e-14)
        assert y2 * y2 + z2 * z2 == pytest.approx(1.0 + f_gp**2, rel=1e-14)

    def test_plane(self):
        d = point_data(PLANE_JET)
        assert (d["g1"], d["g2"], d["W"]) == (1.0, 0.0, 1.0)


class TestSideNorm:
    def test_omega1_formula(self):
        x, y = 0.25, 0.5
        f_gp = float(QUAD(x) * CUBIC.deriv(y))
        expected = np.sqrt(abs(1.0 - f_gp**2))
        assert point_data(jet(omega1(), x, y))["W"] == pytest.approx(expected, rel=1e-14)

    def test_saddle_origin(self):
        assert point_data(jet(SADDLE, 0.0, 0.0))["W"] == 1.0

    def test_lightlike_is_masked(self):
        # z = y has f g' = 1 everywhere
        s = FactorableSurface("first", ScalarC2.constant(1.0), ScalarC2.linear(1.0))
        out = curvature_arrays(jet(s, 0.0, 0.0))
        assert out["W"][0] == 0.0 and out["lightlike"][0] and not out["inadmissible"][0]


def epsilon_and_normal(comp):
    """eps, the normal (ny, nz) and its square ny*ny - nz*nz."""
    d = point_data(comp)
    return d["eps"], (d["ny"], d["nz"]), d["ny"] ** 2 - d["nz"] ** 2


class TestEpsilonNormal:
    def test_spacelike_patch(self):
        s = SADDLE  # f g' = x, spacelike for |x| < 1
        eps, _, nn = epsilon_and_normal(jet(s, 0.2, 5.0))
        assert eps == 1
        assert nn == pytest.approx(-1.0, abs=1e-12)

    def test_timelike_patch(self):
        eps, _, nn = epsilon_and_normal(jet(SADDLE, 2.0, 5.0))
        assert eps == -1
        assert nn == pytest.approx(1.0, abs=1e-12)

    def test_plane_normal(self):
        eps, n, nn = epsilon_and_normal(PLANE_JET)
        assert eps == 1
        assert n == (0.0, 1.0)
        assert nn == -1.0

    @pytest.mark.parametrize("u1,u2", [(0.3, -0.2), (1.7, 0.4), (-0.8, 1.3)])
    def test_s_and_n_products(self, u1, u2):
        eps, (ny, nz), nn = epsilon_and_normal(jet(omega1(), u1, u2))
        # S = (0, Y, Z)/W mirrors N = (0, Z, Y)/W, so S.S = nz^2 - ny^2
        assert nz * nz - ny * ny == pytest.approx(eps, abs=1e-9)
        assert nn == pytest.approx(-eps, abs=1e-9)


class TestSecondForm:
    def test_omega1_hand_formula(self):
        # with g1 = 1 and vanishing x-second-partials the coefficients are
        # L_ij = -eps * z_ij / W
        f, g = QUAD, CUBIC
        x, y = 0.3, 0.9
        d = point_data(jet(omega1(), x, y))
        eps, W, L11, L12, L22 = d["eps"], d["W"], d["L11"], d["L12"], d["L22"]
        assert L11 == pytest.approx(-eps * float(f.deriv2(x) * g(y)) / W, rel=1e-12)
        assert L12 == pytest.approx(-eps * float(f.deriv(x) * g.deriv(y)) / W, rel=1e-12)
        assert L22 == pytest.approx(-eps * float(f(x) * g.deriv2(y)) / W, rel=1e-12)

    def test_plane_vanishes(self):
        d = point_data(PLANE_JET)
        assert (d["L11"], d["L12"], d["L22"]) == (0.0, 0.0, 0.0)

    def test_inadmissible_is_nan(self):
        assert_masked(PSEUDO_EUCLIDEAN_JET, "inadmissible")


class TestCurvatures:
    def test_plane_flat_minimal(self):
        assert gaussian_curvature(PLANE_JET) == 0.0
        assert mean_curvature(PLANE_JET) == 0.0

    def test_saddle_origin(self):
        # the pipeline K carries the factor -eps relative to the closed
        # first-kind formula, whose value here is -1 (see README)
        assert gaussian_curvature(jet(SADDLE, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("u1,u2", [(0.1, 0.4), (0.5, -2.0), (3.0, 1.0)])
    def test_saddle_minimal_everywhere(self, u1, u2):
        assert mean_curvature(jet(SADDLE, u1, u2)) == pytest.approx(0.0, abs=1e-12)

    def test_tanh_family_constant_magnitude(self):
        s = thm31_family(1.0)
        values = [gaussian_curvature(jet(s, x, y))
                  for x in (-1.0, 0.0, 0.7) for y in (-0.5, 1.2)]
        assert np.allclose(values, 1.0, atol=1e-10)

    def test_lightlike_is_nan(self):
        s = FactorableSurface("first", ScalarC2.constant(1.0), ScalarC2.linear(1.0))
        assert_masked(jet(s, 0.0, 0.0), "lightlike")

    def test_fundamental_data_bundle(self):
        d = point_data(jet(omega1(), 0.2, 0.3))
        assert d["W"] > 0 and d["eps"] in (-1, 1)
        assert d["ny"] ** 2 - d["nz"] ** 2 == pytest.approx(-d["eps"], abs=1e-9)


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
        analytic = jet(surface, u1, u2)
        fd = jet(surface, u1, u2, mode="fd")
        assert gaussian_curvature(fd) == pytest.approx(gaussian_curvature(analytic), rel=1e-5, abs=1e-7)
        assert mean_curvature(fd) == pytest.approx(mean_curvature(analytic), rel=1e-5, abs=1e-7)

    def test_fd_jet_close_to_analytic(self):
        s = omega1()
        fd, an = jet(s, 0.5, 0.25, mode="fd"), jet(s, 0.5, 0.25)
        assert sorted(fd) == sorted(an) and len(an) == 15
        for key, value in an.items():
            assert np.allclose(fd[key], value, atol=1e-6), key


class TestMotionInvariance:
    def test_curvature_fields_invariant(self):
        rng = np.random.default_rng(7)
        s = omega1()
        for _ in range(8):
            m = rng.uniform(-1, 1, size=6)
            for u1, u2 in [(0.3, 0.4), (-0.6, 1.0), (1.1, -0.9)]:
                comp = jet(s, u1, u2)
                comp_m = moved(m, comp)
                assert gaussian_curvature(comp_m) == pytest.approx(gaussian_curvature(comp), abs=1e-8)
                assert mean_curvature(comp_m) == pytest.approx(mean_curvature(comp), abs=1e-8)

    def test_transform_jet_matches_fd_of_moved_surface(self):
        s = omega1()
        m = a1, a2, a3, a4, a5, theta = 0.3, -0.2, 0.5, 0.1, -0.7, 0.4
        ch, sh = math.cosh(theta), math.sinh(theta)

        def moved_value(u1, u2):
            x, y, z = s.value_arrays(u1, u2)
            return (a1 + x, a2 + a3 * x + ch * y + sh * z, a4 + a5 * x + sh * y + ch * z)

        direct = moved(m, jet(s, 0.4, 0.7))
        fd = fd_components(moved_value, np.array([0.4]), np.array([0.7]))
        assert sorted(fd) == sorted(direct)
        for key, value in direct.items():
            assert np.allclose(fd[key], value, atol=1e-6), key

    def test_w_and_epsilon_invariant(self):
        comp = jet(omega1(), 0.9, -0.3)
        m = (1.0, 2.0, -0.8, 0.5, 0.3, 1.1)
        d, d_m = point_data(comp), point_data(moved(m, comp))
        assert d_m["W"] == pytest.approx(d["W"], rel=1e-12)
        assert d_m["eps"] == d["eps"]


class TestTransformJet:
    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
    def test_equals_the_per_point_float_arithmetic(self, shape):
        rng = np.random.default_rng(len(shape))
        comp = {f"{a}{s}": rng.normal(size=shape) for s in SLOTS for a in "xyz"}
        motions = [tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=6)) for _ in range(4)]
        moved = transform_jet(motions, comp)
        assert sorted(moved) == sorted(comp)
        assert all(v.shape == (4, *shape) for v in moved.values())
        for i, (_, _, a3, _, a5, theta) in enumerate(motions):
            ch, sh = math.cosh(theta), math.sinh(theta)
            for idx in np.ndindex(*shape):
                for s in SLOTS:
                    x, y, z = (float(comp[f"{a}{s}"][idx]) for a in "xyz")
                    expect = (x, a3 * x + ch * y + sh * z, a5 * x + sh * y + ch * z)
                    got = tuple(float(moved[f"{a}{s}"][(i, *idx)]) for a in "xyz")
                    assert [v.hex() for v in got] == [v.hex() for v in expect]

    def test_takes_an_array_or_a_list_of_motions(self):
        rng = np.random.default_rng(9)
        comp = {f"{a}{s}": rng.normal(size=(2, 3)) for s in SLOTS for a in "xyz"}
        rows = rng.uniform(-1.0, 1.0, size=(5, 6))
        from_rows = transform_jet(rows, comp)
        from_motions = transform_jet([tuple(row) for row in rows], comp)
        for key, value in from_rows.items():
            assert value.shape == (5, 2, 3), key
            assert value.tobytes() == from_motions[key].tobytes(), key
        for none in (np.empty((0, 6)), []):
            assert all(v.shape == (0, 2, 3) for v in transform_jet(none, comp).values())

    @pytest.mark.parametrize("shape", [(6,), (4, 5), (0, 5), (4, 6, 1), (1, 1, 6)])
    def test_rejects_any_other_shape(self, shape):
        comp = {f"{a}{s}": np.ones(3) for s in SLOTS for a in "xyz"}
        with pytest.raises(InvalidParams, match=r"\(m, 6\)"):
            transform_jet(np.zeros(shape), comp)


class TestUniformDraws:
    def test_reference_loop_gives_the_published_outputs(self):
        # the outputs of SplitMix64 seeded with 1234567, as published with
        # the generator's reference implementation
        assert splitmix64(1234567, 3) == [6457827717110365317, 3203168211198807973,
                                          9817491932198370423]
        assert uniform_draws(1234567, 3, 0.0, 1.0).tolist() == [
            (z >> 11) * 2.0**-53 for z in (6457827717110365317, 3203168211198807973,
                                           9817491932198370423)]

    @pytest.mark.parametrize("seed", [0, 1, 4, 1234567, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("low,high", [(-1.0, 1.0), (-1.5, 1.5), (0.0, 1.0)])
    def test_equals_the_reference_loop(self, seed, low, high):
        got = uniform_draws(seed, 600, low, high)
        assert got.dtype == np.float64 and got.shape == (600,)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in uniforms(seed, 600, low, high)]
        assert np.all((low <= got) & (got <= high))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_the_first_draws_of_more_are_the_draws_of_fewer(self, seed):
        many = uniform_draws(seed, 1000, -1.0, 1.0)
        for n in (0, 1, 6, 257, 999):
            assert uniform_draws(seed, n, -1.0, 1.0).shape == (n,)
            assert uniform_draws(seed, n, -1.0, 1.0).tobytes() == many[:n].tobytes()

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.0, "0", True, None])
    def test_seed_outside_64_bits_is_invalid(self, seed):
        with pytest.raises(InvalidParams, match=r"seed must be an integer in 0\.\.18446744073709551615"):
            uniform_draws(seed, 3, -1.0, 1.0)

    def test_numpy_integer_seeds(self):
        assert (uniform_draws(np.uint64(2**64 - 1), 5, -1.0, 1.0).tobytes()
                == uniform_draws(2**64 - 1, 5, -1.0, 1.0).tobytes())
        with pytest.raises(InvalidParams):
            uniform_draws(np.int64(-1), 5, -1.0, 1.0)


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

    def test_masks_index_like_the_grid(self):
        # Y = 1 and Z = z2 here, so the column with z2 = -1 is lightlike:
        # K and H are NaN there and only there
        out = curvature_arrays(_mixed(self.Z1, self.Z2))
        assert out["lightlike"][:, 1].all() and not out["lightlike"][:, [0, 2]].any()
        for key in ("K", "H"):
            assert np.array_equal(np.isnan(out[key]), out["lightlike"]), key
        out = curvature_arrays(_mixed(self.Z1, self.Z2, x1=0.0))
        assert out["inadmissible"].shape == (4, 3) and out["inadmissible"].all()
        assert np.isnan(out["K"]).all() and np.isnan(out["H"]).all()

    @pytest.mark.parametrize("inputs", ["mixed", "analytic", "materialised", "one point"])
    def test_outputs_are_read_only_and_inputs_untouched(self, inputs):
        comp = _mixed(self.Z1, self.Z2)
        if inputs == "analytic":
            comp = jet_component_arrays(thm42_family(0.5), self.Z1, self.Z2 - 2.0)
        elif inputs == "materialised":
            comp = _materialised(comp)
        elif inputs == "one point":
            comp = {k: np.array(v[(0,) * v.ndim]) for k, v in comp.items()}
        shape = np.broadcast_shapes(*(v.shape for v in comp.values()))
        before = {k: v.copy() for k, v in comp.items()}
        motions = np.array([[0.1, -0.2, 0.3, 0.4, -0.5, 0.6], [0.0, 0.0, -0.7, 0.0, 0.2, -0.3]])
        outputs = [(curvature_arrays(comp), shape), (transform_jet(motions, comp), (2, *shape))]
        for out, out_shape in outputs:
            for key, value in out.items():
                assert isinstance(value, np.ndarray) and value.shape == out_shape, key
                assert not value.flags.writeable, key
        for key, value in comp.items():
            assert value.flags.writeable and value.tobytes() == before[key].tobytes(), key

    def test_transform_jet_takes_the_broadcast_shape(self):
        comp = _mixed(self.Z1, self.Z2)
        motions = [(0.1, -0.2, 0.3, 0.4, -0.5, 0.6), (0.0, 0.0, -0.7, 0.0, 0.2, -0.3)]
        moved, ref = transform_jet(motions, comp), transform_jet(motions, _materialised(comp))
        for key, value in ref.items():
            assert moved[key].shape == (2, 4, 3), key
            assert moved[key].tobytes() == value.tobytes(), key


_COMPONENT_KEYS = tuple(f"{a}{slot}" for slot in SLOTS for a in "xyz")
_MAG = st.floats(0.5, 2.0) | st.floats(-2.0, -0.5)
_FREE = st.floats(-2.0, 2.0)
# |Z / Y|, so that q = Y^2 - Z^2 stays above 0.35 of its larger term
_RATIO = st.floats(0.0, 0.8) | st.floats(1.25, 3.0)
# the forced point's first partials (x1, y1, z1, x2, y2, z2): Y = Z = 1
# (W = 0, lightlike), and both x-partials 0 (inadmissible and lightlike)
_FORCED = {"lightlike": (1.0, 0.0, 0.0, 0.0, 1.0, 1.0),
           "inadmissible": (0.0, 0.5, -1.0, 0.0, 1.5, 2.0)}


def _clean_point(x1, x2, y1, z1, Y, ratio, *second):
    """Jet components x1..z22 of one point where Y = x1*y2 - x2*y1 and
    Z = x1*z2 - x2*z1 are `Y` and `ratio*Y` up to rounding, so W is far
    from 0; `second` holds the nine second partials."""
    first = (x1, y1, z1, x2, (Y + x2 * y1) / x1, (ratio * Y + x2 * z1) / x1)
    return dict(zip(_COMPONENT_KEYS, first + second))


class TestMaskingKeepsTheOtherBits:
    """A block with no masked point skips `curvature_arrays`' masking
    work; forcing one point lightlike or inadmissible sends the block down
    the masked path, and every other point keeps its bits."""

    @settings(max_examples=150, deadline=None)
    @given(forced=st.sampled_from(sorted(_FORCED)), pick=st.integers(0, 11),
           points=st.lists(st.tuples(_MAG, _MAG, _FREE, _FREE, _MAG, _RATIO, *[_FREE] * 9),
                           min_size=1, max_size=12))
    def test_one_masked_point(self, forced, pick, points):
        rows = [_clean_point(*p) for p in points]
        comp = {k: np.array([r[k] for r in rows]) for k in _COMPONENT_KEYS}
        i = pick % len(points)
        masked = {k: v.copy() for k, v in comp.items()}
        for k, value in zip(_COMPONENT_KEYS, _FORCED[forced]):
            masked[k][i] = value
        clean, out = curvature_arrays(comp), curvature_arrays(masked)
        assert not (clean["lightlike"].any() or clean["inadmissible"].any())
        keep = np.arange(len(points)) != i
        for key, value in clean.items():
            assert out[key][keep].tobytes() == value[keep].tobytes(), key
        assert np.isnan(out["K"][i]) and np.isnan(out["H"][i])
        assert out["lightlike"][i] and out["inadmissible"][i] == (forced == "inadmissible")
        # W and the x-partial divide only where they are safe
        assert all(np.isfinite(out[key][i]) for key in ("ny", "nz", "L11", "L12", "L22"))
