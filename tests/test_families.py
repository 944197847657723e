import inspect
import math
import warnings
from typing import get_args

import numpy as np
import pytest

from pgsurf.errors import InvalidParams
from pgsurf.factorable import (GridSpec, closed_H, closed_K, default_grid, pipeline_grid,
                               specialized_grid)
from pgsurf.families import (
    FAMILIES,
    Causal,
    family_surface,
    perturb_exponent,
    sample_params,
    thm31_family,
    thm32_family,
    thm42_family,
)
from pgsurf.surface import curvature_arrays, gaussian_curvature, mean_curvature

from one_point import closed_value, jet, moved, point_data


def k_closed(s, u1, u2):
    return closed_value(closed_K, s, u1, u2)


def h_closed(s, u1, u2):
    return closed_value(closed_H, s, u1, u2)


def epsilon(comp):
    return point_data(comp)["eps"]


def field_stats(surface, field="K", n=25):
    data = specialized_grid(surface, default_grid(surface, n, n))
    values = data[field][~data["excluded"]]
    if field == "H":
        values = values
    return values


class TestThm31:
    def test_constant_minus_abs_k0(self):
        for k0 in (1.0, -2.5, 0.3):
            values = field_stats(thm31_family(k0, lam1=0.4, lam2=-1.0, sign=-1))
            assert np.max(np.abs(values - (-abs(k0)))) < 1e-9

    def test_lambda1_is_a_reparametrization(self):
        k0, lam1 = 2.0, 0.8
        shifted = thm31_family(k0, lam1=lam1)
        plain = thm31_family(k0, lam1=0.0)
        rho = np.sqrt(k0)
        for x, y in [(0.1, 0.5), (-0.7, 1.0)]:
            assert k_closed(shifted, x, y) == pytest.approx(
                k_closed(plain, x + lam1 / rho, y), abs=1e-12)

    def test_mirror_sign_leaves_k(self):
        a, b = thm31_family(1.3, sign=1), thm31_family(1.3, sign=-1)
        for x, y in [(0.2, 0.3), (-1.0, 0.9)]:
            assert k_closed(a, x, y) == pytest.approx(k_closed(b, x, y), abs=1e-12)

    def test_invalid_k0(self):
        with pytest.raises(InvalidParams):
            thm31_family(0.0)
        with pytest.raises(InvalidParams):
            thm31_family(1.0, sign=2)


class TestThm32:
    def test_timelike_variant_mean_curvature(self):
        # plus radicand: defined for all y, pipeline H equals +h0
        s = thm32_family(0.5, causal="timelike")
        for y in (-2.0, 0.0, 1.5):
            assert h_closed(s, 0.0, y) == pytest.approx(0.5, abs=1e-12)

    def test_spacelike_variant_mean_curvature(self):
        # minus radicand: needs (2 h0 y + lam1)^2 > 1, carries H = -h0
        s = thm32_family(0.5, causal="spacelike")
        lo = s.g.domain[0]
        for y in (lo + 0.3, lo + 1.0):
            assert h_closed(s, 0.0, y) == pytest.approx(-0.5, abs=1e-12)

    def test_variant_names_vs_measured_epsilon(self):
        # the statement's labels are swapped relative to the measured causal
        # character: the 'timelike'-named variant measures spacelike (+1)
        tl = thm32_family(0.5, causal="timelike")
        sp = thm32_family(0.5, causal="spacelike")
        assert epsilon(jet(tl, 0.0, 0.3)) == 1
        lo = sp.g.domain[0]
        assert epsilon(jet(sp, 0.0, lo + 0.5)) == -1

    def test_lam2_translation_leaves_h(self):
        a = thm32_family(1.0, lam2=0.0, causal="timelike")
        b = thm32_family(1.0, lam2=5.0, causal="timelike")
        for y in (-0.5, 0.7):
            assert h_closed(a, 0.0, y) == h_closed(b, 0.0, y)

    def test_domain_guard(self):
        # w = 2*0.5*0 + 0 = 0 is inside the band where w^2 - 1 <= 0: every
        # view of g is NaN there, with no error and no warning
        s = thm32_family(0.5, causal="spacelike")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all(np.isnan(view(0.0)) for view in (s.g, s.g.deriv, s.g.deriv2))

    def test_magnitude_example(self):
        # h0 = 1/2, timelike, lam = 0: the graph is z = sqrt(y^2 + 1)
        s = thm32_family(0.5, causal="timelike")
        ys = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(s.f(0.0) * s.g(ys), np.sqrt(ys**2 + 1.0), atol=1e-14)


class TestThm42:
    def test_default_timelike_magnitude(self):
        # x = exp(y + sqrt(z^2 + 1)) has |H| = 1/2
        s = thm42_family(0.5)
        ys = np.array([0.0])
        zs = np.array([0.4])
        assert np.allclose(s.f(ys) * s.g(zs), np.exp(ys + np.sqrt(zs**2 + 1.0)), atol=1e-12)
        for y, z in [(0.0, 0.0), (0.5, -1.0), (-0.3, 0.8)]:
            assert abs(h_closed(s, y, z)) == pytest.approx(0.5, abs=1e-12)

    def test_spacelike_variant(self):
        s = thm42_family(0.5, causal="spacelike")
        lo = s.g.domain[0]
        for z in (lo + 0.3, lo + 1.2):
            assert abs(h_closed(s, 0.2, z)) == pytest.approx(0.5, abs=1e-11)

    def test_names_match_measured_epsilon(self):
        tl = thm42_family(0.5, causal="timelike")
        assert epsilon(jet(tl, 0.0, 0.0)) == -1
        sp = thm42_family(0.5, causal="spacelike")
        lo = sp.g.domain[0]
        assert epsilon(jet(sp, 0.0, lo + 0.5)) == 1

    def test_lam1_scaling_leaves_h(self):
        a = thm42_family(0.5, lam1=1.0)
        b = thm42_family(0.5, lam1=3.0)
        for y, z in [(0.1, 0.2), (-0.4, 0.9)]:
            assert h_closed(a, y, z) == pytest.approx(h_closed(b, y, z), rel=1e-12)

    def test_rate_sign_flip_keeps_magnitude(self):
        a = thm42_family(0.5, lam2=1.0)
        b = thm42_family(0.5, lam2=-1.0)
        for y, z in [(0.0, 0.0), (0.3, -0.6)]:
            assert abs(h_closed(a, y, z)) == pytest.approx(abs(h_closed(b, y, z)), rel=1e-12)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            thm42_family(0.0)
        with pytest.raises(InvalidParams):
            thm42_family(0.5, lam1=0.0)
        with pytest.raises(InvalidParams):
            thm42_family(0.5, causal="null")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build, kwargs, key", [
    (thm31_family, dict(k0=1.0), "lam1"),
    (thm31_family, dict(k0=1.0), "lam2"),
    (thm32_family, dict(h0=0.5), "lam1"),
    (thm32_family, dict(h0=0.5), "lam2"),
    (thm42_family, dict(h0=0.5), "lam1"),
    (thm42_family, dict(h0=0.5), "lam2"),
    (thm42_family, dict(h0=0.5), "lam3"),
])
def test_non_finite_shift_is_named(build, kwargs, key, bad):
    with pytest.raises(InvalidParams, match=f"^{key} must be a finite real$"):
        build(**kwargs, **{key: bad})


class TestFixtures:
    def test_labels_and_expectations(self):
        assert [name for name, row in FAMILIES.items() if row.field is None] == [
            "linear", "saddle", "exp_exp"]

        lin = family_surface("linear")
        for y in (-1.0, 0.0, 2.0):
            assert k_closed(lin, 0.0, y) == 0.0
            assert h_closed(lin, 0.0, y) == 0.0

        saddle = family_surface("saddle")
        assert k_closed(saddle, 0.0, 0.0) == -1.0
        for x, y in [(0.3, -0.2), (0.5, 0.5)]:
            assert h_closed(saddle, x, y) == 0.0

        ee = family_surface("exp_exp")
        assert k_closed(ee, 0.2, -0.4) == 0.0
        # W == 0 identically: the pipeline masks the point, K and H NaN
        comp = jet(ee, 0.2, -0.4)
        assert curvature_arrays(comp)["lightlike"][0]
        assert math.isnan(gaussian_curvature(comp)) and math.isnan(mean_curvature(comp))

    def test_fixture_expected_annotations(self):
        # the plane's K is the constant 0; the saddle's K is not constant,
        # and the exp_exp K = 0 is the flat-limit convention, checked above
        assert k_closed(family_surface("linear"), 0.1, 0.2) == pytest.approx(0.0, abs=1e-12)


# each sampled family with each causal variant its constructor takes
SAMPLED = [(name, causal) for name, row in FAMILIES.items() if row.sample
           for causal in (get_args(Causal) if "causal" in inspect.signature(row.build).parameters
                          else ("timelike",))]


class TestParameterSweep:
    def test_every_family_is_sampled(self):
        assert [name for name, _ in SAMPLED] == ["thm31", "thm32", "thm32", "thm42", "thm42"]

    @pytest.mark.parametrize("family,causal", SAMPLED)
    def test_constancy_under_random_draws(self, family, causal):
        field = FAMILIES[family].field
        for j in range(20):
            params = sample_params(family, 42_000 + j, causal=causal)
            surface = family_surface(family, params)
            data = specialized_grid(surface, default_grid(surface, 12, 12))
            assert not np.any(data["excluded"])
            # the field the row names, as `verify` reads it
            if field == "K":
                values, expected = data["K"], -abs(params["k0"])
            else:
                values, expected = np.abs(data["H"]), abs(params["h0"])
            assert np.max(np.abs(values - expected)) < 1e-7

    @pytest.mark.parametrize("family,shift", [("thm32", "lam1"), ("thm42", "lam3")])
    def test_other_radicand_component(self, family, shift):
        """|H| = |h0| on the radicand's other component w < -1 of the
        'spacelike'-named variants, where the grid commands print it: on
        the mirror image under w -> -w of the default u2 range, every point
        is included on both routes, within 1e-10 of |h0| relative (the
        largest gap over the draws of seeds 0..199 is 1.5e-12 for thm32 and
        2.0e-11 for thm42).  The exact statement is not proven here."""
        for seed in range(200):
            params = sample_params(family, seed, causal="spacelike")
            h0, lam = params["h0"], params[shift]
            surface = family_surface(family, params)
            grid = default_grid(surface)
            u2 = sorted((-(2.0 * h0 * t + lam) - lam) / (2.0 * h0) for t in grid.u2)
            grid = GridSpec(grid.u1, tuple(u2), grid.n1, grid.n2)
            for data in (pipeline_grid(surface, grid), specialized_grid(surface, grid)):
                assert np.all(2.0 * h0 * data["U2"] + lam < -1.0)
                assert not np.any(data["excluded"]), (seed, params)
                gap = np.max(np.abs(np.abs(data["H"]) - abs(h0))) / abs(h0)
                assert gap < 1e-10, (seed, params, gap)

    def test_family_surface_by_name(self):
        s = family_surface("thm31", {"k0": 2.0, "lam1": 0.1})
        assert k_closed(s, 0.0, 0.0) == pytest.approx(-2.0, abs=1e-12)
        # each fixture name builds its own fixture: z = 2(y+3), z = xy and
        # x = exp(y)exp(z), at u = 0.5
        built = {name: (s.kind, float(s.f(0.5)), float(s.g(0.5)))
                 for name in ("linear", "saddle", "exp_exp") for s in [family_surface(name)]}
        assert built == {"linear": ("first", 2.0, 3.5), "saddle": ("first", 0.5, 0.5),
                         "exp_exp": ("second", float(np.exp(0.5)), float(np.exp(0.5)))}
        with pytest.raises(InvalidParams):
            family_surface("nope")
        with pytest.raises(InvalidParams, match="'saddle' takes no parameter 'k0'"):
            family_surface("saddle", {"k0": 1.0})

    @pytest.mark.parametrize("name,params,message", [
        ("thm31", {"k0": 1.0, "lamda1": 0.1}, "takes no parameter 'lamda1'"),
        ("thm42", {"h0": 0.5, "causal": "timelike", "z0": 1.2}, "takes no parameter 'z0'"),
        ("thm31", {"k0": "1"}, "'k0' must be a real number"),
        ("thm31", {"k0": 1.0, "sign": True}, "'sign' must be an integer"),
        ("thm32", {"h0": None}, "'h0' must be a real number"),
        ("thm42", {"h0": 0.5, "lam2": "x"}, "'lam2' must be a real number"),
    ])
    def test_bad_parameter_is_invalid_params(self, name, params, message):
        with pytest.raises(InvalidParams, match=message):
            family_surface(name, params)

    def test_fixtures_have_no_sampler(self):
        for name in ("linear", "saddle", "exp_exp", "nope"):
            with pytest.raises(InvalidParams, match="no parameter sampler"):
                sample_params(name, 0)

    # every sampled value at the smallest and the largest seed, by float.hex
    # (thm31's `sign` as itself); the families read the same draws in order,
    # so k0 and h0, and thm31's and thm32's shifts, agree at a seed
    PINS = {
        ("thm31", 0): {"k0": "-0x1.7587c86a8cf7bp-1", "lam1": "-0x1.e4ee8b9dffdb0p+0",
                       "lam2": "0x1.e22ee2a1c9320p+0", "sign": 1},
        ("thm31", 2**64 - 1): {"k0": "-0x1.abee7edd570dfp+2", "lam1": "-0x1.1f401ecd36360p+0",
                               "lam2": "-0x1.2e24c93345680p-2", "sign": -1},
        ("thm32", 0): {"h0": "-0x1.7587c86a8cf7bp-1", "lam1": "-0x1.e4ee8b9dffdb0p+0",
                       "lam2": "0x1.e22ee2a1c9320p+0", "f0": "0x1.93011bc102271p-1"},
        ("thm32", 2**64 - 1): {"h0": "-0x1.abee7edd570dfp+2", "lam1": "-0x1.1f401ecd36360p+0",
                               "lam2": "-0x1.2e24c93345680p-2", "f0": "-0x1.9186339a2d21bp+0"},
        ("thm42", 0): {"h0": "-0x1.7587c86a8cf7bp-1", "lam1": "0x1.f2f48326c805ep+0",
                       "lam2": "0x1.a548acab97bb3p-1", "lam3": "-0x1.4df5950782eb4p+0"},
        ("thm42", 2**64 - 1): {"h0": "-0x1.abee7edd570dfp+2", "lam1": "0x1.fde7f3fcc8d14p-1",
                               "lam2": "-0x1.b173f00bdf634p+0", "lam3": "0x1.c53cb3e00820ep+0"},
    }

    @pytest.mark.parametrize("family,seed", PINS)
    def test_sampled_values_are_pinned(self, family, seed):
        for causal in get_args(Causal) if family != "thm31" else ("timelike",):
            params = sample_params(family, seed, causal)
            assert params.pop("causal", causal) == causal
            assert {key: value.hex() if isinstance(value, float) else value
                    for key, value in params.items()} == self.PINS[family, seed]

    # the closed range of each sampled magnitude; every other value is a
    # shift in [-2, 2)
    MAGNITUDES = {
        "thm31": {"k0": (0.1, 10.0), "sign": (1, 1)},
        "thm32": {"h0": (0.1, 10.0), "f0": (0.5, 2.0)},
        "thm42": {"h0": (0.1, 10.0), "lam1": (0.25, 2.0), "lam2": (0.25, 2.0)},
    }

    @pytest.mark.parametrize("family", MAGNITUDES)
    def test_sampled_values_lie_in_their_ranges(self, family):
        """Over seeds 0..9999 every value lies in its range, and both signs
        of every value are drawn."""
        magnitudes, signs = self.MAGNITUDES[family], {}
        for seed in range(10_000):
            params = sample_params(family, seed)
            params.pop("causal", None)
            for key, value in params.items():
                if key in magnitudes:
                    lo, hi = magnitudes[key]
                    assert lo <= abs(value) <= hi, (seed, key, value)
                else:
                    assert -2.0 <= value < 2.0, (seed, key, value)
                signs.setdefault(key, set()).add(value > 0)
        assert signs == {key: {True, False} for key in params}, signs

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.0, True, None])
    def test_seed_outside_the_draws_is_invalid(self, seed):
        for family in ("thm31", "thm32", "thm42"):
            with pytest.raises(InvalidParams, match="seed must be an integer"):
                sample_params(family, seed)


class TestMotionInvariance:
    def test_family_statistics_invariant(self):
        rng = np.random.default_rng(3)
        s = thm42_family(0.5, causal="timelike")
        grid = default_grid(s, 6, 6)
        U1, U2 = np.meshgrid(*grid.axes(), indexing="ij")
        m = rng.uniform(-1, 1, size=6)
        for u1, u2 in zip(U1.ravel()[::5], U2.ravel()[::5]):
            comp = jet(s, float(u1), float(u2))
            comp_m = moved(m, comp)
            assert gaussian_curvature(comp_m) == pytest.approx(gaussian_curvature(comp), abs=1e-8)
            assert mean_curvature(comp_m) == pytest.approx(mean_curvature(comp), abs=1e-8)


class TestPerturbation:
    def test_identity_scale_keeps_constancy(self):
        s = perturb_exponent(thm42_family(0.5), 1.0)
        for y, z in [(0.0, 0.0), (0.3, 0.5)]:
            assert abs(h_closed(s, y, z)) == pytest.approx(0.5, abs=1e-12)

    def test_scaled_exponent_breaks_constancy(self):
        s = perturb_exponent(thm42_family(0.5), 1.01)
        values = [abs(h_closed(s, y, z)) for y in (0.0, 0.4) for z in (-0.8, 0.0, 0.9)]
        assert np.max(np.abs(np.array(values) - 0.5)) > 1e-3

    @pytest.mark.parametrize("causal", ["timelike", "spacelike"])
    @pytest.mark.parametrize("h0,lam1,lam2,lam3", [
        (0.5, 1.0, 1.0, 0.0), (-1.3, 1.0, -2.0, 0.6), (-1.3, -0.7, -2.0, 0.0),
        (1.0, -0.7, 0.4, -1.1),
    ])
    def test_inverse_exponent_is_another_thm42_surface(self, h0, lam1, lam2, lam3, causal):
        # g^-1 = exp(-(lam2/(2 h0)) sqrt(w^2 + b)) is the g of h0 -> -h0 and
        # lam3 -> -lam3 (w -> -w): scale -1 keeps |H| = |h0| constant, so
        # it does not break constancy
        s = perturb_exponent(thm42_family(h0, lam1, lam2, lam3, causal), -1.0)
        twin = thm42_family(-h0, lam1, lam2, -lam3, causal)
        grid = default_grid(s, 20, 20)
        ours, theirs = specialized_grid(s, grid), specialized_grid(twin, grid)
        assert not ours["excluded"].any() and not theirs["excluded"].any()
        np.testing.assert_allclose(ours["H"], theirs["H"], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(ours["H"]), abs(h0), rtol=0.0, atol=1e-12)

    def test_requires_positive_g(self):
        s = perturb_exponent(thm31_family(1.0, lam2=-5.0), 1.01)
        with pytest.raises(InvalidParams, match="requires g > 0"):
            s.g(0.0)  # g = y - 5 is negative there
