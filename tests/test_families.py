import numpy as np
import pytest

from pgsurf.core import Motion
from pgsurf.errors import DomainError, InvalidParams, LightlikeSurface
from pgsurf.factorable import default_grid, specialized_grid
from pgsurf.families import (
    family_surface,
    fixtures_flat_minimal,
    perturb_exponent,
    sample_params,
    thm31_family,
    thm32_family,
    thm42_family,
)
from pgsurf.factorable import h_first, h_second, k_first, k_second
from pgsurf.surface import (
    fundamental_data,
    gaussian_curvature,
    jet_components,
    jet_from_components,
    mean_curvature,
    transform_jet,
)


def epsilon(jet):
    return fundamental_data(jet).epsilon


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
            assert k_first(shifted, x, y) == pytest.approx(
                k_first(plain, x + lam1 / rho, y), abs=1e-12)

    def test_mirror_sign_leaves_k(self):
        a, b = thm31_family(1.3, sign=1), thm31_family(1.3, sign=-1)
        for x, y in [(0.2, 0.3), (-1.0, 0.9)]:
            assert k_first(a, x, y) == pytest.approx(k_first(b, x, y), abs=1e-12)

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
            assert h_first(s, 0.0, y) == pytest.approx(0.5, abs=1e-12)

    def test_spacelike_variant_mean_curvature(self):
        # minus radicand: needs (2 h0 y + lam1)^2 > 1, carries H = -h0
        s = thm32_family(0.5, causal="spacelike")
        lo = s.g.domain[0]
        for y in (lo + 0.3, lo + 1.0):
            assert h_first(s, 0.0, y) == pytest.approx(-0.5, abs=1e-12)

    def test_variant_names_vs_measured_epsilon(self):
        # the statement's labels are swapped relative to the measured causal
        # character: the 'timelike'-named variant measures spacelike (+1)
        tl = thm32_family(0.5, causal="timelike")
        sp = thm32_family(0.5, causal="spacelike")
        assert epsilon(tl.jet(0.0, 0.3)) == 1
        lo = sp.g.domain[0]
        assert epsilon(sp.jet(0.0, lo + 0.5)) == -1

    def test_lam2_translation_leaves_h(self):
        a = thm32_family(1.0, lam2=0.0, causal="timelike")
        b = thm32_family(1.0, lam2=5.0, causal="timelike")
        for y in (-0.5, 0.7):
            assert h_first(a, 0.0, y) == h_first(b, 0.0, y)

    def test_domain_guard(self):
        s = thm32_family(0.5, causal="spacelike")
        with pytest.raises(DomainError):
            s.g(0.0)  # w = 2*0.5*0 + 0 = 0 is inside the forbidden band

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
            assert abs(h_second(s, y, z)) == pytest.approx(0.5, abs=1e-12)

    def test_spacelike_variant(self):
        s = thm42_family(0.5, causal="spacelike")
        lo = s.g.domain[0]
        for z in (lo + 0.3, lo + 1.2):
            assert abs(h_second(s, 0.2, z)) == pytest.approx(0.5, abs=1e-11)

    def test_names_match_measured_epsilon(self):
        tl = thm42_family(0.5, causal="timelike")
        assert epsilon(tl.jet(0.0, 0.0)) == -1
        sp = thm42_family(0.5, causal="spacelike")
        lo = sp.g.domain[0]
        assert epsilon(sp.jet(0.0, lo + 0.5)) == 1

    def test_lam1_scaling_leaves_h(self):
        a = thm42_family(0.5, lam1=1.0)
        b = thm42_family(0.5, lam1=3.0)
        for y, z in [(0.1, 0.2), (-0.4, 0.9)]:
            assert h_second(a, y, z) == pytest.approx(h_second(b, y, z), rel=1e-12)

    def test_rate_sign_flip_keeps_magnitude(self):
        a = thm42_family(0.5, lam2=1.0)
        b = thm42_family(0.5, lam2=-1.0)
        for y, z in [(0.0, 0.0), (0.3, -0.6)]:
            assert abs(h_second(a, y, z)) == pytest.approx(abs(h_second(b, y, z)), rel=1e-12)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            thm42_family(0.0)
        with pytest.raises(InvalidParams):
            thm42_family(0.5, lam1=0.0)
        with pytest.raises(InvalidParams):
            thm42_family(0.5, causal="null")


class TestFixtures:
    def test_labels_and_expectations(self):
        fixtures = {fx.label: fx for fx in fixtures_flat_minimal()}
        assert set(fixtures) == {"linear", "saddle", "exp_exp"}

        lin = fixtures["linear"].surface
        for y in (-1.0, 0.0, 2.0):
            assert k_first(lin, 0.0, y) == 0.0
            assert h_first(lin, 0.0, y) == 0.0

        saddle = fixtures["saddle"].surface
        assert k_first(saddle, 0.0, 0.0) == -1.0
        for x, y in [(0.3, -0.2), (0.5, 0.5)]:
            assert h_first(saddle, x, y) == 0.0

        ee = fixtures["exp_exp"].surface
        assert k_second(ee, 0.2, -0.4) == 0.0
        with pytest.raises(LightlikeSurface):
            fundamental_data(ee.jet(0.2, -0.4))

    def test_fixture_expected_annotations(self):
        for fx in fixtures_flat_minimal():
            if fx.expected_K is not None and fx.label != "exp_exp":
                assert k_first(fx.surface, 0.1, 0.2) == pytest.approx(fx.expected_K, abs=1e-12)


class TestParameterSweep:
    @pytest.mark.parametrize("family,causal", [
        ("thm31", "timelike"),
        ("thm32", "spacelike"), ("thm32", "timelike"),
        ("thm42", "spacelike"), ("thm42", "timelike"),
    ])
    def test_constancy_under_random_draws(self, family, causal):
        rng = np.random.default_rng(42)
        for _ in range(20):
            params = sample_params(family, rng, causal=causal)
            surface = family_surface(family, params)
            data = specialized_grid(surface, default_grid(surface, 12, 12))
            assert not np.any(data["excluded"])
            if family == "thm31":
                values = data["K"]
                expected = -abs(params["k0"])
            else:
                values = np.abs(data["H"])
                expected = abs(params["h0"])
            assert np.max(np.abs(values - expected)) < 1e-7

    def test_family_surface_by_name(self):
        s = family_surface("thm31", {"k0": 2.0, "lam1": 0.1})
        assert k_first(s, 0.0, 0.0) == pytest.approx(-2.0, abs=1e-12)
        with pytest.raises(InvalidParams):
            family_surface("nope")
        with pytest.raises(InvalidParams):
            family_surface("saddle", {"k0": 1.0})


class TestMotionInvariance:
    def test_family_statistics_invariant(self):
        rng = np.random.default_rng(3)
        s = thm42_family(0.5, causal="timelike")
        grid = default_grid(s, 6, 6)
        U1, U2 = grid.mesh()
        m = Motion(*rng.uniform(-1, 1, size=6))
        for u1, u2 in zip(U1.ravel()[::5], U2.ravel()[::5]):
            jet = s.jet(float(u1), float(u2))
            moved = jet_from_components(jet.r, transform_jet([m], jet_components([jet])))
            assert gaussian_curvature(moved) == pytest.approx(gaussian_curvature(jet), abs=1e-8)
            assert mean_curvature(moved) == pytest.approx(mean_curvature(jet), abs=1e-8)


class TestPerturbation:
    def test_identity_scale_keeps_constancy(self):
        s = perturb_exponent(thm42_family(0.5), 1.0)
        for y, z in [(0.0, 0.0), (0.3, 0.5)]:
            assert abs(h_second(s, y, z)) == pytest.approx(0.5, abs=1e-12)

    def test_scaled_exponent_breaks_constancy(self):
        s = perturb_exponent(thm42_family(0.5), 1.01)
        values = [abs(h_second(s, y, z)) for y in (0.0, 0.4) for z in (-0.8, 0.0, 0.9)]
        assert np.max(np.abs(np.array(values) - 0.5)) > 1e-3

    def test_requires_positive_g(self):
        s = perturb_exponent(thm31_family(1.0, lam2=-5.0), 1.01)
        with pytest.raises(DomainError):
            s.g(0.0)  # g = y - 5 is negative there
