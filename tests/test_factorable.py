import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsurf.errors import GridRejected, InvalidParams, LightlikeLocus, PGSurfError
from pgsurf.factorable import (
    FactorableSurface,
    GridSpec,
    ScalarC2,
    closed_H,
    closed_K,
    cross_check,
    default_grid,
    h_first,
    h_second,
    jet_component_arrays,
    k_first,
    k_second,
    pipeline_grid,
    specialized_H,
    specialized_K,
    specialized_grid,
)
from pgsurf.families import family_surface, thm31_family, thm32_family
from pgsurf.surface import curvature_arrays, finite_difference_jet, gaussian_curvature, mean_curvature

SADDLE = FactorableSurface("first", ScalarC2.linear(1.0), ScalarC2.linear(1.0))
EXP = ScalarC2(np.exp, np.exp, np.exp, name="exp")
QUAD = ScalarC2(lambda t: t**2, lambda t: 2.0 * t, lambda t: 2.0 + 0.0 * t, name="t^2")

small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def poly_surface(kind, a, b, c, d):
    f = ScalarC2(lambda t: a * t + b, lambda t: a + 0.0 * t, lambda t: 0.0 * t)
    g = ScalarC2(lambda t: c * t**2 + d, lambda t: 2.0 * c * t, lambda t: 2.0 * c + 0.0 * t)
    return FactorableSurface(kind, f, g)


class TestScalarC2:
    def test_derivative_consistency(self):
        s = thm31_family(2.0, lam1=0.3)
        for t in (-1.0, 0.0, 0.8):
            assert s.f.derivative_gap(t) < 1e-9

    def test_constant_and_linear_builders(self):
        c = ScalarC2.constant(3.0)
        lin = ScalarC2.linear(2.0, -1.0)
        ts = np.array([-1.0, 0.0, 4.0])
        assert np.all(c(ts) == 3.0) and np.all(c.deriv(ts) == 0.0)
        assert np.allclose(lin(ts), 2.0 * ts - 1.0)

    def test_bad_kind_rejected(self):
        with pytest.raises(InvalidParams):
            FactorableSurface("third", QUAD, QUAD)


class TestKFirst:
    def test_saddle_origin(self):
        assert k_first(SADDLE, 0.0, 0.0) == -1.0

    @settings(max_examples=40, deadline=None)
    @given(small, small, small)
    def test_constant_factor_flattens(self, c, x, y):
        s = FactorableSurface("first", QUAD, ScalarC2.constant(c))
        assert k_first(s, x, y) == 0.0

    def test_tanh_times_linear_is_minus_one(self):
        s = thm31_family(1.0)
        for x, y in [(-1.2, 0.3), (0.0, -0.7), (0.9, 2.0)]:
            assert k_first(s, x, y) == pytest.approx(-1.0, abs=1e-12)

    def test_tanh_against_fd_pipeline_oracle(self):
        # independent route: finite differences of the parametrization, then
        # the general pipeline; relation K_pipeline = -eps * K_closed with
        # eps = +1 on this spacelike family
        s = thm31_family(1.0)
        for x, y in [(0.25, -0.4), (-0.6, 1.1)]:
            fd = finite_difference_jet(s.position, x, y)
            assert -gaussian_curvature(fd) == pytest.approx(k_first(s, x, y), abs=1e-5)

    def test_lightlike_locus_raises(self):
        s = FactorableSurface("first", ScalarC2.constant(1.0), ScalarC2.linear(1.0))
        with pytest.raises(LightlikeLocus):
            k_first(s, 0.2, 0.4)

    def test_wrong_kind_rejected(self):
        s = FactorableSurface("second", QUAD, QUAD)
        with pytest.raises(InvalidParams):
            k_first(s, 0.1, 0.1)


class TestHFirst:
    @settings(max_examples=40, deadline=None)
    @given(small, small)
    def test_linear_g_is_minimal(self, x, y):
        s = FactorableSurface("first", QUAD, ScalarC2.linear(0.5, 1.0))
        # skip the lightlike locus (f g')^2 = 1
        if abs(1.0 - (float(QUAD(x)) * 0.5) ** 2) < 1e-6:
            return
        assert h_first(s, x, y) == 0.0

    def test_sqrt_profile_unit_mean_curvature(self):
        s = thm32_family(1.0, causal="spacelike")
        lo = s.g.domain[0]
        for y in (lo + 0.2, lo + 0.6, lo + 1.4):
            assert abs(h_first(s, 0.0, y)) == pytest.approx(1.0, abs=1e-10)

    def test_plugin_arithmetic_example(self):
        # f = 2, g = y^2/4: at y = 0, H = f g''/2 = 2*(1/2)/2 = 1/2
        g = ScalarC2(lambda t: t**2 / 4.0, lambda t: t / 2.0, lambda t: 0.5 + 0.0 * t)
        s = FactorableSurface("first", ScalarC2.constant(2.0), g)
        assert h_first(s, 0.0, 0.0) == pytest.approx(0.5, abs=1e-14)


class TestKSecond:
    def test_equal_rate_exponentials_flat_limit(self):
        s = FactorableSurface("second", EXP, EXP)
        for y, z in [(0.0, 0.0), (0.5, -0.3), (-1.0, 1.0)]:
            assert k_second(s, y, z) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(small, small, small)
    def test_constant_factor_flattens(self, c, y, z):
        s = FactorableSurface("second", ScalarC2.constant(c), QUAD)
        if abs(c) < 1e-3 or abs(z) < 1e-3:
            return  # keep the denominator (c*2z)^4 well away from zero
        assert k_second(s, y, z) == 0.0

    def test_plugin_arithmetic_example(self):
        s = poly_surface("second", 1.0, 0.0, 1.0, 0.0)  # f = y, g = z^2
        assert k_second(s, 1.0, 1.0) == pytest.approx(-4.0 / 9.0, rel=1e-14)

    def test_lightlike_without_flat_numerator_raises(self):
        s = FactorableSurface("second", ScalarC2.linear(1.0), ScalarC2.linear(1.0))
        with pytest.raises(LightlikeLocus):
            k_second(s, 1.0, 1.0)  # (fg')^2 == (f'g)^2 with nonzero numerator

    @settings(max_examples=30, deadline=None)
    @given(small, small)
    def test_role_symmetry(self, y, z):
        a = FactorableSurface("second", QUAD, CUBIC_LOCAL)
        b = FactorableSurface("second", CUBIC_LOCAL, QUAD)
        try:
            ka = k_second(a, y, z)
            kb = k_second(b, z, y)
        except LightlikeLocus:
            return
        if abs(ka) > 1e6:
            return  # near-singular denominators are numerically meaningless
        assert kb == pytest.approx(ka, rel=1e-8, abs=1e-9)


CUBIC_LOCAL = ScalarC2(lambda t: t**3 + 1.5, lambda t: 3.0 * t**2, lambda t: 6.0 * t)


class TestHSecond:
    def test_linear_pair_lightlike_on_diagonal(self):
        s = FactorableSurface("second", ScalarC2.linear(1.0), ScalarC2.linear(1.0))
        with pytest.raises(LightlikeLocus):
            h_second(s, 1.0, 1.0)

    def test_plugin_arithmetic_example(self):
        # f = y, g = z at (1, 2): timelike, H = -4 / (2*3^(3/2))
        s = FactorableSurface("second", ScalarC2.linear(1.0), ScalarC2.linear(1.0))
        assert h_second(s, 1.0, 2.0) == pytest.approx(-2.0 / 3.0**1.5, rel=1e-14)

    def test_equal_rate_exponentials_minimal(self):
        s = FactorableSurface("second", EXP, EXP)
        assert h_second(s, 0.3, -0.8) == 0.0


def _sweeps(s, grid):
    return pipeline_grid(s, grid), specialized_grid(s, grid)


class TestCrossCheck:
    def test_saddle_agreement(self):
        pipe, closed = _sweeps(SADDLE, GridSpec((-0.5, 0.5), (-0.5, 0.5), 15, 15))
        report = cross_check(pipe, closed)
        assert report.n_points == 225
        assert report.max_discrepancy < 1e-9
        # spacelike everywhere, so K_pipeline = -K_closed with K_closed != 0;
        # H vanishes identically on the saddle
        assert np.all(pipe["eps"] == 1.0) and np.all(closed["K"] < -0.1)
        assert np.max(np.abs(pipe["K"] - closed["K"])) > 0.2

    def test_thm31_agreement(self):
        s = thm31_family(2.0, lam1=0.4, lam2=-0.3)
        report = cross_check(*_sweeps(s, default_grid(s, 12, 12)))
        assert report.n_points == 144 and report.max_discrepancy < 1e-9

    def test_second_kind_H_factor_is_plus_one(self):
        s = poly_surface("second", 1.0, 0.2, 1.0, 0.5)
        pipe, closed = _sweeps(s, GridSpec((0.8, 1.4), (0.9, 1.3), 10, 10))
        assert cross_check(pipe, closed).max_discrepancy < 1e-9
        usable = np.abs(closed["H"]) > 1e-9 * np.maximum(1.0, np.abs(pipe["H"]))
        assert usable.any() and np.all(pipe["H"][usable] * closed["H"][usable] > 0)

    def test_lightlike_crossing_grid_rejected(self):
        # the saddle has f g' = x; a grid hitting x = 1 exactly is rejected
        grid = GridSpec((0.5, 1.5), (-0.5, 0.5), 21, 5)
        with pytest.raises(GridRejected):
            cross_check(*_sweeps(SADDLE, grid))

    @pytest.mark.parametrize("sweep", [0, 1])
    def test_one_excluded_point_in_either_sweep_rejected(self, sweep):
        sweeps = list(_sweeps(SADDLE, GridSpec((-0.5, 0.5), (-0.5, 0.5), 4, 4)))
        excluded = np.zeros((4, 4), dtype=bool)
        excluded[2, 1] = True
        sweeps[sweep] = {**sweeps[sweep], "excluded": excluded}
        with pytest.raises(GridRejected):
            cross_check(*sweeps)


class TestGridsAndReports:
    def test_grid_validation(self):
        with pytest.raises(InvalidParams):
            GridSpec((0.0, 1.0), (0.0, 1.0), 1, 5)
        with pytest.raises(InvalidParams):
            GridSpec((1.0, 0.0), (0.0, 1.0), 5, 5)
        with pytest.raises(InvalidParams):
            GridSpec((0.0, float("inf")), (0.0, 1.0), 5, 5)

    def test_default_grid_respects_semi_infinite_domain(self):
        s = thm32_family(0.5, causal="spacelike")
        grid = default_grid(s, 10, 10)
        lo = s.g.domain[0]
        assert grid.u2[0] > lo

    def test_curvature_report_constancy(self):
        s = thm31_family(1.5)
        closed = specialized_grid(s, default_grid(s, 15, 15))
        assert np.mean(closed["K"]) == pytest.approx(-1.5, abs=1e-10)
        assert np.max(np.abs(closed["K"] - np.mean(closed["K"]))) < 1e-9
        pipe = pipeline_grid(s, default_grid(s, 15, 15))
        assert np.mean(pipe["K"]) == pytest.approx(1.5, abs=1e-10)
        assert not np.any(closed["excluded"])

    def test_specialized_grid_marks_flat_limit_points(self):
        s = FactorableSurface("second", EXP, EXP)
        data = specialized_grid(s, GridSpec((-0.5, 0.5), (-0.5, 0.5), 5, 5))
        assert not np.any(data["excluded"])
        assert np.all(data["K"] == 0.0) and np.all(data["H"] == 0.0)
        pipe = pipeline_grid(s, GridSpec((-0.5, 0.5), (-0.5, 0.5), 5, 5))
        assert np.all(pipe["excluded"])


@pytest.mark.filterwarnings("error")
class TestFlatLimitPerQuantity:
    """Each second-kind quantity takes its flat limit 0 only where its own
    numerator vanishes together with the denominator.  Neither kernel
    warns on these degenerate surfaces."""

    ORIGIN = GridSpec((-1.0, 1.0), (-1.0, 1.0), 3, 3)  # point (1, 1) is (0, 0)

    def test_product_of_linears_is_minimal_but_not_flat(self):
        s = FactorableSurface("second", ScalarC2.linear(1.0), ScalarC2.linear(1.0))  # x = y*z
        with pytest.raises(LightlikeLocus):
            k_second(s, 0.0, 0.0)
        assert h_second(s, 0.0, 0.0) == 0.0
        data = specialized_grid(s, self.ORIGIN)
        assert data["excluded"][1, 1]
        assert np.isnan(data["K"][1, 1])
        assert data["H"][1, 1] == 0.0
        assert pipeline_grid(s, self.ORIGIN)["excluded"][1, 1]  # inadmissible there

    def test_quadratic_pair_is_flat_but_not_minimal(self):
        f = ScalarC2(lambda t: 1.0 + t + t * t, lambda t: 1.0 + 2.0 * t, lambda t: 2.0 + 0.0 * t)
        g = ScalarC2(lambda t: 1.0 + t + t * t / 4.0, lambda t: 1.0 + t / 2.0,
                     lambda t: 0.5 + 0.0 * t)
        s = FactorableSurface("second", f, g)
        assert k_second(s, 0.0, 0.0) == 0.0
        with pytest.raises(LightlikeLocus):
            h_second(s, 0.0, 0.0)
        data = specialized_grid(s, self.ORIGIN)
        assert data["excluded"][1, 1]
        assert data["K"][1, 1] == 0.0
        assert np.isnan(data["H"][1, 1])
        assert pipeline_grid(s, self.ORIGIN)["excluded"][1, 1]  # lightlike there


# profile coefficients that put the lightlike loci, the flat points and
# the inadmissible points of the two kinds onto grid nodes
_COEF = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 0.25, -0.75])
_AXIS = st.sampled_from([(-1.0, 1.0), (0.0, 2.0), (-2.0, 0.0), (-0.5, 1.5), (-1.0, 0.5)])


def quadratic(c0, c1, c2):
    return ScalarC2(lambda t: c0 + c1 * t + c2 * t * t, lambda t: c1 + 2.0 * c2 * t,
                    lambda t: 2.0 * c2 + 0.0 * t)


def same(scalar_view, grid_value):
    """The scalar view's value equals the grid's bit for bit; where the
    scalar view raises, the grid holds NaN."""
    try:
        value = scalar_view()
    except PGSurfError:
        return bool(np.isnan(grid_value))
    return value.hex() == float(grid_value).hex()


class TestScalarViewsEqualGrids:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["first", "second"]), fc=st.tuples(_COEF, _COEF, _COEF),
           gc=st.tuples(_COEF, _COEF, _COEF), u1=_AXIS, u2=_AXIS,
           n1=st.integers(2, 7), n2=st.integers(2, 7))
    def test_every_point_of_both_kernels(self, kind, fc, gc, u1, u2, n1, n2):
        s = FactorableSurface(kind, quadratic(*fc), quadratic(*gc))
        grid = GridSpec(u1, u2, n1, n2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closed, pipe = specialized_grid(s, grid), pipeline_grid(s, grid)
        for (i, j), a in np.ndenumerate(closed["U1"]):
            a, b = float(a), float(closed["U2"][i, j])
            jet = s.jet(a, b)
            assert same(lambda: specialized_K(s, a, b), closed["K"][i, j])
            assert same(lambda: specialized_H(s, a, b), closed["H"][i, j])
            assert same(lambda: gaussian_curvature(jet), pipe["K"][i, j])
            assert same(lambda: mean_curvature(jet), pipe["H"][i, j])


def _mesh_pipeline(s, grid, mode):
    """`pipeline_grid` rebuilt on the full mesh: every jet component and
    position materialised per grid point."""
    U1, U2 = grid.mesh()
    comp = jet_component_arrays(s, U1, U2, mode=mode)
    out = curvature_arrays({k: np.broadcast_to(v, U1.shape).copy() for k, v in comp.items()})
    x, y, z = s.value_arrays(U1, U2)
    excluded = out["lightlike"] | out["inadmissible"] | ~np.isfinite(out["K"]) | ~np.isfinite(out["H"])
    return {"U1": U1, "U2": U2, "x": x, "y": y, "z": z, "K": out["K"], "H": out["H"],
            "eps": out["eps"], "W": out["W"], "excluded": excluded}


def _mesh_closed(s, grid):
    """`specialized_grid` rebuilt on the full mesh through the public
    `closed_K` and `closed_H`."""
    U1, U2 = grid.mesh()
    parts = (s.f(U1), s.f.deriv(U1), s.f.deriv2(U1), s.g(U2), s.g.deriv(U2), s.g.deriv2(U2))
    K, k_undefined = closed_K(s.kind, *parts)
    H, h_undefined = closed_H(s.kind, *parts)
    x, y, z = s.value_arrays(U1, U2)
    return {"U1": U1, "U2": U2, "x": x, "y": y, "z": z, "K": K, "H": H,
            "excluded": k_undefined | h_undefined}


def _bitwise(got, ref):
    assert sorted(got) == sorted(ref)
    for key, value in ref.items():
        assert got[key].shape == value.shape and got[key].dtype == value.dtype, key
        assert got[key].tobytes() == value.tobytes(), key


class TestSeparableSweepsEqualTheMesh:
    """The sweeps evaluate each profile on its own axis and keep constant
    jet components 0-d; every output equals the full-mesh evaluation bit
    for bit."""

    CASES = [
        ("thm31", {"k0": 1.3, "lam1": 0.4, "lam2": -0.3, "sign": -1}, None),
        ("thm32", {"h0": 0.7, "lam1": 0.2, "f0": 1.5, "causal": "timelike"}, None),
        ("thm32", {"h0": -0.4, "lam1": -0.3, "lam2": 0.5, "causal": "spacelike"}, None),
        ("thm42", {"h0": -0.75, "lam1": 1.2, "lam2": -0.6, "lam3": 0.2, "causal": "timelike"}, None),
        ("thm42", {"h0": 0.9, "lam1": -0.7, "lam2": 0.8, "causal": "spacelike"}, None),
        # a grid column on the saddle's lightlike line x = 1
        ("saddle", {}, GridSpec((0.5, 1.5), (-0.3, 0.7), 21, 9)),
        ("linear", {}, None),
        ("exp_exp", {}, None),
        # the closed formulas' deadband finding of bench/README.md
        ("thm42", {"h0": -0.152, "lam1": 0.285, "lam2": 1.313, "lam3": -1.917,
                   "causal": "timelike"}, None),
    ]

    @pytest.mark.parametrize("name,params,grid", CASES)
    def test_pipeline_and_closed_sweeps(self, name, params, grid):
        s = family_surface(name, params)
        grid = grid or default_grid(s, 40, 40)
        for mode in ("analytic", "fd"):
            _bitwise(pipeline_grid(s, grid, mode=mode), _mesh_pipeline(s, grid, mode))
        _bitwise(specialized_grid(s, grid), _mesh_closed(s, grid))
