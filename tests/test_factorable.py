import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgsurf import factorable
from pgsurf.errors import GridRejected, InvalidParams
from pgsurf.cli import main
from pgsurf.factorable import (
    KIND_SECOND,
    FactorableSurface,
    GridSpec,
    ScalarC2,
    closed_H,
    closed_K,
    cross_check,
    default_grid,
    jet_component_arrays,
    pipeline_grid,
    row_spans,
    specialized_grid,
)
from pgsurf.families import family_surface, thm31_family, thm32_family
from pgsurf.surface import (FD_STEP, curvature_arrays, fd_components, gaussian_curvature,
                            mean_curvature)

from one_point import closed, closed_value, jet

SADDLE = FactorableSurface("first", ScalarC2.linear(1.0), ScalarC2.linear(1.0))
EXP = ScalarC2(lambda t: (np.exp(t),) * 3)
QUAD = ScalarC2(lambda t: (t**2, 2.0 * t, 2.0 + 0.0 * t))

small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def poly_surface(kind, a, b, c, d):
    f = ScalarC2(lambda t: (a * t + b, a + 0.0 * t, 0.0 * t))
    g = ScalarC2(lambda t: (c * t**2 + d, 2.0 * c * t, 2.0 * c + 0.0 * t))
    return FactorableSurface(kind, f, g)


class TestScalarC2:
    def test_derivative_consistency(self):
        s, h = thm31_family(2.0, lam1=0.3), 1e-6
        for t in (-1.0, 0.0, 0.8):
            central = (s.f(t + h) - s.f(t - h)) / (2.0 * h)
            assert abs(s.f.deriv(t) - central) < 1e-9

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
        assert closed_value(closed_K, SADDLE, 0.0, 0.0) == -1.0

    @settings(max_examples=40, deadline=None)
    @given(small, small, small)
    def test_constant_factor_flattens(self, c, x, y):
        s = FactorableSurface("first", QUAD, ScalarC2.constant(c))
        assert closed_value(closed_K, s, x, y) == 0.0

    def test_tanh_times_linear_is_minus_one(self):
        s = thm31_family(1.0)
        for x, y in [(-1.2, 0.3), (0.0, -0.7), (0.9, 2.0)]:
            assert closed_value(closed_K, s, x, y) == pytest.approx(-1.0, abs=1e-12)

    def test_tanh_against_fd_pipeline_oracle(self):
        # independent route: finite differences of the parametrization, then
        # the general pipeline; relation K_pipeline = -eps * K_closed with
        # eps = +1 on this spacelike family
        s = thm31_family(1.0)
        for x, y in [(0.25, -0.4), (-0.6, 1.1)]:
            fd = jet(s, x, y, mode="fd")
            assert -gaussian_curvature(fd) == pytest.approx(closed_value(closed_K, s, x, y), abs=1e-5)

    def test_lightlike_locus_raises(self):
        s = FactorableSurface("first", ScalarC2.constant(1.0), ScalarC2.linear(1.0))
        K, undefined = closed(closed_K, s, 0.2, 0.4)
        assert undefined and math.isnan(K)


class TestHFirst:
    @settings(max_examples=40, deadline=None)
    @given(small, small)
    def test_linear_g_is_minimal(self, x, y):
        s = FactorableSurface("first", QUAD, ScalarC2.linear(0.5, 1.0))
        # skip the lightlike locus (f g')^2 = 1
        if abs(1.0 - (float(QUAD(x)) * 0.5) ** 2) < 1e-6:
            return
        assert closed_value(closed_H, s, x, y) == 0.0

    def test_sqrt_profile_unit_mean_curvature(self):
        s = thm32_family(1.0, causal="spacelike")
        lo = s.g.domain[0]
        for y in (lo + 0.2, lo + 0.6, lo + 1.4):
            assert abs(closed_value(closed_H, s, 0.0, y)) == pytest.approx(1.0, abs=1e-10)

    def test_plugin_arithmetic_example(self):
        # f = 2, g = y^2/4: at y = 0, H = f g''/2 = 2*(1/2)/2 = 1/2
        g = ScalarC2(lambda t: (t**2 / 4.0, t / 2.0, 0.5 + 0.0 * t))
        s = FactorableSurface("first", ScalarC2.constant(2.0), g)
        assert closed_value(closed_H, s, 0.0, 0.0) == pytest.approx(0.5, abs=1e-14)


class TestKSecond:
    def test_equal_rate_exponentials_flat_limit(self):
        s = FactorableSurface("second", EXP, EXP)
        for y, z in [(0.0, 0.0), (0.5, -0.3), (-1.0, 1.0)]:
            assert closed_value(closed_K, s, y, z) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(small, small, small)
    def test_constant_factor_flattens(self, c, y, z):
        s = FactorableSurface("second", ScalarC2.constant(c), QUAD)
        if abs(c) < 1e-3 or abs(z) < 1e-3:
            return  # keep the denominator (c*2z)^4 well away from zero
        assert closed_value(closed_K, s, y, z) == 0.0

    def test_plugin_arithmetic_example(self):
        s = poly_surface("second", 1.0, 0.0, 1.0, 0.0)  # f = y, g = z^2
        assert closed_value(closed_K, s, 1.0, 1.0) == pytest.approx(-4.0 / 9.0, rel=1e-14)

    def test_lightlike_without_flat_numerator_raises(self):
        s = FactorableSurface("second", ScalarC2.linear(1.0), ScalarC2.linear(1.0))
        K, undefined = closed(closed_K, s, 1.0, 1.0)  # (fg')^2 == (f'g)^2 with nonzero numerator
        assert undefined and math.isnan(K)

    @settings(max_examples=30, deadline=None)
    @given(small, small)
    @example(3.9e-114, 0.0)  # D = -1.4e-226, whose square underflows
    def test_role_symmetry(self, y, z):
        a = FactorableSurface("second", QUAD, CUBIC_LOCAL)
        b = FactorableSurface("second", CUBIC_LOCAL, QUAD)
        (ka, a_undefined), (kb, b_undefined) = closed(closed_K, a, y, z), closed(closed_K, b, z, y)
        if a_undefined or b_undefined:
            return
        if abs(ka) > 1e6:
            return  # near-singular denominators are numerically meaningless
        assert kb == pytest.approx(ka, rel=1e-8, abs=1e-9)

    def test_underflowing_denominator_takes_the_flat_limit(self):
        # f = y^2, g = z^3 + 1.5 at y = 3.9e-114, z = 0: D = -(2 y g)^2 is
        # nonzero but D**2 and |D|**1.5 underflow; the numerators vanish,
        # so K = H = 0, not 0/0
        s = FactorableSurface("second", QUAD, CUBIC_LOCAL)
        assert closed(closed_K, s, 3.9e-114, 0.0) == (0.0, False)
        assert closed(closed_H, s, 3.9e-114, 0.0) == (0.0, False)


CUBIC_LOCAL = ScalarC2(lambda t: (t**3 + 1.5, 3.0 * t**2, 6.0 * t))


class TestHSecond:
    def test_linear_pair_lightlike_on_diagonal(self):
        s = FactorableSurface("second", ScalarC2.linear(1.0), ScalarC2.linear(1.0))
        H, undefined = closed(closed_H, s, 1.0, 1.0)
        assert undefined and math.isnan(H)

    def test_plugin_arithmetic_example(self):
        # f = y, g = z at (1, 2): timelike, H = -4 / (2*3^(3/2))
        s = FactorableSurface("second", ScalarC2.linear(1.0), ScalarC2.linear(1.0))
        assert closed_value(closed_H, s, 1.0, 2.0) == pytest.approx(-2.0 / 3.0**1.5, rel=1e-14)

    def test_equal_rate_exponentials_minimal(self):
        s = FactorableSurface("second", EXP, EXP)
        assert closed_value(closed_H, s, 0.3, -0.8) == 0.0


_MAG = st.floats(0.5, 2.0) | st.floats(-2.0, -0.5)
_FREE = st.floats(-2.0, 2.0)
# |D| / (its larger term) stays above 0.35: the ratio of the two terms of
# the second kind's D, and f*g' of the first kind's D = 1 - (f*g')^2
_RATIO = st.floats(0.1, 0.8) | st.floats(1.25, 3.0)
_OFF_ONE = st.floats(-0.8, 0.8) | st.floats(1.25, 3.0) | st.floats(-3.0, -1.25)
# the forced point's profile values f, f', f'', g, g', g'': D = 0 with a
# numerator of order 1 (undefined), and D = 0 with both numerators
# nonzero but inside the flat deadband (flat)
_FORCED = {("first", "undefined"): (1.0, 0.5, 2.0, 1.5, 1.0, 2.0),
           ("second", "undefined"): (1.0, 1.0, 2.0, 1.0, 1.0, 2.0),
           ("second", "flat"): (1.0, 1e-13, 0.0, 1.0, 1e-13, 2.0)}


def _clean_point(kind, fv, gv, slope, f2, g2, ratio):
    """Profile values (f, f', f'', g, g', g'') at which the closed
    denominator D is far from 0: f*g' is `ratio` (first kind), or f'*g is
    `ratio` times f*g' (second kind), up to rounding."""
    if kind == "first":
        return fv, slope, f2, gv, ratio / fv, g2
    return fv, slope * fv / gv * ratio, f2, gv, slope, g2


class TestMaskingKeepsTheOtherBits:
    """A block where D vanishes nowhere takes `_quotient`'s direct path;
    forcing one point to D = 0 sends the block down the masked path, and
    every other point keeps its bits."""

    @settings(max_examples=150, deadline=None)
    @given(case=st.sampled_from(sorted(_FORCED)), pick=st.integers(0, 11), data=st.data())
    def test_one_masked_point(self, case, pick, data):
        kind, forced = case
        ratio = _OFF_ONE if kind == "first" else _RATIO
        points = data.draw(st.lists(st.tuples(_MAG, _MAG, _MAG, _FREE, _FREE, ratio),
                                    min_size=1, max_size=12))
        parts = [np.array(v) for v in zip(*(_clean_point(kind, *p) for p in points))]
        i = pick % len(points)
        masked = [v.copy() for v in parts]
        for v, value in zip(masked, _FORCED[case]):
            v[i] = value
        keep = np.arange(len(points)) != i
        for kernel in (closed_K, closed_H):
            clean, clean_undefined = kernel(kind, *parts)
            assert not clean_undefined.any()
            value, undefined = kernel(kind, *masked)
            assert value[keep].view(np.int64).tolist() == clean[keep].view(np.int64).tolist()
            assert not undefined[keep].any()
            if forced == "undefined":
                assert undefined[i] and np.isnan(value[i])
            else:
                assert not undefined[i] and float(value[i]).hex() == "0x0.0p+0"


def _sweeps(s, grid):
    return pipeline_grid(s, grid), specialized_grid(s, grid)


class TestCrossCheck:
    def test_saddle_agreement(self):
        pipe, closed = _sweeps(SADDLE, GridSpec((-0.5, 0.5), (-0.5, 0.5), 15, 15))
        assert pipe["K"].size == 225
        assert cross_check(pipe, closed) < 1e-9
        # spacelike everywhere, so K_pipeline = -K_closed with K_closed != 0;
        # H vanishes identically on the saddle
        assert np.all(pipe["eps"] == 1.0) and np.all(closed["K"] < -0.1)
        assert np.max(np.abs(pipe["K"] - closed["K"])) > 0.2

    def test_thm31_agreement(self):
        s = thm31_family(2.0, lam1=0.4, lam2=-0.3)
        pipe, closed = _sweeps(s, default_grid(s, 12, 12))
        assert pipe["K"].size == 144 and cross_check(pipe, closed) < 1e-9

    def test_second_kind_H_factor_is_plus_one(self):
        s = poly_surface("second", 1.0, 0.2, 1.0, 0.5)
        pipe, closed = _sweeps(s, GridSpec((0.8, 1.4), (0.9, 1.3), 10, 10))
        assert cross_check(pipe, closed) < 1e-9
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

    @pytest.mark.parametrize("sweep", [0, 1])
    @pytest.mark.parametrize("masked,reason", [
        (True, "grid crosses a lightlike or inadmissible locus"),
        (False, "grid has a point where K or H is not finite"),  # an overflow
    ])
    def test_the_excluding_sweeps_mask_names_the_reason(self, sweep, masked, reason):
        # only one sweep excludes the first point: its own mask there names
        # the locus, whichever sweep it is; an unmasked exclusion does not
        sweeps = list(_sweeps(SADDLE, GridSpec((-0.5, 0.5), (-0.5, 0.5), 4, 4)))
        assert not any(s[key].any() for s in sweeps for key in ("masked", "excluded"))
        first = np.zeros((4, 4), dtype=bool)
        first[0, 0] = True
        sweeps[sweep] = {**sweeps[sweep], "excluded": first, "masked": first & masked}
        with pytest.raises(GridRejected) as rejected:
            cross_check(*sweeps)
        assert str(rejected.value) == reason


class TestGridsAndReports:
    def test_grid_validation(self):
        with pytest.raises(InvalidParams):
            GridSpec((0.0, 1.0), (0.0, 1.0), 1, 5)
        with pytest.raises(InvalidParams):
            GridSpec((1.0, 0.0), (0.0, 1.0), 5, 5)
        with pytest.raises(InvalidParams):
            GridSpec((0.0, float("inf")), (0.0, 1.0), 5, 5)

    def test_jet_mode_is_analytic_or_fd(self):
        with pytest.raises(InvalidParams, match="^mode must be 'analytic' or 'fd', got 'exact'$"):
            jet_component_arrays(SADDLE, [0.5], [0.5], mode="exact")

    def test_default_grid_respects_semi_infinite_domain(self):
        s = thm32_family(0.5, causal="spacelike")
        grid = default_grid(s, 10, 10)
        lo = s.g.domain[0]
        assert grid.u2[0] > lo

    @pytest.mark.parametrize("domain,ends", [
        ((-math.inf, math.inf), (-1.5, 1.5)),
        ((-0.7, math.inf), (-0.7 + 0.15, -0.7 + 3.15)),
        ((-math.inf, 1.3), (1.3 - 3.15, 1.3 - 0.15)),
        ((-0.4, 2.2), (-0.4 + 0.05 * 2.6, 2.2 - 0.05 * 2.6)),
    ])
    def test_default_grid_on_each_domain_shape(self, domain, ends):
        # a span of 3 centred on the origin, or placed 5% of the span
        # inside the one finite end; 5% of a finite domain's length inside
        # each of its ends
        profile = ScalarC2(QUAD.jet, domain)
        grid = default_grid(FactorableSurface("first", profile, profile))
        for axis in (grid.u1, grid.u2):
            assert axis == pytest.approx(ends, rel=0.0, abs=1e-15)

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
        K, undefined = closed(closed_K, s, 0.0, 0.0)
        assert undefined and math.isnan(K)
        assert closed_value(closed_H, s, 0.0, 0.0) == 0.0
        data = specialized_grid(s, self.ORIGIN)
        assert data["excluded"][1, 1]
        assert np.isnan(data["K"][1, 1])
        assert data["H"][1, 1] == 0.0
        assert pipeline_grid(s, self.ORIGIN)["excluded"][1, 1]  # inadmissible there

    def test_quadratic_pair_is_flat_but_not_minimal(self):
        f = ScalarC2(lambda t: (1.0 + t + t * t, 1.0 + 2.0 * t, 2.0 + 0.0 * t))
        g = ScalarC2(lambda t: (1.0 + t + t * t / 4.0, 1.0 + t / 2.0, 0.5 + 0.0 * t))
        s = FactorableSurface("second", f, g)
        assert closed_value(closed_K, s, 0.0, 0.0) == 0.0
        H, undefined = closed(closed_H, s, 0.0, 0.0)
        assert undefined and math.isnan(H)
        data = specialized_grid(s, self.ORIGIN)
        assert data["excluded"][1, 1]
        assert data["K"][1, 1] == 0.0
        assert np.isnan(data["H"][1, 1])
        assert pipeline_grid(s, self.ORIGIN)["excluded"][1, 1]  # lightlike there


# thm42 timelike, whose second-kind D has terms (f g')^2, (f' g)^2 far
# below 1 on part of its default grid: a deadband of 1 called D zero there
# and printed K = H = 0 on `specialized` at 78 of the 40^2 points
SMALL_TERMS = {"h0": -0.152, "lam1": 0.285, "lam2": 1.313, "lam3": -1.917, "causal": "timelike"}
# two thm42 timelike draws whose default `verify` failed its constancy
# suite on the same deadband; these literals came from the former numpy
# `Generator` sampler (`sample_params` on default_rng(43)), not from a seed
# of today's `sample_params`
SMALL_TERM_DRAWS = [
    {"h0": 0.13801627419481918, "lam1": -0.4629300875340512, "lam2": -1.992976912978024,
     "lam3": 0.8663780370448197},
    {"h0": -0.16353864207454946, "lam1": 0.8042965473728501, "lam2": 1.7142553051251683,
     "lam3": 1.620446669846468},
]
# a thm42 spacelike draw of the same former sampler at default_rng(43), on
# the radicand's other component w in [-4, -1.05], where g = exp(phi) is tiny
OTHER_COMPONENT = {"h0": -0.12233497773754257, "lam1": -1.9198816525031326,
                   "lam2": 1.3568503300441201, "lam3": 0.34857219035223386, "causal": "spacelike"}

# the unit roundoff, and nonzero profile values and scales far from over- and underflow
_U = 2.0**-53
_VALUE = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3) | st.just(0.0)
_POWER_OF_TWO = st.builds(lambda sign, k: sign * 2.0**k, st.sampled_from([1.0, -1.0]),
                          st.integers(-40, 40))


class TestScaleFreeSecondKindDenominator:
    """The second kind's D = (f g')^2 - (f' g)^2 counts as zero only within
    its rounding bound gamma_3 * (qa + qb), so small terms are not a zero D."""

    def test_small_terms_print_their_curvature(self, tmp_path):
        out = tmp_path / "k.csv"
        assert main(["curvature", *(a for k, v in SMALL_TERMS.items()
                                    for a in ("--set", f"family.{k}={v}")),
                     "--set", "family.name=thm42", "--set", "formulas=specialized",
                     "--set", "grid.n1=40", "--set", "grid.n2=40",
                     "--set", f"output.csv={out}"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 1600 and all(row[9] == "0" for row in rows)
        K, H = (np.array([float(row[i]) for row in rows]) for i in (5, 6))
        assert np.all(K != 0.0)
        assert np.max(np.abs(np.abs(H) - 0.152)) < 1e-13

    @pytest.mark.parametrize("params", [SMALL_TERMS] + SMALL_TERM_DRAWS)
    def test_default_verify_passes_its_constancy_suite(self, tmp_path, params):
        out = tmp_path / "v.json"
        main(["verify", "--set", "family.name=thm42",
              *(a for k, v in params.items() for a in ("--set", f"family.{k}={v}")),
              "--set", f"output.json={out}"])
        constancy = json.loads(out.read_text())["suites"]["constancy"]
        assert constancy["passed"] is True
        assert constancy["max_deviation"] < 1e-13

    def test_other_radicand_component(self):
        h0, lam = OTHER_COMPONENT["h0"], OTHER_COMPONENT["lam3"]
        u2 = sorted((w - lam) / (2.0 * h0) for w in (-4.0, -1.05))
        data = specialized_grid(family_surface("thm42", OTHER_COMPONENT),
                                GridSpec((-1.0, 1.0), tuple(u2), 40, 40))
        assert not np.any(data["excluded"])
        assert np.max(np.abs(np.abs(data["H"]) - abs(h0))) / abs(h0) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(parts=st.lists(st.tuples(*[_VALUE] * 6), min_size=1, max_size=8),
           a=_POWER_OF_TWO, b=_POWER_OF_TWO)
    def test_scaling_law(self, parts, a, b):
        """Under (f, g) -> (a f, b g), a and b powers of two: D -> a^2 b^2 D,
        every operation of the zero test and of K scales exactly (a nonzero
        D here stays far above the test's 2**-511 floor), so the zero-D
        masks are equal and K -> K / (ab)^2 bit for bit.  H -> sign(ab) H
        within 4 ulp: |D|**1.5 goes through `pow`, whose result may be off
        by an ulp at D and at a^2 b^2 D, and the quotient rounds once."""
        parts = [np.array(column) for column in zip(*parts)]
        scaled = [a * v for v in parts[:3]] + [b * v for v in parts[3:]]
        shape = parts[0].shape
        zero = factorable._denominator(KIND_SECOND, parts, shape)[2]
        assert np.array_equal(factorable._denominator(KIND_SECOND, scaled, shape)[2], zero)
        # where D vanishes the flat-limit floor decides, which is not scale-free
        kept = ~zero
        K, K_scaled = closed_K(KIND_SECOND, *parts)[0], closed_K(KIND_SECOND, *scaled)[0]
        assert K_scaled[kept].tobytes() == (K[kept] / (a * b) ** 2).tobytes()
        H, H_scaled = closed_H(KIND_SECOND, *parts)[0], closed_H(KIND_SECOND, *scaled)[0]
        want = math.copysign(1.0, a * b) * H[kept]
        assert np.all(np.abs(H_scaled[kept] - want) <= 4 * np.spacing(np.abs(want)))

    def test_zero_test_is_the_rounding_bound(self):
        # f = c, g' = 1 and f' = c r, g = 1: qa = c^2 and qb = c^2 fl(r^2),
        # with gamma_3 * (qa + qb) about 6u c^2 whatever the power of two c
        for c in (1.0, 2.0**-40, 2.0**40):
            for r, zero in ((1.0 - _U, True), (1.0 - 4 * _U, False)):  # |D| = 2u c^2, 8u c^2
                parts = [np.array([v]) for v in (c, c * r, 0.0, 1.0, 1.0, 0.0)]
                assert bool(factorable._denominator(KIND_SECOND, parts, (1,))[2][0]) is zero


# profile coefficients that put the lightlike loci, the flat points and
# the inadmissible points of the two kinds onto grid nodes
_COEF = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 0.25, -0.75])
_AXIS = st.sampled_from([(-1.0, 1.0), (0.0, 2.0), (-2.0, 0.0), (-0.5, 1.5), (-1.0, 0.5)])


def quadratic(c0, c1, c2):
    return ScalarC2(lambda t: (c0 + c1 * t + c2 * t * t, c1 + 2.0 * c2 * t, 2.0 * c2 + 0.0 * t))


def same(value, undefined, grid_value):
    """The one-point value equals the grid's bit for bit, NaN included;
    where the one-point call flags the point undefined, the grid holds
    NaN."""
    if undefined:
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
            sweep, pipe = specialized_grid(s, grid), pipeline_grid(s, grid)
        for (i, j), a in np.ndenumerate(sweep["U1"]):
            a, b = float(a), float(sweep["U2"][i, j])
            comp = jet(s, a, b)
            assert same(*closed(closed_K, s, a, b), sweep["K"][i, j])
            assert same(*closed(closed_H, s, a, b), sweep["H"][i, j])
            assert same(gaussian_curvature(comp), False, pipe["K"][i, j])
            assert same(mean_curvature(comp), False, pipe["H"][i, j])
        for key in ("eps", "W"):
            assert sweep[key].tobytes() == pipe[key].tobytes(), key


def _mesh_pipeline(s, grid, mode):
    """`pipeline_grid` rebuilt on the full mesh: every jet component
    materialised per grid point."""
    U1, U2 = np.meshgrid(*grid.axes(), indexing="ij")
    comp = jet_component_arrays(s, U1, U2, mode=mode)
    out = curvature_arrays({k: np.broadcast_to(v, U1.shape).copy() for k, v in comp.items()})
    masked = out["lightlike"] | out["inadmissible"]
    excluded = masked | ~np.isfinite(out["K"]) | ~np.isfinite(out["H"])
    return {"U1": U1, "U2": U2, "K": out["K"], "H": out["H"],
            "eps": out["eps"], "W": out["W"], "masked": masked, "excluded": excluded}


def _mesh_closed(s, grid):
    """`specialized_grid` rebuilt on the full mesh through the public
    `closed_K` and `closed_H`, with the eps and W of the analytic pipeline:
    the closed denominator is the pipeline's q, so the two routes agree on
    them bit for bit.  `masked` is where that denominator vanishes."""
    U1, U2 = np.meshgrid(*grid.axes(), indexing="ij")
    parts = s.f.jet(U1) + s.g.jet(U2)
    K, k_undefined = closed_K(s.kind, *parts)
    H, h_undefined = closed_H(s.kind, *parts)
    pipe = _mesh_pipeline(s, grid, "analytic")
    return {"U1": U1, "U2": U2, "K": K, "H": H, "eps": pipe["eps"], "W": pipe["W"],
            "masked": factorable._denominator(s.kind, parts, U1.shape)[2],
            "excluded": k_undefined | h_undefined}


def _bitwise(got, ref):
    assert sorted(got) == sorted(ref)
    for key, value in ref.items():
        assert got[key].shape == value.shape and got[key].dtype == value.dtype, key
        assert got[key].tobytes() == value.tobytes(), key


class TestSeparableSweepsEqualTheMesh:
    """The sweeps evaluate each profile on its own axis and keep constant
    jet components 0-d; every output equals the full-mesh evaluation bit
    for bit, and the closed sweep's eps and W equal the analytic
    pipeline's."""

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

    # the first partials of the u1 and u2 coordinates: x, y on the first
    # kind, y, z on the second
    @pytest.mark.parametrize("name,params,partials", [
        ("thm31", {"k0": 1.3, "lam1": 0.4, "lam2": -0.3, "sign": -1}, ("x1", "y2")),
        ("thm42", {"h0": 0.9, "lam1": -0.7, "lam2": 0.8, "causal": "spacelike"}, ("y1", "z2")),
    ])
    def test_fd_differences_each_coordinate_on_its_axis(self, name, params, partials):
        """The FD route differences the u1 coordinate along a 7x5 block's
        column and the u2 coordinate along its row, and its sweep is, bit
        for bit, that of the coordinates broadcast to the block."""
        s = family_surface(name, params)
        grid = default_grid(s, 7, 5)
        a1, a2 = grid.axes()
        u1, u2 = a1[:, None], a2[None, :]
        comp = jet_component_arrays(s, u1, u2, mode="fd")
        assert [comp[key].shape for key in partials] == [(7, 1), (1, 5)]

        def broadcast_value(v1, v2):
            xyz = s.value_arrays(v1, v2)
            return tuple(np.broadcast_to(v, np.broadcast_shapes(*map(np.shape, xyz))) for v in xyz)

        out = curvature_arrays(fd_components(broadcast_value, u1, u2, FD_STEP))
        pipe = pipeline_grid(s, grid, mode="fd")
        for key in ("K", "H", "eps", "W"):
            assert pipe[key].tobytes() == out[key].tobytes(), key

    @staticmethod
    def _cross_check(pairs):
        """`cross_check` folded over (pipe, closed) sweep pairs as `verify`
        folds its row blocks: the hex of the largest gap, or the reason of
        the first rejection."""
        gap = 0.0
        for pipe, closed in pairs:
            try:
                gap = max(gap, cross_check(pipe, closed))
            except GridRejected as exc:
                return str(exc)
        return gap.hex()

    # f overflows from row 12 on: the first excluded point is not finite
    OVERFLOW = ("thm42", {"h0": 400.0, "lam2": 800.0}, GridSpec((0.0, 1.0), (-1e-3, 1e-3), 40, 40))

    @settings(max_examples=200, deadline=None)
    @given(n1=st.integers(1, 40), n2=st.integers(1, 40), width=st.integers(1, 100))
    def test_row_spans_cut_each_point_once(self, n1, n2, width):
        """The blocks of `row_spans` cover each point of an n1 x n2 grid
        exactly once, in C order, each with at most `width` points, and
        are whole rows wherever a row fits in `width`."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(factorable, "_BLOCK_POINTS", width)
            spans = list(row_spans(n1, n2))
        index = np.arange(n1 * n2).reshape(n1, n2)
        blocks = [index[span] for span in spans]
        assert all(0 < block.size <= width for block in blocks)
        assert np.concatenate([block.ravel() for block in blocks]).tolist() == list(range(n1 * n2))
        if n2 <= width:
            assert all(block.shape[1] == n2 for block in blocks)

    @staticmethod
    def _stacked(blocks, whole):
        """The sweeps of C-order blocks put back together in the shape of the
        `whole` sweep's entries."""
        return {key: np.concatenate([block[key].ravel() for block in blocks]).reshape(value.shape)
                for key, value in whole.items()}

    # blocks of `rows` grid rows, or spans of that share of a row
    @pytest.mark.parametrize("rows", [1, 7, 11, 0.5, 0.1])
    @pytest.mark.parametrize("name,params,grid", CASES + [OVERFLOW])
    def test_row_spans_give_the_whole_sweeps(self, monkeypatch, name, params, grid, rows):
        """Sweeps of the `row_spans` blocks of a grid, stacked, are the
        whole sweeps bit for bit, every entry on both jet modes, and fold
        to the same cross-check."""
        s = family_surface(name, params)
        grid = grid or default_grid(s, 40, 40)
        monkeypatch.setattr(factorable, "_BLOCK_POINTS", max(1, int(rows * grid.n2)))
        spans = list(row_spans(grid.n1, grid.n2))
        if rows >= 1:
            assert len(spans) == -(-grid.n1 // rows)
        closed = specialized_grid(s, grid)
        closed_blocks = [specialized_grid(s, grid, span) for span in spans]
        _bitwise(self._stacked(closed_blocks, closed), closed)
        for mode in ("analytic", "fd"):
            pipe = pipeline_grid(s, grid, mode=mode)
            pipe_blocks = [pipeline_grid(s, grid, mode=mode, block=span) for span in spans]
            _bitwise(self._stacked(pipe_blocks, pipe), pipe)
            assert (self._cross_check(zip(pipe_blocks, closed_blocks))
                    == self._cross_check([(pipe, closed)]))


def _read_only_copy(v):
    """A read-only copy of `v`: an `out=` aimed at it raises."""
    v = np.array(v, dtype=float)
    v.flags.writeable = False
    return v


def _read_only_profile(p: ScalarC2) -> ScalarC2:
    """`p` with a jet whose arrays are read-only copies."""
    return ScalarC2(lambda t: tuple(map(_read_only_copy, p.jet(t))), p.domain)


class TestKernelsKeepTheirInputs:
    """The kernels write their results only over temporaries they made
    themselves: on read-only components, profile values and parameters
    (where an `out=` aimed at an input raises) they give the results of
    calls on writeable copies, bit for bit.  Python floats and 0-d arrays
    take the scalar operators, which cannot take `out=`, and agree."""

    CASES = [("thm31", {"k0": 1.3, "lam1": 0.4}), ("thm42", {"h0": 0.5}),
             ("thm42", {"h0": 0.9, "lam1": -0.7, "lam2": 0.8, "causal": "spacelike"}),
             ("saddle", {})]

    @pytest.mark.parametrize("name,params", CASES)
    def test_array_kernels(self, name, params):
        s = family_surface(name, params)
        grid = default_grid(s, 9, 7)
        a1, a2 = grid.axes()
        u1, u2 = a1[:, None], a2[None, :]
        parts = s.f.jet(u1) + s.g.jet(u2)
        comp = jet_component_arrays(s, u1, u2)
        frozen = {k: _read_only_copy(v) for k, v in comp.items()}
        _bitwise(curvature_arrays(frozen), curvature_arrays({k: v.copy() for k, v in comp.items()}))
        for kernel in (closed_K, closed_H):
            got = kernel(s.kind, *map(_read_only_copy, parts))
            ref = kernel(s.kind, *(np.array(v) for v in parts))
            _bitwise(dict(enumerate(got)), dict(enumerate(ref)))
        _bitwise(jet_component_arrays(s, _read_only_copy(u1), _read_only_copy(u2)),
                 jet_component_arrays(s, u1.copy(), u2.copy()))
        frozen_s = FactorableSurface(s.kind, _read_only_profile(s.f), _read_only_profile(s.g))
        _bitwise(pipeline_grid(frozen_s, grid), pipeline_grid(s, grid))
        _bitwise(specialized_grid(frozen_s, grid), specialized_grid(s, grid))

    @pytest.mark.parametrize("kind", ["first", "second"])
    @pytest.mark.parametrize("point", [(0.5, 1.2, -0.3, 0.8, 0.7, 1.1), (1.0, 0.5, 2.0, 1.5, 1.0, 2.0),
                                       (1.0, 1.0, 0.0, 1.0, 1.0, 0.0)])
    def test_scalar_kernels(self, kind, point):
        for kernel in (closed_K, closed_H):
            floats = kernel(kind, *point)
            frozen = kernel(kind, *map(_read_only_copy, point))
            zero_d = kernel(kind, *map(np.array, point))
            for got in (frozen, zero_d):
                assert [np.float64(v).hex() for v in got] == [np.float64(v).hex() for v in floats]


class TestBlockTemporaries:
    """One 40 x 800 `row_spans` block of each sweep, traced by tracemalloc
    after a first call, peaks at most at the number of block-sized
    (256 000-byte) arrays below: the kernels write their temporaries over
    each other wherever the operands allow, so a temporary added back
    where a sweep peaks fails.
    The in-place kernels measured 19.29 (thm31) and 24.53 (thm42) arrays
    for `pipeline_grid` and 6.46 and 9.22 for `specialized_grid`; before
    them, 21.3, 26.5, 7.2 and 10.2."""

    BOUNDS = {("thm31", "pipeline_grid"): 19.3, ("thm42", "pipeline_grid"): 24.6,
              ("thm31", "specialized_grid"): 6.5, ("thm42", "specialized_grid"): 9.3}

    @pytest.mark.parametrize("name,sweep", sorted(BOUNDS))
    def test_peak(self, name, sweep):
        s = family_surface(name, {"k0": 1.0} if name == "thm31" else {"h0": 0.5})
        grid = default_grid(s, 800, 800)
        block = next(row_spans(grid.n1, grid.n2))
        assert (block[0].stop, block[1].stop) == (40, 2**15)
        run = getattr(factorable, sweep)
        run(s, grid, block=block)
        tracemalloc.start()
        try:
            run(s, grid, block=block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (40 * 800 * 8) <= self.BOUNDS[name, sweep]
