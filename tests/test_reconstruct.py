import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from pgsurf.errors import (
    BlowUp,
    BranchViolation,
    DomainError,
    InvalidParams,
)
from pgsurf.factorable import FactorableSurface, GridSpec, ScalarC2, default_grid, specialized_grid
from pgsurf.families import family_surface, thm31_family, thm32_family, thm42_family
from pgsurf import reconstruct
from pgsurf.cli import main
from pgsurf.reconstruct import (
    MAX_RESTARTS,
    MAX_STEPS,
    _MIN_STEP,
    _SHRINK,
    _STEP0,
    FamilySpace,
    _flat_seed,
    _generic_start,
    _probe_objective,
    _steps,
    integrate,
    nonexistence_probe,
    reconstruct_thm31,
    reconstruct_thm32,
    reconstruct_thm42,
)

from test_exact_claims import (
    K0,
    g1,
    gv,
    linear_factor_coefficients,
    log_derivative_closed,
    profile_gap,
    quartic_slope_coefficients,
    quintic_solutions,
    y,
    z,
)

class _Accepted(Exception):
    pass


def _accepted(s):
    raise _Accepted


class TestIntegrate:
    def test_exponential_growth(self):
        ts, ys = integrate(lambda s: s, 0.0, [1.0], 1.0, 1e-3)
        assert ys[-1, 0] == pytest.approx(math.e, abs=1e-10)
        assert ts.size == 1001

    def test_zero_slope_is_constant(self):
        _, ys = integrate(lambda s: 0.0 * s, 0.0, [2.5], 3.0, 0.1)
        assert np.all(ys == 2.5)

    def test_blowup_guard(self):
        with pytest.raises(BlowUp):
            integrate(lambda s: 1.0 + s**2, 0.0, [1.0], 2.0, 1e-3)

    @pytest.mark.parametrize("y0", [[0.0], [0.0, 0.0]])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_slope_blows_up(self, bad, y0):
        # s = t goes bad at the first step whose stages reach s >= 0.5
        slope = lambda s: bad if s >= 0.5 else 1.0  # noqa: E731
        with pytest.raises(BlowUp, match=r"at t = 0\.5$"):
            integrate(slope, 0.0, y0, 1.0, 0.25)

    def test_raising_float_arithmetic_blows_up(self):
        # 10.0 ** 400 raises OverflowError where an ndarray power gives inf
        with pytest.raises(BlowUp, match=r"at t = 1$"):
            integrate(lambda s: s ** 400, 0.0, [10.0], 2.0, 1.0)
        # the ODE's own overflow: an unstable step of the 3.1 profile ODE
        with pytest.raises(BlowUp, match=r"at t = 10$"):
            reconstruct_thm31(1.7e308, span=(0.0, 10.0), h=10.0)

    def test_problem_validation(self):
        calls = []
        with pytest.raises(InvalidParams):
            integrate(lambda s: calls.append(s) or s, 0.0, [1.0], 0.0, 1e-3)
        with pytest.raises(InvalidParams):
            integrate(lambda s: calls.append(s) or s, 0.0, [1.0], 1.0, 0.0)
        # the corridor is checked before the state
        with pytest.raises(InvalidParams, match="corridor"):
            integrate(lambda s: calls.append(s) or s, 0.0, [math.nan, 0.0, 0.0], math.nan, 0.1)
        assert calls == []

    @pytest.mark.parametrize("y0", [[bad] for bad in (math.inf, -math.inf, math.nan)]
                             + [[bad, 0.0] for bad in (math.inf, math.nan)]
                             + [[0.0, bad] for bad in (-math.inf, math.nan)])
    def test_non_finite_initial_state_rejected(self, y0):
        calls = []
        with pytest.raises(InvalidParams, match="y0 must be finite"):
            integrate(lambda s: calls.append(s) or 0.0, 0.0, y0, 1.0, 0.25)
        assert calls == []

    @pytest.mark.parametrize("y0", [[], [0.0, 0.0, 0.0], [[0.0, 0.0]]])
    def test_state_has_one_or_two_components(self, y0):
        calls = []
        with pytest.raises(InvalidParams, match="1 or 2 components"):
            integrate(lambda s: calls.append(s) or s, 0.0, y0, 1.0, 0.25)
        assert calls == []

    @pytest.mark.parametrize("y0", [[0.5], [0.5, -2.0]])
    def test_slope_is_called_four_times_a_step_with_a_float(self, y0):
        calls = []
        integrate(lambda s: calls.append(s) or -s, 0.0, y0, 1.0, 0.1, divisor=-3.0)
        assert len(calls) == 4 * _steps(0.0, 1.0, 0.1)[0] == 40
        assert {type(s) for s in calls} == {float}

    @pytest.mark.parametrize("y0", [[0.0], [0.0, 0.0]])
    def test_value_error_inside_slope_propagates(self, y0):
        with pytest.raises(ValueError, match="^math domain error$") as info:
            integrate(lambda s: math.sqrt(s - 1.0), 0.0, y0, 1.0, 0.25)
        assert not isinstance(info.value, InvalidParams)

    @pytest.mark.parametrize("span, h, n, step", [
        ((0.0, 2.0), 0.7, 3, 2.0 / 3.0), ((0.0, 2.0), 1e30, 1, 2.0), ((0.0, 2.0), 1e-4, 20000, 1e-4),
        ((0.0, 1.0), 1e-4, 10000, 1e-4), ((1.2, 2.0), 1e-4, 8000, 1e-4),
    ])
    def test_steps_are_the_ones_integrate_takes(self, span, h, n, step):
        ts, _ = integrate(lambda s: s, span[0], [1.0], span[1], h)
        assert _steps(span[0], span[1], h) == (n, step) and ts.size == n + 1
        assert reconstruct_thm31(1.0, span=span, h=h).h == step

    def test_step_count_capped_before_allocation(self):
        # at the cap the checks pass: the first slope call stops the run
        with pytest.raises(_Accepted):
            integrate(_accepted, 0.0, [1.0], 1.0, 1.0 / MAX_STEPS)
        calls = []
        for t1, h in ((1.0, 1.0 / (MAX_STEPS + 1)), (1e12, 1e-3), (1.0, 5e-324)):
            with pytest.raises(InvalidParams, match="steps"):
                integrate(lambda s: calls.append(s) or s, 0.0, [1.0], t1, h)
        assert calls == []
        for call in (lambda: reconstruct_thm31(1.0, span=(0.0, 1e12)),
                     lambda: reconstruct_thm32(0.5, length=1e12),
                     lambda: reconstruct_thm42(0.5, length=1e12)):
            with pytest.raises(InvalidParams, match="steps"):
                call()


# sha256 of ts.tobytes() and ys.tobytes() as `integrate` returns them inside
# each reconstruction: the criterion-4 calls (h = 1e-3 and the h = 0.02 /
# 0.01 pairs) and one h = 1e-4 call per theorem and branch, shaped like
# the `solve` benchmark's.
_TRAJECTORY_PINS = [
    (reconstruct_thm31, dict(k0=1.0, h=1e-3),
     "64713e0fe4c03cfa035c8f67cf78cb12fcccdd8f2046cde5b2cc5551e7dd1bc5",
     "2fc24db40a80fb7931034b90b01981679bdd7426e720ef7d7d5867666e1451a3"),
    (reconstruct_thm32, dict(h0=0.5, causal="spacelike", h=1e-3),
     "be069d7d0c6719743ada6aed42916e2798ddc937afaa56bd63d766dcca764331",
     "2207ef5a0c962e8d731aab61bd42731366e8916fab7cab4f7affb3bb0830303d"),
    (reconstruct_thm32, dict(h0=0.5, causal="timelike", h=1e-3),
     "be069d7d0c6719743ada6aed42916e2798ddc937afaa56bd63d766dcca764331",
     "3ef51e2d854573a496a7f295180ffe8817b42aecbb466e01f9429ef2b159fb8b"),
    (reconstruct_thm42, dict(h0=0.5, lam1=1.0, lam2=0.0, z0=1.2, length=1.0, h=1e-3),
     "259abf215fbb9abd28b585cccab1bba2c616206aaf2d3e98a224d3b5eda900a2",
     "19880cc02c79251b17965839f12b50d7ee927c2073f5bcd781988d82b0c8406d"),
    (reconstruct_thm31, dict(k0=1.0, h=0.02),
     "45a310e5517dd15c97912aadddef95b61a8cce44c8cf759919e712b03b775c0c",
     "59d4145c8d612940dc346e65b0de40b6be7d1600a3cbff433b9f381feb3a45e4"),
    (reconstruct_thm32, dict(h0=0.5, causal="spacelike", h=0.02),
     "4a15535ba4f14f1fc73683cea5b7366fcee2984a2bf557f765bba1790779dffb",
     "9a36a4d45a52b8b58e2106478cf11478eb766c9acfdd168996df1e9740e076d6"),
    (reconstruct_thm32, dict(h0=0.5, causal="timelike", h=0.02),
     "4a15535ba4f14f1fc73683cea5b7366fcee2984a2bf557f765bba1790779dffb",
     "f490fbcd354041eeca1368f22849969a31e06ae60d9c6d644bcce22859dae540"),
    (reconstruct_thm42, dict(h0=0.5, h=0.02),
     "f07fed3831e45bacf1d345216e533dfe0c0d60c57df73ad459f2ccb86529b645",
     "bea496bbe0afd72818c2ca2b9071cd785bbab9514407391ad0b471ffe3fe96cb"),
    (reconstruct_thm31, dict(k0=1.0, h=0.01),
     "13fb3b2065c2462ffcac49450fcdf346a4300eb66ec2d295feffe1a263f9035d",
     "12bcd99df5f2d8864b9cd45bc7e71b6bd93c7462bb90ca1af5835be7fc2d3481"),
    (reconstruct_thm32, dict(h0=0.5, causal="spacelike", h=0.01),
     "2d97dd2c2d94ed0b5ce6c902c0dcf2a41753796593ae2859ab77b0ba0c647bc3",
     "828498b1f221a01d8f8b7d327bdf68b3518c23eedfae713876c523e16a703001"),
    (reconstruct_thm32, dict(h0=0.5, causal="timelike", h=0.01),
     "2d97dd2c2d94ed0b5ce6c902c0dcf2a41753796593ae2859ab77b0ba0c647bc3",
     "0e4b282cb0fb79e3c9fa339fb9970090ea197922950bab795667f638e9bbef2c"),
    (reconstruct_thm42, dict(h0=0.5, h=0.01),
     "4f5c11251842f78b9c0adbb71c0dee79ed36e78ddcad487ca27472453116fc77",
     "f8e50762ea5340dd87be4fc1f0923ecd5654d4130b72167bb7a8521d72e87936"),
    (reconstruct_thm31, dict(k0=-2.3, g0=1.4, lam1=0.3, sign=-1, span=(0.0, 2.0), h=1e-4),
     "c3438ffac7ace05c91efd7024076fb2af88f68749014fd8f01ab2b546dda708c",
     "6bb9d2075fbcac2dce1cd0461b81f8248d4c3458eb56a7364ca3c1d269f17a57"),
    (reconstruct_thm32, dict(h0=-0.7, f0=1.3, lam=0.4, causal="spacelike", length=1.0, h=1e-4),
     "832886dde26bb5f5e5314a66fc9193873faf2e2acf1c5e87666f5309214347c4",
     "cad2a25bb0820a5fb5b7964bc20628acbee3e6f66941e1b23144c6109df7ebf9"),
    (reconstruct_thm32, dict(h0=0.6, f0=-0.8, lam=1.5, causal="timelike", length=1.0, h=1e-4),
     "832886dde26bb5f5e5314a66fc9193873faf2e2acf1c5e87666f5309214347c4",
     "17bb90fc1fe170cf8e65f06399a8450b7d23331c19db7e83b03e10328fe40693"),
    (reconstruct_thm42, dict(h0=-0.9, lam1=-1.3, lam2=0.0, z0=1.2, length=0.8, h=1e-4),
     "0a1ffb4815f9603319ee77e0aa1b7f00e4d4a8a7726f8ec059038e607200dabe",
     "871f747dcf66e6b7a4415b9e139a28bd116921261361ab06e192ce9c4a93f0e8"),
]


def test_integrate_trajectory_pins(monkeypatch):
    """RK4 trajectories, the BlowUp point and a mid-corridor branch
    violation, pinned bit for bit."""
    import pgsurf.reconstruct as rec

    original = rec.integrate
    for call, kwargs, ts_pin, ys_pin in _TRAJECTORY_PINS:
        results = []
        monkeypatch.setattr(rec, "integrate",
                            lambda *args: results.append(original(*args)) or results[-1])
        call(**kwargs)
        (ts, ys), = results
        assert ts.dtype == ys.dtype == np.float64
        assert ys.shape == (ts.size, 1 if call is reconstruct_thm31 else 2)
        if call is reconstruct_thm32:
            # the state is (u, g); the pins hash the columns in the order (g, u)
            ys = np.ascontiguousarray(ys[:, ::-1])
        assert hashlib.sha256(ts.tobytes()).hexdigest() == ts_pin, (call.__name__, kwargs)
        assert hashlib.sha256(ys.tobytes()).hexdigest() == ys_pin, (call.__name__, kwargs)
    monkeypatch.undo()

    # y = tan(t + pi/4) leaves [-1e12, 1e12] just after pi/4
    with pytest.raises(BlowUp) as info:
        integrate(lambda s: 1.0 + s ** 2, 0.0, [1.0], 2.0, 1e-3)
    assert str(info.value) == "state exceeded 1e+12 at t = 0.787"
    # the fifth of ten coarse steps overshoots u = 1
    with pytest.raises(BranchViolation, match="spacelike branch"):
        reconstruct_thm32(5.0, causal="spacelike", lam=-3.5, h=0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call, kwargs, key", [
    (reconstruct_thm31, dict(k0=1.0), "lam1"),
    (reconstruct_thm32, dict(h0=0.5, causal="spacelike"), "lam"),
    (reconstruct_thm32, dict(h0=0.5, causal="timelike"), "lam"),
    (reconstruct_thm42, dict(h0=0.5), "lam1"),
    (reconstruct_thm42, dict(h0=0.5), "lam2"),
])
def test_non_finite_shift_names_its_key(call, kwargs, key, bad):
    # the caller's own key, though 3.2 and 4.2 pass their shifts on under
    # other names; a tanh profile at lam1 = +-inf is a constant the
    # integration would match exactly
    with pytest.raises(InvalidParams, match=f"^{key} must be a finite real$"):
        call(**kwargs, **{key: bad})


class TestThm31Reconstruction:
    def test_default_corridor(self):
        assert reconstruct_thm31(1.0).max_error < 1e-6

    def test_shifted(self):
        assert reconstruct_thm31(1.0, lam1=0.5).max_error < 1e-6

    def test_envelope_bound(self):
        result = reconstruct_thm31(1.0, g0=2.0)
        assert np.max(np.abs(result.numeric)) < 0.5

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            reconstruct_thm31(0.0)
        for g0 in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidParams, match="^g0 must be a nonzero finite real$"):
                reconstruct_thm31(1.0, g0=g0)

    def test_rk4_order(self):
        coarse = reconstruct_thm31(1.0, h=0.02).max_error
        fine = reconstruct_thm31(1.0, h=0.01).max_error
        assert 8.0 < coarse / fine < 32.0

    @pytest.mark.parametrize("params,value", [
        ({"k0": 1.0, "lam1": 19.0}, "1"), ({"k0": 1.0, "lam1": 40.0}, "1"),
        ({"k0": 1e308, "lam1": 1e300}, "1"), ({"k0": 1.0, "lam1": 40.0, "sign": -1}, "-1"),
    ])
    def test_saturated_closed_form_is_rejected(self, capsys, params, value):
        # tanh has saturated: the closed column is one value over the whole
        # corridor, which a trajectory resting at its seed matches exactly,
        # so the comparison would pass while checking nothing (exit 2)
        message = (f"the closed form is {value} over the whole corridor, "
                   "so the comparison checks nothing there")
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
            reconstruct_thm31(**params)
        sets = ["theorem=3.1", *(f"{key}={val!r}" for key, val in params.items())]
        capsys.readouterr()
        assert main(["reconstruct", *(arg for pair in sets for arg in ("--set", pair))]) == 2
        assert capsys.readouterr().err == f"pg-surf: config error: {message}\n"


class TestThm32Reconstruction:
    def test_spacelike_branch(self):
        result = reconstruct_thm32(0.5, causal="spacelike")
        assert result.max_error < 1e-6

    def test_timelike_branch(self):
        result = reconstruct_thm32(0.5, causal="timelike")
        assert result.max_error < 1e-6

    def test_boundary_slope_rejected(self):
        with pytest.raises(BranchViolation):
            reconstruct_thm32(0.5, causal="spacelike", u0=1.0)

    def test_wrong_branch_slope_rejected(self):
        with pytest.raises(BranchViolation):
            reconstruct_thm32(0.5, causal="spacelike", u0=1.5)
        with pytest.raises(BranchViolation):
            reconstruct_thm32(0.5, causal="timelike", u0=0.2)

    @pytest.mark.parametrize("causal", ["spacelike", "timelike"])
    @pytest.mark.parametrize("u0", [math.nan, math.inf, -math.inf])
    def test_non_finite_slope_names_u0(self, causal, u0):
        with pytest.raises(InvalidParams, match="^u0 must be a finite real$"):
            reconstruct_thm32(0.5, causal=causal, u0=u0)

    @pytest.mark.parametrize("key, message", [
        ("u0", "h0, y0 and u0 give a shift lam = w0 - 2*h0*y0 that is not finite"),
        ("lam", "h0 and y0 give a start w0 = 2*h0*y0 + lam that is not finite"),
    ])
    def test_overflowing_derived_shift_names_the_callers_keys(self, capsys, key, message):
        # 2*h0*y0 overflows: the shift or start derived from it is not
        # finite, and the message names the keys the caller passed, in the
        # library and on the command line (exit 2)
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
            reconstruct_thm32(1e308, causal="spacelike", y0=1.0, **{key: 0.5})
        sets = ["theorem=3.2", "h0=1e308", "causal=spacelike", "y0=1.0", f"{key}=0.5"]
        capsys.readouterr()
        assert main(["reconstruct", *(arg for pair in sets for arg in ("--set", pair))]) == 2
        assert capsys.readouterr().err == f"pg-surf: config error: {message}\n"

    def test_corridor_validation(self):
        with pytest.raises(DomainError):
            reconstruct_thm32(0.5, causal="timelike", lam=0.5)

    @pytest.mark.parametrize("lam,y0", [(0.5, 0.0), (-1.0, 0.0), (1.0, 0.0), (2.0, -1.5)])
    def test_timelike_start_inside_is_the_corridor_error(self, lam, y0):
        # |2 h0 y0 + lam| <= 1: the start slope read off the closed form is
        # NaN there, without a warning, and the corridor check rejects it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"leaves the region \|2 h0 y \+ lam\| > 1"):
                reconstruct_thm32(0.5, causal="timelike", lam=lam, y0=y0)

    def test_explicit_slope_matches_closed_form(self):
        result = reconstruct_thm32(0.5, causal="timelike", u0=-1.5)
        assert result.max_error < 1e-6

    def test_unknown_causal_rejected(self):
        with pytest.raises(InvalidParams, match="causal must be"):
            reconstruct_thm32(0.5, causal="null")

    @pytest.mark.parametrize("causal,u0", [("spacelike", 0.5), ("timelike", -1.2)])
    def test_slope_and_lam_together_rejected(self, causal, u0):
        with pytest.raises(InvalidParams, match="lam or u0"):
            reconstruct_thm32(0.5, causal=causal, u0=u0, lam=0.7)

    def test_rk4_order(self):
        coarse = reconstruct_thm32(0.5, causal="spacelike", h=0.02).max_error
        fine = reconstruct_thm32(0.5, causal="spacelike", h=0.01).max_error
        assert 8.0 < coarse / fine < 32.0


class TestThm42Reconstruction:
    def test_default_corridor(self):
        result = reconstruct_thm42(0.5, lam1=1.0, lam2=0.0)
        assert result.max_rel_error < 1e-6

    def test_log_derivative_closed_form_in_ode(self):
        # the closed column is the profile tests/test_exact_claims.py
        # proves to solve the integrated ODE, s = -sign(lam1) included
        for lam1, lam2, z0 in ((1.0, 0.0, 1.2), (-2.0, 0.3, 1.7)):
            result = reconstruct_thm42(0.5, lam1=lam1, lam2=lam2, z0=z0)
            exact = log_derivative_closed(0.5, lam1, lam2, result.ts)
            np.testing.assert_allclose(result.closed, exact, rtol=1e-13, atol=0.0)

    def test_negative_rate_branch(self):
        result = reconstruct_thm42(0.5, lam1=-1.0, lam2=0.0)
        assert result.max_rel_error < 1e-6
        assert result.meta["branch_sign"] == 1.0

    def test_corridor_validation(self):
        with pytest.raises(DomainError):
            reconstruct_thm42(0.5, lam1=1.0, lam2=0.0, z0=0.2)

    @pytest.mark.parametrize("params, message", [
        ({"h0": 1e308}, "h0, z0 and lam2 give a start w0 = 2*h0*z0 + lam2 that is not finite"),
        ({"h0": 0.5, "lam2": 1e200},
         "h0, lam1, lam2 and z0 give seeds v0 = phi'(z0) and phi(z0) that are not finite"),
        ({"h0": 1e200, "lam1": 1e200},
         "h0, lam1, lam2 and z0 give seeds v0 = phi'(z0) and phi(z0) that are not finite"),
    ])
    def test_overflowing_start_names_the_callers_keys(self, capsys, params, message):
        # 2*h0*z0 + lam2 overflows, or the radicand at it does: the start or
        # the seeds read off phi are not finite, and the message names the
        # keys 4.2 takes, not its internal state, in the library and on the
        # command line (exit 2)
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
            reconstruct_thm42(**params)
        sets = ["theorem=4.2", *(f"{key}={value!r}" for key, value in params.items())]
        capsys.readouterr()
        assert main(["reconstruct", *(arg for pair in sets for arg in ("--set", pair))]) == 2
        assert capsys.readouterr().err == f"pg-surf: config error: {message}\n"

    def test_profile_beyond_the_float_range_compares_in_log_space(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = reconstruct_thm42(0.5, lam1=1000.0)
        assert np.isinf(result.numeric[-1]) and np.isinf(result.closed[-1])
        assert 0.0 < result.max_rel_error < 1e-6
        assert 0.0 < result.max_error < 1e-6

    def test_rk4_order(self):
        coarse = reconstruct_thm42(0.5, h=0.02).max_rel_error
        fine = reconstruct_thm42(0.5, h=0.01).max_rel_error
        assert 8.0 < coarse / fine < 32.0


# nonzero rates and the corridor variable w at the start; |w| > 1 keeps a
# timelike corridor of length 1e-3 inside |w| > 1
_RATES = st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)
_W0 = st.floats(-5.0, 5.0)
# a start with |w0| > 1.01, as the 3.2 timelike and 4.2 radicands need
_W0_FAR = st.floats(1.01, 5.0) | st.floats(-5.0, -1.01)
_START = st.floats(-2.0, 2.0)
# a corridor shift with |shift| > 1.01, as the 3.2 timelike and 4.2 radicands need
_FAR = st.floats(1.01, 2.0) | st.floats(-2.0, -1.01)


class TestSeedIsTheClosedColumn:
    """Each integration starts from the closed column's first entry bit for
    bit; the examples differed in the last bit when the seed was evaluated
    on a Python float (`math.tanh` for 3.1), or in the sign of zero when
    it was evaluated at t0 = -0.0, where the first node is +0.0."""

    @settings(max_examples=200, deadline=None)
    @example(k0=1.0, lam1=0.7, g0=1.0, t0=0.0, sign=1)
    @example(k0=1.0, lam1=-0.0, g0=1.0, t0=-0.0, sign=1)
    @given(k0=_RATES, lam1=_START, g0=_RATES, t0=_START, sign=st.sampled_from([1, -1]))
    def test_thm31(self, k0, lam1, g0, t0, sign):
        r = reconstruct_thm31(k0, g0=g0, lam1=lam1, sign=sign, span=(t0, t0 + 0.1), h=0.1)
        assert float(r.numeric[0]).hex() == float(r.closed[0]).hex()

    @settings(max_examples=200, deadline=None)
    @example(h0=-1.0932071996835577, near=0.0, far=4.462611562788099, y0=1.3675703294710035,
             causal="timelike")
    @given(h0=_RATES, near=_W0, far=_W0_FAR, y0=_START,
           causal=st.sampled_from(["spacelike", "timelike"]))
    def test_thm32(self, h0, near, far, y0, causal):
        w0 = near if causal == "spacelike" else far
        r = reconstruct_thm32(h0, lam=w0 - 2.0 * h0 * y0, causal=causal, y0=y0,
                              length=1e-3, h=1e-3)
        assert float(r.numeric[0]).hex() == float(r.closed[0]).hex()

    @settings(max_examples=200, deadline=None)
    @example(h0=-1.0932071996835577, lam1=-1.793318280579125, w0=4.462611562788099,
             z0=1.3675703294710035)
    @given(h0=_RATES, lam1=_RATES, w0=_W0_FAR, z0=_START)
    def test_thm42(self, h0, lam1, w0, z0):
        r = reconstruct_thm42(h0, lam1=lam1, lam2=w0 - 2.0 * h0 * z0, z0=z0, length=1e-3, h=1e-3)
        assert float(r.numeric[0]).hex() == float(r.closed[0]).hex()


class TestClosedIsTheFamilyProfile:
    """Each reconstruction's closed column is the profile its family
    constructor builds, bit for bit: f/g0 of `thm31_family`, b*g of
    `thm32_family` with the radicand w^2 + b (the family names b = +1
    'timelike', see README, "Errata") and g = exp(phi) of `thm42_family`
    with the rate lam1 and the minus radicand."""

    @settings(max_examples=100, deadline=None)
    @given(rate=_RATES, shift=_START, far=_FAR, scale=_RATES, t0=_START,
           sign=st.sampled_from([1, -1]), causal=st.sampled_from(["spacelike", "timelike"]))
    def test_every_theorem(self, rate, shift, far, scale, t0, sign, causal):
        r = reconstruct_thm31(rate, g0=scale, lam1=shift, sign=sign, span=(t0, t0 + 0.05), h=0.01)
        want = thm31_family(rate, shift, sign=sign).f(r.ts) / scale
        assert r.closed.tobytes() == want.tobytes()

        b = 1.0 if causal == "spacelike" else -1.0
        w0 = shift if b > 0 else far
        r = reconstruct_thm32(rate, f0=scale, lam=w0 - 2.0 * rate * t0, causal=causal, y0=t0,
                              length=1e-3, h=1e-3)
        fam = thm32_family(rate, r.meta["lam"], f0=scale,
                           causal="timelike" if b > 0 else "spacelike")
        assert r.closed.tobytes() == (b * fam.g(r.ts)).tobytes()

        r = reconstruct_thm42(rate, lam1=scale, lam2=far - 2.0 * rate * t0, z0=t0,
                              length=1e-3, h=1e-3)
        with np.errstate(all="ignore"):
            want = thm42_family(rate, lam2=scale, lam3=r.meta["lam2"], causal="spacelike").g(r.ts)
        assert r.closed.tobytes() == want.tobytes()


class TestSubstitutionResiduals:
    """The constructors evaluate the closed forms that
    tests/test_exact_claims.py substitutes into their ODEs exactly."""

    def test_thm31_family_solves_its_ode(self):
        assert profile_gap("thm31", dict(k0=1.7, lam1=0.3, lam2=-0.5, sign=1)) < 1e-8
        assert profile_gap("thm31", dict(k0=0.4, lam1=0.0, lam2=0.0, sign=-1)) < 1e-8

    @pytest.mark.parametrize("causal", ["spacelike", "timelike"])
    def test_thm32_family_solves_its_ode(self, causal):
        params = dict(h0=0.5, lam1=0.2, lam2=0.7, f0=1.0, causal=causal)
        assert profile_gap("thm32", params) < 1e-8

    @pytest.mark.parametrize("causal", ["spacelike", "timelike"])
    def test_thm42_family_solves_its_ode(self, causal):
        for h0, lam2 in ((0.5, 1.0), (0.8, -1.3)):
            params = dict(h0=h0, lam1=1.0, lam2=lam2, lam3=0.0, causal=causal)
            assert profile_gap("thm42", params) < 1e-8


class TestResidualField:
    """`specialized_grid` against constant and closed-form targets."""

    def test_thm31_against_its_constant(self):
        s = thm31_family(2.0, lam1=0.1)
        data = specialized_grid(s, default_grid(s, 20, 20))
        assert not np.any(data["excluded"])
        assert np.max(np.abs(data["K"] + 2.0)) < 1e-7

    def test_saddle_residual_grows_off_origin(self):
        saddle = FactorableSurface("first", ScalarC2.linear(1.0), ScalarC2.linear(1.0))
        data = specialized_grid(saddle, GridSpec((-0.5, 0.5), (-0.5, 0.5), 21, 21))
        # independent oracle: K = -1/(1 - x^2)^2, farthest from -1 at |x| = 0.5
        np.testing.assert_allclose(data["K"], -1.0 / (1.0 - data["U1"] ** 2) ** 2,
                                   rtol=1e-12, atol=0.0)
        resid = np.abs(data["K"] + 1.0)
        assert resid.max() == pytest.approx(1.0 / (1.0 - 0.25) ** 2 - 1.0, rel=1e-12)
        assert abs(data["U1"].flat[np.argmax(resid)]) == pytest.approx(0.5)

    def test_fixtures_against_zero(self):
        # the plane is flat and minimal, the saddle minimal (its K is not
        # constant) and the equal-rate exponential graph flat and minimal
        for name, fields in (("linear", "KH"), ("saddle", "H"), ("exp_exp", "KH")):
            surface = family_surface(name)
            data = specialized_grid(surface, default_grid(surface, 10, 10))
            assert not np.any(data["excluded"])
            for field in fields:
                assert np.max(np.abs(data[field])) < 1e-9, (name, field)

    def test_lightlike_grid_rejected(self):
        # the saddle is lightlike at x = 1, which this grid crosses
        saddle = FactorableSurface("first", ScalarC2.linear(1.0), ScalarC2.linear(1.0))
        data = specialized_grid(saddle, GridSpec((0.5, 1.5), (-0.5, 0.5), 21, 5))
        assert np.array_equal(np.flatnonzero(data["excluded"].any(axis=1)), [10])
        assert np.all(np.isnan(data["K"][10]))


def c4_values(f, ts):
    """The exact c4 of the quartic-slope identity for the profile f(y) at
    the nodes ts."""
    return sp.lambdify(y, quartic_slope_coefficients(f, y)[1])(np.asarray(ts, dtype=float))


class TestCaseContradictions:
    """Instances of the exact case contradictions of
    tests/test_exact_claims.py, where the former numerical checks sampled
    them."""

    def test_quartic_slope_tanh_witness(self):
        assert np.max(np.abs(c4_values(sp.tanh(y), [0.5, 1.0]))) > 0.1

    def test_quartic_slope_quadratic_witness(self):
        assert np.all(c4_values(1 + y ** 2, [0.4, 0.9, 1.3]) != 0.0)

    def test_quartic_slope_coefficient_evaluators(self):
        # c4 = (f^3/f'')' for tanh: f'' = -2 f (1 - f^2), so f^3/f'' =
        # -f^2 / (2 (1 - f^2)); differentiate at t and compare
        t = 0.7
        f = math.tanh(t)
        fp = 1.0 / math.cosh(t) ** 2
        expected = -(2 * f * fp * (1 - f**2) + f**2 * 2 * f * fp) / (2 * (1 - f**2) ** 2)
        assert c4_values(sp.tanh(y), [t])[0] == pytest.approx(expected, rel=1e-12)

    def test_linear_factor_exponential_witness(self):
        a4, _, _, _, a0 = linear_factor_coefficients()
        exp = {gv: sp.exp(z), g1: sp.exp(z)}
        assert a4.subs(exp).subs(K0, 1).is_zero is False
        # K0 = 0 clears the leading coefficient but not the constant one
        assert a4.subs(K0, 0) == 0 and a0.subs(exp).subs(K0, 0).is_zero is False

    def test_quintic_system_forced_relations(self):
        for lam1 in (1, 2, -sp.Rational(1, 2)):
            assert quintic_solutions(lam1) == {(0, 0), (1 / sp.S(lam1), 0)}


# Bit-level pins of whole probe runs: float.hex of the best residual, the
# evaluation count and the best theta.  The first five are acceptance
# criterion 7's calls; then a call shaped like the benchmark's (budget 3000,
# six restarts, a nonzero seed) and one non-default space on a 7x13 grid.
# Recorded with numpy 2.4 on x86-64 from the one-candidate-at-a-time search;
# the next, shaped like the benchmark's budget-10000 calls (20 restarts),
# from the search that ran its restarts one after another; the last, an
# exponential space of unequal degrees (g's coefficients zero-padded to f's
# degree in the objective), from the search that evaluated the rest of a
# sweep per round.
PROBE_PINS = [
    (dict(k0=1.0, budget=10_000, seed=0),
     '0x1.55a913d88c270p-1', 4045,
     ['0x1.23ffe00000000p+0', '-0x1.999999999999ap-3', '0x1.090f800000000p-1', '0x1.1c00000000000p-1',
      '-0x1.999999999999ap-2', '0x0.0p+0', '0x1.2004000000000p-1', '-0x1.0000000000000p-1']),
    (dict(k0=-1.0, budget=10_000, seed=0),
     '0x1.6ef2622cb4cb8p-2', 4022,
     ['0x1.6200000000000p+0', '0x1.3333333333333p-2', '0x1.8ef0000000000p-5', '0x1.3829000000000p+0',
      '-0x1.699999999999ap-2', '0x0.0p+0', '0x1.0000000000000p-1', '-0x1.0000000000000p-1']),
    (dict(k0=0.5, budget=10_000, seed=0),
     '0x1.2256a8cfdf3cep-2', 4708,
     ['0x1.7efda00000000p+0', '-0x1.3573333333334p-4', '0x1.fffe000000000p-2', '0x1.5ffc000000000p-1',
      '-0x1.999999999999ap-2', '0x0.0p+0', '0x1.0240000000000p-1', '-0x1.dff0000000000p-2']),
    (dict(k0=-0.5, budget=10_000, seed=0),
     '0x1.1f4394eb5a994p-4', 3300,
     ['0x1.ea30c00000000p-1', '-0x1.999999999999ap-3', '0x1.f000000000000p-5', '0x1.3c00000000000p-3',
      '-0x1.999999999999ap-2', '-0x1.0000000000000p-3', '0x1.0000000000000p-1', '-0x1.6000000000000p-2']),
    (dict(k0=0.0, budget=10_000, seed=0),
     '0x1.32c4a92e51ed0p-52', 5447,
     ['0x1.8000000000000p+0', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
      '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+1']),
    (dict(k0=-1.37, budget=3000, restarts=6, seed=123456789),
     '0x1.3de48e7886ff6p-1', 2969,
     ['0x1.595e000000000p+0', '0x1.3333333333333p-2', '0x1.83a0000000000p-5', '0x1.3700000000000p+0',
      '-0x1.699999999999ap-2', '0x0.0p+0', '0x1.0000000000000p-1', '-0x1.0000000000000p-1']),
    (dict(k0=0.8, space=FamilySpace(1, 3, exponential=False), budget=2000,
          grid=GridSpec((-0.7, 0.4), (-0.3, 0.6), 7, 13), seed=5),
     '0x1.9999999da2951p-1', 1998,
     ['0x1.1099c85d91f29p+4', '0x1.c3a5c3a5de2c0p-4', '0x1.74a51ff02f6ecp-3',
      '0x1.1afb44996a223p+4', '0x1.dd89b48a6dc40p-4', '0x1.0e38a214eb5e2p+0']),
    (dict(k0=1.73, budget=10_000, restarts=20, seed=987654321),
     '0x1.8a01180f173edp-1', 10000,
     ['0x1.1ab45ae0d4f84p-1', '0x1.8b7e32611d000p-5', '0x1.f2dcc40279d50p-4', '0x1.1c3e54378f6ccp+1',
      '0x1.5ff1248a087f4p-1', '0x1.07f6a7dfec240p-4', '-0x1.8af97dfc37940p-6', '0x1.c2b44cf45a300p-4']),
    (dict(k0=0.6, space=FamilySpace(4, 1), budget=2500, restarts=5, seed=31,
          grid=GridSpec((-0.6, 0.5), (-0.4, 0.7), 11, 6)),
     '0x1.914f250e2021ep-2', 2498,
     ['0x1.8000000000000p+0', '-0x1.6e66666666668p-5', '0x1.fee8000000000p-2', '0x0.0p+0',
      '0x1.8c00000000000p-9', '0x1.7adc000000000p-1', '-0x1.999999999999ap-2', '0x1.ff30000000000p-2',
      '-0x1.fec8000000000p-2']),
]


class TestNonexistenceProbe:
    def test_control_reaches_flat_surface(self):
        report = nonexistence_probe(0.0, budget=2000, seed=0)
        assert report.best_residual < 1e-6

    @pytest.mark.parametrize("restarts", [1, 6])
    def test_empty_budget_rejected(self, restarts):
        with pytest.raises(InvalidParams, match="between 1 and budget"):
            nonexistence_probe(1.0, budget=0, restarts=restarts)

    def test_deterministic_for_fixed_seed(self):
        a = nonexistence_probe(1.0, budget=1500, seed=0)
        b = nonexistence_probe(1.0, budget=1500, seed=0)
        assert a.best_residual == b.best_residual
        assert a.best_theta == b.best_theta

    @pytest.mark.parametrize("kwargs,residual,evaluations,theta", PROBE_PINS)
    def test_trajectory_pins(self, kwargs, residual, evaluations, theta):
        report = nonexistence_probe(**kwargs)
        assert float.hex(report.best_residual) == residual
        assert report.evaluations == evaluations
        assert [float.hex(v) for v in report.best_theta] == theta

    def test_no_runtime_warning(self):
        # on [-300, 300]^2 the exponentials overflow and K turns NaN
        grid = GridSpec((-300.0, 300.0), (-300.0, 300.0), 5, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = nonexistence_probe(1.0, grid=grid, budget=300, seed=2)
        assert report.evaluations <= 300

    @pytest.mark.parametrize("exponential", [True, False])
    def test_every_family_space_runs(self, exponential):
        for df in range(5):
            for dg in range(5):
                space = FamilySpace(df, dg, exponential=exponential)
                report = nonexistence_probe(0.7, space=space, budget=50, seed=1)
                assert len(report.best_theta) == space.n_params
                assert report.evaluations <= 50

    def test_generic_start_sets_linear_terms_only_where_they_exist(self):
        assert _generic_start(FamilySpace(2, 2)).tolist() == [1.0, 0.3, 0.0, 1.0, -0.4, 0.0, 0.5, -0.5]
        assert _generic_start(FamilySpace(2, 0)).tolist() == [1.0, 0.3, 0.0, 1.0, 0.5, -0.5]
        assert _generic_start(FamilySpace(0, 2)).tolist() == [1.0, 1.0, -0.4, 0.0, 0.5, -0.5]
        assert _generic_start(FamilySpace(0, 0)).tolist() == [1.0, 1.0, 0.5, -0.5]
        assert _generic_start(FamilySpace(3, 0, exponential=False)).tolist() == [1.0, 0.3, 0.0, 0.0, 1.0]
        assert _generic_start(FamilySpace(0, 0, exponential=False)).tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("budget,restarts", [(10, 20), (1, 2), (5, 6)])
    def test_restarts_above_budget_rejected(self, budget, restarts):
        with pytest.raises(InvalidParams):
            nonexistence_probe(1.0, budget=budget, restarts=restarts)

    @pytest.mark.parametrize("budget,restarts", [(0, MAX_RESTARTS + 1), (10**9, 10**9),
                                                 (MAX_RESTARTS + 1, MAX_RESTARTS + 1)])
    def test_restarts_above_bound_rejected(self, budget, restarts):
        with pytest.raises(InvalidParams, match=str(MAX_RESTARTS)):
            nonexistence_probe(1.0, budget=budget, restarts=restarts)

    @pytest.mark.parametrize("k0", [math.nan, math.inf, -math.inf])
    def test_non_finite_k0_rejected(self, k0):
        with pytest.raises(InvalidParams, match="k0 must be finite"):
            nonexistence_probe(k0, budget=10)

    @pytest.mark.parametrize("budget,restarts", [(10, 10), (10, 3), (7, 1), (1, 1)])
    def test_evaluations_within_budget(self, budget, restarts):
        report = nonexistence_probe(1.0, budget=budget, restarts=restarts, seed=3)
        assert report.evaluations <= budget

    @pytest.mark.parametrize("budget,restarts", [(100, 0), (100, -3), (0, 0)])
    def test_restarts_below_one_rejected(self, budget, restarts):
        with pytest.raises(InvalidParams, match="between 1 and budget"):
            nonexistence_probe(1.0, budget=budget, restarts=restarts)

    def test_header_states_scope(self):
        report = nonexistence_probe(1.0, budget=100, seed=0)
        for token in ("family space", "grid", "budget", "not a proof"):
            assert token in report.header

    def test_space_validation(self):
        with pytest.raises(InvalidParams):
            FamilySpace(degree_f=5)


_SPACES = [FamilySpace(df, dg, exponential=exponential)
           for df in range(5) for dg in range(5) for exponential in (True, False)]


@settings(max_examples=100, deadline=None)
@given(p=st.lists(st.floats(), max_size=7), q=st.lists(st.floats(), max_size=7),
       rates=st.lists(st.floats(), min_size=2, max_size=2))
def test_split_reads_the_layout_theta_writes(p, q, rates):
    """On each of the 50 spaces, `theta` writes n_params entries, and
    `split` gives back p and q, each cut or zero-padded to its degree and
    padded to the larger one, and the rates, zeros without exponential."""
    for space in _SPACES:
        theta = space.theta(p, q, rates)
        assert theta.shape == (space.n_params,)
        c, got = space.split(theta[None])
        d = max(space.degree_f, space.degree_g) + 1
        assert c.shape == (d, 2, 1, 1) and got.shape == (2, 1, 1)
        for coeffs, degree, read in ((p, space.degree_f, c[:, 0]), (q, space.degree_g, c[:, 1])):
            want = (coeffs[:degree + 1] + [0.0] * d)[:d]
            assert [v.hex() for v in read.ravel().tolist()] == [v.hex() for v in want]
        want = rates if space.exponential else [0.0, 0.0]
        assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want]


def _coordinate_search(theta0, budget):
    """The reference for `reconstruct._pattern_search`: one restart as a
    generator.  It yields candidate rows (m, n_params), is sent their
    objective values (m,), and returns (best, theta, evals).  The
    candidates left in a sweep are built from the current point and
    yielded at once.  Only the first improving one is taken and counted,
    and the sweep resumes after its coordinate, so the path and the count
    are those of trying the candidates one at a time."""
    theta = np.asarray(theta0, dtype=float).copy()
    best = (yield theta[None])[0]
    evals = 1
    n = theta.size
    steps = np.full(n, _STEP0)
    while evals < budget and float(steps.max()) > _MIN_STEP:
        improved = False
        i = 0
        while i < n and evals < budget:
            left = budget - evals
            coords = np.repeat(np.arange(i, n), 2)[:left]
            deltas = np.stack([steps[i:], -steps[i:]], axis=1).ravel()[:left]
            cands = np.repeat(theta[None], coords.size, axis=0)
            cands[np.arange(coords.size), coords] += deltas
            vals = yield cands
            hits = np.flatnonzero(vals < best - 1e-15)
            if hits.size == 0:
                evals += coords.size
                break
            k = hits[0]
            evals += k + 1
            best, theta = vals[k], cands[k]
            improved = True
            i = coords[k] + 1
        if not improved:
            steps *= _SHRINK
    return best, theta, evals


def _solo(values, search):
    """Drive one search alone, one objective call per yield: its result and
    the number of calls."""
    calls = 0
    try:
        cands = next(search)
        while True:
            calls += 1
            cands = search.send(values(cands))
    except StopIteration as stop:
        return stop.value, calls


def _sequential_probe(k0, space=FamilySpace(), budget=10_000, grid=None, seed=0, restarts=6):
    """`nonexistence_probe` with its restarts run one after another: the
    best residual, its point and the evaluation count, and the largest
    number of calls of one restart."""
    grid = grid or GridSpec((-0.5, 0.5), (-0.5, 0.5), 9, 9)
    values = _probe_objective(space, k0, grid)
    rng = np.random.default_rng(seed)
    starts = [_generic_start(space)] + ([_flat_seed(space)] if space.exponential else [])
    while len(starts) < restarts:
        starts.append(rng.uniform(-1.5, 1.5, size=space.n_params))
    starts = starts[:restarts]
    per = budget // len(starts)
    runs = [_solo(values, _coordinate_search(start, per)) for start in starts]
    results = [result for result, _ in runs]
    best, theta, _ = min(results, key=lambda r: r[0])
    return (best, theta, sum(r[2] for r in results)), max(calls for _, calls in runs)


class _Drawn:
    """Stands in for `st.data()` in an explicit example: `draw` returns the
    given values in order."""

    def __init__(self, *values):
        self._values = iter(values)

    def draw(self, strategy):
        return next(self._values)


class TestLockstep:
    @settings(max_examples=60, deadline=None)
    @given(df=st.integers(0, 4), dg=st.integers(0, 4), exponential=st.booleans(),
           n1=st.integers(2, 8), n2=st.integers(2, 8),
           lo1=st.floats(-1.5, 0.5), w1=st.floats(0.2, 2.0),
           lo2=st.floats(-1.5, 0.5), w2=st.floats(0.2, 2.0),
           k0=st.floats(-2.0, 2.0), seed=st.integers(0, 2**32), data=st.data())
    # the budget ends inside the next sweep's coordinates before i, after a hit there
    @example(df=1, dg=2, exponential=False, n1=5, n2=3, lo1=-0.95, w1=1.86, lo2=-0.52, w2=0.56,
             k0=0.93, seed=453, data=_Drawn(94, 3))
    # a first hit among the next sweep's coordinates before i
    @example(df=2, dg=2, exponential=True, n1=2, n2=6, lo1=-0.61, w1=0.43, lo2=0.46, w2=1.5,
             k0=1.1, seed=357, data=_Drawn(377, 4))
    # one restart
    @example(df=1, dg=2, exponential=True, n1=3, n2=5, lo1=0.0, w1=1.07, lo2=-0.94, w2=1.97,
             k0=1.85, seed=262, data=_Drawn(37, 1))
    def test_equals_sequential_restarts(self, df, dg, exponential, n1, n2,
                                        lo1, w1, lo2, w2, k0, seed, data):
        space = FamilySpace(df, dg, exponential=exponential)
        grid = GridSpec((lo1, lo1 + w1), (lo2, lo2 + w2), n1, n2)
        budget = data.draw(st.integers(1, 400))
        restarts = data.draw(st.integers(1, min(budget, 25)))
        kwargs = dict(space=space, budget=budget, grid=grid, seed=seed, restarts=restarts)
        got = nonexistence_probe(k0, **kwargs)
        (best, theta, evaluations), _ = _sequential_probe(k0, **kwargs)
        assert float.hex(got.best_residual) == float.hex(best)
        assert [float.hex(v) for v in got.best_theta] == [float.hex(v) for v in theta]
        assert got.evaluations == evaluations
        assert (got.k0, got.budget, got.restarts) == (k0, budget, restarts)

    def test_one_objective_call_per_round(self, monkeypatch):
        # the restarts share each call, and a round takes a whole cycle of
        # 2n candidates, so a probe makes fewer calls than its longest
        # restart yields one sweep remainder at a time (145; 1488 calls with
        # sequential restarts)
        kwargs = dict(k0=0.9, budget=10_000, restarts=20, seed=123)
        _, longest = _sequential_probe(**kwargs)
        calls = 0

        def counting(*args):
            values = _probe_objective(*args)

            def counted(thetas):
                nonlocal calls
                calls += 1
                return values(thetas)
            return counted

        monkeypatch.setattr(reconstruct, "_probe_objective", counting)
        nonexistence_probe(**kwargs)
        assert calls == 114
        assert calls < longest == 145


def _reference_objective(space, k0, grid, theta):
    """One candidate on the full mesh with `npoly.polyval`: the formula the
    batched objective must reproduce bit for bit."""
    U1, U2 = np.meshgrid(*grid.axes(), indexing="ij")
    nf, ng = space.degree_f + 1, space.degree_g + 1
    pc, qc = theta[:nf], theta[nf:nf + ng]
    a, b = (float(theta[nf + ng]), float(theta[nf + ng + 1])) if space.exponential else (0.0, 0.0)

    def profile(c, rate, U):
        d1c = npoly.polyder(c) if c.size > 1 else [0.0]
        d2c = npoly.polyder(c, 2) if c.size > 2 else [0.0]
        e = np.exp(rate * U)
        p, p1, p2 = (npoly.polyval(U, d) for d in (c, d1c, d2c))
        return e * p, e * (rate * p + p1), e * (rate * rate * p + 2.0 * rate * p1 + p2)

    with np.errstate(all="ignore"):
        fv, f1, f2 = profile(pc, a, U1)
        gv, g1, g2 = profile(qc, b, U2)
        num = fv * gv * f2 * g2 - (f1 * g1) ** 2
        qa = (fv * g1) ** 2
        qb = (f1 * gv) ** 2
        den = qa - qb
        scale = np.maximum(1.0, np.maximum(qa, qb))
        num_scale = np.maximum(1.0, np.abs(fv * gv * f2 * g2) + (f1 * g1) ** 2)
        flat = (np.abs(den) <= 1e-12 * scale) & (np.abs(num) <= 1e-12 * num_scale)
        bad = (np.abs(den) <= 1e-12 * scale) & ~flat
        if np.any(bad):
            return float("inf")
        densafe = np.where(flat, 1.0, den)
        K = np.where(flat, 0.0, num / densafe ** 2)
        if not np.all(np.isfinite(K)):
            return float("inf")
        return float(np.max(np.abs(K - k0)))


_COEFF = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
                   st.floats(-800.0, 800.0))


class TestProbeObjective:
    @settings(max_examples=150, deadline=None)
    @given(df=st.integers(0, 4), dg=st.integers(0, 4), exponential=st.booleans(),
           n1=st.integers(2, 8), n2=st.integers(2, 8),
           lo1=st.floats(-3.0, 1.0), w1=st.floats(0.1, 4.0),
           lo2=st.floats(-3.0, 1.0), w2=st.floats(0.1, 4.0),
           k0=st.floats(-3.0, 3.0), data=st.data())
    def test_rows_match_single_candidate_reference(self, df, dg, exponential, n1, n2,
                                                   lo1, w1, lo2, w2, k0, data):
        space = FamilySpace(df, dg, exponential=exponential)
        grid = GridSpec((lo1, lo1 + w1), (lo2, lo2 + w2), n1, n2)
        m = data.draw(st.integers(1, 6))
        thetas = np.array(data.draw(st.lists(st.lists(_COEFF, min_size=space.n_params,
                                                      max_size=space.n_params),
                                             min_size=m, max_size=m)))
        got = _probe_objective(space, k0, grid)(thetas)
        want = [_reference_objective(space, k0, grid, theta) for theta in thetas]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]

    def test_lightlike_overflowing_and_flat_rows(self):
        space = FamilySpace()
        grid = GridSpec((-0.5, 0.5), (-0.5, 0.5), 9, 9)
        thetas = np.array([
            [1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0],      # den = 0 on y = z, num = -1
            [1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 700.0, 700.0],  # overflow: K not finite
            [1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],      # constant: flat mask, K = 0
            _flat_seed(space),                             # exp(y) exp(2z)
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _probe_objective(space, 0.0, grid)(thetas)
        assert got[0] == got[1] == math.inf
        assert got[2] == 0.0
        assert got[3] < 1e-14
        assert got.tolist() == [_reference_objective(space, 0.0, grid, t) for t in thetas]

    def test_profiles_once_per_chunk_and_balanced_row_blocks(self, monkeypatch):
        jets, blocks = [], []
        exp_poly_rows, closed_K = reconstruct._exp_poly_rows, reconstruct.closed_K
        # candidates are the last axis of both the profiles and K
        monkeypatch.setattr(reconstruct, "_exp_poly_rows",
                            lambda c, rate, t: jets.append(c.shape[-1]) or exp_poly_rows(c, rate, t))
        monkeypatch.setattr(reconstruct, "closed_K",
                            lambda kind, *parts: blocks.append(parts[0].shape[-1])
                            or closed_K(kind, *parts))
        space = FamilySpace()
        values = _probe_objective(space, 1.0, GridSpec((-0.5, 0.5), (-0.5, 0.5), 9, 9))
        thetas = np.random.default_rng(5).uniform(-1.5, 1.5, size=(500, space.n_params))
        # 8192 // (2 * 9) = 455 candidates per profile chunk, 8192 // 81 = 101 per row block
        values(thetas[:96])
        assert jets == [96] and blocks == [96]
        jets.clear(), blocks.clear()
        values(thetas[:150])
        assert jets == [150] and blocks == [75, 75]
        jets.clear(), blocks.clear()
        got = values(thetas)
        assert jets == [250, 250]
        assert blocks == [84, 83, 83, 84, 83, 83]
        # a row's value does not depend on the rows evaluated beside it
        assert [v.hex() for v in got.tolist()] == [values(t[None])[0].hex() for t in thetas]

    def test_peak_memory_of_a_long_thin_grid(self):
        """2000 candidates on a 4000x2 grid peak below 4 MB of traced
        allocations.  It measured 1.0 MB with numpy 2.4 on x86-64, so the
        bound leaves about 4x headroom; evaluating the profiles of the
        whole call at once would hold 64 MB in each of f, f' and f''."""
        space = FamilySpace()
        values = _probe_objective(space, 1.0, GridSpec((-0.5, 0.5), (-0.5, 0.5), 4000, 2))
        thetas = np.random.default_rng(6).uniform(-1.5, 1.5, size=(2000, space.n_params))
        tracemalloc.start()
        try:
            got = values(thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (2000,) and np.isfinite(got).any()
        assert peak < 4 * 2**20, peak

    def test_large_grid_is_evaluated_in_blocks(self):
        space = FamilySpace()
        grid = GridSpec((-0.5, 0.5), (-0.5, 0.5), 70, 70)
        thetas = np.random.default_rng(4).uniform(-1.5, 1.5, size=(5, space.n_params))
        got = _probe_objective(space, 1.0, grid)(thetas)
        assert got.tolist() == [_reference_objective(space, 1.0, grid, t) for t in thetas]
