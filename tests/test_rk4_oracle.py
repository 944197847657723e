"""A bit-for-bit oracle for `reconstruct.integrate`.

`reference_integrate` is a list-based RK4 loop: one generic step over a
list state, component by component through `zip`, on the right-hand side
rhs(t, y) of the problem's driver and quadrature.  On every drawn slope,
divisor, corridor and step, `integrate` must give the same times and
states, bit for bit, or raise the same BlowUp or BranchViolation with the
same message; each suite bounds the share of draws that raise from both
sides, so neither outcome goes unchecked.
"""

import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsurf import reconstruct as rec
from pgsurf.errors import BlowUp, BranchViolation
from pgsurf.reconstruct import BLOWUP_LIMIT, ODEProblem, integrate


def _rk4_step(rhs, t, y, h):
    # per component, in the operation order of the ndarray expressions
    # y + (0.5*h)*k and y + (h/6)*(k1 + 2*k2 + 2*k3 + k4)
    half, sixth = 0.5 * h, h / 6.0
    k1 = rhs(t, y)
    k2 = rhs(t + half, [a + half * b for a, b in zip(y, k1)])
    k3 = rhs(t + half, [a + half * b for a, b in zip(y, k2)])
    k4 = rhs(t + h, [a + h * b for a, b in zip(y, k3)])
    return [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def _rhs(problem):
    """`problem`'s driver s' = slope(s), and its quadrature q' = s/divisor
    where the state has one, as a right-hand side rhs(t, y) of the state."""
    slope, divisor = problem.slope, problem.divisor
    if problem.y0.size == 1:
        return lambda t, y: (slope(y[0]),)
    return lambda t, y: (slope(y[0]), y[0] / divisor)


def reference_integrate(problem):
    n, h = problem.steps()
    ts = problem.t0 + h * np.arange(n + 1)
    rhs, y = _rhs(problem), problem.y0.tolist()
    trajectory = array("d", y)
    for i, t in enumerate(map(float, ts[:n])):
        try:
            y = _rk4_step(rhs, t, y, h)
        except ArithmeticError:
            y = [math.nan]
        for v in y:
            if not abs(v) <= BLOWUP_LIMIT:
                raise BlowUp(f"state exceeded {BLOWUP_LIMIT:.0e} at t = {ts[i + 1]:.6g}")
        trajectory.extend(y)
    return ts, np.frombuffer(trajectory).reshape(n + 1, len(y))


def _outcome(run, problem):
    """The shapes and bytes of what `run` returns, or the type and message
    of the BlowUp or BranchViolation it raises."""
    try:
        ts, ys = run(problem)
    except (BlowUp, BranchViolation) as exc:
        return type(exc), str(exc)
    assert ts.dtype == ys.dtype == np.float64
    return ts.shape, ts.tobytes(), ys.shape, ys.tobytes()


def assert_matches_reference(problem):
    """Whether `problem` ends in BlowUp or BranchViolation, after checking
    that `integrate` and the reference agree on it."""
    outcome = _outcome(integrate, problem)
    assert outcome == _outcome(reference_integrate, problem)
    return outcome[0] in (BlowUp, BranchViolation)


def _check_raised_share(check, examples, low, high):
    """Run the Hypothesis test `check(raised)` on `examples` draws, each
    appending its `assert_matches_reference` result to `raised`; fewer
    draws, or a share of raising draws outside [low, high], fails, so
    neither outcome goes unchecked."""
    raised = []
    settings(max_examples=examples, deadline=None)(check)(raised)
    assert len(raised) >= examples
    share = sum(raised) / len(raised)
    assert low <= share <= high, f"{share:.2f} of {len(raised)} draws raised"


_coef = st.floats(-20.0, 20.0)
_SLOPES = {
    "linear": lambda c: lambda s: c[0] * s + c[1],
    "riccati": lambda c: lambda s: c[0] + c[1] * s ** 2,
}
# the quadrature's divisor: 1.0 (4.2), and other signs and sizes (3.2's f0)
_DIVISORS = st.sampled_from([1.0, -1.0]) | st.floats(0.1, 4.0) | st.floats(-4.0, -0.1)


@st.composite
def _corridors(draw):
    """(t0, t1, h): up to 300 steps, h not always dividing the span."""
    t0 = draw(st.floats(-3.0, 3.0))
    length = draw(st.floats(1e-3, 4.0))
    h = length / draw(st.integers(1, 300)) * draw(st.floats(0.7, 1.3))
    return t0, t0 + length, h


@st.composite
def _problems(draw):
    slope = _SLOPES[draw(st.sampled_from(sorted(_SLOPES)))](draw(st.lists(_coef, min_size=2,
                                                                          max_size=2)))
    y0 = draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=2))
    t0, t1, h = draw(_corridors())
    return ODEProblem(slope, t0, y0, t1, h, draw(_DIVISORS))


def test_matches_reference_on_drawn_systems():
    @given(_problems())
    def check(raised, problem):
        raised.append(assert_matches_reference(problem))

    _check_raised_share(check, 300, 0.02, 0.5)


class _Captured(Exception):
    pass


def _captured_problem(call, kwargs):
    """The ODEProblem `call(**kwargs)` hands to `integrate`, with the
    slope closure the reconstruction builds."""
    def capture(problem):
        raise _Captured(problem)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rec, "integrate", capture)
        with pytest.raises(_Captured) as info:
            call(**kwargs)
    return info.value.args[0]


_nonzero = st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)
_STEPS = st.integers(1, 3) | st.integers(1, 300)


@st.composite
def _far_corridors(draw):
    """(rate, w0, length): a corridor on which w = w0 + 2*rate*(t - t0)
    keeps |w| >= 1.01 on one side, as the 3.2 timelike and 4.2 radicands
    need, running toward |w| = 1 or away from it."""
    side = draw(st.sampled_from([1.0, -1.0]))
    near = side * draw(st.floats(1.01, 5.0))
    far = near + side * draw(st.floats(0.05, 4.0))
    w0, w1 = draw(st.sampled_from([(near, far), (far, near)]))
    rate = math.copysign(draw(st.floats(0.1, 2.0)), w1 - w0)
    return rate, w0, (w1 - w0) / (2.0 * rate)


@st.composite
def _thm32_kwargs(draw):
    causal = draw(st.sampled_from(("spacelike", "timelike")))
    if causal == "timelike":
        h0, w0, length = draw(_far_corridors())
    else:
        h0, w0, length = draw(_nonzero), draw(st.floats(-3.0, 3.0)), draw(st.floats(0.05, 2.0))
    y0 = draw(st.floats(-1.0, 1.0))
    return dict(h0=h0, f0=draw(_nonzero), lam=w0 - 2.0 * h0 * y0, causal=causal, y0=y0,
                length=length, h=length / draw(_STEPS))


@st.composite
def _thm42_kwargs(draw):
    h0, w0, length = draw(_far_corridors())
    z0 = draw(st.floats(-2.0, 2.0))
    return dict(h0=h0, lam1=draw(_nonzero), lam2=w0 - 2.0 * h0 * z0, z0=z0, length=length,
                h=length / draw(_STEPS))


def test_matches_reference_on_thm32():
    @given(_thm32_kwargs())
    def check(raised, kwargs):
        raised.append(assert_matches_reference(_captured_problem(rec.reconstruct_thm32, kwargs)))

    _check_raised_share(check, 150, 0.01, 0.6)


def test_matches_reference_on_thm42():
    @given(_thm42_kwargs())
    def check(raised, kwargs):
        raised.append(assert_matches_reference(_captured_problem(rec.reconstruct_thm42, kwargs)))

    _check_raised_share(check, 150, 0.01, 0.6)


@pytest.mark.parametrize("slope, y0, divisor, h, message", [
    # only the driver, s = tan(t + pi/4), leaves the guard
    (lambda s: 1.0 + s ** 2, [1.0, 0.0], 1.0, 1e-3, "state exceeded 1e+12 at t = 0.787"),
    # only the quadrature, q = 1e12 * t, leaves the guard
    (lambda s: 0.0, [1.0, 0.0], 1e-12, 1e-3, "state exceeded 1e+12 at t = 1.001"),
    # the driver's power overflows: 10.0 ** 400 raises
    (lambda s: s ** 400, [10.0, 0.0], 1.0, 1.0, "state exceeded 1e+12 at t = 1"),
])
def test_two_component_blowup(slope, y0, divisor, h, message):
    problem = ODEProblem(slope, 0.0, y0, 2.0, h, divisor)
    with pytest.raises(BlowUp) as info:
        integrate(problem)
    assert str(info.value) == message
    assert _outcome(reference_integrate, problem) == (BlowUp, message)
