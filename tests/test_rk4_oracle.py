"""A bit-for-bit oracle for `reconstruct.integrate`.

`reference_integrate` is the list-based RK4 loop that the unrolled
per-size loops of `integrate` replaced: one generic step over a list
state, component by component through `zip`.  On every drawn system,
corridor and step, `integrate` must give the same times and states, bit
for bit, or raise the same BlowUp or BranchViolation with the same
message.
"""

import math
from array import array

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from pgsurf import reconstruct as rec
from pgsurf.errors import BlowUp, BranchViolation, PGSurfError
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


def reference_integrate(problem):
    n, h = problem.steps()
    ts = problem.t0 + h * np.arange(n + 1)
    y = problem.y0.tolist()
    trajectory = array("d", y)
    for i, t in enumerate(map(float, ts[:n])):
        try:
            y = _rk4_step(problem.rhs, t, y, h)
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
    assert _outcome(integrate, problem) == _outcome(reference_integrate, problem)


_coef = st.floats(-8.0, 8.0)
_SYSTEMS = {
    (1, "linear"): lambda c: lambda t, y: (c[0] * y[0] + c[1] * t + c[2],),
    (2, "linear"): lambda c: lambda t, y: (c[0] * y[0] + c[1] * y[1] + c[2] * t,
                                           c[3] * y[0] + c[4] * y[1] + c[5]),
    (1, "riccati"): lambda c: lambda t, y: (1.0 + y[0] ** 2,),
    (2, "riccati"): lambda c: lambda t, y: (c[0] * y[1], 1.0 + y[0] ** 2),
}


@st.composite
def _corridors(draw):
    """(t0, t1, h): up to 300 steps, h not always dividing the span."""
    t0 = draw(st.floats(-3.0, 3.0))
    length = draw(st.floats(1e-3, 4.0))
    h = length / draw(st.integers(1, 300)) * draw(st.floats(0.7, 1.3))
    return t0, t0 + length, h


@st.composite
def _problems(draw):
    dim, kind = draw(st.sampled_from(sorted(_SYSTEMS)))
    rhs = _SYSTEMS[dim, kind](draw(st.lists(_coef, min_size=6, max_size=6)))
    y0 = draw(st.lists(st.floats(-5.0, 5.0), min_size=dim, max_size=dim))
    t0, t1, h = draw(_corridors())
    return ODEProblem(rhs, t0, y0, t1, h)


@settings(max_examples=300, deadline=None)
@given(_problems())
def test_matches_reference_on_drawn_systems(problem):
    assert_matches_reference(problem)


class _Captured(Exception):
    pass


def _captured_problem(call, kwargs):
    """The ODEProblem `call(**kwargs)` hands to `integrate`, with the rhs
    closure the reconstruction builds; draws it rejects before that are
    skipped."""
    def capture(problem):
        raise _Captured(problem)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rec, "integrate", capture)
        try:
            call(**kwargs)
        except _Captured as exc:
            return exc.args[0]
        except (PGSurfError, ArithmeticError, ValueError, RuntimeWarning):
            reject()


_nonzero = st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)


@settings(max_examples=150, deadline=None)
@given(h0=_nonzero, f0=_nonzero, lam=st.floats(-3.0, 3.0),
       causal=st.sampled_from(("spacelike", "timelike")), y0=st.floats(-1.0, 1.0),
       length=st.floats(0.05, 2.0), steps=st.integers(1, 300))
def test_matches_reference_on_thm32(h0, f0, lam, causal, y0, length, steps):
    assert_matches_reference(_captured_problem(rec.reconstruct_thm32, dict(
        h0=h0, f0=f0, lam=lam, causal=causal, y0=y0, length=length, h=length / steps)))


@settings(max_examples=150, deadline=None)
@given(h0=_nonzero, lam1=_nonzero, lam2=st.floats(-3.0, 3.0), z0=st.floats(-2.0, 2.0),
       length=st.floats(0.05, 1.0), steps=st.integers(1, 300))
def test_matches_reference_on_thm42(h0, lam1, lam2, z0, length, steps):
    assert_matches_reference(_captured_problem(rec.reconstruct_thm42, dict(
        h0=h0, lam1=lam1, lam2=lam2, z0=z0, length=length, h=length / steps)))


@pytest.mark.parametrize("rhs, y0, h, message", [
    # only the second component, y1 = tan(t + pi/4), leaves the guard
    (lambda t, y: (0.0, 1.0 + y[1] ** 2), [0.0, 1.0], 1e-3, "state exceeded 1e+12 at t = 0.787"),
    # only the second component's power overflows: 10.0 ** 400 raises
    (lambda t, y: (1.0, y[1] ** 400), [0.0, 10.0], 1.0, "state exceeded 1e+12 at t = 1"),
])
def test_two_component_blowup(rhs, y0, h, message):
    problem = ODEProblem(rhs, 0.0, y0, 2.0, h)
    with pytest.raises(BlowUp) as info:
        integrate(problem)
    assert str(info.value) == message
    assert _outcome(reference_integrate, problem) == (BlowUp, message)
