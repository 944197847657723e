"""Exact proofs of the claims behind the family constructors, the README
errata and the second-kind case contradictions.

The pattern is that of tests/test_sign_contract.py: a sympy proof, then a
numeric check that the code is the proven formula.

* Each family solves its profile ODE, on both signs and both radicand
  branches, and so does the log-derivative profile that
  `reconstruct_thm42` integrates.  A radicand w^2 + b (b = +1 or -1) is
  written as a positive symbol R, with w = +-sqrt(R - b) on either side of
  w = 0, which makes the |.|^(3/2) terms exact.  `profile_gap` checks that
  a family constructor's own evaluators are the proven closed form;
  acceptance criterion 5 applies it to its sampled parameter sets.
* The README errata: the swapped radicand labels of the square-root
  family, and the profile (1/(f0 H0)) sqrt(w^2 - 1) failing its ODE where
  the corrected profiles solve theirs.
* The case contradictions of the second-kind nonexistence argument: the
  quintic coefficient system, the linear-factor identity (derived here
  from the second-kind closed K) and the quartic-slope identity.
"""

import functools

import numpy as np
import pytest
import sympy as sp

from pgsurf.factorable import KIND_SECOND, default_grid, pipeline_grid
from pgsurf.families import family_surface
from pgsurf.reconstruct import reconstruct_thm32, reconstruct_thm42

from test_sign_contract import closed, f1, f2, fv, g1, gv

x, y, z = sp.symbols("x y z", real=True)
k0, h0, f0 = sp.symbols("k0 h0 f0", real=True, nonzero=True)
lam1, lam2, lam3 = sp.symbols("lam1 lam2 lam3", real=True)
R = sp.Symbol("R", positive=True)   # a radicand w^2 + b
L = sp.Symbol("L", positive=True)   # the magnitude of a signed rate

# the radicand sign b of each variant name of the sqrt and exp families
RADICAND = {"timelike": 1, "spacelike": -1}


# ---------------------------------------------------------------------------
# The closed forms, as the family docstrings state them
# ---------------------------------------------------------------------------

def thm31(sign):
    """f(x), g(y) of the tanh family: sign*tanh(sqrt(|k0|) x + lam1), y + lam2."""
    return sign * sp.tanh(sp.sqrt(sp.Abs(k0)) * x + lam1), y + lam2


def thm32(b):
    """f(x), g(y) of the sqrt family: z = f0*g(y) = sqrt(w^2 + b)/(2 h0) + lam2,
    w = 2 h0 y + lam1."""
    w = 2 * h0 * y + lam1
    return f0, (sp.sqrt(w ** 2 + b) / (2 * h0) + lam2) / f0


def thm42(b, rate=lam2):
    """f(y), g(z) of the exp family: lam1*exp(rate y),
    exp((rate/(2 h0)) sqrt(w^2 + b)), w = 2 h0 z + lam3."""
    w = 2 * h0 * z + lam3
    return lam1 * sp.exp(rate * y), sp.exp(rate / (2 * h0) * sp.sqrt(w ** 2 + b))


def log_derivative_profile(rate=lam1):
    """The g(z) of `reconstruct_thm42`: exp((rate/(2 h0)) sqrt(w^2 - 1)),
    w = 2 h0 z + lam2."""
    return sp.exp(rate / (2 * h0) * sp.sqrt((2 * h0 * z + lam2) ** 2 - 1))


# family -> (closed form, axes (u1, u2), parameter symbols, discrete key)
FAMILIES = {
    "thm31": (thm31, (x, y), (k0, lam1, lam2), "sign"),
    "thm32": (thm32, (x, y), (h0, lam1, lam2, f0), "causal"),
    "thm42": (thm42, (y, z), (h0, lam1, lam2, lam3), "causal"),
}


def on_radicand(expr, t, w, b, side):
    """`expr`, a function of t, at w(t) = side*sqrt(R - b), so that the
    radicand w^2 + b is the positive symbol R; simplified."""
    W = sp.Dummy("W")
    expr = expr.subs(t, sp.solve(w - W, t)[0]).subs(W, side * sp.sqrt(R - b))
    return sp.simplify(expr.replace(sp.Abs, lambda a: sp.Abs(sp.cancel(a))))


# ---------------------------------------------------------------------------
# Each family solves its ODE
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def thm31_residual(sign):
    """g' f'/(1 - (g' f)^2) - sign*sqrt(|k0|), the ODE `reconstruct_thm31`
    integrates (g' is the constant slope of g)."""
    f, g = thm31(sign)
    slope = sp.diff(g, y)
    return sp.simplify(slope * sp.diff(f, x) / (1 - (slope * f) ** 2) - sign * sp.sqrt(sp.Abs(k0)))


@functools.lru_cache(maxsize=None)
def thm32_residual(b, side):
    """f g''/|1 - (f g')^2|^(3/2) - 2 b h0: twice the first-kind closed H
    (f is constant) against its prescribed value b*h0."""
    f, g = thm32(b)
    lhs = f * sp.diff(g, y, 2) / sp.Abs(1 - (f * sp.diff(g, y)) ** 2) ** sp.Rational(3, 2)
    return on_radicand(lhs - 2 * b * h0, y, 2 * h0 * y + lam1, b, side)


@functools.lru_cache(maxsize=None)
def thm42_residual(b, rate_sign, side):
    """rate^2 v'/|v^2 - rate^2|^(3/2) - 2 b sign(rate) h0 with v = g'/g."""
    rate = rate_sign * L
    _, g = thm42(b, rate)
    v = sp.diff(g, z) / g
    lhs = rate ** 2 * sp.diff(v, z) / sp.Abs(v ** 2 - rate ** 2) ** sp.Rational(3, 2)
    return on_radicand(lhs - 2 * b * rate_sign * h0, z, 2 * h0 * z + lam3, b, side)


@functools.lru_cache(maxsize=None)
def log_derivative_residual(rate_sign, side):
    """v' - s*2*h0*(v^2 - lam1^2)^(3/2)/lam1^2 with v = g'/g and the
    branch sign s = -sign(lam1): the ODE `reconstruct_thm42` integrates."""
    rate, s = rate_sign * L, -rate_sign
    g = log_derivative_profile(rate)
    v = sp.diff(g, z) / g
    rhs = s * 2 * h0 * (v ** 2 - rate ** 2) ** sp.Rational(3, 2) / rate ** 2
    return on_radicand(sp.diff(v, z) - rhs, z, 2 * h0 * z + lam2, -1, side)


SIDES = (1, -1)


@pytest.mark.parametrize("sign", [1, -1])
def test_thm31_solves_its_ode(sign):
    assert thm31_residual(sign) == 0


@pytest.mark.parametrize("causal", ["timelike", "spacelike"])
def test_thm32_solves_its_ode(causal):
    for side in SIDES:
        assert thm32_residual(RADICAND[causal], side) == 0


@pytest.mark.parametrize("causal", ["timelike", "spacelike"])
@pytest.mark.parametrize("rate_sign", [1, -1])
def test_thm42_solves_its_ode(causal, rate_sign):
    for side in SIDES:
        assert thm42_residual(RADICAND[causal], rate_sign, side) == 0


@pytest.mark.parametrize("rate_sign", [1, -1])
def test_log_derivative_solves_its_ode(rate_sign):
    for side in SIDES:
        assert log_derivative_residual(rate_sign, side) == 0


def log_derivative_closed(h0_value, lam1_value, lam2_value, zs):
    """The proven log-derivative profile g at the nodes `zs`."""
    g = sp.lambdify((z, h0, lam1, lam2), log_derivative_profile())
    return g(zs, h0_value, lam1_value, lam2_value)


@functools.lru_cache(maxsize=None)
def _closed_evaluators(name, key):
    """Numeric f, f', f'', g, g', g'' of the closed form of `name` at the
    discrete parameter `key`, each a function of (u, *parameters)."""
    form, axes, params, _ = FAMILIES[name]
    branch = key if name == "thm31" else RADICAND[key]
    return [sp.lambdify((u, *params), sp.diff(p, u, k), "numpy")
            for u, p in zip(axes, form(branch)) for k in range(3)]


def profile_gap(name, params, n=41):
    """Largest gap between the constructor's f, f', f'', g, g', g'' and the
    closed form's, each relative to max(1, max |closed value|), over the
    axes of the family's default n x n grid.  `params` gives every
    constructor argument."""
    s = family_surface(name, params)
    _, _, symbols, key = FAMILIES[name]
    values = [params[str(sym)] for sym in symbols]
    u1, u2 = default_grid(s, n, n).axes()
    code = s.f.jet(u1) + s.g.jet(u2)
    axes = [u1] * 3 + [u2] * 3
    gap = 0.0
    for got, u, exact in zip(code, axes, _closed_evaluators(name, params[key])):
        want = exact(u, *values) + 0.0 * u
        gap = max(gap, float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))))
    return gap


@pytest.mark.parametrize("name,params", [
    ("thm31", dict(k0=-2.3, lam1=0.4, lam2=-1.1, sign=-1)),
    ("thm32", dict(h0=-0.7, lam1=0.3, lam2=0.2, f0=1.6, causal="spacelike")),
    ("thm42", dict(h0=1.4, lam1=-0.6, lam2=-1.2, lam3=0.5, causal="timelike")),
])
def test_constructors_are_the_closed_forms(name, params):
    assert profile_gap(name, params) < 1e-12


# ---------------------------------------------------------------------------
# README errata
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("causal", ["timelike", "spacelike"])
def test_sqrt_family_radicand_labels_are_swapped(causal):
    """The first-kind closed denominator of the sqrt family is D = b/R and
    eps = sign(D) (tests/test_sign_contract.py), so eps = b: the plus
    radicand, named 'timelike', measures eps = +1."""
    b = RADICAND[causal]
    f, g = thm32(b)
    D = 1 - (f * sp.diff(g, y)) ** 2
    for side in SIDES:
        assert on_radicand(D - b / R, y, 2 * h0 * y + lam1, b, side) == 0
    s = family_surface("thm32", {"h0": 0.5, "lam1": 0.3, "causal": causal})
    assert np.all(pipeline_grid(s, default_grid(s, 6, 6))["eps"] == b)


@pytest.mark.parametrize("causal", ["timelike", "spacelike"])
def test_exp_family_radicand_labels_agree(causal):
    """The second-kind closed denominator of the exp family is
    D = -b (lam2 f g)^2 / R, so eps = -b: the names agree."""
    b = RADICAND[causal]
    f, g = thm42(b)
    D = (f * sp.diff(g, z)) ** 2 - (sp.diff(f, y) * g) ** 2
    for side in SIDES:
        assert on_radicand(D + b * (lam2 * f * g) ** 2 / R, z, 2 * h0 * z + lam3, b, side) == 0
    s = family_surface("thm42", {"h0": 0.5, "causal": causal})
    assert np.all(pipeline_grid(s, default_grid(s, 6, 6))["eps"] == -b)


def test_erratum_profile_fails_its_ode():
    """g = (1/(f0 H0)) sqrt(w^2 - 1) gives f0 g''/|1 - (f0 g')^2|^(3/2) =
    -4 H0/(3 R + 4)^(3/2), R = w^2 - 1: not constant, so it equals 2 H0
    on neither orientation, and its residual is nonzero."""
    w = 2 * h0 * y + lam1
    g = sp.sqrt(w ** 2 - 1) / (f0 * h0)
    lhs = f0 * sp.diff(g, y, 2) / sp.Abs(1 - (f0 * sp.diff(g, y)) ** 2) ** sp.Rational(3, 2)
    for side in SIDES:
        value = on_radicand(lhs, y, w, -1, side)
        assert sp.simplify(value + 4 * h0 / (3 * R + 4) ** sp.Rational(3, 2)) == 0
        assert sp.diff(value, R) != 0
        for orientation in (1, -1):
            assert (value - 2 * orientation * h0).subs(R, 1) != 0


@pytest.mark.parametrize("causal", ["spacelike", "timelike"])
def test_corrected_profiles_solve_their_odes(causal):
    """z = f0 g = sqrt(w^2 + 1)/(2 H0) solves u' = 2 H0 (1 - u^2)^(3/2) and
    z = -sqrt(w^2 - 1)/(2 H0) solves u' = 2 H0 (u^2 - 1)^(3/2), u = z',
    the two branches `reconstruct_thm32` integrates; its closed column is
    that profile."""
    b = 1 if causal == "spacelike" else -1
    w = 2 * h0 * y + lam1
    profile = b * sp.sqrt(w ** 2 + b) / (2 * h0)
    u = sp.diff(profile, y)
    residual = sp.diff(u, y) - 2 * h0 * (b * (1 - u ** 2)) ** sp.Rational(3, 2)
    for side in SIDES:
        assert on_radicand(residual, y, w, b, side) == 0
    result = reconstruct_thm32(0.5, f0=1.5, lam=1.3, causal=causal, h=0.05)
    exact = sp.lambdify((y, h0, lam1, f0), profile / f0)(result.ts, 0.5, 1.3, 1.5)
    np.testing.assert_allclose(result.closed, exact, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# Case contradictions of the second-kind nonexistence argument
# ---------------------------------------------------------------------------

lam = sp.Symbol("lambda1", real=True, nonzero=True)
lam4, lam5 = sp.symbols("lambda4 lambda5")
K0 = sp.Symbol("K0", real=True)   # the prescribed Gaussian curvature


def quintic_solutions(lam1_value=lam):
    """Every (lambda4, lambda5) solving the quintic coefficient system
    lambda4 - lambda1 lambda4^2 = 2 (lambda5 - lambda1 lambda4 lambda5)
    = lambda1 lambda5^2 = 0."""
    system = [lam4 - lam1_value * lam4 ** 2, 2 * (lam5 - lam1_value * lam4 * lam5),
              lam1_value * lam5 ** 2]
    return {(s[lam4], s[lam5]) for s in sp.solve(system, [lam4, lam5], dict=True)}


def linear_factor_coefficients():
    """The coefficients, highest power of y first, of K0 D^2 - N for the
    second-kind closed K = N/D^2 with the linear f = f0 y (g, g', g'' are
    the symbols gv, g1, g2)."""
    D, K, _ = closed(KIND_SECOND)
    identity = sp.cancel((K0 - K) * D ** 2).subs({fv: f0 * y, f1: f0, f2: 0})
    return sp.Poly(sp.expand(identity), y).all_coeffs()


def quartic_slope_coefficients(f, t):
    """c0 = -(1/(f f''))' and c4 = (f^3/f'')' of the quartic-slope identity
    c0 + c4 (g')^4 = 0."""
    f_2 = sp.diff(f, t, 2)
    return -sp.diff(1 / (f * f_2), t), sp.diff(f ** 3 / f_2, t)


def test_quintic_system_forces_lambda1_lambda4_one():
    """Besides (0, 0), which the side condition excludes, the only
    solution is lambda4 = 1/lambda1, lambda5 = 0."""
    assert quintic_solutions() == {(0, 0), (1 / lam, 0)}


def test_linear_factor_contradiction():
    """K0 D^2 - N is a quartic in y whose coefficients must all vanish; with
    f0 != 0 they do only for K0 = 0 and g' = 0."""
    a4, a3, a2, a1, a0 = linear_factor_coefficients()
    assert (a3, a1) == (0, 0)
    assert sp.factor(a4) == K0 * f0 ** 4 * g1 ** 4
    assert sp.expand(a2 + 2 * K0 * f0 ** 4 * gv ** 2 * g1 ** 2) == 0
    assert sp.expand(a0 - (K0 * (f0 * gv) ** 4 + (f0 * g1) ** 2)) == 0
    # the leading coefficient vanishes only for K0 = 0 or g' = 0 ...
    assert sp.solve(a4, [K0, g1], dict=True) == [{K0: 0}, {g1: 0}]
    # ... and every coefficient only for both: x = f0 g y, a plane
    assert sp.solve([a4, a2, a0], [K0, g1], dict=True) == [{K0: 0, g1: 0}]


def test_quartic_slope_coefficients_vanish_only_for_constant_f():
    """At a point with f, f'' != 0: c0 = 0 fixes f''' = -f' f''/f, and then
    c4 = 4 f^2 f'/f'', so c4 = 0 forces f' = 0."""
    F0, F2 = sp.symbols("F0 F2", nonzero=True)
    F1, F3 = sp.symbols("F1 F3")
    F = sp.Function("f")(y)
    subs = [(F.diff(y, 3), F3), (F.diff(y, 2), F2), (F.diff(y), F1), (F, F0)]
    c0, c4 = (sp.together(c.subs(subs)) for c in quartic_slope_coefficients(F, y))
    third = sp.solve(sp.numer(c0), F3)
    assert third == [-F1 * F2 / F0]
    assert sp.factor(c4.subs(F3, third[0])) == 4 * F0 ** 2 * F1 / F2
    assert sp.solve(c4.subs(F3, third[0]), F1) == [0]


@pytest.mark.parametrize("f,c4", [(sp.tanh(y), -sp.sinh(2 * y) / 2),
                                  (1 + y ** 2, 3 * y * (1 + y ** 2) ** 2)])
def test_witnesses_have_nonzero_c4(f, c4):
    got = quartic_slope_coefficients(f, y)[1]
    assert sp.simplify((got - c4).rewrite(sp.exp)) == 0
    assert c4.subs(y, 1) != 0
