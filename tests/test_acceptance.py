"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else; the random draws use
a fixed seed so every run exercises the identical corpus.
"""

import itertools
import json
import time

import numpy as np
import pytest
import sympy as sp

from pgsurf.cli import main as cli_main
from pgsurf.errors import GridRejected
from pgsurf.factorable import (
    FactorableSurface,
    GridSpec,
    ScalarC2,
    cross_check,
    default_grid,
    pipeline_grid,
    specialized_grid,
)
from pgsurf.families import (
    family_surface,
    sample_params,
    thm31_family,
    thm32_family,
    thm42_family,
)
from pgsurf.reconstruct import (
    nonexistence_probe,
    reconstruct_thm31,
    reconstruct_thm32,
    reconstruct_thm42,
)

from test_exact_claims import (
    K0,
    g1,
    gv,
    lam,
    linear_factor_coefficients,
    log_derivative_residual,
    profile_gap,
    quartic_slope_coefficients,
    quintic_solutions,
    thm31_residual,
    thm32_residual,
    thm42_residual,
    y,
    z,
)

SEED = 20260809
# a test drawing parameters takes the seed 1000 * S + j for its j-th
# `sample_params` draw, where S is SEED plus the offset the test names

# finite-difference policy for criterion 2: shrink the grid window and the
# step as the prescribed curvature steepens (calibrated once, frozen)
def _fd_span(h0):
    return min(3.0, 1.5 / max(1.0, 2.0 * abs(h0)))


def _fd_step(h0):
    return 1e-4 / max(1.0, np.sqrt(2.0 * abs(h0)))


# frozen floor for the nonexistence probe, calibrated at seed 0 and budget
# 1e4 (best residuals observed: 0.667, 0.358, 0.284, 0.070)
PROBE_FLOOR = 0.05


def _report(line):
    print(f"[PASS] {line}")


def test_criterion_01_thm31_constancy():
    """Measured K on 50x50 grids: max deviation < 1e-7, mean == -|K0|."""
    start = time.monotonic()
    for j in range(20):
        params = sample_params("thm31", 1000 * SEED + j)
        surface = thm31_family(**params)
        data = specialized_grid(surface, default_grid(surface, 50, 50))
        assert not np.any(data["excluded"])
        K = data["K"]
        mean = float(K.mean())
        assert np.max(np.abs(K - mean)) < 1e-7
        assert abs(mean - (-abs(params["k0"]))) < 1e-7
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(f"criterion 1: tanh-family K constant at -|K0| over 20 draws ({elapsed:.2f}s)")


def test_criterion_02_mean_curvature_constancy():
    """|H| constant and equal to |H0|: 1e-7 analytic, 1e-4 finite-difference."""
    seeds = itertools.count(1000 * (SEED + 1))
    for family, build in (("thm32", thm32_family), ("thm42", thm42_family)):
        for causal in ("spacelike", "timelike"):
            for _ in range(20):
                params = sample_params(family, next(seeds), causal=causal)
                surface = build(**params)
                h0 = abs(params["h0"])

                data = specialized_grid(surface, default_grid(surface, 50, 50))
                assert not np.any(data["excluded"])
                absH = np.abs(data["H"])
                mean = float(absH.mean())
                assert np.max(np.abs(absH - mean)) < 1e-7
                assert abs(mean - h0) < 1e-7

                grid = default_grid(surface, 10, 10, span=_fd_span(h0))
                fd = pipeline_grid(surface, grid, mode="fd", fd_step=_fd_step(h0))
                assert not np.any(fd["excluded"])
                absH = np.abs(fd["H"])
                mean = float(absH.mean())
                assert np.max(np.abs(absH - mean)) < 1e-4
                assert abs(mean - h0) < 1e-4
    _report("criterion 2: |H| == |H0| for both sqrt/exp variants, analytic and FD routes")


def _sigma_corpus():
    """Surfaces plus grids covering every (formula, causal character) bucket."""
    seeds = itertools.count(1000 * (SEED + 2))
    rng = np.random.default_rng(SEED + 2)  # the h0 and lam2 overrides
    corpus = []
    saddle = FactorableSurface("first", ScalarC2.linear(1.0), ScalarC2.linear(1.0))
    corpus.append((saddle, GridSpec((-0.5, 0.5), (-0.5, 0.5), 12, 12)))

    # first kind, timelike patch with K != 0 and H != 0
    quad = ScalarC2(lambda t: (t**2, 2.0 * t, 2.0 + 0.0 * t))
    tl1 = FactorableSurface("first", ScalarC2.linear(1.0, 2.0), quad)
    corpus.append((tl1, GridSpec((-0.4, 0.4), (0.5, 1.2), 12, 12)))

    # second kind, spacelike and timelike patches of x = y * z^2
    sk2 = FactorableSurface("second", ScalarC2.linear(1.0), quad)
    corpus.append((sk2, GridSpec((0.8, 1.2), (0.3, 0.7), 12, 12)))
    corpus.append((sk2, GridSpec((0.1, 0.2), (0.8, 1.2), 12, 12)))

    for _ in range(3):
        surface = thm31_family(**sample_params("thm31", next(seeds)))
        corpus.append((surface, default_grid(surface, 12, 12)))
    for causal in ("spacelike", "timelike"):
        for _ in range(2):
            surface = thm32_family(**{**sample_params("thm32", next(seeds), causal=causal),
                                      "h0": float(rng.uniform(0.3, 1.5))})
            corpus.append((surface, default_grid(surface, 12, 12)))
            surface = thm42_family(**{**sample_params("thm42", next(seeds), causal=causal),
                                      "h0": float(rng.uniform(0.3, 1.5)),
                                      "lam2": float(rng.uniform(0.5, 1.2))})
            corpus.append((surface, default_grid(surface, 12, 12)))
    return corpus


def _off_contract_at_one_point(sweep, key):
    """`sweep` with `key` ("eps" or "K") negated where |K| is largest."""
    value = sweep[key].copy()
    value.flat[np.argmax(np.abs(sweep["K"]))] *= -1.0
    return {**sweep, key: value}


def test_criterion_03_cross_check_sign_factor(tmp_path, monkeypatch):
    """Pipeline and closed formulas agree to 1e-8 under the proven factors
    K_pipeline = -eps*K_closed and H_pipeline = H_closed, over >= 1000
    points with nonzero values in every (formula, causal character)
    bucket; a sweep off those factors at one point fails, in the library
    and in `verify`.

    Corpus: fixtures admitting non-lightlike grids plus families at
    representative parameters (the equal-rate exponential fixture has no
    pipeline values to compare; criterion 9 covers it)."""
    nonzero: dict = {}
    n_points = 0
    worst = 0.0
    for surface, grid in _sigma_corpus():
        pipe, closed = pipeline_grid(surface, grid), specialized_grid(surface, grid)
        worst = max(worst, cross_check(pipe, closed))
        n_points += pipe["K"].size
        for formula in ("K", "H"):
            usable = np.abs(closed[formula]) > 1e-9 * np.maximum(1.0, np.abs(pipe[formula]))
            for char, mask in (("spacelike", pipe["eps"] > 0), ("timelike", pipe["eps"] < 0)):
                key = f"{formula}-{surface.kind}/{char}"
                nonzero[key] = nonzero.get(key, 0) + int(np.count_nonzero(usable & mask))

    assert n_points >= 1000
    assert worst < 1e-8
    buckets = {f"{formula}-{kind}/{char}" for formula in ("K", "H")
               for kind in ("first", "second") for char in ("spacelike", "timelike")}
    assert set(nonzero) == buckets
    assert all(nonzero[key] > 0 for key in buckets), nonzero

    # negative control: the closed sweep's eps flipped, or the pipeline's
    # K negated, at one point; cross_check reads eps from the closed sweep
    # only (the two sweeps' eps are equal, tests/test_sign_contract.py)
    for pipe_off, closed_off in ((pipe, _off_contract_at_one_point(closed, "eps")),
                                 (_off_contract_at_one_point(pipe, "K"), closed)):
        assert cross_check(pipe_off, closed_off) > 1e-8
    assert (cross_check(_off_contract_at_one_point(pipe, "eps"), closed)
            == cross_check(pipe, closed))
    monkeypatch.setattr("pgsurf.cli.pipeline_grid",
                        lambda *a, **k: _off_contract_at_one_point(pipeline_grid(*a, **k), "K"))
    out = tmp_path / "v.json"
    assert cli_main(["verify", "--set", "family.name=thm42", "--set", "family.h0=0.5",
                     "--set", "grid.n1=10", "--set", "grid.n2=10",
                     "--set", f"output.json={out}"]) == 1
    report = json.loads(out.read_text())
    suite = report["suites"]["cross_check"]
    assert report["failed"] == ["cross_check"] and suite["max_discrepancy"] > suite["tolerance"]
    _report(f"criterion 3: sign factors -eps (K) and +1 (H) hold over {n_points} points, "
            f"max discrepancy {worst:.2e}")


def test_criterion_04_ode_reconstruction():
    """RK4 at h=1e-3 matches the closed forms to 1e-6; halving h helps 8-32x."""
    r31 = reconstruct_thm31(1.0, h=1e-3)
    assert r31.max_error < 1e-6
    r32s = reconstruct_thm32(0.5, causal="spacelike", h=1e-3)
    r32t = reconstruct_thm32(0.5, causal="timelike", h=1e-3)
    assert r32s.max_error < 1e-6 and r32t.max_error < 1e-6
    r42 = reconstruct_thm42(0.5, lam1=1.0, lam2=0.0, z0=1.2, length=1.0, h=1e-3)
    assert r42.max_rel_error < 1e-6
    assert all(log_derivative_residual(rate_sign, side) == 0
               for rate_sign in (1, -1) for side in (1, -1))

    ratios = []
    ratios.append(reconstruct_thm31(1.0, h=0.02).max_error
                  / reconstruct_thm31(1.0, h=0.01).max_error)
    ratios.append(reconstruct_thm32(0.5, causal="spacelike", h=0.02).max_error
                  / reconstruct_thm32(0.5, causal="spacelike", h=0.01).max_error)
    ratios.append(reconstruct_thm32(0.5, causal="timelike", h=0.02).max_error
                  / reconstruct_thm32(0.5, causal="timelike", h=0.01).max_error)
    ratios.append(reconstruct_thm42(0.5, h=0.02).max_rel_error
                  / reconstruct_thm42(0.5, h=0.01).max_rel_error)
    assert all(8.0 < r < 32.0 for r in ratios)
    _report(f"criterion 4: RK4 vs closed forms < 1e-6; halving ratios "
            + ", ".join(f"{r:.1f}" for r in ratios))


def test_criterion_05_closed_form_substitution():
    """Each family's closed form solves its source ODE exactly (sympy, on
    every sign and radicand branch), and the constructors' own evaluators
    are that closed form to 1e-8 on 25 sampled parameter sets."""
    residuals = [thm31_residual(sign) for sign in (1, -1)]
    for b in (1, -1):
        for side in (1, -1):
            residuals.append(thm32_residual(b, side))
            residuals += [thm42_residual(b, rate_sign, side) for rate_sign in (1, -1)]
    assert all(r == 0 for r in residuals)

    seeds = itertools.count(1000 * (SEED + 3))
    worst = 0.0
    for _ in range(5):
        worst = max(worst, profile_gap("thm31", sample_params("thm31", next(seeds))))
    for causal in ("spacelike", "timelike"):
        for _ in range(5):
            for family in ("thm32", "thm42"):
                params = sample_params(family, next(seeds), causal=causal)
                worst = max(worst, profile_gap(family, params))
    assert worst < 1e-8
    _report(f"criterion 5: closed forms solve their ODEs exactly; evaluators match them "
            f"(worst gap {worst:.2e})")


def test_criterion_06_motion_invariance():
    """K and H fields unchanged under 10 random motions to 1e-8."""
    from pgsurf.surface import gaussian_curvature, mean_curvature

    from one_point import jet, moved

    rng = np.random.default_rng(SEED + 4)
    motions = [rng.uniform(-1, 1, size=6) for _ in range(10)]
    surfaces = [
        thm31_family(1.0, lam1=0.2),
        thm32_family(0.5, causal="timelike"),
        thm32_family(0.5, causal="spacelike"),
        thm42_family(0.5, causal="timelike"),
        thm42_family(0.5, causal="spacelike"),
    ]
    worst = 0.0
    for surface in surfaces:
        grid = default_grid(surface, 5, 5)
        U1, U2 = np.meshgrid(*grid.axes(), indexing="ij")
        for u1, u2 in zip(U1.ravel()[::3], U2.ravel()[::3]):
            comp = jet(surface, float(u1), float(u2))
            k_ref, h_ref = gaussian_curvature(comp), mean_curvature(comp)
            for m in motions:
                comp_m = moved(m, comp)
                worst = max(worst, abs(gaussian_curvature(comp_m) - k_ref),
                            abs(mean_curvature(comp_m) - h_ref))
    assert worst < 1e-8
    _report(f"criterion 6: curvature fields motion-invariant (worst gap {worst:.2e})")


def test_criterion_07_nonexistence_probe():
    """Bounded search never beats the frozen floor for K0 != 0; the flat
    control reaches < 1e-6 and wins by >= 3 orders of magnitude."""
    start = time.monotonic()
    nonzero_best = {}
    for k0 in (1.0, -1.0, 0.5, -0.5):
        report = nonexistence_probe(k0, budget=10_000, seed=0)
        nonzero_best[k0] = report.best_residual
        assert report.best_residual > PROBE_FLOOR, (k0, report.best_residual)
    control = nonexistence_probe(0.0, budget=10_000, seed=0)
    assert control.best_residual < 1e-6
    floor_ratio = min(nonzero_best.values()) / max(control.best_residual, 1e-300)
    assert floor_ratio > 1e3
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(f"criterion 7: probe residuals {sorted(round(v, 3) for v in nonzero_best.values())} "
            f"all > {PROBE_FLOOR}; control {control.best_residual:.1e} ({elapsed:.1f}s)")


def test_criterion_08_case_contradictions():
    """Exact: the quintic system forces lambda1*lambda4 = 1 and lambda5 = 0;
    the linear-factor identity with g = exp has a nonzero leading
    coefficient for K0 != 0 and no consistent K0 at all; the tanh witness
    of the quartic-slope identity has c4 = -sinh(2y)/2, not 0."""
    assert quintic_solutions() == {(0, 0), (1 / lam, 0)}
    for lam1 in (1, -2, sp.Rational(7, 10)):
        ((lam4, lam5),) = quintic_solutions(lam1) - {(0, 0)}
        assert (lam1 * lam4, lam5) == (1, 0)

    coefficients = linear_factor_coefficients()
    exp = {gv: sp.exp(z), g1: sp.exp(z)}
    for k0 in (1, -sp.Rational(1, 2)):
        assert coefficients[0].subs(exp).subs(K0, k0).is_zero is False
    assert sp.solve([c.subs(exp) for c in coefficients], K0) == []

    c4 = quartic_slope_coefficients(sp.tanh(y), y)[1]
    assert sp.simplify((c4 + sp.sinh(2 * y) / 2).rewrite(sp.exp)) == 0
    _report("criterion 8: quintic system solved exactly; linear-factor and quartic-slope "
            "identities inconsistent")


def test_criterion_09_flat_minimal_fixtures():
    """Saddle H == 0 and equal-rate exponential K == 0, within 1e-9."""
    saddle = family_surface("saddle")
    data = specialized_grid(saddle, GridSpec((-0.5, 0.5), (-0.5, 0.5), 30, 30))
    assert np.max(np.abs(data["H"])) < 1e-9

    ee = family_surface("exp_exp")
    data = specialized_grid(ee, GridSpec((-1.0, 1.0), (-1.0, 1.0), 30, 30))
    assert not np.any(data["excluded"])
    assert np.max(np.abs(data["K"])) < 1e-9

    grid = GridSpec((-1.0, 1.0), (-1.0, 1.0), 4, 4)
    with pytest.raises(GridRejected):
        cross_check(pipeline_grid(ee, grid), specialized_grid(ee, grid))
    _report("criterion 9: saddle minimal and exp*exp flat within 1e-9")


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path):
    """Byte-identical outputs on repeated runs; every exit code reachable."""

    def cfg(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    out_csv, out_json = tmp_path / "c.csv", tmp_path / "c.json"
    curvature = cfg("c.json.cfg", {
        "family": {"name": "thm31", "k0": 1.0},
        "grid": {"n1": 15, "n2": 15},
        "output": {"csv": str(out_csv), "json": str(out_json)},
    })
    assert cli_main(["curvature", "--config", curvature]) == 0
    first = out_csv.read_bytes(), out_json.read_bytes()
    assert cli_main(["curvature", "--config", curvature]) == 0
    assert (out_csv.read_bytes(), out_json.read_bytes()) == first

    obj_path = tmp_path / "m.obj"
    mesh = cfg("m.cfg", {
        "family": {"name": "saddle"},
        "grid": {"u1": [-0.5, 0.5], "u2": [-0.5, 0.5], "n1": 8, "n2": 8},
        "output": {"obj": str(obj_path), "sidecar": str(tmp_path / "m.csv")},
    })
    assert cli_main(["mesh", "--config", mesh]) == 0
    first_obj = obj_path.read_bytes()
    assert cli_main(["mesh", "--config", mesh]) == 0
    assert obj_path.read_bytes() == first_obj

    codes = {0: cli_main(["curvature", "--config", curvature])}
    codes[1] = cli_main(["reconstruct", "--config", cfg("r1.cfg", {"theorem": "3.1", "h": 0.2})])
    codes[2] = cli_main(["curvature", "--config", cfg("r2.cfg", {"family": {"name": "thm31", "k0": 0.0}})])
    codes[3] = cli_main(["curvature", "--config", cfg("r3.cfg", {
        "family": {"name": "exp_exp"}, "grid": {"n1": 4, "n2": 4},
        "output": {"csv": str(tmp_path / "ee.csv"), "json": str(tmp_path / "ee.json")}})])
    codes[4] = cli_main(["reconstruct", "--config", cfg("r4.cfg", {
        "theorem": "3.2", "causal": "spacelike", "u0": 1.5})])
    verify_fail = cli_main(["verify", "--config", cfg("r5.cfg", {
        "family": {"name": "thm42", "h0": 0.5}, "grid": {"n1": 6, "n2": 6},
        "perturb": {"exponent_scale": 1.01},
        "output": {"json": str(tmp_path / "v.json")}})])
    assert verify_fail == 1
    for expected, actual in codes.items():
        assert actual == expected, f"exit code {expected} not reachable, got {actual}"
    _report("criterion 10: CLI byte-deterministic; exit codes 0-4 all exercised")
