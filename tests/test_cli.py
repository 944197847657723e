import argparse
import concurrent.futures
import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsurf import cli, factorable, render
from pgsurf import families as fam
from pgsurf import reconstruct as rec
from pgsurf.cli import MAX_GRID_POINTS, _grid, main
from pgsurf.factorable import GridSpec, default_grid
from pgsurf.families import family_surface
from pgsurf.surface import gaussian_curvature, mean_curvature

from one_point import jet
from splitmix import uniforms


def _count_swept_rows(monkeypatch, measure=len):
    """Wrap `cli`'s two sweeps to record `measure` of the K of each call,
    by sweep name: its grid rows by default."""
    rows = {"pipeline_grid": [], "specialized_grid": []}
    for name, swept in rows.items():
        def counted(*args, _sweep=getattr(cli, name), _swept=swept, **kwargs):
            out = _sweep(*args, **kwargs)
            _swept.append(measure(out["K"]))
            return out
        monkeypatch.setattr(cli, name, counted)
    return rows


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture
def thm31_cfg(tmp_path):
    return write_config(tmp_path, "thm31.json", {
        "family": {"name": "thm31", "k0": 1.0},
        "grid": {"n1": 20, "n2": 20},
        "output": {"csv": str(tmp_path / "out.csv"), "json": str(tmp_path / "out.json")},
    })


class TestCurvature:
    def test_thm31_grid_summary(self, tmp_path, thm31_cfg):
        assert main(["curvature", "--config", thm31_cfg]) == 0
        header, rows = read_csv_rows(tmp_path / "out.csv")
        assert header == ["u1", "u2", "x", "y", "z", "K", "H", "epsilon", "W", "excluded"]
        assert len(rows) == 400
        assert all(r["excluded"] == "0" for r in rows)
        summary = json.loads((tmp_path / "out.json").read_text())
        assert summary["rows"] == 400 and summary["excluded"] == 0
        assert summary["K"]["max_deviation"] < 1e-7

    def test_plane_fixture_all_zero(self, tmp_path):
        cfg = write_config(tmp_path, "lin.json", {
            "family": {"name": "linear"},
            "grid": {"n1": 5, "n2": 5},
            "output": {"csv": str(tmp_path / "lin.csv"), "json": str(tmp_path / "lin.json.out")},
        })
        assert main(["curvature", "--config", cfg]) == 0
        _, rows = read_csv_rows(tmp_path / "lin.csv")
        assert all(float(r["K"]) == 0.0 and float(r["H"]) == 0.0 for r in rows)

    def test_straddling_grid_marks_exclusions(self, tmp_path):
        # the saddle is lightlike on x = 1; a 21-point range [0.5, 1.5] hits it
        cfg = write_config(tmp_path, "saddle.json", {
            "family": {"name": "saddle"},
            "grid": {"u1": [0.5, 1.5], "u2": [-0.5, 0.5], "n1": 21, "n2": 5},
            "output": {"csv": str(tmp_path / "s.csv"), "json": str(tmp_path / "s.json")},
        })
        assert main(["curvature", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["excluded"] == 5
        _, rows = read_csv_rows(tmp_path / "s.csv")
        marked = [r for r in rows if r["excluded"] == "1"]
        assert len(marked) == 5 and all(r["K"] == "" for r in marked)

    def test_zero_mean_curvature_keeps_its_sign(self, tmp_path):
        # on the saddle's row x = -1.5 the analytic jet's z22 = f * g'' is
        # -1.5 * 0 = -0.0 until `+ zero` makes it +0.0; without it H prints
        # -0 at y >= 0 on that row (other rows print -0 either way)
        cfg = write_config(tmp_path, "saddle.json", {
            "family": {"name": "saddle"},
            "grid": {"u1": [-1.5, 1.5], "u2": [-1.5, 1.5], "n1": 7, "n2": 7},
            "output": {"csv": str(tmp_path / "s.csv"), "json": str(tmp_path / "s.json")},
        })
        assert main(["curvature", "--config", cfg]) == 0
        _, rows = read_csv_rows(tmp_path / "s.csv")
        assert [r["H"] for r in rows if r["u1"] == "-1.5"] == ["0"] * 7

    def test_all_lightlike_grid_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, "ee.json", {
            "family": {"name": "exp_exp"},
            "grid": {"n1": 4, "n2": 4},
            "output": {"csv": str(tmp_path / "ee.csv"), "json": str(tmp_path / "ee.json.out")},
        })
        assert main(["curvature", "--config", cfg]) == 3

    def test_radicand_points_are_excluded(self, capsys):
        # thm32 spacelike h0=1: the radicand w^2 - 1, w = 2*u2, is not
        # positive for |u2| <= 0.5; those points are excluded with empty
        # curvature cells and a nan position, the others are kept
        capsys.readouterr()
        assert main(["curvature", "--set", "family.name=thm32", "--set", "family.h0=1",
                     "--set", "family.causal=spacelike", "--set", "grid.u2=[-1,1]",
                     "--set", "grid.n1=3", "--set", "grid.n2=9", "--set", f"output.json={os.devnull}"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 27
        for r in rows:
            outside = (2.0 * float(r["u2"])) ** 2 - 1.0 <= 0.0
            assert r["excluded"] == ("1" if outside else "0")
            assert (r["K"] == "" and r["z"] == "nan") if outside else math.isfinite(float(r["K"]))
        assert {r["excluded"] for r in rows} == {"0", "1"}

    # thm42 whose g overflows on every grid point: K and H are NaN there
    OVERFLOW_ALL = ["family.name=thm42", "family.h0=0.5", "family.lam2=800", "grid.n1=5", "grid.n2=3"]
    # the same family with h0=400 on a grid that overflows on part of its
    # rows only (the `OVERFLOW` grid of tests/test_factorable.py, 40x5)
    OVERFLOW_PART = ["family.name=thm42", "family.h0=400", "family.lam2=800", "grid.u1=[0,1]",
                     "grid.u2=[-1e-3,1e-3]", "grid.n1=40", "grid.n2=5"]

    @staticmethod
    def _curvature(tmp_path, settings, formulas="pipeline", name="o"):
        csv, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        code = main(["curvature", *(a for kv in settings for a in ("--set", kv)),
                     "--set", f"formulas={formulas}", "--set", f"output.csv={csv}",
                     "--set", f"output.json={out}"])
        return code, csv, out

    @pytest.mark.parametrize("formulas", ["pipeline", "pipeline-fd", "specialized"])
    def test_non_finite_points_are_excluded_on_every_route(self, tmp_path, capsys, formulas):
        code, csv, out = self._curvature(tmp_path, self.OVERFLOW_PART, formulas)
        assert code == 0
        _, rows = read_csv_rows(csv)
        excluded = [r for r in rows if r["excluded"] == "1"]
        assert 0 < len(excluded) < len(rows) == 200
        assert json.loads(out.read_text())["excluded"] == len(excluded)
        assert all(r["K"] == "" for r in excluded)
        assert all(math.isfinite(float(r["K"])) and math.isfinite(float(r["H"]))
                   for r in rows if r["excluded"] == "0")
        # a grid where every point overflows has nothing to report
        capsys.readouterr()
        code, csv, out = self._curvature(tmp_path, self.OVERFLOW_ALL, formulas, "all")
        assert code == 3
        assert not csv.exists() and not out.exists()
        assert capsys.readouterr().err == "pg-surf: grid rejected: every grid point is excluded\n"

    def test_parameter_columns_stay_finite_where_the_product_is_not(self, tmp_path):
        _, csv, _ = self._curvature(tmp_path, self.OVERFLOW_PART)
        _, rows = read_csv_rows(csv)
        # second kind: x = f*g, y = u1, z = u2
        assert all((r["y"], r["z"]) == (r["u1"], r["u2"]) for r in rows)
        assert any(r["x"] in ("inf", "nan") for r in rows)

    def test_determinism(self, tmp_path, thm31_cfg):
        main(["curvature", "--config", thm31_cfg])
        first = (tmp_path / "out.csv").read_bytes(), (tmp_path / "out.json").read_bytes()
        main(["curvature", "--config", thm31_cfg])
        second = (tmp_path / "out.csv").read_bytes(), (tmp_path / "out.json").read_bytes()
        assert first == second

    def test_set_overrides_win(self, tmp_path, thm31_cfg):
        assert main(["curvature", "--config", thm31_cfg,
                     "--set", "family.k0=0"]) == 2

    def test_config_errors(self, tmp_path):
        missing = write_config(tmp_path, "none.json", {"grid": {"n1": 5, "n2": 5}})
        assert main(["curvature", "--config", missing]) == 2
        bad_res = write_config(tmp_path, "res.json", {
            "family": {"name": "thm31", "k0": 1.0}, "grid": {"n1": 1, "n2": 5}})
        assert main(["curvature", "--config", bad_res]) == 2
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["curvature", "--config", str(broken)]) == 2


def _moved_jet(m, value, comp):
    """Reference for the batched suite: one motion on the position `value`
    (x, y, z) and the one-point jet `comp`, slot by slot in per-point
    arithmetic, translation included: the moved value and components."""
    a1, a2, a3, a4, a5, theta = m
    ch, sh = math.cosh(theta), math.sinh(theta)

    def lin(x, y, z):
        return x, a3 * x + ch * y + sh * z, a5 * x + sh * y + ch * z

    x, y, z = lin(*value)
    moved = {}
    for slot in ("1", "2", "11", "12", "22"):
        moved.update(zip((f"x{slot}", f"y{slot}", f"z{slot}"),
                         lin(*(comp[f"{a}{slot}"] for a in "xyz"))))
    return (a1 + x, a2 + y, a4 + z), moved


class TestVerify:
    def test_thm42_defaults_pass(self, tmp_path):
        cfg = write_config(tmp_path, "v.json", {
            "family": {"name": "thm42", "h0": 0.5},
            "grid": {"n1": 10, "n2": 10},
            "output": {"json": str(tmp_path / "v.json.out")},
        })
        assert main(["verify", "--config", cfg]) == 0
        report = json.loads((tmp_path / "v.json.out").read_text())
        assert report["passed"] and report["failed"] == []
        suite = report["suites"]["cross_check"]
        assert suite["max_discrepancy"] < suite["tolerance"]
        assert sorted(suite) == ["max_discrepancy", "passed", "tolerance"]

    def test_peak_memory_of_a_large_grid(self, tmp_path):
        """A thm42 `verify` on a 1000x1000 grid with 10 motions peaks below
        48 MB of traced allocations (numpy buffers included).  It measured
        23 MB with numpy 2.4 on x86-64, so the bound leaves about 2x
        headroom; sweeping the whole grid at once peaked at 218 MB."""
        argv = ["verify", "--set", "family.name=thm42", "--set", "family.h0=0.5",
                "--set", "grid.n1=1000", "--set", "grid.n2=1000", "--set", "motions=10",
                "--set", f"output.json={tmp_path / 'v.json'}"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20, peak

    def test_one_closed_sweep_per_invocation(self, tmp_path, monkeypatch):
        # the closed sweep of every row block serves both suites, and the
        # cross-check sweeps the same block once on the pipeline
        rows = _count_swept_rows(monkeypatch)
        for block_rows, expect in ((3, [3, 3, 2]), (100, [8])):
            monkeypatch.setattr(factorable, "_BLOCK_POINTS", 8 * block_rows)
            for name, param in (("thm31", "k0=1"), ("thm32", "h0=0.5"), ("thm42", "h0=0.5")):
                for swept in rows.values():
                    swept.clear()
                assert main(["verify", "--set", f"family.name={name}", "--set", f"family.{param}",
                             "--set", "grid.n1=8", "--set", "grid.n2=8",
                             "--set", f"output.json={tmp_path / 'v.json'}"]) == 0
                assert rows == {"pipeline_grid": expect, "specialized_grid": expect}, name

    def test_no_positions(self, tmp_path, monkeypatch):
        # the suites read K, H, eps and the masks: no sweep evaluates x, y, z
        calls = []
        value_arrays = factorable.FactorableSurface.value_arrays
        monkeypatch.setattr(factorable.FactorableSurface, "value_arrays",
                            lambda *args: calls.append(args) or value_arrays(*args))
        assert main(["verify", "--set", "family.name=thm42", "--set", "family.h0=0.5",
                     "--set", "grid.n1=8", "--set", "grid.n2=8",
                     "--set", f"output.json={tmp_path / 'v.json'}"]) == 0
        assert calls == []

    def test_perturbed_family_fails_constancy(self, tmp_path):
        cfg = write_config(tmp_path, "vp.json", {
            "family": {"name": "thm42", "h0": 0.5},
            "grid": {"n1": 8, "n2": 8},
            "perturb": {"exponent_scale": 1.01},
            "output": {"json": str(tmp_path / "vp.json.out")},
        })
        assert main(["verify", "--config", cfg]) == 1
        report = json.loads((tmp_path / "vp.json.out").read_text())
        assert "constancy" in report["failed"]

    @pytest.mark.parametrize("scale,passed,mean", [(-1.0, True, 0.5), (1.01, False, 0.518),
                                                   (-1.01, False, 0.518)])
    def test_which_exponent_scales_break_constancy(self, tmp_path, scale, passed, mean):
        # g^-1 is the g of another thm42 surface (h0 -> -h0, lam3 -> -lam3),
        # so scale -1 keeps |H| = 0.5; 1.01 and -1.01 break it
        out = tmp_path / "v.json"
        assert main(["verify", "--set", "family.name=thm42", "--set", "family.h0=0.5",
                     "--set", f"perturb.exponent_scale={scale!r}",
                     "--set", f"output.json={out}"]) == (0 if passed else 1)
        constancy = json.loads(out.read_text())["suites"]["constancy"]
        assert constancy["passed"] is passed
        assert constancy["mean"] == pytest.approx(mean, abs=5e-4)

    def test_seeded_survey_of_sampled_families(self, tmp_path):
        """A default `verify` (the 20x20 default grid, 10 motions, seed 0)
        on `sample_params(family, k, causal)` for k = 0..99, per family and
        branch: the count of each exit code with its failed suites.  The
        thm42 failures are K gaps on grids where |K| reaches far above 1,
        judged against absolute tolerances.  Over 60 of the survey's suite
        values lie within a factor 10 of their tolerance, so a change of
        rounding (numpy's SIMD dispatch) may move a count."""
        out = tmp_path / "v.json"
        survey = {}
        for family, causal in (("thm31", "timelike"), ("thm32", "timelike"),
                               ("thm32", "spacelike"), ("thm42", "timelike"),
                               ("thm42", "spacelike")):
            counts = survey.setdefault(f"{family} {causal}", {})
            for k in range(100):
                params = fam.sample_params(family, k, causal)
                code = main(["verify", "--set", f"family.name={family}",
                             *(a for key, value in params.items()
                               for a in ("--set", f"family.{key}={json.dumps(value)}")),
                             "--set", f"output.json={out}"])
                outcome = (code, *json.loads(out.read_text())["failed"])
                counts[outcome] = counts.get(outcome, 0) + 1
        both = (1, "cross_check", "motion_invariance")
        assert survey == {
            "thm31 timelike": {(0,): 100},
            "thm32 timelike": {(0,): 100},
            "thm32 spacelike": {(0,): 100},
            "thm42 timelike": {(0,): 79, both: 19, (1, "motion_invariance"): 2},
            "thm42 spacelike": {(0,): 59, both: 31, (1, "motion_invariance"): 10},
        }

    def test_perturbation_of_a_non_positive_g_is_a_config_error(self, capsys):
        # thm31's g = y + lam2 is negative on half the default grid
        _one_line_config_error(capsys, ["verify", "--set", "family.name=thm31", "--set", "family.k0=1",
                                        "--set", "perturb.exponent_scale=1.01"])

    def test_zero_k0_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "vz.json", {
            "family": {"name": "thm31", "k0": 0.0},
            "output": {"json": str(tmp_path / "vz.json.out")},
        })
        assert main(["verify", "--config", cfg]) == 2

    # (family, n for an n x n grid, motions, seed); n > 11 samples every
    # (n // 6)-th node, so the stride is above 1 there
    PER_JET_CASES = [
        ({"name": "thm42", "h0": 0.5}, 10, 7, 3),
        ({"name": "thm31", "k0": -2.0, "lam1": 0.3, "lam2": -0.4, "sign": -1}, 30, 200, 11),
        ({"name": "thm31", "k0": 0.7, "lam1": -0.8, "lam2": 0.6, "sign": 1}, 59, 1, 12),
        ({"name": "thm32", "h0": 0.8, "lam1": 0.2, "f0": 1.5, "causal": "timelike"}, 59, 15, 13),
        ({"name": "thm32", "h0": -0.4, "lam1": -0.3, "lam2": 0.5, "causal": "spacelike"}, 30, 25, 14),
        ({"name": "thm42", "h0": -0.75, "lam1": 1.2, "lam2": -0.6, "lam3": 0.2,
          "causal": "timelike"}, 59, 30, 15),
        ({"name": "thm42", "h0": 0.9, "lam1": -0.7, "lam2": 0.8, "causal": "spacelike"}, 30, 45, 16),
    ]

    def test_batched_motions_equal_the_per_jet_loop(self, tmp_path):
        out = tmp_path / "vm.json"
        for family, n, count, seed in self.PER_JET_CASES:
            assert main(["verify", *(a for k, v in family.items() for a in ("--set", f"family.{k}={v}")),
                         "--set", f"grid.n1={n}", "--set", f"grid.n2={n}", "--set", f"motions={count}",
                         "--set", f"seed={seed}", "--set", f"output.json={out}"]) == 0
            suite = json.loads(out.read_text())["suites"]["motion_invariance"]
            surface = family_surface(family["name"], {k: v for k, v in family.items() if k != "name"})
            a1, a2 = default_grid(surface, n, n).axes()
            drawn = uniforms(seed, 6 * count, -1.0, 1.0)
            motions = [drawn[6 * k:6 * k + 6] for k in range(count)]
            worst = 0.0
            for u1 in a1[:: max(1, n // 6)]:
                for u2 in a2[:: max(1, n // 6)]:
                    value = surface.value_arrays([float(u1)], [float(u2)])
                    comp = jet(surface, float(u1), float(u2))
                    k_ref, h_ref = gaussian_curvature(comp), mean_curvature(comp)
                    for m in motions:
                        _, moved = _moved_jet(m, value, comp)
                        worst = max(worst, abs(gaussian_curvature(moved) - k_ref),
                                    abs(mean_curvature(moved) - h_ref))
            assert suite["motions"] == count
            assert float(suite["max_difference"]).hex() == worst.hex(), (family, n, count, seed)

    # 0 is the seed of every VERIFY_DIGESTS case
    @pytest.mark.parametrize("seed", [0, 4, 7, 123456789])
    @pytest.mark.parametrize("count", [1, 255, 256, 257, 10_000])
    def test_motion_draw_equals_the_per_motion_draws(self, seed, count, monkeypatch, tmp_path):
        # the motions `verify` moves its jets by, block by block, are the
        # draws of one motion after another
        drawn, original = [], cli.transform_jet

        def recording(motions, comp):
            drawn.append(motions)
            return original(motions, comp)

        monkeypatch.setattr(cli, "transform_jet", recording)
        assert main(["verify", "--set", "family.name=thm42", "--set", "family.h0=0.5",
                     "--set", "grid.n1=6", "--set", "grid.n2=6", "--set", f"motions={count}",
                     "--set", f"seed={seed}", "--set", f"output.json={tmp_path / 'v.json'}"]) == 0
        per_motion = np.array(uniforms(seed, 6 * count, -1.0, 1.0)).reshape(count, 6)
        assert np.concatenate(drawn).shape == (count, 6)
        assert np.concatenate(drawn).tobytes() == per_motion.tobytes()

    # the thm42 grid whose closed and pipeline sweeps overflow: the
    # constancy suite passes on the finite closed points, the cross-check
    # fails on the excluded non-finite ones and the motion suite on NaN
    OVERFLOW = ["family.name=thm42", "family.h0=0.5", "family.lam1=1e-13", "family.lam2=8",
                "grid.u2=[-40,40]"]

    # (config, n for its n x n grid, exit code)
    @pytest.mark.parametrize("per_call", [1, 7])
    @pytest.mark.parametrize("family,n,code", [
        (["family.name=thm31", "family.k0=0.7", "family.lam1=-0.8", "grid.n1=30", "grid.n2=30",
          "motions=20", "seed=4"], 30, 0),
        (OVERFLOW, 20, 1),
    ])
    def test_motion_blocks_give_the_same_report(self, tmp_path, monkeypatch, per_call, family, n,
                                                code):
        argv = ["verify", *(a for kv in family for a in ("--set", kv)),
                "--set", f"output.json={tmp_path / 'v.json'}"]
        assert main(argv) == code
        expect = (tmp_path / "v.json").read_bytes()
        # blocks of `per_call` motions, each of the samples of every (n // 6)-th node
        samples = len(range(0, n, max(1, n // 6))) ** 2
        monkeypatch.setattr(factorable, "_BLOCK_POINTS", per_call * samples)
        assert main(argv) == code
        assert (tmp_path / "v.json").read_bytes() == expect

    def test_no_motion_call_exceeds_a_block(self, tmp_path, monkeypatch):
        # at MAX_MOTIONS each kernel call of the motion suite moves at
        # most a block of points, and every motion once
        moved, original = [], cli.transform_jet

        def recording(motions, comp):
            out = original(motions, comp)
            moved.append(out["x1"].shape)
            return out

        monkeypatch.setattr(cli, "transform_jet", recording)
        assert main(["verify", "--set", "family.name=thm42", "--set", "family.h0=0.5",
                     "--set", "grid.n1=11", "--set", "grid.n2=11",
                     "--set", f"motions={cli.MAX_MOTIONS}",
                     "--set", f"output.json={tmp_path / 'v.json'}"]) == 0
        assert max(math.prod(shape) for shape in moved) <= factorable._BLOCK_POINTS
        assert {shape[1:] for shape in moved} == {(11, 11)}
        assert sum(shape[0] for shape in moved) == cli.MAX_MOTIONS

    def test_overflow_fails_without_floating_point_warnings(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", *(a for kv in self.OVERFLOW for a in ("--set", kv)),
                         "--set", f"output.json={out}"]) == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        # the closed |H| is 0.5 wherever it is finite: with a deadband of 1
        # under the second kind's D, 14 of its 318 points read H = 0 and failed it
        assert report["failed"] == ["cross_check", "motion_invariance"]
        suites = report["suites"]
        assert suites["constancy"]["passed"] is True
        assert abs(suites["constancy"]["mean"] - 0.5) < 1e-11
        assert 0.0 < suites["constancy"]["max_deviation"] < 1e-10
        assert suites["cross_check"] == {"passed": False,
                                         "error": "grid has a point where K or H is not finite"}
        assert suites["motion_invariance"]["max_difference"] is None

    def test_one_transform_call_per_invocation(self, tmp_path, monkeypatch):
        import pgsurf.cli as cli

        calls = []
        original = cli.transform_jet

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "transform_jet", counted)
        for name, param in (("thm31", "k0=1"), ("thm32", "h0=0.5"), ("thm42", "h0=0.5")):
            calls.clear()
            assert main(["verify", "--set", f"family.name={name}", "--set", f"family.{param}",
                         "--set", "grid.n1=30", "--set", "grid.n2=30", "--set", "motions=20",
                         "--set", f"output.json={tmp_path / 'v.json'}"]) == 0
            assert len(calls) == 1, name
            assert len(calls[0][0]) == 20

    @pytest.mark.parametrize("family,cause", [
        (["family.name=thm31", "family.k0=1", "grid.u1=[-1,21]"],
         "grid has a point where K or H is not finite"),
        (["family.name=thm42", "family.h0=0.5", "family.lam1=3e-4", "family.lam2=-0.3",
          "grid.u2=[-40,40]"], "grid crosses a lightlike or inadmissible locus"),
        (["family.name=thm42", "family.h0=0.5", "family.lam2=-20"],
         "grid crosses a lightlike or inadmissible locus"),
    ])
    def test_masked_sample_point_fails_the_motion_suite(self, tmp_path, capsys, family, cause):
        # a lightlike or inadmissible sample node fails the motion suite as
        # a non-finite one does; the report is written and its cross-check
        # names what excludes the first excluded grid point in row-major
        # order (on the first grid the closed formulas exclude points before
        # the pipeline masks one)
        out = tmp_path / "v.json"
        capsys.readouterr()
        assert main(["verify", *(a for kv in family for a in ("--set", kv)),
                     "--set", f"output.json={out}"]) == 1
        assert capsys.readouterr().err == ""
        suites = json.loads(out.read_text())["suites"]
        assert suites["cross_check"] == {"passed": False, "error": cause}
        assert suites["motion_invariance"]["passed"] is False
        assert suites["motion_invariance"]["max_difference"] is None

    @pytest.mark.parametrize("override", [
        "motions=-3", "motions=0", "motions=abc", "motions=[2]", "seed=abc", "seed=[1]",
        "perturb.exponent_scale=abc",
        "tolerances=5", "tolerances=[]", "tolerances=null", "tolerances.constancy=true",
        "tolerances.cross_check=false", "tolerances.bogus=1e-3", "tolerances.motion=-1",
        "tolerances.motion=0", "tolerances.constancy=NaN", "tolerances.constancy=Infinity",
        "tolerances.constancy=abc",
        "perturb=5", "perturb=[]", "family=5", "output=5", "output=null",
        "motions=10001", "motions=100000000", "seed=-1",
        "seed=18446744073709551616", "seed=1e20",
        "output.json=7", "output.json=[1]", "output.json=true", "output.json=null",
        "motions=2.5", "motions=true", "seed=0.5", "seed=false",
        "perturb.exponent_scale=NaN", "perturb.exponent_scale=Infinity", "family.k0=NaN",
        "perturb.exponent_scale=true", "family.k0=true", "family.sign=true",
        "family.lam2=true", 'family.lam1="0.5"', "grid.u1=[true,2]", 'grid.u1=["0","1"]',
        "grid.n3=5", "perturb.exponent=1.01", "output.jsn=x",
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, "vb.json", {"family": {"name": "thm31", "k0": 1.0},
                                                 "output": {"json": str(tmp_path / "out.json")}})
        _one_line_config_error(capsys, ["verify", "--config", cfg, "--set", override])
        assert not (tmp_path / "out.json").exists()


class TestReconstruct:
    def test_thm31_defaults(self, tmp_path):
        cfg = write_config(tmp_path, "r.json", {
            "theorem": "3.1",
            "output": {"json": str(tmp_path / "r.json.out")},
        })
        assert main(["reconstruct", "--config", cfg]) == 0
        report = json.loads((tmp_path / "r.json.out").read_text())
        assert report["max_error"] < 1e-6 and report["passed"]

    def test_coarse_step_breaches_tolerance(self, tmp_path):
        cfg = write_config(tmp_path, "rc.json", {
            "theorem": "3.1", "h": 0.2,
            "output": {"json": str(tmp_path / "rc.json.out")},
        })
        assert main(["reconstruct", "--config", cfg]) == 1
        report = json.loads((tmp_path / "rc.json.out").read_text())
        assert report["max_error"] > 1e-6

    def test_reports_the_step_it_took(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["reconstruct", "--set", "theorem=3.1", "--set", "h=0.7",
                     "--set", f"output.json={out}"]) == 1
        report = json.loads(out.read_text())
        assert report["steps"] == 3 and report["h"] == 2.0 / 3.0

    def test_branch_violation_exits_4(self, tmp_path):
        cfg = write_config(tmp_path, "rb.json", {
            "theorem": "3.2", "causal": "spacelike", "u0": 1.5,
            "output": {"json": str(tmp_path / "rb.json.out")},
        })
        assert main(["reconstruct", "--config", cfg]) == 4

    def test_slope_and_lam_together_exit_2(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        _one_line_config_error(capsys, ["reconstruct", "--set", "theorem=3.2", "--set", "u0=0.5",
                                        "--set", "lam=0.7", "--set", f"output.json={out}"])
        assert not out.exists()

    def test_unknown_theorem(self, tmp_path):
        cfg = write_config(tmp_path, "ru.json", {"theorem": "5.1"})
        assert main(["reconstruct", "--config", cfg]) == 2

    def test_thm42_relative_metric(self, tmp_path):
        cfg = write_config(tmp_path, "r42.json", {
            "theorem": "4.2",
            "output": {"json": str(tmp_path / "r42.json.out")},
        })
        assert main(["reconstruct", "--config", cfg]) == 0

    @pytest.mark.parametrize("ode, code", [(1e-6, 0), (1e-12, 1)])
    def test_thm42_profile_beyond_the_float_range(self, tmp_path, capsys, ode, code):
        # g = exp(L) reaches about 1e752 on the corridor; L stays near 1732
        out = tmp_path / "r42.json"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["reconstruct", "--set", "theorem=4.2", "--set", "h0=0.5",
                         "--set", "lam1=1000", "--set", f"tolerances.ode={ode}",
                         "--set", f"output.json={out}"]) == code
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert 0.0 < report["max_rel_error"] < 1e-6 and math.isfinite(report["max_error"])
        assert report["passed"] is (code == 0)

    @pytest.mark.parametrize("theorem,override", [
        ("3.1", "h=abc"), ("3.1", "k0=abc"), ("3.1", "g0=[1]"), ("3.1", "lam1=abc"),
        ("3.1", "sign=abc"), ("3.1", "span=[0]"), ("3.1", "span=abc"), ("3.1", "span=[0,\"x\"]"),
        ("3.2", "h0=abc"), ("3.2", "f0=abc"), ("3.2", "lam=abc"), ("3.2", "y0=abc"),
        ("3.2", "length=abc"), ("3.2", "u0=abc"),
        ("4.2", "h0=abc"), ("4.2", "lam1=abc"), ("4.2", "lam2=[1]"), ("4.2", "z0=abc"),
        ("4.2", "length=abc"),
        ("3.1", "tolerances=5"), ("3.1", "tolerances.ode=true"), ("3.1", "tolerances.od=1e-6"),
        ("3.1", "span=[0,1e12]"), ("3.1", "h=1e-300"), ("3.2", "length=1e12"),
        ("4.2", "length=1e12"), ("3.1", "output=5"), ("4.2", "output=[]"),
        ("3.1", "output.json=7"), ("3.2", "output.json=[1]"), ("4.2", "output.json=true"),
        ("3.1", "sign=0.5"), ("3.1", "sign=-1.5"), ("3.1", "sign=true"), ("3.1", "sign=[1]"),
        ("3.1", "k0=NaN"), ("3.1", "h=Infinity"), ("3.2", "h0=NaN"), ("3.2", "u0=-Infinity"),
        ("4.2", "lam1=NaN"), ("4.2", "z0=Infinity"),
        ("3.1", "g0=true"), ("3.1", "span=[true,2]"), ("3.1", 'k0="1"'), ("3.1", "k0=true"),
        ("3.1", "h=true"), ("3.2", "lam=true"), ("3.2", 'f0="2"'), ("4.2", "lam1=true"),
        ("4.2", 'z0="1.2"'), ("3.1", "output.jsn=x"),
        # a malformed corridor is rejected before the radicand check
        ("4.2", "length=-0.5"), ("3.2", "causal=timelike length=-0.5"),
        ("4.2", "z0=-1e308 length=1e308"),
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, theorem, override):
        out = tmp_path / "out.json"
        # an override may set several keys, separated by spaces
        sets = [arg for key in override.split() for arg in ("--set", key)]
        _one_line_config_error(capsys, ["reconstruct", "--set", f"theorem={theorem}",
                                        "--set", f"output.json={out}", *sets])
        assert not out.exists()


class TestProbe:
    def test_report_and_floor(self, tmp_path):
        cfg = write_config(tmp_path, "p.json", {
            "k0": 1.0, "budget": 800, "floor": 0.05,
            "output": {"json": str(tmp_path / "p.json.out")},
        })
        assert main(["probe", "--config", cfg]) == 0
        report = json.loads((tmp_path / "p.json.out").read_text())
        assert report["floor_passed"] and "not a proof" in report["header"]

    def test_floor_is_checked_at_k0_zero(self, tmp_path):
        # the flat seed reaches a residual of about 0: the floor fails
        out = tmp_path / "p.json"
        assert main(["probe", "--set", "k0=0", "--set", "floor=0.05", "--set", "budget=200",
                     "--set", "restarts=2", "--set", f"output.json={out}"]) == 1
        report = json.loads(out.read_text())
        assert report["floor"] == 0.05 and report["floor_passed"] is False
        assert report["best_residual"] < 0.05

    @pytest.mark.parametrize("override", [
        "grid.n1=abc", "grid.n2=[3]", "grid.u1=[0]", "grid.u2=abc", "grid.u1=[null,1]", "grid=7",
        "k0=abc", "restarts=abc", "floor=abc", "budget=abc", "seed=[1]", "degree_f=abc",
        "restarts=20", "exponential=nope", "exponential=1", "exponential=null",
        "output=5", "budget=0", "budget=-5", 'grid={"n1": 2000, "n2": 2001}',
        "output.json=7", "output.json=[1]", "output.json=true", "seed=-1",
        "seed=18446744073709551616", "seed=1e20",
        "k0=nan", "k0=NaN", "k0=inf", "k0=-Infinity", "k0=1e400",
        "floor=nan", "floor=NaN", "floor=Infinity", "floor=-inf",
        "budget=60.9", "budget=true", "restarts=0", "restarts=-5", "restarts=1.5", "restarts=true",
        "seed=1.5", "seed=true", "degree_f=1.5", "degree_f=-1", "degree_g=true",
        "grid.n1=9.5", "grid.n2=false", "grid.n1=-9",
        "k0=true", 'k0="1"', "floor=true", 'floor="0.05"', "grid.u1=[true,2]",
        'grid.u1=["0","1"]', "grid.n3=5", "output.jsn=x",
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, "pm.json", {"k0": 1.0, "budget": 10,
                                                 "output": {"json": str(tmp_path / "out.json")}})
        _one_line_config_error(capsys, ["probe", "--config", cfg, "--set", override])
        assert not (tmp_path / "out.json").exists()

    def test_restarts_above_bound_exit_2_before_allocating(self, capsys):
        start = time.perf_counter()
        _one_line_config_error(capsys, ["probe", "--set", "budget=1000000000",
                                        "--set", "restarts=1000000000"])
        assert time.perf_counter() - start < 5.0

    def test_constant_g_without_rates(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["probe", "--set", "degree_f=3", "--set", "degree_g=0", "--set", "exponential=false",
                     "--set", "budget=60", "--set", f"output.json={out}"]) == 0
        assert len(json.loads(out.read_text())["best_theta"]) == 5


class TestMesh:
    def test_saddle_mesh_topology(self, tmp_path):
        cfg = write_config(tmp_path, "m.json", {
            "family": {"name": "saddle"},
            "grid": {"u1": [-0.5, 0.5], "u2": [-0.5, 0.5], "n1": 10, "n2": 10},
            "output": {"obj": str(tmp_path / "m.obj"), "sidecar": str(tmp_path / "m.csv")},
        })
        assert main(["mesh", "--config", cfg]) == 0
        lines = (tmp_path / "m.obj").read_text().strip().split("\n")
        assert sum(1 for l in lines if l.startswith("v ")) == 100
        assert sum(1 for l in lines if l.startswith("f ")) == 81
        _, rows = read_csv_rows(tmp_path / "m.csv")
        assert all(float(r["H"]) == 0.0 for r in rows if r["excluded"] == "0")

    def test_holes_around_lightlike_rows(self, tmp_path):
        cfg = write_config(tmp_path, "mh.json", {
            "family": {"name": "saddle"},
            "grid": {"u1": [0.5, 1.5], "u2": [-0.5, 0.5], "n1": 21, "n2": 5},
            "output": {"obj": str(tmp_path / "mh.obj"), "sidecar": str(tmp_path / "mh.csv")},
        })
        assert main(["mesh", "--config", cfg]) == 0
        lines = (tmp_path / "mh.obj").read_text().strip().split("\n")
        n_faces = sum(1 for l in lines if l.startswith("f "))
        assert 0 < n_faces < 20 * 4  # the row at x = 1 removes two face columns

    def test_empty_admissible_grid_exits_3(self, tmp_path, capsys):
        cfg = {"family": {"name": "exp_exp"}, "grid": {"n1": 4, "n2": 4}}
        files = {"obj": str(tmp_path / "me.obj"), "sidecar": str(tmp_path / "me.csv")}
        capsys.readouterr()
        assert main(["mesh", "--config", write_config(tmp_path, "me.json",
                                                      {**cfg, "output": files})]) == 3
        assert not (tmp_path / "me.obj").exists() and not (tmp_path / "me.csv").exists()
        # an OBJ on stdout has streamed its vertex lines by then, never a face
        assert main(["mesh", "--config", write_config(tmp_path, "mo.json", cfg)]) == 3
        assert "\nf " not in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["me.json", "mo.json"]

    def test_mesh_determinism(self, tmp_path):
        cfg = write_config(tmp_path, "md.json", {
            "family": {"name": "thm31", "k0": 1.0},
            "grid": {"n1": 8, "n2": 8},
            "output": {"obj": str(tmp_path / "md.obj"), "sidecar": str(tmp_path / "md.csv")},
        })
        main(["mesh", "--config", cfg])
        first = (tmp_path / "md.obj").read_bytes()
        main(["mesh", "--config", cfg])
        assert (tmp_path / "md.obj").read_bytes() == first


def _one_line_config_error(capsys, argv):
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("pg-surf: config error:") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("route", ["pipeline", "pipeline-fd", "specialized"])
@pytest.mark.parametrize("command", ["curvature", "mesh"])
def test_each_grid_point_is_swept_once(tmp_path, monkeypatch, command, route):
    """`curvature` and `mesh` sweep an 8x8 grid in blocks of 3 rows, one
    sweep per block: the closed one on the `specialized` route, which runs
    no pipeline kernel, and the pipeline one on the other routes."""
    rows = _count_swept_rows(monkeypatch)
    kernel_calls = []
    kernel = factorable.curvature_arrays
    monkeypatch.setattr(factorable, "curvature_arrays",
                        lambda comp: kernel_calls.append(comp) or kernel(comp))
    monkeypatch.setattr(factorable, "_BLOCK_POINTS", 8 * 3)
    keys = ("csv", "json") if command == "curvature" else ("obj", "sidecar")
    assert main([command, "--set", "family.name=thm42", "--set", "family.h0=0.5",
                 "--set", "grid.n1=8", "--set", "grid.n2=8", "--set", f"formulas={route}"]
                + [arg for key in keys for arg in ("--set", f"output.{key}={tmp_path / key}")]) == 0
    closed = route == "specialized"
    assert rows == {"pipeline_grid": [] if closed else [3, 3, 2],
                    "specialized_grid": [3, 3, 2] if closed else []}
    assert len(kernel_calls) == (0 if closed else 3)


@pytest.mark.parametrize("command,route", [
    ("curvature", "pipeline"), ("curvature", "specialized"), ("mesh", "pipeline-fd"),
    ("mesh", "specialized"), ("verify", None)])
def test_no_sweep_call_exceeds_a_block(tmp_path, monkeypatch, command, route):
    """On a 4x12 grid whose rows are 3 blocks wide, no sweep call of
    `curvature`, `mesh` or `verify` holds more than `_BLOCK_POINTS`
    points, and each sweep a command runs covers the grid once."""
    points = _count_swept_rows(monkeypatch, np.size)
    monkeypatch.setattr(factorable, "_BLOCK_POINTS", 4)
    keys = {"curvature": ("csv", "json"), "mesh": ("obj", "sidecar"), "verify": ("json",)}[command]
    argv = [command, "--set", "family.name=thm42", "--set", "family.h0=0.5",
            "--set", "grid.n1=4", "--set", "grid.n2=12"]
    argv += ["--set", f"formulas={route}"] if route else []
    assert main(argv + [arg for key in keys
                        for arg in ("--set", f"output.{key}={tmp_path / key}")]) == 0
    swept = [sizes for sizes in points.values() if sizes]
    assert len(swept) == (2 if command == "verify" else 1)
    for sizes in swept:
        assert max(sizes) <= 4 and sum(sizes) == 48, sizes


def test_each_axis_is_built_once_per_sweep(monkeypatch):
    """A `curvature` call on a 2 x (3 * `_BLOCK_POINTS`) grid sweeps six
    row spans, and builds each axis once: the spans slice it."""
    sizes, linspace = [], np.linspace
    monkeypatch.setattr(np, "linspace",
                        lambda *args, **kwargs: sizes.append(args[2]) or linspace(*args, **kwargs))
    monkeypatch.setattr(factorable, "_BLOCK_POINTS", 4)
    assert main(["curvature", "--set", "family.name=thm42", "--set", "family.h0=0.5",
                 "--set", "grid.n1=2", "--set", "grid.n2=12",
                 "--set", f"output.csv={os.devnull}", "--set", f"output.json={os.devnull}"]) == 0
    assert sizes == [2, 12]


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from([("thm32", "lam1"), ("thm42", "lam3")]),
       h0=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1), shift=st.floats(-2.0, 2.0),
       inside=st.floats(-0.99, 0.99), outside=st.floats(1.01, 4.0),
       side=st.sampled_from([-1.0, 1.0]), n1=st.integers(2, 4), n2=st.integers(3, 9))
def test_grids_straddling_the_radicand(family, h0, shift, inside, outside, side, n1, n2):
    """thm32 and thm42 'spacelike' grids whose u2 range runs from inside
    the band w^2 - 1 <= 0, w = 2*h0*u2 + shift, to beyond w = +1 or -1:
    on every route each point of the band is excluded, `curvature` and
    `mesh` exit 0 or 3 and `verify` 1 or 3, never 4.  The routes need
    not exclude the same points."""
    name, key = family
    u2 = sorted((w - shift) / (2.0 * h0) for w in (inside, side * outside))
    base = [f"family.name={name}", f"family.h0={h0!r}", f"family.{key}={shift!r}",
            "family.causal=spacelike", f"grid.u2={json.dumps(u2)}", f"grid.n1={n1}", f"grid.n2={n2}"]
    argv = [a for kv in base for a in ("--set", kv)]

    def in_band(row):
        w = 2.0 * h0 * float(row["u2"]) + shift
        return w * w - 1.0 <= 0.0

    # the CSV of `curvature` goes to stdout, the sidecar of `mesh` to a file
    with tempfile.TemporaryDirectory() as tmp:
        sidecar = Path(tmp) / "sidecar.csv"
        outputs = {"curvature": [f"output.json={os.devnull}"],
                   "mesh": [f"output.obj={os.devnull}", f"output.sidecar={sidecar}"]}
        for route in ("pipeline", "pipeline-fd", "specialized"):
            for command, keys in outputs.items():
                with contextlib.redirect_stdout(io.StringIO()) as out, \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main([command, *argv, "--set", f"formulas={route}",
                                 *[a for kv in keys for a in ("--set", kv)]])
                assert code in (0, 3), (command, route, code)
                if code == 0:
                    text = sidecar.read_text() if command == "mesh" else out.getvalue()
                    header, *lines = text.splitlines()
                    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
                    assert all(r["excluded"] == "1" for r in rows if in_band(r)), (command, route)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["verify", *argv, "--set", f"output.json={os.devnull}"]) in (1, 3)


def _child_env() -> dict:
    """This process's environment with the package's source directory
    first on PYTHONPATH, for a child interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


# A child process that imports the CLI and runs `main` on a command of
# each kind, checking after each whether `pgsurf.render` is imported.
_LAZY_RENDER_CHILD = """
import os, sys
import pgsurf.cli
from pgsurf.cli import main

assert "pgsurf.render" not in sys.modules, "import pgsurf.cli"
null = ["--set", "output.json=" + os.devnull]
for argv in (["verify", "--set", "family.name=thm42", "--set", "family.h0=0.5",
              "--set", "grid.n1=9", "--set", "grid.n2=9", "--set", "motions=3"],
             ["reconstruct", "--set", "theorem=3.1"],
             ["probe", "--set", "budget=200", "--set", "restarts=2"]):
    assert main(argv + null) == 0, argv
    assert "pgsurf.render" not in sys.modules, argv
assert main(["curvature", "--set", "family.name=thm31", "--set", "family.k0=1",
             "--set", "grid.n1=3", "--set", "grid.n2=3", "--set", "output.csv=" + os.devnull]) == 0
assert "pgsurf.render" in sys.modules, "curvature"
"""


def test_render_is_imported_by_the_table_commands_alone():
    """In a fresh interpreter, `import pgsurf.cli` and `verify`,
    `reconstruct` and `probe` runs leave the table writer `render`
    unimported, so a process that finds no bytecode does not compile it;
    a `curvature` run imports it."""
    child = subprocess.run([sys.executable, "-c", _LAZY_RENDER_CHILD], env=_child_env(),
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr


# A child process that runs `verify` and `probe` through `main`, on the
# default seed and the largest, whose draws wrap their uint64 states.
_NO_NUMPY_RANDOM_CHILD = """
import os, sys
from pgsurf.cli import main

null = ["--set", "output.json=" + os.devnull]
for seed in (0, 2**64 - 1):
    for argv in (["verify", "--set", "family.name=thm42", "--set", "family.h0=0.5",
                  "--set", "grid.n1=9", "--set", "grid.n2=9", "--set", "motions=300"],
                 ["probe", "--set", "budget=300", "--set", "restarts=6"]):
        assert main(argv + ["--set", f"seed={seed}"] + null) == 0, argv
assert "numpy.random" not in sys.modules
"""


def test_seeded_commands_do_not_import_numpy_random():
    """`verify` and `probe` draw their motions and starts from
    `uniform_draws`, so no run imports `numpy.random`; with warnings as
    errors, a uint64 scalar overflow warning fails the run too."""
    child = subprocess.run([sys.executable, "-W", "error", "-c", _NO_NUMPY_RANDOM_CHILD],
                           env=_child_env(), capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr


# A child process that runs `main` on its arguments and prints its own
# peak resident set size in bytes.  On Linux that is VmHWM, the high-water
# mark of its own address space: its ru_maxrss also holds the resident set
# of the process that spawned it, which exec keeps (a test process of
# 130 MiB made every child read 130 MiB).  macOS has no /proc and reports
# ru_maxrss in bytes.
_PEAK_RSS_CHILD = (
    "import resource, sys\n"
    "from pgsurf.cli import main\n"
    "assert main(sys.argv[1:]) == 0\n"
    "if sys.platform == 'darwin':\n"
    "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    "else:\n"
    "    status = open('/proc/self/status').read()\n"
    "    print(int(status.split('VmHWM:')[1].split()[0]) * 1024)\n"
)


class TestPeakMemoryOfLargeSweeps:
    """`curvature` and `mesh` on a thm42 1000x1000 grid, and on a grid of
    two rows of 200 000 points, each run alone in a fresh interpreter
    whose own peak resident set is read.  Each case is bounded by its
    peak with numpy 2.4 on x86-64 Linux, rounded up, plus 8 MiB.  The
    commands sweep the grid in row blocks and write each block's lines as
    it is swept.  Across blocks `curvature` keeps the included K and H
    only for its JSON, in one buffer of the grid's size each: 61.7 /
    63.2 / 57.6 MiB on 1000x1000 (analytic / FD / `specialized`) with the
    JSON (63.2 / 70.0 / 63.0 MiB printing through per-cell `%.17g` fields
    and concatenating the kept blocks, as when the bounds were set),
    40.2 MiB with the CSV alone, where keeping them for no reader peaked
    at 52.9 MiB.  `mesh` keeps only the grid's exclusion mask: 40.4 /
    41.4 / 36.5 MiB, where keeping every block's printed columns until
    the faces were chosen peaked at 59.8-62.4 MiB.  Sweeping the whole
    grid at once reached 229 MiB (analytic and `specialized`) and 305 MiB
    (FD).  The FD figures are those of its stencils differencing each
    parameter coordinate on its own axis: with the coordinates broadcast
    to the block first, a copy at a path of equal length read 64.9 and
    42.3 MiB.  The long rows peak at 48.7 MiB (`curvature`) and 42.0 MiB
    (`mesh`), as the sweep is cut into spans of at most `_BLOCK_POINTS`
    points and its text into spans of `render._CHUNK`; text in spans of
    `_BLOCK_POINTS` peaked at 65.3 and 50.4 MiB, a sweep block of one
    whole row at 88 MiB, and text built one grid row at a time at 362 and
    216 MiB.  The outputs go to the null device, so the run's time is not
    that of the disk.  The nine children run two at a time, started
    together by a class fixture: on a 2-core VM they took 28-32 s one at
    a time and 16.5 s two at a time, and each peak was the same within
    0.2 MiB."""

    BOUND_MIB = {
        ("curvature", "pipeline"): 66 + 8, ("curvature", "pipeline-fd"): 70 + 8,
        ("curvature", "specialized"): 63 + 8, ("mesh", "pipeline"): 41 + 8,
        ("mesh", "pipeline-fd"): 44 + 8, ("mesh", "specialized"): 38 + 8,
    }
    LONG_ROWS_MIB = {"curvature": 64 + 8, "mesh": 50 + 8}

    @staticmethod
    def _child(command, n1, n2, route, keys):
        argv = [command, "--set", "family.name=thm42", "--set", "family.h0=0.5",
                "--set", f"grid.n1={n1}", "--set", f"grid.n2={n2}", "--set", f"formulas={route}"]
        argv += [arg for key in keys for arg in ("--set", f"output.{key}={os.devnull}")]
        return subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, *argv], env=_child_env(),
                              capture_output=True, text=True)

    @pytest.fixture(scope="class")
    def children(self):
        """Every case's child, run by a pool of two workers: a future of
        its completed process per case.  A case is its command, grid rows
        and columns, route and output keys."""
        cases = {(command, route): (command, 1000, 1000, route, OUTPUTS[command])
                 for command, route in self.BOUND_MIB}
        cases["csv_alone"] = ("curvature", 1000, 1000, "pipeline", ["csv"])
        cases.update({("long_rows", command): (command, 2, 200_000, "pipeline", OUTPUTS[command])
                      for command in self.LONG_ROWS_MIB})
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            yield {case: pool.submit(self._child, *args) for case, args in cases.items()}

    @staticmethod
    def _peak(children, case):
        child = children[case].result()
        assert child.returncode == 0, child.stderr
        return int(child.stdout)

    @pytest.mark.parametrize("route", ["pipeline", "pipeline-fd", "specialized"])
    @pytest.mark.parametrize("command", ["curvature", "mesh"])
    def test_peak_memory(self, children, command, route):
        peak = self._peak(children, (command, route))
        assert peak < self.BOUND_MIB[command, route] * 2**20, peak

    def test_csv_alone(self, children):
        peak = self._peak(children, "csv_alone")
        assert peak < (39 + 8) * 2**20, peak

    @pytest.mark.parametrize("command", ["curvature", "mesh"])
    def test_long_rows(self, children, command):
        peak = self._peak(children, ("long_rows", command))
        assert peak < self.LONG_ROWS_MIB[command] * 2**20, peak


class TestConfigValidation:
    @pytest.mark.parametrize("command", ["curvature", "mesh"])
    @pytest.mark.parametrize("override", [
        "formulas=bogus", "formulas=[1]",
        "fd_step=-1", "fd_step=0", "fd_step=NaN", "fd_step=Infinity", "fd_step=abc", "fd_step=[]",
    ])
    def test_route_and_fd_step(self, tmp_path, capsys, command, override):
        # `fd_step` is a key of the FD route: given on it, its value is read
        route = ["--set", "formulas=pipeline-fd"] if override.startswith("fd_step=") else []
        cfg = write_config(tmp_path, "r.json", {
            "family": {"name": "thm31", "k0": 1.0}, "grid": {"n1": 4, "n2": 4},
            "output": {key: str(tmp_path / f"out.{key}") for key in OUTPUTS[command]},
        })
        err = _one_line_config_error(capsys, [command, "--config", cfg, *route, "--set", override])
        assert err.startswith(f"pg-surf: config error: {override.split('=')[0]} must be "), err
        assert list(tmp_path.iterdir()) == [tmp_path / "r.json"]

    @pytest.mark.parametrize("command", ["curvature", "mesh", "verify"])
    @pytest.mark.parametrize("override", [
        "grid.n1=abc", "grid.n2=[3]", "grid.n1=Infinity", "grid.u1=[0]", "grid.u2=[0,1,2]",
        "grid.u1=abc", "grid.u2=[0,\"x\"]", "grid.u1=[null,1]", "grid=7", "grid=null",
        'grid={"n1": 100000, "n2": 100000}', 'grid={"n1": 2000, "n2": 2001}',
        "grid.n1=4.5", "grid.n2=true",
    ])
    def test_malformed_grid_keys(self, tmp_path, capsys, command, override):
        cfg = write_config(tmp_path, "g.json", {"family": {"name": "thm31", "k0": 1.0}})
        _one_line_config_error(capsys, [command, "--config", cfg, "--set", override])

    @pytest.mark.parametrize("command", ["curvature", "mesh"])
    @pytest.mark.parametrize("override", [
        "output=5", "output=[]", "family=5", "family=null",
        "output.csv=7", "output.json=[1]", "output.obj=true", "output.sidecar=null",
        'family.lam1="abc"', "family.lam1=NaN", "family.k0=Infinity", "family.lam2=[1]",
        "family.sign=true", "family.lam2=true", 'family.lam1="0.5"', "family.k0=true",
        "fd_step=true", "grid.u1=[true,2]", 'grid.u1=["0","1"]',
        "grid.n3=5", "output.jsn=x",
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, command, override):
        route = ["--set", "formulas=pipeline-fd"] if override.startswith("fd_step=") else []
        cfg = write_config(tmp_path, "c.json", {"family": {"name": "thm31", "k0": 1.0},
                                                "grid": {"n1": 4, "n2": 4}})
        err = _one_line_config_error(capsys, [command, "--config", cfg, *route, "--set", override])
        # the line names the key: a value of a key the command lists (a
        # section too) is rejected, any other key is unknown
        key = override.split("=")[0]
        known = any(k == key or k.startswith(key + ".") for k in _schema_keys(cli.SCHEMA[command]))
        cause = f"{key} must be " if known else f"unknown key {key}; known: "
        assert err.startswith(f"pg-surf: config error: {cause}"), err
        assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]

    @pytest.mark.parametrize("command", ["curvature", "mesh", "verify", "probe"])
    def test_overflowing_grid_width_exits_2(self, tmp_path, capsys, command):
        # both ends are finite but hi - lo is not: linspace would overflow
        out = {key: str(tmp_path / key) for key in OUTPUTS[command]}
        own = {"budget": 10} if command == "probe" else {"family": {"name": "thm31", "k0": 1.0}}
        cfg = write_config(tmp_path, "w.json", {**own, "output": out,
                                                "grid": {"u1": [-1e308, 1e308], "n1": 4, "n2": 4}})
        err = _one_line_config_error(capsys, [command, "--config", cfg])
        assert err == ("pg-surf: config error: grid range must be finite and increasing, "
                       "got (-1e+308, 1e+308)\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "w.json"]

    def test_grid_cap_is_inclusive(self):
        grid = _grid({"n1": 2000, "n2": 2000}, GridSpec((0, 1), (0, 1)))
        assert grid.n1 * grid.n2 == MAX_GRID_POINTS

    def test_valid_fd_step_is_used(self, tmp_path):
        out = {"csv": str(tmp_path / "a.csv"), "json": str(tmp_path / "a.json")}
        cfg = write_config(tmp_path, "f.json", {
            "family": {"name": "thm31", "k0": 1.0}, "grid": {"n1": 4, "n2": 4},
            "formulas": "pipeline-fd", "output": out,
        })
        assert main(["curvature", "--config", cfg, "--set", "fd_step=1e-3"]) == 0
        coarse = (tmp_path / "a.csv").read_bytes()
        assert main(["curvature", "--config", cfg]) == 0
        assert (tmp_path / "a.csv").read_bytes() != coarse


def _schema_keys(table, where=""):
    """Every key of a schema table as the config names it (`grid.n1`),
    the keys of each table a choice picks included."""
    for key, row in table.items():
        if isinstance(row, dict):
            yield from _schema_keys(row, f"{where}{key}.")
        else:
            yield where + key
            for chosen in (row.bound.values() if isinstance(row.bound, dict) else ()):
                yield from _schema_keys(chosen, where)


# `cli.SCHEMA` as it was written by hand before its family and theorem
# tables were derived from the signatures, each row as (kind, default,
# bound) and every key in its order: the order is the text of the
# "one of ..." and "known: ..." errors
_CAUSAL = ("timelike", "spacelike")
_FROZEN_FAMILIES = {
    "thm31": {"k0": ("_real", ..., None), "lam1": ("_real", 0.0, None),
              "lam2": ("_real", 0.0, None), "sign": ("_integer", 1, None)},
    "thm32": {"h0": ("_real", ..., None), "lam1": ("_real", 0.0, None),
              "lam2": ("_real", 0.0, None), "f0": ("_real", 1.0, None),
              "causal": ("_choice", "timelike", _CAUSAL)},
    "thm42": {"h0": ("_real", ..., None), "lam1": ("_real", 1.0, None),
              "lam2": ("_real", 1.0, None), "lam3": ("_real", 0.0, None),
              "causal": ("_choice", "timelike", _CAUSAL)},
}
_FROZEN_GRID = {"u1": ("_pair", None, None), "u2": ("_pair", None, None),
                "n1": ("_integer", None, None), "n2": ("_integer", None, None)}
# each command's own outputs, in the order they are written
OUTPUTS = {"curvature": ("csv", "json"), "mesh": ("obj", "sidecar"), "verify": ("json",),
           "reconstruct": ("json",), "probe": ("json",)}
_FROZEN_OUTPUT = {command: {key: ("_path", "", None) for key in keys}
                  for command, keys in OUTPUTS.items()}
# a small run of each command that gives only the command's own keys
_SMALL_GRID = {"family": {"name": "thm31", "k0": 1.0}, "grid": {"n1": 4, "n2": 4}}
OWN_CONFIG = {"curvature": _SMALL_GRID, "mesh": _SMALL_GRID, "verify": _SMALL_GRID,
              "reconstruct": {"theorem": "3.1"}, "probe": {"budget": 10}}
# the top-level keys each command reads (`reconstruct` by theorem), as its
# "known: ..." error lists them
KNOWN = {"curvature": "family, grid, output, formulas", "mesh": "family, grid, output, formulas",
         "verify": "family, grid, perturb, tolerances, motions, seed, output",
         "3.1": "theorem, tolerances, output, k0, g0, lam1, sign, span, h",
         "4.2": "theorem, tolerances, output, h0, lam1, lam2, z0, length, h",
         "probe": "k0, budget, restarts, seed, degree_f, degree_g, exponential, floor, grid, output"}
FROZEN_SCHEMA = {
    command: {
        "family": {"name": ("_choice", ..., {**_FROZEN_FAMILIES,
                                             "linear": {}, "saddle": {}, "exp_exp": {}})},
        "grid": _FROZEN_GRID, "output": _FROZEN_OUTPUT[command],
        "formulas": ("_choice", "pipeline", {"pipeline": {},
                                             "pipeline-fd": {"fd_step": ("_real", 1e-4, True)},
                                             "specialized": {}}),
    } for command in ("curvature", "mesh")
} | {
    "verify": {"family": {"name": ("_choice", ..., _FROZEN_FAMILIES)}, "grid": _FROZEN_GRID,
               "perturb": {"exponent_scale": ("_real", None, None)},
               "tolerances": {"constancy": ("_real", 1e-7, True),
                              "cross_check": ("_real", 1e-8, True),
                              "motion": ("_real", 1e-8, True)},
               "motions": ("_integer", 10, (1, 10_000)),
               "seed": ("_integer", 0, (0, 2**64 - 1)), "output": _FROZEN_OUTPUT["verify"]},
    "reconstruct": {
        "theorem": ("_choice", ..., {
            "3.1": {"k0": ("_real", 1.0, None), "g0": ("_real", 1.0, None),
                    "lam1": ("_real", 0.0, None), "sign": ("_integer", 1, None),
                    "span": ("_pair", (0.0, 2.0), None), "h": ("_real", 1e-3, None)},
            "3.2": {"h0": ("_real", 0.5, None), "f0": ("_real", 1.0, None),
                    "lam": ("_real", None, None), "causal": ("_choice", "spacelike", _CAUSAL),
                    "y0": ("_real", 0.0, None), "length": ("_real", 1.0, None),
                    "h": ("_real", 1e-3, None), "u0": ("_real", None, None)},
            "4.2": {"h0": ("_real", 0.5, None), "lam1": ("_real", 1.0, None),
                    "lam2": ("_real", 0.0, None), "z0": ("_real", 1.2, None),
                    "length": ("_real", 0.8, None), "h": ("_real", 1e-3, None)},
        }),
        "tolerances": {"ode": ("_real", 1e-6, True)}, "output": _FROZEN_OUTPUT["reconstruct"],
    },
    "probe": {"k0": ("_real", 1.0, None), "budget": ("_integer", 10_000, (1, None)),
              "restarts": ("_integer", 6, (1, None)), "seed": ("_integer", 0, (0, 2**64 - 1)),
              "degree_f": ("_integer", 2, (0, None)), "degree_g": ("_integer", 2, (0, None)),
              "exponential": ("_flag", True, None), "floor": ("_real", None, None),
              "grid": _FROZEN_GRID, "output": _FROZEN_OUTPUT["probe"]},
}


def _frozen_form(node):
    """A schema table in the form of `FROZEN_SCHEMA`: a row as (kind
    name, default, bound), a table of a choice's bound in the same form."""
    if isinstance(node, cli.Row):
        kinds = {getattr(cli, name): name
                 for name in ("_real", "_integer", "_pair", "_choice", "_flag", "_path")}
        return (kinds[node.kind], node.default, _frozen_form(node.bound))
    if isinstance(node, dict):
        return {key: _frozen_form(value) for key, value in node.items()}
    return node


class TestSchema:
    def test_schema_is_the_frozen_schema(self):
        schema = _frozen_form(cli.SCHEMA)
        assert schema == FROZEN_SCHEMA
        # the repr also tells the key order, 1 from 1.0 and a tuple from a list
        assert repr(schema) == repr(FROZEN_SCHEMA)

    @pytest.mark.parametrize("command,foreign", [
        ("verify", "ode"), ("reconstruct", "constancy"), ("reconstruct", "cross_check"),
        ("reconstruct", "motion"),
    ])
    def test_foreign_tolerance_key_exits_2(self, tmp_path, capsys, command, foreign):
        """A tolerance that the command does not check is unknown: exit 2,
        one line naming it and the command's own tolerances, and no file.
        A value of 1e-300 would fail any run that read it."""
        own = FROZEN_SCHEMA[command]["tolerances"]
        cfg = write_config(tmp_path, "t.json", OWN_CONFIG[command])
        capsys.readouterr()
        assert main([command, "--config", cfg, "--set", f"tolerances.{foreign}=1e-300",
                     "--set", f"output.json={tmp_path / 'out.json'}"]) == 2
        assert capsys.readouterr().err == (f"pg-surf: config error: unknown key "
                                           f"tolerances.{foreign}; known: {', '.join(own)}\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "t.json"]

    @pytest.mark.parametrize("command,override", [
        # a misspelt key
        ("curvature", "formula=specialized"), ("mesh", "formula=pipeline-fd"),
        ("verify", "motion=20"), ("reconstruct", "theorem=3.1 tolerance.ode=1e-300"),
        ("probe", "restart=1"),
        # a key of another command
        ("curvature", "motions=3"), ("mesh", "floor=0.05"), ("verify", "formulas=specialized"),
        ("reconstruct", "theorem=3.1 budget=10"), ("probe", "family.name=thm31"),
        # a key of another theorem
        ("reconstruct", "theorem=3.1 lam=0.7"), ("reconstruct", "theorem=4.2 u0=0.5"),
        # a step off the FD route
        ("curvature", "fd_step=1e-3"), ("curvature", "formulas=pipeline fd_step=1e-3"),
        ("curvature", "formulas=specialized fd_step=1e-3"), ("mesh", "fd_step=1e-3"),
        ("mesh", "formulas=pipeline fd_step=1e-3"), ("mesh", "formulas=specialized fd_step=1e-3"),
    ])
    def test_unknown_top_level_key_exits_2(self, tmp_path, capsys, command, override):
        """A top-level key that neither the command's table nor its chosen
        theorem or route lists is unknown, as in a section: exit 2, one
        line naming it and the keys the command reads, and no file."""
        sets = override.split()
        unknown = sets[-1].split("=")[0].split(".")[0]
        theorem = dict(key.split("=") for key in sets).get("theorem")
        cfg = write_config(tmp_path, "u.json", {**OWN_CONFIG[command], "output": {
            key: str(tmp_path / f"out.{key}") for key in OUTPUTS[command]}})
        capsys.readouterr()
        assert main([command, "--config", cfg, *(arg for key in sets for arg in ("--set", key))]) == 2
        known = KNOWN[theorem if command == "reconstruct" else command]
        assert capsys.readouterr().err == (f"pg-surf: config error: unknown key {unknown}; "
                                           f"known: {known}\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "u.json"]

    def test_every_key_is_in_the_readme(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        keys = {key for table in cli.SCHEMA.values() for key in _schema_keys(table)}
        assert len(keys) > 40
        assert [key for key in sorted(keys) if f"`{key}`" not in section] == []

    @pytest.mark.parametrize("table,function", [
        (cli.FAMILIES["thm31"], fam.thm31_family), (cli.FAMILIES["thm32"], fam.thm32_family),
        (cli.FAMILIES["thm42"], fam.thm42_family), (cli.THEOREMS["3.1"], rec.reconstruct_thm31),
        (cli.THEOREMS["3.2"], rec.reconstruct_thm32), (cli.THEOREMS["4.2"], rec.reconstruct_thm42),
    ])
    def test_defaults_are_the_library_defaults(self, table, function):
        # k0 and h0 have no library default; the CLI requires them or sets its own
        params = inspect.signature(function).parameters
        assert sorted(table) == sorted(params)
        for key, row in table.items():
            if params[key].default is not inspect.Parameter.empty:
                assert row.default == params[key].default, key

    @pytest.mark.parametrize("value,kind,bound,typed", [
        (1, "_real", False, 1.0), (-2.5, "_real", False, -2.5), (1e-300, "_real", True, 1e-300),
        (60.0, "_integer", None, 60), (-3, "_integer", None, -3), (3, "_integer", (1, 3), 3),
        ([0, 1.5], "_pair", None, (0.0, 1.5)), (3.1, "_choice", ("3.1",), "3.1"),
        ("", "_path", None, ""), (False, "_flag", None, False),
    ])
    def test_kinds_type_their_values(self, value, kind, bound, typed):
        result = getattr(cli, kind)(value, bound)
        assert result == typed and type(result) is type(typed)

    @pytest.mark.parametrize("value,kind,bound", [
        (True, "_real", False), ("1", "_real", False), (10**400, "_real", False),
        (0.0, "_real", True), (math.nan, "_real", False), (True, "_integer", None),
        ("1", "_integer", None), (1.5, "_integer", None), (0, "_integer", (1, 3)),
        (4, "_integer", (1, 3)), (math.inf, "_integer", None), ([0], "_pair", None),
        ((0, 1), "_pair", None), ([0, "1"], "_pair", None), (3, "_choice", ("3",)),
        (["3.1"], "_choice", ("3.1",)), (7, "_path", None), (None, "_path", None),
        (1, "_flag", None), ("true", "_flag", None),
    ])
    def test_kinds_reject_other_values(self, value, kind, bound):
        with pytest.raises(ValueError):
            getattr(cli, kind)(value, bound)


class TestAtomicWrites:
    def _cfg(self, tmp_path, out):
        return write_config(tmp_path, "w.json", {
            "family": {"name": "saddle"},
            "grid": {"u1": [0.5, 1.5], "u2": [-0.5, 0.5], "n1": 21, "n2": 5},
            "output": out,
        })

    def test_no_temporary_files_left(self, tmp_path):
        for command in ("curvature", "mesh"):
            out = {key: str(tmp_path / f"out.{key}") for key in OUTPUTS[command]}
            assert main([command, "--config", self._cfg(tmp_path, out)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["w.json", "out.csv", "out.json", "out.obj", "out.sidecar"])

    @pytest.mark.parametrize("command,key,module,writer", [
        pytest.param(command, key, module, writer, id=f"{command}-{key}-{writer}")
        for command, key, module, writer in [
            ("curvature", "csv", cli, "_csv_lines"), ("mesh", "obj", cli, "_vertex_lines"),
            ("mesh", "obj", render, "face_lines"), ("mesh", "sidecar", cli, "_sidecar_lines")]])
    def test_failure_mid_write_keeps_old_file(self, tmp_path, monkeypatch, command, key, module,
                                              writer):
        target = tmp_path / f"out.{key}"
        target.write_text("previous\n")
        cfg = self._cfg(tmp_path, {key: str(target)})
        original = getattr(module, writer)

        def failing(*args):
            rows = original(*args)
            yield next(rows)
            raise RuntimeError("disk gone")

        monkeypatch.setattr(module, writer, failing)
        with pytest.raises(RuntimeError, match="disk gone"):
            main([command, "--config", cfg])
        assert target.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out." + key, "w.json"]

    def test_mesh_replaces_both_files_or_neither(self, tmp_path, monkeypatch):
        """A failure after the first block's vertex lines and sidecar rows
        are written keeps both previous files, and leaves no temporary."""
        out = {key: tmp_path / f"out.{key}" for key in OUTPUTS["mesh"]}
        for key, path in out.items():
            path.write_text(f"previous {key}\n")
        cfg = self._cfg(tmp_path, {key: str(path) for key, path in out.items()})
        blocks = []
        original = cli._sidecar_lines

        def failing(data, first):
            if blocks:
                raise RuntimeError("disk gone")
            blocks.append(first)
            return original(data, first)

        monkeypatch.setattr(factorable, "_BLOCK_POINTS", 5 * 4)
        monkeypatch.setattr(cli, "_sidecar_lines", failing)
        with pytest.raises(RuntimeError, match="disk gone"):
            main(["mesh", "--config", cfg])
        assert blocks == [1]
        assert {key: path.read_text() for key, path in out.items()} == {
            key: f"previous {key}\n" for key in out}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.obj", "out.sidecar", "w.json"]

    @pytest.mark.parametrize("command,foreign", [
        (command, key) for command, own in OUTPUTS.items()
        for key in ("csv", "json", "obj", "sidecar") if key not in own])
    def test_foreign_output_key_exits_2(self, tmp_path, capsys, command, foreign):
        """An output key that the command does not write is unknown: exit 2,
        one line naming it and the command's own keys, and no file."""
        own = OUTPUTS[command]
        out = {key: str(tmp_path / f"out.{key}") for key in (*own, foreign)}
        cfg = write_config(tmp_path, "f.json", {**OWN_CONFIG[command], "output": out})
        capsys.readouterr()
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err == (f"pg-surf: config error: unknown key output.{foreign}; "
                                           f"known: {', '.join(own)}\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "f.json"]

    @pytest.mark.parametrize("command,key", [
        ("curvature", "csv"), ("curvature", "json"), ("mesh", "obj"), ("mesh", "sidecar"),
    ])
    def test_unwritable_output_path_exits_2(self, tmp_path, capsys, command, key):
        missing = tmp_path / "no" / "such" / f"out.{key}"
        cfg = self._cfg(tmp_path, {key: str(missing)})
        _one_line_config_error(capsys, [command, "--config", cfg])
        assert not (tmp_path / "no").exists()

    @pytest.mark.parametrize("command", ["curvature", "mesh"])
    def test_output_to_a_device_is_written_in_place(self, tmp_path, monkeypatch, command):
        """Every output of a command may be the null device: it is written
        in place, not replaced, and serves them all."""
        def refuse(src, dst):
            raise AssertionError(f"would replace {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        cfg = self._cfg(tmp_path, {key: os.devnull for key in OUTPUTS[command]})
        assert main([command, "--config", cfg]) == 0

    @pytest.mark.parametrize("command", ["curvature", "mesh"])
    @pytest.mark.parametrize("second", ["same", "symlink"])
    def test_two_outputs_on_one_file_exit_2(self, tmp_path, capsys, command, second):
        """Two outputs naming one file, by one path not yet there or through
        a symlink to an existing file, where one would silently replace the
        other, are a config error before either is opened: nothing is
        written and the existing file keeps its bytes."""
        target = tmp_path / "o.txt"
        paths = [target, target]
        if second == "symlink":
            target.write_text("previous\n")
            paths[1] = tmp_path / "link.txt"
            paths[1].symlink_to(target)
        names = set(tmp_path.iterdir())
        cfg = self._cfg(tmp_path, {key: str(path) for key, path in zip(OUTPUTS[command], paths)})
        first, other = OUTPUTS[command]
        err = _one_line_config_error(capsys, [command, "--config", cfg])
        assert f"output.{first} and output.{other} name one file" in err
        assert set(tmp_path.iterdir()) == names | {tmp_path / "w.json"}
        if second == "symlink":
            assert target.read_text() == "previous\n"

    @pytest.mark.parametrize("command,first", [
        ("curvature", cli.CSV_HEADER + "\n"), ("mesh", "# pg-surf mesh 400x400\n")],
        ids=["curvature", "mesh"])
    def test_closed_stdout_pipe_exits_2(self, tmp_path, command, first):
        # the reader of stdout leaves after the first line: one config-error
        # line, exit 2, and no traceback from the interpreter's last flush;
        # the sidecar of `mesh`, open while its OBJ goes to stdout, is not written
        sidecar = tmp_path / "sidecar.csv"
        child = subprocess.Popen([sys.executable, "-m", "pgsurf.cli", command,
                                  "--set", "family.name=thm31", "--set", "family.k0=1",
                                  "--set", "grid.n1=400", "--set", "grid.n2=400"]
                                 + (["--set", f"output.sidecar={sidecar}"] if command == "mesh" else []),
                                 env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert child.stdout.readline() == first
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait() == 2
        assert err.startswith("pg-surf: config error: cannot write output to stdout") and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == []


class TestCommandLine:
    """`main` builds its parser once per process; no call leaves state
    for the next, and argparse's own exits read the same on every call."""

    SMALL = ["verify", "--set", "family.name=thm31", "--set", "family.k0=1",
             "--set", "grid.n1=3", "--set", "grid.n2=3"]

    def test_one_parser_per_process(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._parser.cache_clear()
        assert main(self.SMALL) == 0
        first = len(built)
        assert main(self.SMALL) == 0
        assert main(self.SMALL) == 0
        assert built.count("pg-surf") == 1 and len(built) == first == 1 + len(cli._COMMANDS)

    def test_set_default_is_never_mutated(self, capsys):
        assert main(self.SMALL + ["--set", "motions=3"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(self.SMALL) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["suites"]["motion_invariance"]["motions"] == 3
        assert second["suites"]["motion_invariance"]["motions"] == 10

    @pytest.mark.parametrize("argv,code", [(["--help"], 0), ([], 2), (["verify", "--set"], 2)])
    def test_argparse_exits_read_the_same_on_every_call(self, capsys, argv, code):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == code
            texts.append(capsys.readouterr())
        assert texts[0] == texts[1]
        shown, silent = (texts[0].out, texts[0].err) if code == 0 else (texts[0].err, texts[0].out)
        assert shown.startswith("usage: pg-surf") and silent == ""
