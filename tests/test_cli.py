import json
import math
import os
import warnings

import numpy as np
import pytest

from pgsurf.cli import MAX_GRID_POINTS, _build_grid, main
from pgsurf.core import Motion
from pgsurf.factorable import GridSpec, default_grid
from pgsurf.families import family_surface
from pgsurf.surface import Jet2, gaussian_curvature, mean_curvature


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

    def test_all_lightlike_grid_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, "ee.json", {
            "family": {"name": "exp_exp"},
            "grid": {"n1": 4, "n2": 4},
            "output": {"csv": str(tmp_path / "ee.csv"), "json": str(tmp_path / "ee.json.out")},
        })
        assert main(["curvature", "--config", cfg]) == 3

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


def _moved_jet(m, jet):
    """Reference for the batched suite: one motion on one jet, in the
    per-jet `Jet2` arithmetic, translation included."""
    ch, sh = math.cosh(m.theta), math.sinh(m.theta)

    def lin(v):
        return np.array([v[0], m.a3 * v[0] + ch * v[1] + sh * v[2],
                         m.a5 * v[0] + sh * v[1] + ch * v[2]])

    return Jet2(lin(jet.r) + np.array([m.a1, m.a2, m.a4]),
                lin(jet.r1), lin(jet.r2), lin(jet.r11), lin(jet.r12), lin(jet.r22))


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

    def test_one_closed_sweep_per_invocation(self, tmp_path, monkeypatch):
        import pgsurf.cli as cli
        import pgsurf.factorable as factorable

        calls = []
        original = factorable.specialized_grid

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # both names a caller can look it up by
        monkeypatch.setattr(cli, "specialized_grid", counted)
        monkeypatch.setattr(factorable, "specialized_grid", counted)
        for name, param in (("thm31", "k0=1"), ("thm32", "h0=0.5"), ("thm42", "h0=0.5")):
            calls.clear()
            assert main(["verify", "--set", f"family.name={name}", "--set", f"family.{param}",
                         "--set", "grid.n1=8", "--set", "grid.n2=8",
                         "--set", f"output.json={tmp_path / 'v.json'}"]) == 0
            assert len(calls) == 1, name

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
            rng = np.random.default_rng(seed)
            motions = [Motion(*(float(v) for v in rng.uniform(-1.0, 1.0, size=6)))
                       for _ in range(count)]
            worst = 0.0
            for u1 in a1[:: max(1, n // 6)]:
                for u2 in a2[:: max(1, n // 6)]:
                    jet = surface.jet(float(u1), float(u2))
                    k_ref, h_ref = gaussian_curvature(jet), mean_curvature(jet)
                    for m in motions:
                        moved = _moved_jet(m, jet)
                        worst = max(worst, abs(gaussian_curvature(moved) - k_ref),
                                    abs(mean_curvature(moved) - h_ref))
            assert suite["motions"] == count
            assert float(suite["max_difference"]).hex() == worst.hex(), (family, n, count, seed)

    # the thm42 grid whose closed and pipeline sweeps overflow: every suite
    # fails, the motion suite on NaN
    OVERFLOW = ["family.name=thm42", "family.h0=0.5", "family.lam1=1e-13", "family.lam2=8",
                "grid.u2=[-40,40]"]

    @pytest.mark.parametrize("per_call", [1, 7])
    @pytest.mark.parametrize("family,code", [
        (["family.name=thm31", "family.k0=0.7", "family.lam1=-0.8", "grid.n1=30", "grid.n2=30",
          "motions=20", "seed=4"], 0),
        (OVERFLOW, 1),
    ])
    def test_motion_blocks_give_the_same_report(self, tmp_path, monkeypatch, per_call, family, code):
        import pgsurf.cli as cli

        argv = ["verify", *(a for kv in family for a in ("--set", kv)),
                "--set", f"output.json={tmp_path / 'v.json'}"]
        assert main(argv) == code
        expect = (tmp_path / "v.json").read_bytes()
        monkeypatch.setattr(cli, "_MOTIONS_PER_CALL", per_call)
        assert main(argv) == code
        assert (tmp_path / "v.json").read_bytes() == expect

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
        assert report["failed"] == ["constancy", "cross_check", "motion_invariance"]
        suites = report["suites"]
        assert suites["constancy"]["mean"] is None and suites["constancy"]["max_deviation"] is None
        assert suites["cross_check"]["max_discrepancy"] == 4.922031686923022e+19
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

    @pytest.mark.parametrize("family,message", [
        (["family.name=thm31", "family.k0=1", "grid.u1=[-1,21]"],
         "W = 0.000e+00 below tolerance 1.0e-10; curvature undefined"),
        (["family.name=thm42", "family.h0=0.5", "family.lam1=3e-4", "family.lam2=-0.3",
          "grid.u2=[-40,40]"], "W = 2.159e-11 below tolerance 1.0e-10; curvature undefined"),
        (["family.name=thm42", "family.h0=0.5", "family.lam2=-20"],
         "both x-partials vanish; patch is pseudo-Euclidean"),
    ])
    def test_masked_sample_point_raises_the_scalar_error(self, tmp_path, capsys, family, message):
        # the error of the scalar API at the first masked node in u1-major order
        out = tmp_path / "v.json"
        capsys.readouterr()
        assert main(["verify", *(a for kv in family for a in ("--set", kv)),
                     "--set", f"output.json={out}"]) == 1
        assert capsys.readouterr().err == f"pg-surf: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        "motions=-3", "motions=0", "motions=abc", "motions=[2]", "seed=abc", "seed=[1]",
        "perturb.exponent_scale=abc",
        "tolerances=5", "tolerances=[]", "tolerances=null", "tolerances.constancy=true",
        "tolerances.cross_check=false", "tolerances.bogus=1e-3", "tolerances.motion=-1",
        "tolerances.motion=0", "tolerances.constancy=NaN", "tolerances.constancy=Infinity",
        "tolerances.constancy=abc",
        "perturb=5", "perturb=[]", "family=5", "output=5", "output=null",
        "motions=10001", "motions=100000000",
        "output.json=7", "output.json=[1]", "output.json=true", "output.json=null",
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

    def test_branch_violation_exits_4(self, tmp_path):
        cfg = write_config(tmp_path, "rb.json", {
            "theorem": "3.2", "causal": "spacelike", "u0": 1.5,
            "output": {"json": str(tmp_path / "rb.json.out")},
        })
        assert main(["reconstruct", "--config", cfg]) == 4

    def test_unknown_theorem(self, tmp_path):
        cfg = write_config(tmp_path, "ru.json", {"theorem": "5.1"})
        assert main(["reconstruct", "--config", cfg]) == 2

    def test_thm42_relative_metric(self, tmp_path):
        cfg = write_config(tmp_path, "r42.json", {
            "theorem": "4.2",
            "output": {"json": str(tmp_path / "r42.json.out")},
        })
        assert main(["reconstruct", "--config", cfg]) == 0

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
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, theorem, override):
        out = tmp_path / "out.json"
        _one_line_config_error(capsys, ["reconstruct", "--set", f"theorem={theorem}",
                                        "--set", f"output.json={out}", "--set", override])
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

    @pytest.mark.parametrize("override", [
        "grid.n1=abc", "grid.n2=[3]", "grid.u1=[0]", "grid.u2=abc", "grid.u1=[null,1]", "grid=7",
        "k0=abc", "restarts=abc", "floor=abc", "budget=abc", "seed=[1]", "degree_f=abc",
        "restarts=20", "exponential=nope", "exponential=1", "exponential=null",
        "output=5", "budget=0", "budget=-5", 'grid={"n1": 2000, "n2": 2001}',
        "output.json=7", "output.json=[1]", "output.json=true",
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, "pm.json", {"k0": 1.0, "budget": 10,
                                                 "output": {"json": str(tmp_path / "out.json")}})
        _one_line_config_error(capsys, ["probe", "--config", cfg, "--set", override])
        assert not (tmp_path / "out.json").exists()

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

    def test_empty_admissible_grid_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, "me.json", {
            "family": {"name": "exp_exp"},
            "grid": {"n1": 4, "n2": 4},
            "output": {"obj": str(tmp_path / "me.obj")},
        })
        assert main(["mesh", "--config", cfg]) == 3

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


class TestConfigValidation:
    @pytest.mark.parametrize("command", ["curvature", "mesh"])
    @pytest.mark.parametrize("override", [
        "formulas=bogus", "formulas=[1]",
        "fd_step=-1", "fd_step=0", "fd_step=NaN", "fd_step=Infinity", "fd_step=abc", "fd_step=[]",
    ])
    def test_route_and_fd_step(self, tmp_path, capsys, command, override):
        cfg = write_config(tmp_path, "r.json", {
            "family": {"name": "thm31", "k0": 1.0}, "grid": {"n1": 4, "n2": 4},
            "output": {key: str(tmp_path / f"out.{key}") for key in ("csv", "json", "obj", "sidecar")},
        })
        _one_line_config_error(capsys, [command, "--config", cfg, "--set", override])
        assert list(tmp_path.iterdir()) == [tmp_path / "r.json"]

    @pytest.mark.parametrize("command", ["curvature", "mesh", "verify"])
    @pytest.mark.parametrize("override", [
        "grid.n1=abc", "grid.n2=[3]", "grid.n1=Infinity", "grid.u1=[0]", "grid.u2=[0,1,2]",
        "grid.u1=abc", "grid.u2=[0,\"x\"]", "grid.u1=[null,1]", "grid=7", "grid=null",
        'grid={"n1": 100000, "n2": 100000}', 'grid={"n1": 2000, "n2": 2001}',
    ])
    def test_malformed_grid_keys(self, tmp_path, capsys, command, override):
        cfg = write_config(tmp_path, "g.json", {"family": {"name": "thm31", "k0": 1.0}})
        _one_line_config_error(capsys, [command, "--config", cfg, "--set", override])

    @pytest.mark.parametrize("command", ["curvature", "mesh"])
    @pytest.mark.parametrize("override", [
        "output=5", "output=[]", "family=5", "family=null",
        "output.csv=7", "output.json=[1]", "output.obj=true", "output.sidecar=null",
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, command, override):
        cfg = write_config(tmp_path, "c.json", {"family": {"name": "thm31", "k0": 1.0},
                                                "grid": {"n1": 4, "n2": 4}})
        _one_line_config_error(capsys, [command, "--config", cfg, "--set", override])
        assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]

    def test_grid_cap_is_inclusive(self):
        grid = _build_grid({"grid": {"n1": 2000, "n2": 2000}}, GridSpec((0, 1), (0, 1)))
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


class TestAtomicWrites:
    def _cfg(self, tmp_path, out):
        return write_config(tmp_path, "w.json", {
            "family": {"name": "saddle"},
            "grid": {"u1": [0.5, 1.5], "u2": [-0.5, 0.5], "n1": 21, "n2": 5},
            "output": out,
        })

    def test_no_temporary_files_left(self, tmp_path):
        out = {key: str(tmp_path / f"out.{key}") for key in ("csv", "json", "obj", "sidecar")}
        cfg = self._cfg(tmp_path, out)
        assert main(["curvature", "--config", cfg]) == 0
        assert main(["mesh", "--config", cfg]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["w.json", "out.csv", "out.json", "out.obj", "out.sidecar"])

    @pytest.mark.parametrize("command,key,writer", [
        ("curvature", "csv", "_csv_rows"),
        ("mesh", "obj", "_obj_lines"),
        ("mesh", "sidecar", "_sidecar_rows"),
    ])
    def test_failure_mid_write_keeps_old_file(self, tmp_path, monkeypatch, command, key, writer):
        import pgsurf.cli as cli

        target = tmp_path / f"out.{key}"
        target.write_text("previous\n")
        cfg = self._cfg(tmp_path, {key: str(target)})
        original = getattr(cli, writer)

        def failing(*args):
            rows = original(*args)
            yield next(rows)
            raise RuntimeError("disk gone")

        monkeypatch.setattr(cli, writer, failing)
        with pytest.raises(RuntimeError, match="disk gone"):
            main([command, "--config", cfg])
        assert target.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out." + key, "w.json"]

    @pytest.mark.parametrize("command,key", [
        ("curvature", "csv"), ("curvature", "json"), ("mesh", "obj"), ("mesh", "sidecar"),
    ])
    def test_unwritable_output_path_exits_2(self, tmp_path, capsys, command, key):
        missing = tmp_path / "no" / "such" / f"out.{key}"
        cfg = self._cfg(tmp_path, {key: str(missing)})
        _one_line_config_error(capsys, [command, "--config", cfg])
        assert not (tmp_path / "no").exists()

    def test_output_to_a_device_is_written_in_place(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise AssertionError(f"would replace {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        cfg = self._cfg(tmp_path, {"csv": os.devnull, "json": os.devnull})
        assert main(["curvature", "--config", cfg]) == 0
