"""Tests of the benchmark itself: `python3 -m pytest bench`."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pgsurf import cli  # noqa: E402


def first_rounds(workload, seed, outdir, count=2, tiny=False):
    stream = workloads.rounds(workload, seed, str(outdir), tiny=tiny)
    return [next(stream) for _ in range(count)]


def argv_lists(rounds):
    return [inv.argv for batch in rounds for inv in batch]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    a = argv_lists(first_rounds(workload, 7, tmp_path, count=3))
    b = argv_lists(first_rounds(workload, 7, tmp_path, count=3))
    c = argv_lists(first_rounds(workload, 8, tmp_path, count=3))
    assert a == b
    assert a != c


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_mix_does_not_depend_on_seed(tmp_path, workload):
    shape = ("grid.n1", "grid.n2", "motions", "budget", "formulas", "theorem",
             "family.name", "family.causal")

    def mix(seed):
        keys = []
        for batch in first_rounds(workload, seed, tmp_path, count=3):
            keys.append(sorted(
                (inv.cls,) + tuple(arg for arg in inv.argv if arg.split("=")[0] in shape)
                for inv in batch))
        return keys

    assert mix(1) == mix(2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_invocations_pass_their_checks(tmp_path, workload, seed):
    client = run.Client(cli)
    client.run_rounds(workloads.rounds(workload, seed, str(tmp_path), tiny=True), 1)
    assert client.samples
    assert client.failures == []


def _run_one(tmp_path, command, surface="thm31", route="pipeline"):
    import random

    rng = random.Random(0)
    params = workloads.family_params(rng, surface)
    inv = workloads._grid_sweep(command, surface, params, 10, route, rng, str(tmp_path), True)
    code = cli.main(list(inv.argv))
    assert checks.check(inv, code) == []
    return inv, code


def test_truncated_csv_is_a_failure(tmp_path):
    inv, code = _run_one(tmp_path, "curvature")
    path = inv.outputs["csv"]
    lines = Path(path).read_text().splitlines(keepends=True)
    Path(path).write_text("".join(lines[:-1]))
    assert checks.check(inv, code)


def test_dropped_obj_face_is_a_failure(tmp_path):
    inv, code = _run_one(tmp_path, "mesh")
    path = Path(inv.outputs["obj"])
    lines = path.read_text().splitlines(keepends=True)
    last_face = max(i for i, line in enumerate(lines) if line.startswith("f "))
    path.write_text("".join(lines[:last_face] + lines[last_face + 1:]))
    assert checks.check(inv, code)


def test_wrong_k_is_a_failure(tmp_path):
    inv, code = _run_one(tmp_path, "curvature")
    path = Path(inv.outputs["csv"])
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[5].split(",")
    cells[5] = repr(float(cells[5]) * (1.0 + 1e-6))
    lines[5] = ",".join(cells)
    path.write_text("".join(lines))
    assert checks.check(inv, code)


def test_fd_tolerance_grows_near_the_lightlike_limit():
    expect = {"field": "K", "value": 2.0, "route": "pipeline-fd"}
    # W = 1: 1e-4 relative to max(1, |K|) = 2
    assert not checks._deviation(-2.0 - 1.5e-4, 1.0, expect)
    assert checks._deviation(-2.0 - 2.5e-4, 1.0, expect)
    # W = 0.05: 1.5e-6 / W^2 = 6e-4 relative
    assert not checks._deviation(-2.0 - 1e-3, 0.05, expect)
    assert checks._deviation(-2.0 - 1.3e-3, 0.05, expect)
    # analytic routes keep the CLI's 1e-7 whatever W is
    assert checks._deviation(-2.0 - 1e-6, 0.05, {**expect, "route": "pipeline"})


def test_unexpected_exit_code_is_a_failure(tmp_path):
    inv, _ = _run_one(tmp_path, "curvature")
    assert checks.check(inv, 3)


def test_self_times_on_a_synthetic_span_tree():
    # main [0, 10] > a [1, 4] > b [2, 3];  main > c [5, 9]
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("factorable.a", 1.0, 4.0, 0, 0),
        ("families.b", 2.0, 3.0, 1, 0),
        ("surface.c", 5.0, 9.0, 0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    rows = tracing.summarize(spans, [None, {"points": 4}, None, {"points": 4}])
    assert rows["cli.main"]["s"] == 10.0 and rows["cli.main"]["self_s"] == 3.0
    assert rows["factorable.a"]["points"] == 4
    assert tracing.points_swept(spans, [None, {"points": 4}, None, {"points": 9}]) == 9


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    targets = tracing.default_targets()
    before = [(owner, t.attr, owner.__dict__[t.attr]) for t in targets for owner in t.modules]
    tracer = tracing.Tracer(targets)
    client = run.Client(cli, tracer)
    with tracer:
        assert cli.main is not before[0][2]
        for workload in workloads.WORKLOADS:
            client.run_rounds(workloads.rounds(workload, 0, str(tmp_path), tiny=True), 1)
    assert client.failures == []
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "factorable.pipeline_grid", "factorable.specialized_grid",
            "factorable.cross_check", "factorable.jet_component_arrays.analytic",
            "factorable.jet_component_arrays.fd", "surface.curvature_arrays",
            "surface.scalar", "families.evaluator", "reconstruct.integrate",
            "reconstruct.probe"} <= names
    assert all(span[2] >= span[1] for span in tracer.spans)


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "export", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
