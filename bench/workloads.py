"""Seeded input generator for the pg-surf benchmark.

A workload is an endless stream of *rounds*.  A round is a fixed list of
invocation classes (command, family, grid size or budget); the seed picks
the numeric family parameters, the output of `random` draws inside the
program (`seed` keys) and the order of the invocations in the round.
Sizes rotate over the families from round to round, so every round has
the same size mix whatever the seed: medians over whole rounds then
compare runs of different seeds.

The program receives only the generated argv.  The same seed and output
directory give the same argv lists.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("export", "verify", "solve")

# Each invocation belongs to one of two classes per workload; `run.py`
# reports the median of each class as `primary.p50_s` / `secondary.p50_s`.
CLASS_NAMES = {
    "export": ("curvature", "mesh"),
    "verify": ("verify.large", "verify.motions"),
    "solve": ("reconstruct", "probe"),
}
# Reference kernel (see `speed.py`) whose speed tracks each class: the
# large verify grids are numpy-bound, the rest spend their time in the
# interpreter.
CLASS_REFERENCE = {
    "curvature": "python",
    "mesh": "python",
    "verify.large": "numpy",
    "verify.motions": "python",
    "reconstruct": "python",
    "probe": "python",
}

# Size mixes are weighted to their middle value, where each median falls:
# most invocations of a class then inform its median.  In `export` the
# 75th percentile falls in the middle of the 150x150 `mesh` calls.
EXPORT_SIZES = (100, 100, 150, 150, 200)
EXPORT_SADDLE_SIZE = 150
EXPORT_ROUTES = ("pipeline", "pipeline-fd", "specialized")
EXPORT_SURFACES = ("thm31", "thm32/timelike", "thm32/spacelike",
                   "thm42/timelike", "thm42/spacelike", "saddle")

VERIFY_FAMILIES = ("thm31", "thm32/timelike", "thm32/spacelike",
                   "thm42/timelike", "thm42/spacelike")
VERIFY_LARGE_SIZES = (600, 800, 800, 800, 1000)
VERIFY_LARGE_MOTIONS = 10
VERIFY_SMALL_SIZE = 30
VERIFY_SMALL_MOTIONS = (60, 130, 130, 130, 200)

RECONSTRUCT_THEOREMS = ("3.1", "3.2/spacelike", "3.2/timelike", "4.2")
RECONSTRUCT_H = 1e-4
PROBE_BUDGETS = (3000, 3000, 3000, 10000)
# With 6 restarts a budget of 10000 often converges early, after a
# seed-dependent number of evaluations.  At 500 evaluations per restart
# every restart spends its share, so the work follows the budget.
PROBE_EVALS_PER_RESTART = 500

# Reduced sizes for the benchmark's own tests (`tiny=True`).
TINY = {"grid": 12, "saddle": 11, "motions": 3, "h": 1e-3, "budget": 200}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv, its class and what its outputs must show."""

    command: str
    cls: str
    argv: tuple
    outputs: dict
    expect: dict = field(default_factory=dict)


def _magnitude(rng: random.Random, lo: float, hi: float) -> float:
    """Random sign times a log-uniform magnitude in [lo, hi]."""
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * math.exp(rng.uniform(math.log(lo), math.log(hi)))


def family_params(rng: random.Random, surface: str) -> dict:
    """Constructor parameters for a family label such as 'thm32/spacelike'.

    Ranges: |k0| in [0.25, 4]; |h0| in [0.25, 2] (thm32) or [0.5, 1.5]
    (thm42); shifts in [-1, 1] (thm42: lam3 in [-0.5, 0.5]); scales of
    magnitude [0.5, 2] (thm42: lam1 in [0.5, 1.5]).  thm42 takes lam2 of
    magnitude [0.5, 1] with the sign of h0: with opposite signs the CLI's
    motion-invariance suite misses its absolute 1e-8 tolerance (7e-8 at
    h0=-0.75, lam1=lam2=1, lam3=0, spacelike).
    """
    name, _, causal = surface.partition("/")
    if name == "thm31":
        return {"name": name, "k0": _magnitude(rng, 0.25, 4.0),
                "lam1": rng.uniform(-1, 1), "lam2": rng.uniform(-1, 1),
                "sign": rng.choice((1, -1))}
    if name == "thm32":
        return {"name": name, "h0": _magnitude(rng, 0.25, 2.0),
                "lam1": rng.uniform(-1, 1), "lam2": rng.uniform(-1, 1),
                "f0": _magnitude(rng, 0.5, 2.0), "causal": causal}
    if name == "thm42":
        h0 = _magnitude(rng, 0.5, 1.5)
        return {"name": name, "h0": h0, "lam1": _magnitude(rng, 0.5, 1.5),
                "lam2": math.copysign(abs(_magnitude(rng, 0.5, 1.0)), h0),
                "lam3": rng.uniform(-0.5, 0.5), "causal": causal}
    return {"name": name}


def _sets(pairs: dict) -> list:
    """`--set key=value` arguments; values are JSON literals or bare strings."""
    argv = []
    for key, value in pairs.items():
        if isinstance(value, str):
            text = value
        elif isinstance(value, float):
            text = repr(value)
        elif isinstance(value, (list, tuple)):
            text = "[" + ",".join(repr(float(v)) for v in value) + "]"
        else:
            text = str(value)
        argv += ["--set", f"{key}={text}"]
    return argv


def _family_sets(params: dict) -> dict:
    return {f"family.{k}": v for k, v in params.items()}


def _expected(params: dict) -> dict:
    """Family constant the curvature outputs must show, by magnitude."""
    if params["name"] == "thm31":
        return {"field": "K", "value": abs(params["k0"])}
    if params["name"] in ("thm32", "thm42"):
        return {"field": "H", "value": abs(params["h0"])}
    return {}


def _outputs(outdir: str, command: str) -> dict:
    names = {"curvature": ("csv", "json"), "mesh": ("obj", "sidecar"),
             "verify": ("json",), "reconstruct": ("json",), "probe": ("json",)}[command]
    ext = {"csv": "csv", "json": "json", "obj": "obj", "sidecar": "csv"}
    return {n: os.path.join(outdir, f"{command}.{n}.{ext[n]}") for n in names}


def _invocation(command: str, cls: str, config: dict, outdir: str, expect: dict) -> Invocation:
    outputs = _outputs(outdir, command)
    argv = [command] + _sets(config) + _sets({f"output.{k}": v for k, v in outputs.items()})
    return Invocation(command, cls, tuple(argv), outputs, expect)


def _grid_sweep(command: str, surface: str, params: dict, n: int, route: str,
                rng: random.Random, outdir: str, tiny: bool) -> Invocation:
    config = {**_family_sets(params), "formulas": route}
    if surface == "saddle":
        # The saddle z = x*y is lightlike on x = 1; an odd count on
        # [0.5, 1.5] puts one grid column on that line.
        n = EXPORT_SADDLE_SIZE
        n1 = TINY["saddle"] if tiny else n + 1
        centre = round(rng.uniform(-1, 1), 3)
        config.update({"grid.u1": (0.5, 1.5), "grid.u2": (centre - 0.5, centre + 0.5),
                       "grid.n1": n1, "grid.n2": TINY["grid"] if tiny else n})
        n1, n2 = config["grid.n1"], config["grid.n2"]
    else:
        n1 = n2 = TINY["grid"] if tiny else n
        config.update({"grid.n1": n1, "grid.n2": n2})
    expect = {"n1": n1, "n2": n2, "route": route, "saddle": surface == "saddle",
              **_expected(params)}
    return _invocation(command, command, config, outdir, expect)


def export_round(rng: random.Random, r: int, outdir: str, tiny: bool = False) -> list:
    """Six `curvature` and six `mesh` calls, alternating.  Sizes and routes
    rotate over the families with the round index `r`; the saddle always
    takes the middle size, so each command's median falls on that size."""
    k = len(EXPORT_SIZES)
    curv, mesh = [], []
    for i, surface in enumerate(EXPORT_SURFACES):
        params = family_params(rng, surface)
        curv.append(_grid_sweep("curvature", surface, params, EXPORT_SIZES[(i + r) % k],
                                EXPORT_ROUTES[(i + r) % 3], rng, outdir, tiny))
        mesh.append(_grid_sweep("mesh", surface, params, EXPORT_SIZES[(i + r + 2) % k],
                                EXPORT_ROUTES[(i + r + 1) % 3], rng, outdir, tiny))
    rng.shuffle(curv)
    rng.shuffle(mesh)
    return [inv for pair in zip(curv, mesh) for inv in pair]


def verify_round(rng: random.Random, r: int, outdir: str, tiny: bool = False) -> list:
    """Five large-grid and five many-motion `verify` calls, alternating."""
    k = len(VERIFY_FAMILIES)
    large, small = [], []
    for i, surface in enumerate(VERIFY_FAMILIES):
        for cls, n, motions in (
            ("verify.large", VERIFY_LARGE_SIZES[(i + r) % k], VERIFY_LARGE_MOTIONS),
            ("verify.motions", VERIFY_SMALL_SIZE, VERIFY_SMALL_MOTIONS[(i + 2 * r) % k]),
        ):
            if tiny:
                n, motions = TINY["grid"], TINY["motions"]
            config = {**_family_sets(family_params(rng, surface)), "grid.n1": n,
                      "grid.n2": n, "motions": motions, "seed": rng.randrange(2 ** 31)}
            inv = _invocation("verify", cls, config, outdir, {})
            (large if cls == "verify.large" else small).append(inv)
    rng.shuffle(large)
    rng.shuffle(small)
    return [inv for pair in zip(large, small) for inv in pair]


def _reconstruct_config(rng: random.Random, label: str) -> dict:
    theorem, _, causal = label.partition("/")
    if theorem == "3.1":
        return {"theorem": theorem, "k0": _magnitude(rng, 0.25, 4.0),
                "g0": _magnitude(rng, 0.5, 2.0), "lam1": rng.uniform(-1, 1),
                "sign": rng.choice((1, -1)), "span": (0.0, 2.0)}
    if theorem == "3.2" and causal == "spacelike":
        return {"theorem": theorem, "causal": causal, "h0": _magnitude(rng, 0.25, 1.0),
                "f0": _magnitude(rng, 0.5, 2.0), "lam": rng.uniform(-1, 1),
                "y0": 0.0, "length": 1.0}
    if theorem == "3.2":
        # The corridor must keep |2 h0 y + lam| > 1 on [0, 1].
        return {"theorem": theorem, "causal": causal, "h0": rng.uniform(0.25, 1.0),
                "f0": _magnitude(rng, 0.5, 2.0), "lam": rng.uniform(1.2, 2.0),
                "y0": 0.0, "length": 1.0}
    # 4.2 on [1.2, 2.0] with lam2 = 0 needs |h0| > 1/2.4.
    return {"theorem": theorem, "h0": _magnitude(rng, 0.5, 1.5),
            "lam1": _magnitude(rng, 0.5, 2.0), "lam2": 0.0, "z0": 1.2, "length": 0.8}


def solve_round(rng: random.Random, r: int, outdir: str, tiny: bool = False) -> list:
    """Four `reconstruct` calls (theorems 3.1, 3.2 both branches and 4.2)
    at h = 1e-4 and four `probe` calls with seeded nonzero k0, one per
    budget, in seeded order."""
    h = TINY["h"] if tiny else RECONSTRUCT_H
    calls = []
    for label in RECONSTRUCT_THEOREMS:
        config = {**_reconstruct_config(rng, label), "h": h}
        if "span" in config:
            span = config["span"][1] - config["span"][0]
        else:
            span = config["length"]
        calls.append(_invocation("reconstruct", "reconstruct", config, outdir,
                                 {"steps": max(1, round(span / h))}))
    for budget in PROBE_BUDGETS:
        budget = TINY["budget"] if tiny else budget
        config = {"k0": _magnitude(rng, 0.3, 2.0), "budget": budget,
                  "restarts": max(1, budget // PROBE_EVALS_PER_RESTART),
                  "seed": rng.randrange(2 ** 31)}
        calls.append(_invocation("probe", "probe", config, outdir, {"budget": budget}))
    rng.shuffle(calls)
    return calls


_ROUNDS = {"export": export_round, "verify": verify_round, "solve": solve_round}


def rounds(workload: str, seed: int, outdir: str, tiny: bool = False):
    """Endless iterator of rounds for one workload; deterministic per seed."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    make = _ROUNDS[workload]
    r = 0
    while True:
        yield make(rng, r, outdir, tiny)
        r += 1
