"""Benchmark of the pg-surf CLI: one closed-loop client, in one process.

    python3 bench/run.py --workload export|verify|solve --seed N \
        --seconds S --trace 0|1

The benchmark calls `pgsurf.cli.main(argv)` one invocation after another
with argv lists generated from the seed (see `workloads.py`) and checks
every invocation's outputs (see `checks.py`).  A run measures a fixed
number of whole rounds, sized from `--seconds` by `ROUND_SECONDS`, so
that every run of a workload times the same invocation mix.  Times are
reported at the nominal speed of a reference kernel (see `speed.py`).

With `--trace 0` it reports the end-to-end metrics.  With `--trace 1` it
runs the same rounds untraced and then traced, and reports per-layer
metrics (see `tracing.py`) from the traced pass; their counts repeat
exactly for a seed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Human-readable lines
above it name every metric with its unit.

The program is imported from `src/` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
# Typical wall seconds per round on the 2-core machine that defined the
# benchmark; `--seconds` is turned into a round count with them.
ROUND_SECONDS = {"export": 2.6, "verify": 3.3, "solve": 4.0}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

END_TO_END = {
    "primary.p50_s": "s",
    "secondary.p50_s": "s",
    "latency_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.self_s": "s",
    "cli.self_share": "ratio",
    "cli.us_per_row": "us",
    "cli.bytes_out": "bytes",
    "factorable.self_s": "s",
    "factorable.self_share": "ratio",
    "factorable.jet_component_arrays.analytic_s": "s",
    "factorable.jet_component_arrays.fd_s": "s",
    "factorable.pipeline_grid.self_s": "s",
    "factorable.specialized_grid.s": "s",
    "factorable.specialized_grid.calls": "count",
    "factorable.cross_check.self_s": "s",
    "factorable.points": "count",
    "factorable.included_ratio": "ratio",
    "surface.self_s": "s",
    "surface.self_share": "ratio",
    "surface.curvature_arrays.s": "s",
    "surface.curvature_arrays.points_per_s": "1/s",
    "surface.scalar.calls": "count",
    "surface.scalar.us_per_call": "us",
    "families.self_s": "s",
    "families.self_share": "ratio",
    "families.evaluator.calls": "count",
    "families.evaluator.s": "s",
    "families.evaluator.elements_per_point": "ratio",
    "reconstruct.self_s": "s",
    "reconstruct.self_share": "ratio",
    "reconstruct.integrate.steps": "count",
    "reconstruct.integrate.s": "s",
    "reconstruct.integrate.steps_per_s": "1/s",
    "reconstruct.probe.evaluations": "count",
    "reconstruct.probe.s": "s",
    "reconstruct.probe.us_per_candidate": "us",
    "trace.overhead_ratio": "ratio",
}

LAYERS = ("cli", "factorable", "surface", "families", "reconstruct")


# ---------------------------------------------------------------------------
# Running invocations
# ---------------------------------------------------------------------------

class Client:
    """Closed-loop client: one invocation at a time, each one checked."""

    def __init__(self, cli_module, tracer=None):
        self.cli = cli_module
        self.tracer = tracer
        self.samples = []     # (cls, command, seconds at reference speed, wall seconds)
        self.failures = []    # (argv, problems)
        self.lines_out = 0
        self.bytes_out = 0

    def call(self, inv) -> tuple:
        """Run one invocation; returns (seconds at reference speed, wall seconds)."""
        for path in inv.outputs.values():
            if os.path.exists(path):
                os.remove(path)
        if self.tracer is not None:
            self.tracer.invocation = len(self.samples)
        kind = workloads.CLASS_REFERENCE[inv.cls]
        before = speed.slowdown(kind)
        start = time.perf_counter()
        try:
            code, error = self.cli.main(list(inv.argv)), None
        except Exception as exc:  # an uncaught error is a failed invocation
            code, error = None, exc
        elapsed = time.perf_counter() - start
        factor = (before + speed.slowdown(kind)) / 2.0
        if error is not None:
            problems = [f"uncaught {type(error).__name__}: {error}"]
        else:
            problems = checks.check(inv, code)
        if problems:
            self.failures.append((inv.argv, problems))
        for path in inv.outputs.values():
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
                self.bytes_out += len(data)
                self.lines_out += data.count(b"\n")
        return elapsed / factor, elapsed

    def run_rounds(self, stream, count: int) -> None:
        for _, batch in zip(range(count), stream):
            for inv in batch:
                self.samples.append((inv.cls, inv.command, *self.call(inv)))

    def ops_per_s(self) -> float:
        return len(self.samples) / sum(sample[2] for sample in self.samples)

    def warm_up(self, workload: str, seed: int, outdir: str) -> None:
        """One untimed invocation per command before timing; checked, not
        counted.  Its inputs come from another seed than the timed ones."""
        batch = next(workloads.rounds(workload, seed + 1_000_003, outdir))
        seen = set()
        for inv in batch:
            if inv.command not in seen:
                seen.add(inv.command)
                self.call(inv)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(values: list) -> tuple:
    """Highest ladder percentile with at least ten samples beyond it."""
    n = len(values)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            return pct, statistics.quantiles(values, n=1000, method="inclusive")[int(pct * 10) - 1]
    return 50.0, statistics.median(values)


def end_to_end(workload: str, samples: list, setup_s: float) -> tuple:
    """The `BENCHMARK.json` metrics, plus medians by command name (at
    reference speed and as wall time) for the human-readable report."""
    primary, secondary = workloads.CLASS_NAMES[workload]
    times = [sample[2] for sample in samples]
    pct, tail_s = tail(times)
    metrics = {
        "primary.p50_s": statistics.median([t for c, _, t, _ in samples if c == primary]),
        "secondary.p50_s": statistics.median([t for c, _, t, _ in samples if c == secondary]),
        "latency_tail_s": tail_s,
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    groups: dict = {}
    for cls, command, seconds, wall in samples:
        for name in {command, cls}:
            groups.setdefault(name, []).append((seconds, wall))
    named = {}
    for name, values in sorted(groups.items()):
        named[f"{name}.p50_s"] = statistics.median(v[0] for v in values)
        named[f"{name}.wall_p50_s"] = statistics.median(v[1] for v in values)
    return metrics, named, pct


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, client, untraced_ops: float) -> tuple:
    spans, info = tracer.spans, tracer.info
    rows = tracing.summarize(spans, info)

    def get(name, key):
        return rows.get(name, {}).get(key, 0.0)

    main_s = get("cli.main", "s")
    layer_self = {layer: sum(r["self_s"] for n, r in rows.items() if n.split(".")[0] == layer)
                  for layer in LAYERS}
    points = tracing.points_swept(spans, info)
    attempted = get("factorable.pipeline_grid", "points") + get("factorable.specialized_grid", "points")
    useful = get("factorable.pipeline_grid", "included") + get("factorable.specialized_grid", "included")
    scalar_calls = get("surface.scalar", "calls")
    evaluations = get("reconstruct.probe", "evaluations")
    metrics = {
        "cli.self_s": layer_self["cli"],
        "cli.self_share": _ratio(layer_self["cli"], main_s),
        "cli.us_per_row": _ratio(layer_self["cli"] * 1e6, client.lines_out),
        "cli.bytes_out": client.bytes_out,
        "factorable.jet_component_arrays.analytic_s": get("factorable.jet_component_arrays.analytic", "s"),
        "factorable.jet_component_arrays.fd_s": get("factorable.jet_component_arrays.fd", "s"),
        "factorable.pipeline_grid.self_s": get("factorable.pipeline_grid", "self_s"),
        "factorable.specialized_grid.s": get("factorable.specialized_grid", "s"),
        "factorable.specialized_grid.calls": get("factorable.specialized_grid", "calls"),
        "factorable.cross_check.self_s": get("factorable.cross_check", "self_s"),
        "factorable.points": points,
        "factorable.included_ratio": _ratio(useful, attempted),
        "surface.curvature_arrays.s": get("surface.curvature_arrays", "s"),
        "surface.curvature_arrays.points_per_s": _ratio(get("surface.curvature_arrays", "elements"),
                                                        get("surface.curvature_arrays", "s")),
        "surface.scalar.calls": scalar_calls,
        "surface.scalar.us_per_call": _ratio(get("surface.scalar", "s") * 1e6, scalar_calls),
        "families.evaluator.calls": get("families.evaluator", "calls"),
        "families.evaluator.s": get("families.evaluator", "s"),
        "families.evaluator.elements_per_point": _ratio(get("families.evaluator", "elements"), points),
        "reconstruct.integrate.steps": get("reconstruct.integrate", "steps"),
        "reconstruct.integrate.s": get("reconstruct.integrate", "s"),
        "reconstruct.integrate.steps_per_s": _ratio(get("reconstruct.integrate", "steps"),
                                                    get("reconstruct.integrate", "s")),
        "reconstruct.probe.evaluations": evaluations,
        "reconstruct.probe.s": get("reconstruct.probe", "s"),
        "reconstruct.probe.us_per_candidate": _ratio(get("reconstruct.probe", "s") * 1e6, evaluations),
        "trace.overhead_ratio": _ratio(untraced_ops, client.ops_per_s()),
    }
    for layer in LAYERS[1:]:
        metrics[f"{layer}.self_s"] = layer_self[layer]
        metrics[f"{layer}.self_share"] = _ratio(layer_self[layer], main_s)
    return {name: metrics[name] for name in PER_LAYER}, rows, main_s


# ---------------------------------------------------------------------------
# Set-up time and provenance
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PG_SURF_THREADS", None)
    return env


_SETUP_CODE = """
import sys, time
sys.path[:0] = [{bench!r}, {src!r}]
import speed
before = speed.slowdown("python")
start = time.perf_counter()
import pgsurf.cli
elapsed = time.perf_counter() - start
print(elapsed / ((before + speed.slowdown("python")) / 2.0))
"""


def measure_setup() -> float:
    """Median time, at reference speed, for a fresh interpreter to
    `import pgsurf.cli`, timed inside that interpreter with its own
    reference.  One untimed import first, so every timed one finds
    compiled bytecode."""
    argv = [sys.executable, "-c", _SETUP_CODE.format(bench=str(HERE), src=str(SRC))]
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(argv, env=_child_env(), cwd=ROOT, check=True, timeout=60,
                             capture_output=True, text=True).stdout
        if i:
            times.append(float(out))
    return statistics.median(times)


def provenance() -> dict:
    import numpy

    try:
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                                capture_output=True, text=True).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"commit": commit, "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0))}


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_metrics(workload: str, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{workload:8s} {name:45s} {_fmt(value):>14s} {units[name]}")


def print_trace_table(workload: str, rows: dict, main_s: float) -> None:
    print(f"{workload}: traced spans (self time share of cli.main = {main_s:.4g} s)")
    print(f"  {'span':42s} {'calls':>9s} {'incl s':>10s} {'self s':>10s} {'self %':>7s}")
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * _ratio(row["self_s"], main_s)
        print(f"  {name:42s} {int(row['calls']):9d} {row['s']:10.4f} {row['self_s']:10.4f} {share:6.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pgsurf" / "cli.py").is_file():
        print(f"bench: no pg-surf sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("PG_SURF_THREADS", None)
    sys.path.insert(0, str(SRC))
    import pgsurf.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "pgsurf":
        print(f"bench: imported pgsurf from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit so the output directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    setup_s = measure_setup() if not args.trace else 0.0
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(dir=scratch)
    try:
        client = Client(cli)
        client.warm_up(args.workload, args.seed, outdir)
        warm_failures = len(client.failures)
        client.failures.clear()
        count = max(1, math.ceil(args.seconds / ROUND_SECONDS[args.workload]))
        client.run_rounds(workloads.rounds(args.workload, args.seed, outdir), count)
        if args.trace:
            untraced_ops = client.ops_per_s()
            tracer = tracing.Tracer(tracing.default_targets())
            traced = Client(cli, tracer)
            with tracer:
                traced.run_rounds(workloads.rounds(args.workload, args.seed, outdir), count)
            metrics, rows, main_s = per_layer(tracer, traced, untraced_ops)
            failures = client.failures + traced.failures
            attempted = len(client.samples) + len(traced.samples)
        else:
            metrics, named, pct = end_to_end(args.workload, client.samples, setup_s)
            failures = client.failures
            attempted = len(client.samples)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    prov = provenance()
    print(f"# pg-surf benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} commit={prov['commit']} python={prov['python']} "
          f"numpy={prov['numpy']} nproc={prov['nproc']}")
    print(f"# closed loop, 1 client, in-process; {attempted} invocations checked, "
          f"{len(failures)} failed, {warm_failures} warm-up failures")
    for argv_, problems in failures[:10]:
        print(f"# FAILED {' '.join(argv_[:1])}: {'; '.join(problems)}")
    units = END_TO_END if not args.trace else PER_LAYER
    if args.trace:
        print_trace_table(args.workload, rows, main_s)
    else:
        n = len(client.samples)
        print(f"# latency_tail_s is p{pct:g} over {n} invocations "
              f"({n - int(n * pct / 100.0)} beyond it)")
        print("# times are wall seconds at the nominal speed of the reference kernels "
              "(bench/speed.py); *.wall_p50_s are raw wall seconds")
        print_metrics(args.workload, named, {k: "s" for k in named})
        print_metrics(args.workload, {"failed_ratio": len(failures) / attempted}, {"failed_ratio": "ratio"})
    print_metrics(args.workload, metrics, units)
    result = {
        "correct": not failures and not warm_failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
