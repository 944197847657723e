"""Run the benchmark over several seeds and summarize each end-to-end metric.

    python3 bench/baseline.py --seeds 1-10 [--workloads export,verify,solve]
        [--seconds 20] [--out bench/baseline.json]

For each workload and metric it prints the median, the quartiles and the
spread (interquartile distance over the median) of the per-run values,
next to the metric's bound from `BENCHMARK.json`, and writes them as JSON
with the provenance of the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines[0], json.loads(lines[-1])


def provenance(header: str) -> dict:
    """commit, python, numpy and nproc from a run's first report line."""
    fields = dict(item.split("=", 1) for item in header.split() if "=" in item)
    return {key: fields[key] for key in ("commit", "python", "numpy", "nproc")}


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": _seeds(args.seeds), "workloads": {}}
    all_correct = True
    for workload in args.workloads.split(","):
        values: dict = {}
        for seed in report["seeds"]:
            header, result = run_once(workload, seed, args.seconds)
            report["provenance"] = provenance(header)
            all_correct &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {name: summarize(v) for name, v in values.items()}
        report["workloads"][workload] = summary
        for name, s in summary.items():
            print(f"  {workload:8s} {name:18s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {bounds[name]}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
