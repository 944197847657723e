"""Output checks for each benchmarked invocation.

`check(inv, code)` returns a list of problems; an empty list means the
invocation did what its command promises.  The checks read the files the
CLI wrote and compare them with what the generator asked for.
"""

from __future__ import annotations

import json
import math

CSV_HEADER = "u1,u2,x,y,z,K,H,epsilon,W,excluded"
SIDECAR_HEADER = "vertex,u1,u2,K,H,excluded"

# The CLI's own constancy tolerance, used on the analytic routes.
ANALYTIC_TOL = 1e-7
# Finite-difference jets (default step 1e-4, central stencils) carry an
# error dominated by round-off in the second differences: it grows 100x
# when the step shrinks 10x.  Near the lightlike limit that error is
# amplified about as 1/W^2.  On the generator's ranges, the relative
# error times W^2 reached 3.4e-7 (thm31 with |k0| = 4, |lam1| = 1, whose
# window reaches W = 0.037: 2.5e-4 relative).  At each included point
# the check allows max(1, |constant|) * max(FD_REL_TOL, FD_W2_TOL / W^2),
# so the W term takes over below W = 0.12.
FD_REL_TOL = 1e-4
FD_W2_TOL = 1.5e-6


def _read_lines(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text.endswith("\n"):
        return []
    return text[:-1].split("\n")


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _tolerance(route: str, target: float, w: float) -> float:
    if route != "pipeline-fd":
        return ANALYTIC_TOL
    return max(1.0, target) * max(FD_REL_TOL, FD_W2_TOL / (w * w))


def _deviation(value: float, w: float, expect: dict):
    """A problem if |value| at a point of norm W misses the family constant."""
    target = expect["value"]
    error, tol = abs(abs(value) - target), _tolerance(expect["route"], target, w)
    if error < tol:
        return None
    return (f"|{expect['field']}| deviates from {target:.17g} by {error:.3g} "
            f"at W = {w:.3g} (tolerance {tol:.3g})")


def check_curvature(inv, code: int) -> list:
    expect = inv.expect
    if code != 0:
        return [f"exit code {code}, expected 0"]
    lines = _read_lines(inv.outputs["csv"])
    if not lines or lines[0] != CSV_HEADER:
        return ["CSV header missing or wrong (or file truncated)"]
    rows = lines[1:]
    if len(rows) != expect["n1"] * expect["n2"]:
        return [f"CSV has {len(rows)} rows, expected {expect['n1'] * expect['n2']}"]
    field = expect.get("field")
    col = 5 if field == "K" else 6
    n_excluded = 0
    deviation = None
    for row in rows:
        cells = row.split(",")
        if len(cells) != 10:
            return [f"CSV row with {len(cells)} cells: {row[:60]!r}"]
        if cells[9] == "1":
            n_excluded += 1
        elif cells[9] != "0":
            return [f"CSV excluded flag {cells[9]!r}"]
        elif field and deviation is None:
            deviation = _deviation(float(cells[col]), float(cells[8]), expect)
    problems = [deviation] if deviation else []
    summary = _read_json(inv.outputs["json"])
    if summary.get("excluded") != n_excluded:
        problems.append(f"JSON excluded {summary.get('excluded')} but {n_excluded} rows excluded")
    if expect["saddle"] and n_excluded == 0:
        problems.append("saddle grid does not straddle its lightlike line")
    return problems


def check_mesh(inv, code: int) -> list:
    expect = inv.expect
    n1, n2 = expect["n1"], expect["n2"]
    if code != 0:
        return [f"exit code {code}, expected 0"]
    obj = _read_lines(inv.outputs["obj"])
    n_vertices = sum(1 for line in obj if line.startswith("v "))
    n_faces = sum(1 for line in obj if line.startswith("f "))
    if n_vertices != n1 * n2:
        return [f"OBJ has {n_vertices} vertices, expected {n1 * n2}"]
    side = _read_lines(inv.outputs["sidecar"])
    if not side or side[0] != SIDECAR_HEADER or len(side) != n1 * n2 + 1:
        return ["sidecar header or row count wrong"]
    included = [row.rsplit(",", 1)[-1] == "0" for row in side[1:]]
    cells = sum(
        1
        for i in range(n1 - 1)
        for j in range(n2 - 1)
        if included[i * n2 + j] and included[i * n2 + j + 1]
        and included[(i + 1) * n2 + j] and included[(i + 1) * n2 + j + 1]
    )
    if n_faces != cells:
        return [f"OBJ has {n_faces} faces, sidecar gives {cells} fully included cells"]
    return []


def check_verify(inv, code: int) -> list:
    report = _read_json(inv.outputs["json"]) if code in (0, 1) else {}
    suites = report.get("suites", {})
    problems = []
    if code != 0 or report.get("passed") is not True:
        problems.append(f"exit code {code}, passed={report.get('passed')}, "
                        f"failed suites {report.get('failed')}")
    if set(suites) != {"constancy", "cross_check", "motion_invariance"}:
        problems.append(f"suites present: {sorted(suites)}")
    return problems


def check_reconstruct(inv, code: int) -> list:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    report = _read_json(inv.outputs["json"])
    problems = []
    if report.get("passed") is not True:
        problems.append(f"passed={report.get('passed')}, max_error={report.get('max_error')}")
    if report.get("steps") != inv.expect["steps"]:
        problems.append(f"steps {report.get('steps')}, expected {inv.expect['steps']}")
    return problems


def check_probe(inv, code: int) -> list:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    report = _read_json(inv.outputs["json"])
    problems = []
    evaluations = report.get("evaluations")
    if not isinstance(evaluations, int) or not 1 <= evaluations <= inv.expect["budget"]:
        problems.append(f"evaluations {evaluations} outside [1, {inv.expect['budget']}]")
    best = report.get("best_residual")
    if not isinstance(best, (int, float)) or not math.isfinite(best):
        problems.append(f"best_residual {best!r} not finite")
    if not report.get("header"):
        problems.append("scope header missing")
    return problems


_CHECKS = {
    "curvature": check_curvature,
    "mesh": check_mesh,
    "verify": check_verify,
    "reconstruct": check_reconstruct,
    "probe": check_probe,
}


def check(inv, code: int) -> list:
    """Problems with one invocation's exit code and outputs ([] = correct)."""
    try:
        return _CHECKS[inv.command](inv, code)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return [f"outputs unreadable: {type(exc).__name__}: {exc}"]
