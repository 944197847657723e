"""Command-line front end.

    pg-surf <curvature|verify|reconstruct|probe|mesh> --config cfg.json [--set key=value ...]

Configuration is a JSON object; `--set` overrides individual (dotted)
keys and wins over file values.  Outputs are deterministic: identical
configurations produce byte-identical CSV/JSON/OBJ files (floats printed
with 17 significant digits, fixed row order).  Tables and meshes are
formatted and written one grid row at a time.  Every float column goes
through one rule: a column whose bits are constant along a grid axis is
formatted once per value of the other axis (the axes U1 and U2, the
positions equal to them, epsilon), any other column cell by cell; each
line is then one `%s`-only format of those strings.  Equal bits print
equal strings, so the bytes are those of formatting every cell with
`format(x, ".17g")`.
A file output is written to a temporary sibling and moved into place only
when complete, so a failed run never leaves a truncated file.

Exit codes: 0 success, 1 verification/tolerance failure, 2 configuration
error (including an output path that cannot be written), 3 empty or
all-lightlike grid, 4 ODE branch violation.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from typing import Iterable, Iterator, Optional

import numpy as np

from . import families as fam
from . import reconstruct as rec
from .core import Motion
from .errors import (
    BranchViolation,
    ConfigError,
    DomainError,
    GridRejected,
    InvalidParams,
    PGSurfError,
)
from .factorable import (
    FactorableSurface,
    GridSpec,
    cross_check,
    default_grid,
    jet_component_arrays,
    pipeline_grid,
    specialized_grid,
)
from .surface import (
    curvature_arrays,
    gaussian_curvature,  # noqa: F401  (bench/tracing.py wraps it here)
    mean_curvature,  # noqa: F401  (bench/tracing.py wraps it here)
    require_unmasked,
    transform_jet,
)

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_EMPTY_GRID = 3
EXIT_BRANCH = 4

# Largest grid (n1 * n2 points) and `verify` motion count a configuration
# may ask for; both are checked before anything is allocated.
MAX_GRID_POINTS = 4_000_000
MAX_MOTIONS = 10_000


def _sanitize(obj):
    """Make a report JSON-safe: numpy scalars to python, non-finite to None."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write(path: Optional[str], chunks: Iterable[str]) -> None:
    """Write text chunks to `path`, or to stdout when `path` is unset.

    A file is written to a temporary sibling and moved over `path` with
    `os.replace` once every chunk is written; on any error the temporary
    is removed and `path` is left as it was.  An existing target that is
    not a regular file (a device such as /dev/null, a FIFO) cannot be
    replaced and is written in place.  A failure to write becomes
    `ConfigError`.
    """
    if not path:
        sys.stdout.writelines(chunks)
        return
    in_place = os.path.exists(path) and not os.path.isfile(path)
    target = path if in_place else f"{path}.{os.urandom(4).hex()}.tmp"
    created = False
    try:
        with open(target, "w" if in_place else "x", encoding="utf-8") as fh:
            created = not in_place
            fh.writelines(chunks)
        if created:
            os.replace(target, path)
    except BaseException as exc:
        if created:
            with contextlib.suppress(OSError):
                os.remove(target)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write output {path}: {exc.strerror or exc}") from exc
        raise


def _json_report(path: Optional[str], report: dict) -> None:
    _write(path, [json.dumps(_sanitize(report), sort_keys=True, indent=2) + "\n"])


def _parse_set(pairs: list[str]) -> dict:
    """Turn --set a.b=1 overrides into a nested dict."""
    out: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set key {key!r} collides with a scalar")
        node[parts[-1]] = value
    return out


def _deep_update(base: dict, extra: dict) -> dict:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value
    return base


def _load_config(path: Optional[str], overrides: list[str]) -> dict:
    cfg: dict = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
    return _deep_update(cfg, _parse_set(overrides))


def _section(cfg: dict, key: str) -> dict:
    """The object at `key`; an empty one when the key is absent."""
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be an object, got {section!r}")
    return section


def _output(cfg: dict) -> dict:
    """The `output` section, whose every value must be a path string
    (an empty one writes to stdout)."""
    out = _section(cfg, "output")
    for key, path in out.items():
        if not isinstance(path, str):
            raise ConfigError(f"output.{key} must be a path string, got {path!r}")
    return out


def _build_surface(cfg: dict) -> tuple[str, FactorableSurface]:
    section = _section(cfg, "family")
    if "name" not in section:
        raise ConfigError("config needs family.name")
    name = section["name"]
    params = {k: v for k, v in section.items() if k != "name"}
    for key, value in params.items():
        if key != "causal":
            _finite(value, f"family.{key}")
    try:
        return name, fam.family_surface(name, params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for family {name!r}: {exc}") from exc


def _number(value, key: str, kind=float):
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be a number, got {value!r}") from exc


def _integer(value, key: str, minimum: Optional[int] = None) -> int:
    """An integer key: an int, a float without fraction or an integer
    string, at least `minimum` when given.  A boolean or a fraction is a
    config error, not truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    number = _number(value, key, int)
    if minimum is not None and number < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {number}")
    return number


def _finite(value, key: str) -> float:
    number = _number(value, key)
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return number


def _seed(cfg: dict) -> int:
    """The `seed` key (default 0): an integer >= 0, as numpy's generators need."""
    return _integer(cfg.get("seed", 0), "seed", 0)


def _flag(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _build_grid(cfg: dict, default: GridSpec) -> GridSpec:
    """The `grid` section; each key it leaves out is taken from `default`."""
    section = _section(cfg, "grid")
    n1 = _integer(section.get("n1", default.n1), "grid.n1", 0)
    n2 = _integer(section.get("n2", default.n2), "grid.n2", 0)
    grid = GridSpec(_pair(section.get("u1", default.u1), "grid.u1"),
                    _pair(section.get("u2", default.u2), "grid.u2"), n1, n2)
    if n1 * n2 > MAX_GRID_POINTS:
        raise ConfigError(f"grid of {n1}x{n2} points exceeds {MAX_GRID_POINTS} points")
    return grid


def _pair(value, key: str) -> tuple[float, float]:
    """A `[lo, hi]` pair of numbers."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{key} must be a [lo, hi] pair, got {value!r}")
    return (_number(value[0], key), _number(value[1], key))


_TOLERANCES = {"constancy": 1e-7, "cross_check": 1e-8, "motion": 1e-8, "ode": 1e-6}


def _tolerances(cfg: dict) -> dict:
    """The `tolerances` section over the defaults: an object whose keys are
    known tolerances and whose values are finite positive numbers."""
    section = _section(cfg, "tolerances")
    unknown = sorted(section.keys() - _TOLERANCES.keys())
    if unknown:
        raise ConfigError(f"unknown tolerance {unknown[0]!r}; known: {', '.join(_TOLERANCES)}")
    tol = {**_TOLERANCES, **section}
    for key, value in tol.items():
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (numeric and 0 < value < math.inf):
            raise ConfigError(f"tolerance {key} must be a finite positive number, got {value!r}")
    return tol


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

CSV_HEADER = "u1,u2,x,y,z,K,H,epsilon,W,excluded"
ROUTES = ("pipeline", "pipeline-fd", "specialized")


def _sweep(cfg: dict, surface: FactorableSurface, grid: GridSpec) -> tuple[str, dict]:
    """Validate `formulas` and `fd_step`, then sweep the grid on that route."""
    route = cfg.get("formulas", "pipeline")
    if route not in ROUTES:
        raise ConfigError(f"formulas must be pipeline, pipeline-fd or specialized, got {route!r}")
    fd_step = _number(cfg.get("fd_step", 1e-4), "fd_step")
    if not (math.isfinite(fd_step) and fd_step > 0):
        raise ConfigError(f"fd_step must be finite and positive, got {fd_step!r}")
    pipe = pipeline_grid(surface, grid, mode="fd" if route == "pipeline-fd" else "analytic",
                         fd_step=fd_step)
    if route == "specialized":
        closed = specialized_grid(surface, grid)
        pipe = {**pipe, "K": closed["K"], "H": closed["H"], "excluded": closed["excluded"]}
    return route, pipe


# the one float formatter of the text outputs: equal to format(x, ".17g")
_format = "%.17g".__mod__


def _cell_rows(column: np.ndarray) -> Iterator[list[str]]:
    """The printed cells of a float grid column, one list per grid row.

    A column whose bits are constant along axis 0 is formatted once (its
    first row) and that list is reused on every row; one constant along
    axis 1 is formatted once per row; any other column cell by cell.
    Equal bits print equal strings, so the text is that of formatting
    every cell.  -0.0 and 0.0, or NaNs with different payloads, are
    different bits."""
    bits = column.view(np.int64)
    if (bits == bits[:1]).all():
        return itertools.repeat(list(map(_format, column[0].tolist())), len(column))
    if (bits == bits[:, :1]).all():
        n2 = column.shape[1]
        return ([s] * n2 for s in map(_format, column[:, 0].tolist()))
    return (list(map(_format, row.tolist())) for row in column)


def _csv_rows(data: dict) -> Iterator[str]:
    """`curvature` CSV: the header, then one chunk of lines per grid row."""
    yield CSV_HEADER + "\n"
    inc = "%s,%s,%s,%s,%s,%s,%s,%s,%s,0"
    exc = "%s,%s,%s,%s,%s,,,,,1"
    columns = [_cell_rows(data[k]) for k in ("U1", "U2", "x", "y", "z", "K", "H", "eps", "W")]
    for excluded, *cells in zip(data["excluded"], *columns):
        yield "\n".join([exc % c[:5] if e else inc % c
                         for c, e in zip(zip(*cells), excluded.tolist())]) + "\n"


def run_curvature(cfg: dict) -> int:
    out = _output(cfg)
    _, surface = _build_surface(cfg)
    grid = _build_grid(cfg, default_grid(surface))
    route, data = _sweep(cfg, surface, grid)
    excluded = data["excluded"]
    _write(out.get("csv"), _csv_rows(data))

    included = ~excluded
    n_inc = int(np.count_nonzero(included))
    summary = {
        "family": cfg.get("family"),
        "grid": {"u1": list(grid.u1), "u2": list(grid.u2), "n1": grid.n1, "n2": grid.n2},
        "formulas": route,
        "rows": int(excluded.size),
        "included": n_inc,
        "excluded": int(excluded.size) - n_inc,
    }
    for name in ("K", "H"):
        values = data[name][included]
        if values.size:
            mean = float(np.mean(values))
            summary[name] = {"mean": mean,
                             "max_deviation": float(np.max(np.abs(values - mean))),
                             "std": float(np.std(values))}
    _json_report(out.get("json"), summary)
    if n_inc == 0:
        return EXIT_EMPTY_GRID
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_EXPECTED_FIELD = {"thm31": "K", "thm32": "absH", "thm42": "absH"}


def _expected_constant(name: str, params: dict) -> float:
    if name == "thm31":
        return -abs(float(params["k0"]))
    return abs(float(params["h0"]))


# motions moved per kernel call of the motion-invariance suite; at
# MAX_MOTIONS a call holds at most 256 x 121 sample points, not 10^4 x 121
_MOTIONS_PER_CALL = 256


def _random_motions(rng: np.random.Generator, count: int) -> list[Motion]:
    return [Motion(*(float(v) for v in rng.uniform(-1.0, 1.0, size=6))) for _ in range(count)]


def run_verify(cfg: dict) -> int:
    out = _output(cfg)
    section = _section(cfg, "family")
    name = section.get("name")
    if name not in ("thm31", "thm32", "thm42"):
        raise ConfigError("verify needs family.name in {thm31, thm32, thm42}")
    params = {k: v for k, v in section.items() if k != "name"}
    _, surface = _build_surface(cfg)
    perturb = _section(cfg, "perturb")
    if "exponent_scale" in perturb:
        try:
            surface = fam.perturb_exponent(
                surface, _finite(perturb["exponent_scale"], "perturb.exponent_scale"))
        except DomainError as exc:
            raise ConfigError(f"perturbation invalid for this family: {exc}") from exc
    grid = _build_grid(cfg, default_grid(surface))
    tol = _tolerances(cfg)
    count = _integer(cfg.get("motions", 10), "motions")
    if not 1 <= count <= MAX_MOTIONS:
        raise ConfigError(f"motions must lie in 1..{MAX_MOTIONS}, got {count}")
    seed = _seed(cfg)

    suites: dict = {}

    closed = specialized_grid(surface, grid)
    field = _EXPECTED_FIELD[name]
    values = np.abs(closed["H"]) if field == "absH" else closed["K"]
    values = values[~closed["excluded"]]
    expected = _expected_constant(name, params)
    if values.size == 0:
        raise GridRejected("no admissible points for the constancy suite")
    mean = float(np.mean(values))
    maxdev = float(np.max(np.abs(values - mean)))
    suites["constancy"] = {
        "passed": maxdev < tol["constancy"] and abs(mean - expected) < tol["constancy"],
        "field": field,
        "mean": mean,
        "expected": expected,
        "max_deviation": maxdev,
        "tolerance": tol["constancy"],
    }

    try:
        xrep = cross_check(pipeline_grid(surface, grid, mode="analytic"), closed)
        suites["cross_check"] = {
            "passed": xrep.max_discrepancy < tol["cross_check"],
            "max_discrepancy": xrep.max_discrepancy,
            "tolerance": tol["cross_check"],
        }
    except GridRejected as exc:
        suites["cross_check"] = {"passed": False, "error": str(exc)}

    motions = _random_motions(np.random.default_rng(seed), count)
    a1, a2 = grid.axes()
    U1, U2 = np.meshgrid(a1[:: max(1, grid.n1 // 6)], a2[:: max(1, grid.n2 // 6)], indexing="ij")
    comp = jet_component_arrays(surface, U1.ravel(), U2.ravel())
    ref = curvature_arrays(comp)
    masked = np.flatnonzero(ref["lightlike"] | ref["inadmissible"])
    if masked.size:
        require_unmasked(ref, masked[0])

    def block_difference(block: list[Motion]):
        moved = curvature_arrays(transform_jet(block, comp))
        return np.max(np.maximum(np.abs(moved["K"] - ref["K"]), np.abs(moved["H"] - ref["H"])))

    # a moved jet masked by the kernel gives NaN here, which fails the suite
    worst = float(np.max([block_difference(motions[i:i + _MOTIONS_PER_CALL])
                          for i in range(0, len(motions), _MOTIONS_PER_CALL)]))
    suites["motion_invariance"] = {
        "passed": worst < tol["motion"],
        "max_difference": worst,
        "motions": len(motions),
        "tolerance": tol["motion"],
    }

    failed = [key for key, suite in suites.items() if not suite["passed"]]
    report = {"family": section, "passed": not failed, "failed": failed, "suites": suites}
    _json_report(out.get("json"), report)
    return EXIT_OK if not failed else EXIT_FAIL


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def run_reconstruct(cfg: dict) -> int:
    out = _output(cfg)
    theorem = str(cfg.get("theorem", ""))

    def num(key: str, default):
        return _finite(cfg.get(key, default), key)

    h = num("h", 1e-3)
    tol = _tolerances(cfg)["ode"]
    if theorem == "3.1":
        result = rec.reconstruct_thm31(
            k0=num("k0", 1.0), g0=num("g0", 1.0), lam1=num("lam1", 0.0),
            sign=_integer(cfg.get("sign", 1), "sign"),
            span=_pair(cfg.get("span", (0.0, 2.0)), "span"), h=h)
        error = result.max_error
    elif theorem == "3.2":
        result = rec.reconstruct_thm32(
            h0=num("h0", 0.5), f0=num("f0", 1.0),
            lam=None if cfg.get("lam") is None else num("lam", None),
            causal=str(cfg.get("causal", "spacelike")),
            y0=num("y0", 0.0), length=num("length", 1.0),
            h=h, u0=None if cfg.get("u0") is None else num("u0", None))
        error = result.max_error
    elif theorem == "4.2":
        result = rec.reconstruct_thm42(
            h0=num("h0", 0.5), lam1=num("lam1", 1.0), lam2=num("lam2", 0.0),
            z0=num("z0", 1.2), length=num("length", 0.8), h=h)
        error = result.max_rel_error
    else:
        raise ConfigError("reconstruct needs theorem in {3.1, 3.2, 4.2}")

    passed = error < tol
    report = {
        "theorem": theorem,
        "h": result.h,
        "corridor": [float(result.ts[0]), float(result.ts[-1])],
        "steps": int(result.ts.size - 1),
        "max_error": result.max_error,
        "max_rel_error": result.max_rel_error,
        "tolerance": tol,
        "passed": passed,
        "meta": result.meta,
    }
    _json_report(out.get("json"), report)
    return EXIT_OK if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

def run_probe(cfg: dict) -> int:
    out = _output(cfg)
    budget = _integer(cfg.get("budget", 10_000), "budget", 1)
    floor = cfg.get("floor")
    if floor is not None:
        floor = _finite(floor, "floor")
    space = rec.FamilySpace(
        degree_f=_integer(cfg.get("degree_f", 2), "degree_f", 0),
        degree_g=_integer(cfg.get("degree_g", 2), "degree_g", 0),
        exponential=_flag(cfg.get("exponential", True), "exponential"),
    )
    report = rec.nonexistence_probe(
        k0=_finite(cfg.get("k0", 1.0), "k0"),
        space=space,
        budget=budget,
        grid=_build_grid(cfg, GridSpec((-0.5, 0.5), (-0.5, 0.5), 9, 9)),
        seed=_seed(cfg),
        restarts=_integer(cfg.get("restarts", 6), "restarts", 0),
    )
    payload = {
        "header": report.header,
        "k0": report.k0,
        "best_residual": report.best_residual,
        "best_theta": list(report.best_theta),
        "evaluations": report.evaluations,
        "budget": report.budget,
        "restarts": report.restarts,
    }
    passed = True
    if floor is not None and report.k0 != 0.0:
        passed = report.best_residual > floor
        payload["floor"] = floor
        payload["floor_passed"] = passed
    _json_report(out.get("json"), payload)
    return EXIT_OK if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------

def _obj_lines(data: dict, faces: np.ndarray) -> Iterator[str]:
    """OBJ: a comment, the vertex lines, then the quad of each kept cell;
    one chunk of lines per grid row."""
    n1, n2 = data["x"].shape
    yield f"# pg-surf mesh {n1}x{n2}\n"
    for cells in zip(*(_cell_rows(data[k]) for k in ("x", "y", "z"))):
        yield "\n".join(["v %s %s %s" % v for v in zip(*cells)]) + "\n"
    for i, keep in enumerate(faces):
        first = (np.flatnonzero(keep) + (i * n2 + 1)).tolist()
        if first:
            yield "\n".join(["f %d %d %d %d" % (a, a + n2, a + n2 + 1, a + 1) for a in first]) + "\n"


def _sidecar_rows(data: dict) -> Iterator[str]:
    """Mesh sidecar CSV keyed by 1-based vertex index: the header, then one
    chunk of lines per grid row."""
    yield "vertex,u1,u2,K,H,excluded\n"
    n2 = data["excluded"].shape[1]
    inc = "%s,%s,%s,%s,%s,0"
    exc = "%s,%s,%s,,,1"
    columns = [_cell_rows(data[k]) for k in ("U1", "U2", "K", "H")]
    for i, (excluded, *cells) in enumerate(zip(data["excluded"], *columns)):
        ids = range(i * n2 + 1, (i + 1) * n2 + 1)
        yield "\n".join([exc % c[:3] if e else inc % c
                         for c, e in zip(zip(ids, *cells), excluded.tolist())]) + "\n"


def run_mesh(cfg: dict) -> int:
    out = _output(cfg)
    _, surface = _build_surface(cfg)
    grid = _build_grid(cfg, default_grid(surface))
    _, data = _sweep(cfg, surface, grid)
    ex = data["excluded"]
    # a cell is kept when all four corners are admissible
    faces = ~(ex[:-1, :-1] | ex[1:, :-1] | ex[1:, 1:] | ex[:-1, 1:])
    if not faces.any():
        return EXIT_EMPTY_GRID
    _write(out.get("obj"), _obj_lines(data, faces))
    _write(out.get("sidecar"), _sidecar_rows(data))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "curvature": run_curvature,
    "verify": run_verify,
    "reconstruct": run_reconstruct,
    "probe": run_probe,
    "mesh": run_mesh,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pg-surf",
        description="Curvature data and verification runs for surfaces in the pseudo-Galilean 3-space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} command")
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a (dotted) config key; wins over file values")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config, args.set)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, InvalidParams) as exc:
        print(f"pg-surf: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BranchViolation, DomainError) as exc:
        print(f"pg-surf: branch violation: {exc}", file=sys.stderr)
        return EXIT_BRANCH
    except GridRejected as exc:
        print(f"pg-surf: grid rejected: {exc}", file=sys.stderr)
        return EXIT_EMPTY_GRID
    except PGSurfError as exc:
        print(f"pg-surf: {exc}", file=sys.stderr)
        return EXIT_FAIL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
