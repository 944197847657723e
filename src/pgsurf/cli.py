"""Command-line front end.

    pg-surf <curvature|verify|reconstruct|probe|mesh> --config cfg.json [--set key=value ...]

Configuration is a JSON object; `--set` overrides individual (dotted)
keys and wins over file values.  Outputs are deterministic: identical
configurations produce byte-identical CSV/JSON/OBJ files (floats printed
with 17 significant digits, fixed row order).  Each command reads every
key it is given and takes only its own: its outputs (`OUTPUT`), its
tolerances (`verify` those of its suites, `reconstruct` the ODE's) and,
for `curvature` and `mesh`, `fd_step` on the `pipeline-fd` route only;
any other key is a configuration error.  Its first output goes to
stdout when its path is empty; a later one (`curvature`'s JSON, `mesh`'s
sidecar) is written only to a path, so stdout carries one format.
`curvature`, `mesh` and `verify` sweep each grid point once, in the blocks of
`factorable.row_spans` (whole grid rows, or a span of one long row).
`curvature` and `mesh` write each block's lines as it is swept; across
blocks `curvature` keeps the included K and H only for its JSON, and
`mesh` only the exclusion mask, writing its faces last.
`render`, imported on first use, writes the tables whose columns and
line templates are chosen here.  A file output is written to a temporary
sibling and moved into place only when complete, so a failed run never
leaves a truncated file, and a `mesh` run that fails keeps both; two
outputs of one command may not name one file.
`verify`'s motions and `probe`'s random starts are seeded SplitMix64
draws (`surface.uniform_draws`): a `seed` in 0..2**64 - 1 gives the
same motions and starts on every numpy and Python version, and no
command loads `numpy.random`.

A grid point with no finite K or H (lightlike, inadmissible, overflowing,
or where a family's radicand is not positive) is excluded, never raised;
a grid command with nothing to report ends as `GridRejected`.

Exit codes: 0 success, 1 verification/tolerance failure, 2 configuration
error (including an output that cannot be written, two outputs that
name one file, or a `reconstruct` corridor whose closed form moves by
less than its tolerance), 3 a grid command with nothing to report, 4
ODE branch violation or a `reconstruct` corridor outside its radicand.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import inspect
import json
import math
import os
import sys
from typing import Callable, Iterable, Iterator, Literal, NamedTuple, Optional, get_args, get_origin

import numpy as np

from . import families as fam
from . import reconstruct as rec
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
    row_spans,
    specialized_grid,
)
from .surface import (
    FD_STEP,
    SEED_MAX,
    curvature_arrays,
    gaussian_curvature,  # noqa: F401  (bench/tracing.py wraps it here)
    mean_curvature,  # noqa: F401  (bench/tracing.py wraps it here)
    transform_jet,
    uniform_draws,
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


@contextlib.contextmanager
def _opened(path: str) -> Iterator[Callable[[Iterable[str]], None]]:
    """The writer of one output for a `with` body: it writes and flushes
    text chunks to `path`, or to stdout when `path` is empty.

    A file goes to a temporary sibling, moved over `path` by `os.replace`
    when the body ends; on any error the temporary is removed and `path`
    is left as it was.  A target that exists but is not a regular file (a
    device such as /dev/null, a FIFO) is written in place.  A failure to
    write (a closed stdout pipe too) becomes `ConfigError`, raised by the
    writer itself: an output open around another never names its error.
    """
    def write(chunks: Iterable[str]) -> None:
        try:
            stream.writelines(chunks)
            stream.flush()
        except OSError as exc:
            if not path:
                # a closed pipe: the interpreter's last flush of stdout then
                # goes to the null device and raises no second error
                with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as null:
                    os.dup2(null.fileno(), sys.stdout.fileno())
            raise ConfigError(f"cannot write output {path or 'to stdout'}: "
                              f"{exc.strerror or exc}") from exc

    stream = sys.stdout
    if not path:
        yield write
        return
    in_place = os.path.exists(path) and not os.path.isfile(path)
    target = path if in_place else f"{path}.{os.urandom(4).hex()}.tmp"
    created = False
    try:
        with open(target, "w" if in_place else "x", encoding="utf-8") as stream:
            created = not in_place
            yield write
        if created:
            os.replace(target, path)
    except BaseException as exc:
        if created:
            with contextlib.suppress(OSError):
                os.remove(target)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write output {path}: {exc.strerror or exc}") from exc
        raise


def _json_report(path: str, report: dict) -> None:
    with _opened(path) as write:
        write([json.dumps(_sanitize(report), sort_keys=True, indent=2) + "\n"])


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


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

class Row(NamedTuple):
    """A config key: its kind, its default (`...`: the key is required) and
    the kind's bound.  A kind returns the typed value of a JSON value or
    raises ValueError naming what it takes."""

    kind: Callable
    default: object = None
    bound: object = None


def _real(value, positive=False) -> float:
    """A JSON int or float, not a boolean: finite, and > 0 when `positive`."""
    finite = type(value) in (int, float) and abs(value) <= sys.float_info.max
    if finite and (value > 0 or not positive):
        return float(value)
    raise ValueError("a finite real > 0" if positive else "a finite real")


def _integer(value, bounds=None) -> int:
    """A JSON int or a float without fraction, not a boolean, in `bounds`
    (lo, hi), where hi may be None."""
    lo, hi = bounds or (None, None)
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is int and (lo is None or lo <= value) and (hi is None or value <= hi):
        return value
    raise ValueError("an integer" if lo is None else f"an integer >= {lo}" if hi is None
                     else f"an integer in {lo}..{hi}")


def _pair(value, _=None) -> tuple[float, float]:
    if isinstance(value, list) and len(value) == 2:
        with contextlib.suppress(ValueError):
            return (_real(value[0]), _real(value[1]))
    raise ValueError("a [lo, hi] pair of finite reals")


def _choice(value, choices) -> str:
    """One of the string `choices`; a float stands for its decimal text,
    since `--set theorem=3.1` parses as a number."""
    if type(value) is float:
        value = str(value)
    if isinstance(value, str) and value in choices:
        return value
    raise ValueError("one of " + ", ".join(choices))


def _exactly(cls: type, what: str) -> Callable:
    def kind(value, _=None):
        if type(value) is cls:
            return value
        raise ValueError(what)
    return kind


_flag, _path = _exactly(bool, "true or false"), _exactly(str, "a path string")
_KINDS = {float: _real, Optional[float]: _real, int: _integer, tuple[float, float]: _pair}


def _rows(function: Callable, defaults: Optional[dict] = None) -> dict:
    """The rows of `function`'s parameters, in signature order: the kind of
    the annotation in `_KINDS` (a `Literal`: a choice of its values), the
    default of the signature, else of `defaults`, else none (required)."""
    rows = {}
    for key, param in inspect.signature(function, eval_str=True).parameters.items():
        default = (defaults or {}).get(key, ...) if param.default is param.empty else param.default
        if get_origin(param.annotation) is Literal:
            rows[key] = Row(_choice, default, get_args(param.annotation))
        else:
            rows[key] = Row(_KINDS[param.annotation], default)
    return rows


# one table per `family.name` and per `reconstruct` theorem (k0, h0: CLI defaults)
FAMILIES = {name: _rows(row.build) for name, row in fam.FAMILIES.items()}
_RECONSTRUCT = {"3.1": rec.reconstruct_thm31, "3.2": rec.reconstruct_thm32,
                "4.2": rec.reconstruct_thm42}
THEOREMS = {key: _rows(function, {"k0": 1.0, "h0": 0.5}) for key, function in _RECONSTRUCT.items()}
# a grid key left out comes from the command's default grid
GRID = {"u1": Row(_pair), "u2": Row(_pair), "n1": Row(_integer), "n2": Row(_integer)}
# each command's outputs: the first to stdout when its path is empty, a later one only to a path
OUTPUT = {command: {key: Row(_path, "") for key in keys.split()} for command, keys in {
    "curvature": "csv json", "mesh": "obj sidecar", "verify": "json", "reconstruct": "json",
    "probe": "json"}.items()}
# one table per `formulas` route: only the FD route takes a step
ROUTES = {"pipeline": {}, "pipeline-fd": {"fd_step": Row(_real, FD_STEP, True)}, "specialized": {}}
SCHEMA = {
    **{command: {"family": {"name": Row(_choice, ..., FAMILIES)}, "grid": GRID,
                 "output": OUTPUT[command], "formulas": Row(_choice, "pipeline", ROUTES)}
       for command in ("curvature", "mesh")},
    "verify": {"family": {"name": Row(_choice, ..., {name: FAMILIES[name] for name, row
                                                      in fam.FAMILIES.items() if row.field})},
               "grid": GRID, "perturb": {"exponent_scale": Row(_real)},
               "tolerances": {"constancy": Row(_real, 1e-7, True),
                              "cross_check": Row(_real, 1e-8, True),
                              "motion": Row(_real, 1e-8, True)},
               "motions": Row(_integer, 10, (1, MAX_MOTIONS)),
               "seed": Row(_integer, 0, (0, SEED_MAX)), "output": OUTPUT["verify"]},
    "reconstruct": {"theorem": Row(_choice, ..., THEOREMS),
                    "tolerances": {"ode": Row(_real, 1e-6, True)},
                    "output": OUTPUT["reconstruct"]},
    "probe": {"k0": Row(_real, 1.0), "budget": Row(_integer, 10_000, (1, None)),
              "restarts": Row(_integer, 6, (1, None)), "seed": Row(_integer, 0, (0, SEED_MAX)),
              "degree_f": Row(_integer, 2, (0, None)), "degree_g": Row(_integer, 2, (0, None)),
              "exponential": Row(_flag, True), "floor": Row(_real), "grid": GRID,
              "output": OUTPUT["probe"]},
}


def _read(obj, table: dict, where: str = "") -> dict:
    """The typed values of the config object `obj` by `table`.

    A table maps a key to a `Row` or, for a section, to the section's
    table.  A left-out key takes its row's default (None stands for "not
    given"); a required one is an error.  A choice whose choices are a
    dict of tables also reads the chosen table.  A key that neither the
    table nor a chosen table lists is an error, at the top level as in a
    section.  Every failure is one `ConfigError`.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where[:-1]} must be an object, got {obj!r}")
    values: dict = {}
    rows = list(table.items())
    for key, row in rows:  # a chosen table's rows are appended while reading
        name = where + key
        if isinstance(row, dict):
            values[key] = _read(obj.get(key, {}), row, name + ".")
        elif key not in obj:
            if row.default is ...:
                raise ConfigError(f"config needs {name}")
            values[key] = row.default
        else:
            try:
                values[key] = row.kind(obj[key], row.bound)
            except ValueError as exc:
                raise ConfigError(f"{name} must be {exc}, got {obj[key]!r}") from None
            if isinstance(row.bound, dict):
                rows += row.bound[values[key]].items()
    unknown = sorted(obj.keys() - dict(rows).keys())
    if unknown:
        raise ConfigError(f"unknown key {where}{unknown[0]}; known: {', '.join(dict(rows))}")
    return values


def _surface(family: dict) -> FactorableSurface:
    """The surface of the read `family` section."""
    params = dict(family)
    return fam.family_surface(params.pop("name"), params)


def _grid(values: dict, default: GridSpec) -> GridSpec:
    """`default` with the read `grid` keys that were given, at most
    MAX_GRID_POINTS points."""
    grid = dataclasses.replace(default, **{k: v for k, v in values.items() if v is not None})
    if grid.n1 * grid.n2 > MAX_GRID_POINTS:
        raise ConfigError(f"grid of {grid.n1}x{grid.n2} points exceeds {MAX_GRID_POINTS} points")
    return grid


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

CSV_HEADER = "u1,u2,x,y,z,K,H,epsilon,W,excluded"


def _sweep(v: dict) -> tuple[GridSpec, Iterator[dict]]:
    """The grid of the read `curvature`/`mesh` values and its sweep on the
    `formulas` route, one sweep per block of `row_spans`: the closed
    formulas on `specialized`, the general pipeline on the others.  Each
    block also holds its positions x, y, z, from `value_arrays` on the
    block's axes broadcast over the block, for the outputs that print
    them (NaN where a profile is)."""
    surface = _surface(v["family"])
    grid = _grid(v["grid"], default_grid(surface))
    route = v["formulas"]

    def sweep(block: tuple[slice, slice]) -> dict:
        if route == "specialized":
            data = specialized_grid(surface, grid, block)
        elif route == "pipeline-fd":
            data = pipeline_grid(surface, grid, mode="fd", fd_step=v["fd_step"], block=block)
        else:
            data = pipeline_grid(surface, grid, block=block)
        with np.errstate(all="ignore"):
            xyz = surface.value_arrays(data["U1"][:, :1], data["U2"][:1])
        x, y, z = (np.broadcast_to(v, data["U1"].shape) for v in xyz)
        return {**data, "x": x, "y": y, "z": z}

    return grid, map(sweep, row_spans(grid.n1, grid.n2))


def _render():
    """The table writer `render`, imported on first use (see there)."""
    from . import render
    return render


def _separate(outputs: dict) -> None:
    """Raise `ConfigError` where two read `output` paths name one file,
    of which only the last moved into place would be left; a path that
    exists and is not a regular file (/dev/null) may serve several."""
    files: dict = {}
    for key, path in outputs.items():
        if path and (os.path.isfile(path) or not os.path.exists(path)):
            first = files.setdefault(os.path.realpath(path), key)
            if first != key:
                raise ConfigError(f"output.{first} and output.{key} name one file: {path}")


def _csv_lines(data: dict) -> Iterator[str]:
    """`curvature` CSV: one string of lines per grid row of a sweep block."""
    yield from _render().lines(
        [data[key] for key in ("U1", "U2", "x", "y", "z", "K", "H", "eps", "W")],
        "{},{},{},{},{},{},{},{},{},0\n", "{},{},{},{},{},,,,,1\n", data["excluded"])


def _spread(values: np.ndarray) -> tuple[float, float]:
    """The mean of `values` and their largest deviation from it.  The
    values are finite and `v - mean` rounds monotonically in `v`, so the
    largest deviation is that of the largest or of the smallest value,
    with the bits of the largest `|v - mean|`: `abs` makes a zero
    deviation +0.0, as `|v - mean|` is, where the values are -0.0."""
    mean = float(np.mean(values))
    return mean, abs(max(float(values.max()) - mean, mean - float(values.min())))


def run_curvature(cfg: dict) -> int:
    v = _read(cfg, SCHEMA["curvature"])
    _separate(v["output"])
    grid, blocks = _sweep(v)
    n_points = grid.n1 * grid.n2
    # the included K and H, kept only for the JSON, each in one buffer filled
    # block by block (the included points of the grid in C order; pages past
    # the filled ones are never touched); exit 3 needs only their count
    kept = {"K": np.empty(n_points), "H": np.empty(n_points)} if v["output"]["json"] else {}
    n_inc = 0
    with _opened(v["output"]["csv"]) as write:
        write([CSV_HEADER + "\n"])
        for data in blocks:
            write(_csv_lines(data))
            included = ~data["excluded"]
            count = int(np.count_nonzero(included))
            for name, values in kept.items():
                values[n_inc:n_inc + count] = data[name][included]
            n_inc += count
        # before the CSV is complete, so its file is not written
        if not n_inc:
            raise GridRejected("every grid point is excluded")
    if not v["output"]["json"]:
        return EXIT_OK

    summary = {
        "family": cfg["family"],
        "grid": {"u1": list(grid.u1), "u2": list(grid.u2), "n1": grid.n1, "n2": grid.n2},
        "formulas": v["formulas"],
        "rows": n_points,
        "included": n_inc,
        "excluded": n_points - n_inc,
    }
    for name, values in kept.items():
        mean, maxdev = _spread(values[:n_inc])
        summary[name] = {"mean": mean, "max_deviation": maxdev, "std": float(np.std(values[:n_inc]))}
    _json_report(v["output"]["json"], summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def run_verify(cfg: dict) -> int:
    v = _read(cfg, SCHEMA["verify"])
    family, tol = v["family"], v["tolerances"]
    surface = _surface(family)
    if v["perturb"]["exponent_scale"] is not None:
        surface = fam.perturb_exponent(surface, v["perturb"]["exponent_scale"])
    grid = _grid(v["grid"], default_grid(surface))

    # one pass over the grid in blocks: a block's closed sweep serves
    # the constancy suite and, until a point is excluded, the cross-check
    # with the block's pipeline sweep
    field = fam.FAMILIES[family["name"]].field
    # the kept values of every block, in one buffer filled in C order
    values, n_kept, gap, rejected = np.empty(grid.n1 * grid.n2), 0, 0.0, None
    for span in row_spans(grid.n1, grid.n2):
        with np.errstate(all="ignore"):
            closed = specialized_grid(surface, grid, span)
            block = np.abs(closed["H"]) if field == "absH" else closed["K"]
            excluded = closed["excluded"]
            block = block[~excluded] if excluded.any() else block.ravel()
            values[n_kept:n_kept + block.size] = block
            n_kept += block.size
            if rejected is None:
                try:
                    gap = max(gap, cross_check(pipeline_grid(surface, grid, block=span), closed))
                except GridRejected as exc:
                    rejected = exc

    suites: dict = {}
    expected = -abs(family["k0"]) if field == "K" else abs(family["h0"])
    if not n_kept:
        raise GridRejected("no admissible points for the constancy suite")
    mean, maxdev = _spread(values[:n_kept])
    suites["constancy"] = {
        "passed": maxdev < tol["constancy"] and abs(mean - expected) < tol["constancy"],
        "field": field,
        "mean": mean,
        "expected": expected,
        "max_deviation": maxdev,
        "tolerance": tol["constancy"],
    }
    if rejected is None:
        suites["cross_check"] = {
            "passed": gap < tol["cross_check"],
            "max_discrepancy": gap,
            "tolerance": tol["cross_check"],
        }
    else:
        suites["cross_check"] = {"passed": False, "error": str(rejected)}

    motions = uniform_draws(v["seed"], 6 * v["motions"], -1.0, 1.0).reshape(-1, 6)
    a1, a2 = grid.axes()
    u1, u2 = a1[:: max(1, grid.n1 // 6), None], a2[None, :: max(1, grid.n2 // 6)]
    comp = jet_component_arrays(surface, u1, u2)
    ref = curvature_arrays(comp)

    def block_difference(block: np.ndarray):
        moved = curvature_arrays(transform_jet(block, comp))
        return np.max(np.maximum(np.abs(moved["K"] - ref["K"]), np.abs(moved["H"] - ref["H"])))

    # a sample point with no finite K or H, at rest or moved, gives NaN
    # here, which fails the suite; the samples are grid points, so the
    # cross-check has failed too and names a cause; `row_spans` cuts the
    # motions as rows of one point per sample
    worst = float(np.max([block_difference(motions[rows])
                          for rows, _ in row_spans(len(motions), u1.size * u2.size)]))
    suites["motion_invariance"] = {
        "passed": worst < tol["motion"],
        "max_difference": worst,
        "motions": len(motions),
        "tolerance": tol["motion"],
    }

    failed = [key for key, suite in suites.items() if not suite["passed"]]
    report = {"family": cfg["family"], "passed": not failed, "failed": failed, "suites": suites}
    _json_report(v["output"]["json"], report)
    return EXIT_OK if not failed else EXIT_FAIL


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def run_reconstruct(cfg: dict) -> int:
    v = _read(cfg, SCHEMA["reconstruct"])
    theorem, tol = v["theorem"], v["tolerances"]["ode"]
    result = _RECONSTRUCT[theorem](**{key: v[key] for key in THEOREMS[theorem]})
    # a closed form that moves by less than the tolerance would pass a
    # trajectory resting at its seed: the comparison checks nothing there
    if result.resting_error < tol:
        raise ConfigError(f"a trajectory resting at its seed would be within "
                          f"{result.resting_error:.3g} of the closed form, below "
                          f"tolerances.ode = {tol:g}, so the comparison checks nothing")
    passed = result.error < tol
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
    _json_report(v["output"]["json"], report)
    return EXIT_OK if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

def run_probe(cfg: dict) -> int:
    v = _read(cfg, SCHEMA["probe"])
    report = rec.nonexistence_probe(
        k0=v["k0"],
        space=rec.FamilySpace(v["degree_f"], v["degree_g"], v["exponential"]),
        budget=v["budget"],
        grid=_grid(v["grid"], rec.PROBE_GRID),
        seed=v["seed"],
        restarts=v["restarts"],
    )
    payload = dataclasses.asdict(report)
    passed, floor = True, v["floor"]
    if floor is not None:
        passed = report.best_residual > floor
        payload["floor"] = floor
        payload["floor_passed"] = passed
    _json_report(v["output"]["json"], payload)
    return EXIT_OK if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------

def _vertex_lines(data: dict) -> Iterator[str]:
    """OBJ: one string of vertex lines per grid row of a sweep block."""
    yield from _render().lines([data["x"], data["y"], data["z"]], "v {} {} {}\n", "v {} {} {}\n",
                               np.zeros_like(data["excluded"]))


def _sidecar_lines(data: dict, first: int) -> Iterator[str]:
    """Mesh sidecar CSV keyed by 1-based vertex index: one string of lines
    per grid row of a sweep block whose first vertex is `first`."""
    ids = np.arange(first, first + data["excluded"].size).reshape(data["excluded"].shape)
    yield from _render().lines([ids, data["U1"], data["U2"], data["K"], data["H"]],
                               "{},{},{},{},{},0\n", "{},{},{},,,1\n", data["excluded"])


def run_mesh(cfg: dict) -> int:
    v = _read(cfg, SCHEMA["mesh"])
    _separate(v["output"])
    grid, blocks = _sweep(v)
    path, start = v["output"]["sidecar"], 0
    # the sweep's exclusion mask, filled block by block: the blocks are in C order
    ex = np.empty((grid.n1, grid.n2), dtype=bool)
    with _opened(v["output"]["obj"]) as obj, \
            (_opened(path) if path else contextlib.nullcontext(lambda _: None)) as sidecar:
        obj([f"# pg-surf mesh {grid.n1}x{grid.n2}\n"])
        sidecar(["vertex,u1,u2,K,H,excluded\n"])
        for data in blocks:
            obj(_vertex_lines(data))
            sidecar(_sidecar_lines(data, start + 1))
            ex.flat[start:start + data["excluded"].size] = data["excluded"]
            start += data["excluded"].size
        # a cell is kept when all four corners are admissible
        faces = ~(ex[:-1, :-1] | ex[1:, :-1] | ex[1:, 1:] | ex[:-1, 1:])
        # before either output is complete, so neither file is written
        if not faces.any():
            raise GridRejected("no mesh cell has four included corners")
        obj(_render().face_lines(faces))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first `main` call of a
    process and reused by later ones; not at import, which stays cheap.
    Parsing leaves it unchanged: `append` copies the `--set` default
    before it appends."""
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
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; may be called any number of times in a process."""
    args = _parser().parse_args(argv)

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
