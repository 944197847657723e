"""Fuzz every command's config reader with hypothesis.

Each key of a command's schema table is left out, given a moderate valid
value, or given junk.  Whatever the config, `main` returns an exit code
in 0..4 without raising (a leaked RuntimeWarning is an error under the
suite's warning filter); exit 2 prints exactly one `config error` line
and leaves no output file.  The valid values keep every run small: grids
of at most 30x30 points, at most 50 motions, budgets of at most 300 and
steps of at least 1e-3.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pgsurf import cli

JUNK = [None, True, "abc", "1", [], {}, [1], math.nan, math.inf, -math.inf, -1, 10**30]

# moderate valid values by key name; other keys draw from their kind below
VALID = {
    "n1": [2, 9, 30], "n2": [2, 9, 30], "motions": [1, 10, 50], "budget": [1, 60, 300],
    "restarts": [1, 2, 6], "seed": [0, 5], "degree_f": [0, 2, 4], "degree_g": [0, 2, 4],
    "sign": [1, -1], "h": [1e-3, 0.05], "length": [0.3, 1.0], "span": [[0.0, 1.0], [0.0, 2.0]],
    "fd_step": [1e-4, 1e-3], "exponent_scale": [1.0, 1.01], "u0": [0.5, 1.5],
    "floor": [0.05, 10.0], "k0": [1.0, -0.5, 0.0], "h0": [0.5, -0.75], "theorem": ["3.1", 3.1],
    "constancy": [1e-7, 1e-2], "cross_check": [1e-8, 1e-2], "motion": [1e-8, 1e-2],
    "ode": [1e-6, 1e-2],
}
BY_KIND = {cli._real: [0.5, -0.75, 1.2], cli._integer: [1, 2], cli._flag: [True, False],
           cli._pair: [[-0.5, 0.5], [0.5, 1.5], [1.0, 3.0]]}
MODES = ["absent"] * 3 + ["valid"] * 8 + ["junk"]


def _junk(key, row) -> list:
    """JUNK without the values that are valid for `key` and costly or
    harmful to run: a budget of 10**30 would search without a bound, and
    a string output path would write into the working directory."""
    if key == "budget":
        return [j for j in JUNK if j != 10**30]
    if not isinstance(row, dict) and row.kind is cli._path:
        return [j for j in JUNK if not isinstance(j, str)]
    return JUNK


@st.composite
def config_objects(draw, table: dict, outputs: list):
    """A config object for `table`: each key left out, valid or junk, and
    now and then an unknown key."""
    obj: dict = {}
    rows = list(table.items())
    for key, row in rows:
        # a section or a required key is never left out
        needed = isinstance(row, dict) or row.default is ...
        mode = draw(st.sampled_from(MODES[3:] if needed else MODES))
        if mode == "junk":
            obj[key] = draw(st.sampled_from(_junk(key, row)))
        elif mode == "valid" and isinstance(row, dict):
            obj[key] = draw(config_objects(row, outputs))
        elif mode == "valid":
            valid = (VALID.get(key) or (outputs if row.kind is cli._path else None)
                     or (list(row.bound) if row.kind is cli._choice else BY_KIND[row.kind]))
            obj[key] = draw(st.sampled_from(valid))
            if isinstance(row.bound, dict):
                rows += row.bound[cli._choice(obj[key], row.bound)].items()
    if draw(st.integers(0, 24)) == 0:
        obj["bogus"] = 1
    return obj


@pytest.mark.parametrize("command", list(cli.SCHEMA))
@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_config_exits_cleanly(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        outputs = ["", os.path.join(tmp, "a.out"), os.path.join(tmp, "b.out")]
        cfg = data.draw(config_objects(cli.SCHEMA[command], outputs), label="config")
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", path])
        # a grid command excludes a point it cannot evaluate, never exits 4
        assert code in ((0, 1, 2, 3) if command in ("curvature", "mesh", "verify") else (0, 1, 2, 3, 4))
        if code in (2, 3):
            kind = "config error" if code == 2 else "grid rejected"
            message = err.getvalue()
            assert message.startswith(f"pg-surf: {kind}:") and message.count("\n") == 1, message
            assert os.listdir(tmp) == ["cfg.json"]


@pytest.mark.parametrize("command", ["curvature", "mesh", "verify"])
@pytest.mark.parametrize("override", ["family.lam2=1e30", "family.lam3=1e30", "fd_step=1e30"])
def test_overflowing_profiles_run_without_warnings(capsys, command, override):
    # junk the fuzz can draw: a valid 1e30 makes thm42's exp(lam2 y) and
    # its FD jets overflow; the sweeps mask the non-finite points
    argv = [command, "--set", "family.name=thm42", "--set", "family.h0=0.5", "--set", "grid.n1=5",
            "--set", "grid.n2=5", "--set", "formulas=pipeline-fd", "--set", override]
    assert cli.main(argv) in (0, 1, 3)
    assert "Warning" not in capsys.readouterr().err
