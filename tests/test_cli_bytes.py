"""Byte pins for the CLI's text outputs.

Each case runs `curvature` and `mesh` over every `formulas` route and
compares the sha256 of every output file (CSV, JSON, OBJ, sidecar) with a
frozen digest, so any change to how floats, rows or faces are printed
shows up here.  Output with no `output.*` key goes to stdout and must be
the concatenation of the same bytes.  The digests depend on numpy's
floating-point results for the family evaluators; they were recorded with
numpy 2.4 on x86-64.
"""

import hashlib
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pgsurf.cli import main

CASES = {
    "thm31": {"family": {"name": "thm31", "k0": 1.0}, "grid": {"n1": 13, "n2": 9}},
    "thm42_timelike": {"family": {"name": "thm42", "h0": 0.5, "causal": "timelike"},
                       "grid": {"n1": 11, "n2": 8}},
    # lightlike on x = 1: excluded rows and skipped faces
    "saddle": {"family": {"name": "saddle"},
               "grid": {"u1": [0.5, 1.5], "u2": [-0.5, 0.5], "n1": 21, "n2": 7}},
}
ROUTES = ("pipeline", "pipeline-fd", "specialized")
COMMANDS = {"curvature": ("csv", "json"), "mesh": ("obj", "sidecar")}

DIGESTS = {
    ('saddle', 'pipeline', 'curvature'): {
        'csv': 'd7a451b84831ba3a1326ff6320f48ad5b1e17d97f73c3f99da10a5c2fd2ce270',
        'json': 'beef4cac8c36d6593e4de1e5f6366f2c052ec4ea1b6277418343d2387386d742',
    },
    ('saddle', 'pipeline', 'mesh'): {
        'obj': '61ea46503af75136f88f530436294c010ebfe4917c189f5fc8575a90837fbd36',
        'sidecar': 'a3c36b402e872c92b3b52135630c5ac08b2c3e1ffe1e2e4be9ca38750c8932ef',
    },
    ('saddle', 'pipeline-fd', 'curvature'): {
        'csv': 'e1544139f1008a7e889f0ed6b99a793fe1185a8c002e889edb93f33762ad397b',
        'json': 'b16599e2ebd9ac1d584d76cc92990359b3badc68d70af57adba77c2bc861ac99',
    },
    ('saddle', 'pipeline-fd', 'mesh'): {
        'obj': '61ea46503af75136f88f530436294c010ebfe4917c189f5fc8575a90837fbd36',
        'sidecar': 'bdb57c59dea222974b919b0b44b4bbd5d464aa908b22257c1d85d3109fbd3827',
    },
    ('saddle', 'specialized', 'curvature'): {
        'csv': '88ada76b6ed2ad36ad05ea94524546890b576d3b6f08fcbd2df26b8edd18a5c2',
        'json': 'cb96f27d2a12e48671d54beaa6880d1d44588654023f693f1d4d6e6252a97aa7',
    },
    ('saddle', 'specialized', 'mesh'): {
        'obj': '61ea46503af75136f88f530436294c010ebfe4917c189f5fc8575a90837fbd36',
        'sidecar': '4c2a0b394338761d8e48404695fde3b1e32400848aefd6b70139ba584a7df04b',
    },
    ('thm31', 'pipeline', 'curvature'): {
        'csv': '0cf7208a7b4a29b2c96927e406805784c04cb4e39f758e5251e8c85c6484f5e3',
        'json': '6ec26e399495507765398f24f41309c80426beacee67ededbeb6bf8118fd723f',
    },
    ('thm31', 'pipeline', 'mesh'): {
        'obj': 'ff6e98f270e6b873a5823cc1a0a690e1413584581f646cab3d2e94a571eb6d80',
        'sidecar': 'e1f2bb56803773b2bf361e14d25f36822106d881b97a11f2c100e8367b8fe010',
    },
    ('thm31', 'pipeline-fd', 'curvature'): {
        'csv': '7f32f9041d6294c0500a32fd1153203212c1c545d65ac905a2b395df645e83e5',
        'json': '365c997588fc2ba5dd3b8ec6e5be8473da899ae34c50e81922a87fa7eb045f8e',
    },
    ('thm31', 'pipeline-fd', 'mesh'): {
        'obj': 'ff6e98f270e6b873a5823cc1a0a690e1413584581f646cab3d2e94a571eb6d80',
        'sidecar': 'b58c913fb1f4e1abee2ae7468f00c955393327337cc09413d6d90f7e9bf738d4',
    },
    ('thm31', 'specialized', 'curvature'): {
        'csv': '3e9de356c034f8b3a0d95adc1e5e512324f1f810db38bf9a7e230b7ae073ca5a',
        'json': '022d62021dbc5610404796bdd7225fb4b6e5de1972d6082b51f8334ced46bcd4',
    },
    ('thm31', 'specialized', 'mesh'): {
        'obj': 'ff6e98f270e6b873a5823cc1a0a690e1413584581f646cab3d2e94a571eb6d80',
        'sidecar': '5cac4b4ddaf2a2412300dd7934a4e4954ec633d69ecb4184a0e20ad2b2ded1ae',
    },
    ('thm42_timelike', 'pipeline', 'curvature'): {
        'csv': 'c10f0f23580a5dfe146b0ae517fada68838589e90ac4164c46897f1401649aa2',
        'json': '0afc900e71cd2566e3c5ae6edc824d98816683ba26d820bb42fb16d52118cf94',
    },
    ('thm42_timelike', 'pipeline', 'mesh'): {
        'obj': 'd40148b6e3e5147c38867dd2863f525499a6eeb84504a8ad9ab6f214e85451d4',
        'sidecar': 'f607128c7c9c8f55fccdaa04f0c87c2b6de2b4d6700337911eaf1ee035125b03',
    },
    ('thm42_timelike', 'pipeline-fd', 'curvature'): {
        'csv': '93b4c052202a5d5de1916f43fa8f3812bfa0461effe265c73e8086d5130269f4',
        'json': '652e3e51e1fc6a2d73eb905a80f34ca1ef520a7cda0fc1089ae6bad5bc4dfdf8',
    },
    ('thm42_timelike', 'pipeline-fd', 'mesh'): {
        'obj': 'd40148b6e3e5147c38867dd2863f525499a6eeb84504a8ad9ab6f214e85451d4',
        'sidecar': '86a0badf7786e54f05a356e9077d01824195df9240c075a590deb2876173daed',
    },
    ('thm42_timelike', 'specialized', 'curvature'): {
        'csv': 'b1a4b24953ea0d6ee04b9da0b811396cabbb236bc8302b68facd5bfc8b163258',
        'json': 'adddcbb73ca15ac16eefc97ef405f1412892dc57447b1298a774ef281e8df835',
    },
    ('thm42_timelike', 'specialized', 'mesh'): {
        'obj': 'd40148b6e3e5147c38867dd2863f525499a6eeb84504a8ad9ab6f214e85451d4',
        'sidecar': 'b2b04ed6f0321e8715ca0badb981265b0873918c407d6a63807ee61dd09c9463',
    },
}


def _run(tmp_path, case, route, command, to_files=True):
    cfg = {**CASES[case], "formulas": route}
    if to_files:
        cfg["output"] = {key: str(tmp_path / f"out.{key}") for key in COMMANDS[command]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 0


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_digests(tmp_path, case, route, command):
    _run(tmp_path, case, route, command)
    got = {key: hashlib.sha256((tmp_path / f"out.{key}").read_bytes()).hexdigest()
           for key in COMMANDS[command]}
    assert got == DIGESTS[case, route, command]


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_files(tmp_path, capsys, case, route, command):
    _run(tmp_path, case, route, command)
    files = b"".join((tmp_path / f"out.{key}").read_bytes() for key in COMMANDS[command])
    capsys.readouterr()
    _run(tmp_path, case, route, command, to_files=False)
    assert capsys.readouterr().out.encode("utf-8") == files


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(0.0)
@example(-0.0)
@example(float("inf"))
@example(float("-inf"))
@example(float("nan"))
@example(5e-324)
@example(-2.2250738585072009e-308)
@example(1.7976931348623157e308)
def test_percent_format_matches_format(value):
    assert "%.17g" % value == format(value, ".17g")
