"""Byte pins for the CLI's text outputs.

Each case runs `curvature` and `mesh` over every `formulas` route and
compares the sha256 of every output file (CSV, JSON, OBJ, sidecar) with a
frozen digest, so any change to how floats, rows or faces are printed
shows up here.  With no `output.*` key a command's first output (the CSV,
the OBJ) goes to stdout with the same bytes, and its second is not
written.  The commands sweep the grid in row
blocks: the same digests hold with blocks of 1 and 3 rows, with the
renderer's chunks cut to 4 points or to two rows, and two grids above
2**15 points pin the default blocks.  The digests depend on numpy's
floating-point results for the family evaluators; they were recorded with
numpy 2.4 on x86-64.

The serializers format a float column once per axis value where its bits
allow, and print every other float column through `%s` fields from one
numpy renderer, once per distinct bit pattern where its cells repeat
fewer patterns than half their number and once per cell otherwise, one
`%` per grid row with no excluded point.  The renderer computes the exact
17 digits of each float that `format(x, ".17g")` prints in fixed notation
(its decade from exact bounds, the scaled value as an exact two-double
product, ties rounded half to even on an even integer) and hands the
others to `format`.  A property test compares the renderer with `format`
byte for byte on raw bit patterns, powers of ten and their neighbours,
exact ties and chunk and row ends, and checks that it hands `format`
exactly the floats outside fixed notation; it runs again in a child with
numpy's AVX-512 loops disabled.  A second property test compares the
serializers with a per-cell reference on synthetic sweeps, and call
counts pin that the axis columns are formatted once per axis value and
that the other columns hand `format` only their floats outside fixed
notation.  The face lines, bytes built by numpy from one word per vertex
number, are compared with a per-face reference on a grid whose vertex
numbers cross 10**4, with dropped cells and rows, in chunks of two rows
and of 3 cells and on a row longer than a block; each vertex word prints
its number at every power-of-ten boundary and at `MAX_GRID_POINTS`.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgsurf import cli, factorable, render
from pgsurf.cli import main
from pgsurf.factorable import row_spans

CASES = {
    "thm31": {"family": {"name": "thm31", "k0": 1.0}, "grid": {"n1": 13, "n2": 9}},
    "thm42_timelike": {"family": {"name": "thm42", "h0": 0.5, "causal": "timelike"},
                       "grid": {"n1": 11, "n2": 8}},
    "thm32_timelike": {"family": {"name": "thm32", "h0": 0.7, "lam1": 0.2, "f0": 1.5,
                                  "causal": "timelike"},
                       "grid": {"n1": 10, "n2": 9}},
    "thm32_spacelike": {"family": {"name": "thm32", "h0": -0.4, "lam1": -0.3, "lam2": 0.5,
                                   "causal": "spacelike"},
                        "grid": {"n1": 9, "n2": 12}},
    "thm42_spacelike": {"family": {"name": "thm42", "h0": 0.9, "lam1": -0.7, "lam2": 0.8,
                                   "causal": "spacelike"},
                        "grid": {"n1": 12, "n2": 7}},
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
    ('thm32_spacelike', 'pipeline', 'curvature'): {
        'csv': '9aa8aca3cb64ad9a24aca4b2e1ac1e16baf682f8fe8f20cbd35e5e274bf05afe',
        'json': '1e972271b6c3f65ee52b84327a9a5e9575aac458b8ad44ec8e36ffb56ed843e1',
    },
    ('thm32_spacelike', 'pipeline', 'mesh'): {
        'obj': 'ba1a2a5d216323ab321cd9a1d643ecc9933fca6afcff6994e3d50055202d2bb8',
        'sidecar': 'e03a09534a8898e0f5f413b89fd61d0dcc1bdfcd591c078393dc54e172a8a873',
    },
    ('thm32_spacelike', 'pipeline-fd', 'curvature'): {
        'csv': '1f4e5bfc912df8a458e09a7362ea850784f343983813528d9943b0017f070e60',
        'json': '118391dd33f56547872c5799f7bdc4c2dee3ec080147532138ea408c0382f03c',
    },
    ('thm32_spacelike', 'pipeline-fd', 'mesh'): {
        'obj': 'ba1a2a5d216323ab321cd9a1d643ecc9933fca6afcff6994e3d50055202d2bb8',
        'sidecar': '6439c4b407cc8f75d791519c1a99e103d213871f43bde5f455addcd5cbceb901',
    },
    ('thm32_spacelike', 'specialized', 'curvature'): {
        'csv': 'c51b61bc8609edb69c7bd147c1ec738dd2589818fea304de9c6d1a66962479ec',
        'json': '0391d930621cd37a933ddfad7c952736d329549a6eb525b0860978e8bc4c41f4',
    },
    ('thm32_spacelike', 'specialized', 'mesh'): {
        'obj': 'ba1a2a5d216323ab321cd9a1d643ecc9933fca6afcff6994e3d50055202d2bb8',
        'sidecar': '7f5fdbbaedfc044a72b92d11a9a15017c59d4f27ab06ec4a1f3643289bf8d11b',
    },
    ('thm32_timelike', 'pipeline', 'curvature'): {
        'csv': 'b47bbd067af6ff2687c4ad7727184d19209607cc4ec635977b7df48557075535',
        'json': '33f7daf4cb5d3378635b95372c443ec4b9a935d24be0c53a956bca4aba0360b0',
    },
    ('thm32_timelike', 'pipeline', 'mesh'): {
        'obj': '3fd9246e40a070a5ef5d64ee99cac1f1d5b58a128653ab8ba5ce426a00ac8b9e',
        'sidecar': '35b1b00b6d7491955ff0d485756cbc2805c0c8d94029f0fbe75541d8c31ba56c',
    },
    ('thm32_timelike', 'pipeline-fd', 'curvature'): {
        'csv': 'bf3818693d2148daf9acf61f354d961ff12e6066436d130cf2b09d65543e4c92',
        'json': '73f07ca3ee46c0a30bdd38253a9326a150281691ab07184af3e2095f5557f583',
    },
    ('thm32_timelike', 'pipeline-fd', 'mesh'): {
        'obj': '3fd9246e40a070a5ef5d64ee99cac1f1d5b58a128653ab8ba5ce426a00ac8b9e',
        'sidecar': '36af15d3ef45ebd300d04c1d4871aac041e4fa900ddacf1e8f5f8e333b031515',
    },
    ('thm32_timelike', 'specialized', 'curvature'): {
        'csv': '4d838a8b98cf325869e9cd0cf01f7789b9d5797180bc9965db37262df1c861ba',
        'json': 'a9293f9ebcd189fc39885439c503c91dafbf60e2c0376c99b8e0cd4a736e34b2',
    },
    ('thm32_timelike', 'specialized', 'mesh'): {
        'obj': '3fd9246e40a070a5ef5d64ee99cac1f1d5b58a128653ab8ba5ce426a00ac8b9e',
        'sidecar': 'e5cb01712c76ea5e316cdb3877d9680c429b69662c57fb01f7c38b3ed730ca81',
    },
    ('thm42_spacelike', 'pipeline', 'curvature'): {
        'csv': 'ea56b49f0a037978348b7f05dbfd23e85a3d6be65ce0aff3f1b55fe896511a30',
        'json': 'fe06646f0d4a418f7875fd82d2783abc26d28ee036d8fbf7c2aac9d7c7d5fa94',
    },
    ('thm42_spacelike', 'pipeline', 'mesh'): {
        'obj': 'abb872771192859832dae0cfdb61bdb13f097c3bf1864867c5cf2619d8dc07f2',
        'sidecar': '09cad73e8c7de45ecc15fd8205d458987e7d978f0ecd4f59599ef6f278f1ca60',
    },
    ('thm42_spacelike', 'pipeline-fd', 'curvature'): {
        'csv': '88b4804595c9bfb51c4651c17862dcd43dcea1bc9dc267d97aad1757905bdb4d',
        'json': '2faef423b805c8f9912e7f8a7cfc89f50dfab6ceeb983b8aec1aaeb7b2e4a1c4',
    },
    ('thm42_spacelike', 'pipeline-fd', 'mesh'): {
        'obj': 'abb872771192859832dae0cfdb61bdb13f097c3bf1864867c5cf2619d8dc07f2',
        'sidecar': '40c9c7d213d1fa2b6368b71a4a0608f59d04e704ba8e61541e1c0b8d1b6cee8d',
    },
    ('thm42_spacelike', 'specialized', 'curvature'): {
        'csv': 'e78373d4ef0324e4b4711e374ea8db3f38369ed967afba8bec4c783ff774f414',
        'json': '90fd87d1e00ac8ca25cef84350c1b45c1e09b46eb2498f6948705ac6083cac36',
    },
    ('thm42_spacelike', 'specialized', 'mesh'): {
        'obj': 'abb872771192859832dae0cfdb61bdb13f097c3bf1864867c5cf2619d8dc07f2',
        'sidecar': 'b992ae69da11138651d4fd63791ed5bcad27ec1c1459c0a4ff7f649817a2e4bc',
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


# grids above 2**15 points, so that the default row blocks cut them; the
# saddle's lightlike row x = 1 falls inside its second block
BLOCK_CASES = {
    "thm42_blocks": {"family": {"name": "thm42", "h0": 0.9, "lam1": -0.7, "lam2": 0.8,
                                "causal": "spacelike"},
                     "grid": {"n1": 301, "n2": 304}},
    "saddle_blocks": {"family": {"name": "saddle"},
                      "grid": {"u1": [0.5, 1.5], "u2": [-0.5, 0.5], "n1": 251, "n2": 200}},
}

BLOCK_DIGESTS = {
    ('saddle_blocks', 'pipeline', 'curvature'): {
        'csv': '09de7a86d8364f667a95d7cd14403295bb991ade5b71e75fa87d9fa9dca3c3bd',
        'json': '29998347192dbf7f82d3c0242d4694e4096c55267c870f1417954d9b78bb3a54',
    },
    ('saddle_blocks', 'pipeline', 'mesh'): {
        'obj': '9f1126838ae7e7dad39a2933267444d3fd251215b55760c43915e4c3a46e9aa4',
        'sidecar': '2fa6b2e84810f4ae59f595a0f30300cc2a455eb9e4740ffc72e06635fa622de1',
    },
    ('saddle_blocks', 'pipeline-fd', 'curvature'): {
        'csv': '33437f41ca0817b523fe8c6cc8c623aa4776d25e1e566af45af93c2dab627ae3',
        'json': 'c5c94f9ee47218b29def69dbc71773fd4eb8aa4da0ded291ba5dcf25e82ea742',
    },
    ('saddle_blocks', 'pipeline-fd', 'mesh'): {
        'obj': '9f1126838ae7e7dad39a2933267444d3fd251215b55760c43915e4c3a46e9aa4',
        'sidecar': '3e112e2e23df951f1ddcd42301dc0502fc677663a652d323354ccc75cc2cb090',
    },
    ('saddle_blocks', 'specialized', 'curvature'): {
        'csv': 'ac8caa4628998f93b04c9f128e2b9e72f202d2ea0ca5d7761b8fbcc96d23d424',
        'json': 'a69479baae69046edece35b6d0fd4cd91503bcf8f3685bacdc0f8b5bfe5fc6e5',
    },
    ('saddle_blocks', 'specialized', 'mesh'): {
        'obj': '9f1126838ae7e7dad39a2933267444d3fd251215b55760c43915e4c3a46e9aa4',
        'sidecar': '29a1ac17a5b3d120078ff7b67bcd10807125cd2fb40dec423e545240221050ff',
    },
    ('thm42_blocks', 'pipeline', 'curvature'): {
        'csv': 'd3662b2467e532d8944c98add07a7e923d1bc1e7e763517139d0a32a07c8619b',
        'json': 'ea99478cc5ca27973727727bd2459e41c6b9b112e9bcaeaebe5ca67f2c496da3',
    },
    ('thm42_blocks', 'pipeline', 'mesh'): {
        'obj': 'b6a837bd723e3a2e2ec39924569574bb3fb28f20796fffd86b6409933d4e829d',
        'sidecar': '0579591e463793a3e09b343a0fa7ae68eb7f41bfaf18fdeca0559e21eb014741',
    },
    ('thm42_blocks', 'pipeline-fd', 'curvature'): {
        'csv': '54ccc71161a20b87ad460045e3b5a4e7ddeeffaed55ca1128e6fe963e0ba734d',
        'json': '58f46dfee0bb83719f61929695f4e014022a66efc27b727ad85a13c6449a03e0',
    },
    ('thm42_blocks', 'pipeline-fd', 'mesh'): {
        'obj': 'b6a837bd723e3a2e2ec39924569574bb3fb28f20796fffd86b6409933d4e829d',
        'sidecar': '6db7da85f2ace09d78df2ed62ae4b5cef28f02737d0dc506f5f3f7f2b3b4ace9',
    },
    ('thm42_blocks', 'specialized', 'curvature'): {
        'csv': '83e434aba46f5e634586a856fc84a599ba884cf385283a37911125ee300c8c3c',
        'json': 'b668af9fe51d91a53bdd0836027b946f6fcad7b33baa75607bf32b6227923cfc',
    },
    ('thm42_blocks', 'specialized', 'mesh'): {
        'obj': 'b6a837bd723e3a2e2ec39924569574bb3fb28f20796fffd86b6409933d4e829d',
        'sidecar': '4baf04f5d418aece90f42bddeb6de1463a3908950a4c39247e714539e16645e5',
    },
}


def _run(tmp_path, case, route, command, to_files=True):
    cfg = {**CASES, **BLOCK_CASES}[case] | {"formulas": route}
    if to_files:
        cfg["output"] = {key: str(tmp_path / f"out.{key}") for key in COMMANDS[command]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 0


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_digests(tmp_path, case, route, command):
    assert _digests(tmp_path, case, route, command) == DIGESTS[case, route, command]


def _digests(tmp_path, case, route, command):
    """The sha256 of each output file of the run; each file is deleted once
    hashed, so the test leaves no output on the disk."""
    _run(tmp_path, case, route, command)
    digests = {}
    for key in COMMANDS[command]:
        path = tmp_path / f"out.{key}"
        digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
        path.unlink()
    return digests


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("rows, chunk", [
    pytest.param(1, None, id="1"), pytest.param(3, None, id="3"), pytest.param(None, None, id="None"),
    pytest.param(3, 4, id="3-chunk4"), pytest.param(3, "two rows", id="3-chunk2rows")])
def test_output_digests_in_row_blocks(tmp_path, monkeypatch, rows, chunk, case, route, command):
    """The bytes do not depend on how many grid rows a sweep block holds,
    nor on spans of 3 points cutting each row (`rows` None), nor on the
    renderer's chunks cutting a block of three rows: chunks of 4 points,
    shorter than every row, or of two whole rows."""
    n2 = CASES[case]["grid"]["n2"]
    width = 3 if rows is None else rows * n2
    monkeypatch.setattr(factorable, "_BLOCK_POINTS", width)
    if chunk is not None:
        monkeypatch.setattr(cli, "_CHUNK", 2 * n2 + 1 if chunk == "two rows" else chunk)
    assert _digests(tmp_path, case, route, command) == DIGESTS[case, route, command]


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_output_digests_of_grids_of_several_blocks(tmp_path, case, route, command):
    assert _digests(tmp_path, case, route, command) == BLOCK_DIGESTS[case, route, command]


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_files(tmp_path, capsys, case, route, command):
    _run(tmp_path, case, route, command)
    first = (tmp_path / f"out.{COMMANDS[command][0]}").read_bytes()
    files = sorted(tmp_path.iterdir())
    capsys.readouterr()
    _run(tmp_path, case, route, command, to_files=False)
    assert capsys.readouterr().out.encode("utf-8") == first
    assert sorted(tmp_path.iterdir()) == files


@pytest.mark.parametrize("case", sorted(CASES))
def test_routes_agree_under_the_sign_contract(tmp_path, case):
    """`curvature` on `pipeline` and on `specialized` print the same u1, u2,
    x, y, z and excluded flag on every row.  On an included row they print
    the same epsilon and W, and K_pipeline = -epsilon*K_closed and
    H_pipeline = H_closed within 1e-8."""
    tables = {}
    for route in ("pipeline", "specialized"):
        (tmp_path / route).mkdir()
        _run(tmp_path / route, case, route, "curvature")
        lines = (tmp_path / route / "out.csv").read_text().splitlines()[1:]
        tables[route] = [line.split(",") for line in lines]
    pipe, closed = tables["pipeline"], tables["specialized"]
    assert len(pipe) == len(closed) == CASES[case]["grid"]["n1"] * CASES[case]["grid"]["n2"]
    included = 0
    for p, c in zip(pipe, closed):
        assert p[:5] == c[:5] and p[9] == c[9]
        if p[9] == "0":
            included += 1
            assert p[7:9] == c[7:9]
            assert abs(float(p[5]) + float(p[7]) * float(c[5])) < 1e-8
            assert abs(float(p[6]) - float(c[6])) < 1e-8
    assert included


# `verify` reports: exit code, sha256 of the JSON report (None when the run
# writes none) and of standard error
VERIFY_CASES = {
    "thm31": {"family": {"name": "thm31", "k0": 1.3, "lam1": 0.4, "lam2": -0.3},
              "grid": {"n1": 30, "n2": 30}},
    "thm32": {"family": {"name": "thm32", "h0": 0.7, "lam1": 0.2, "f0": 1.5,
                         "causal": "timelike"},
              "grid": {"n1": 30, "n2": 30}},
    "thm42": {"family": {"name": "thm42", "h0": 0.5}, "grid": {"n1": 30, "n2": 30}},
    # several row blocks
    "thm42_blocks": {"family": {"name": "thm42", "h0": 0.9, "lam1": -0.7, "lam2": 0.8,
                                "causal": "spacelike"},
                     "grid": {"n1": 301, "n2": 304}},
    # the motion suite fails by conditioning
    "motion_conditioning": {"family": {"name": "thm42", "h0": -0.75, "lam1": 1.0, "lam2": 1.0,
                                       "lam3": 0.0, "causal": "spacelike"},
                            "grid": {"n1": 30, "n2": 30}, "motions": 100, "seed": 0},
    # K and H overflow, so the cross-check is rejected
    "overflow": {"family": {"name": "thm42", "h0": 0.5, "lam1": 1e-13, "lam2": 8.0},
                 "grid": {"u2": [-40.0, 40.0]}},
    # the radicand is not positive on the grid: every point is excluded,
    # exit 3 with one `grid rejected` line, no report
    "branch": {"family": {"name": "thm32", "h0": 1.0, "causal": "spacelike"},
               "grid": {"u2": [-0.4, 0.4]}},
}

VERIFY_DIGESTS = {
    'branch': (3, None,
        '92c23c51101af0af607213d87d5a7bae0cc44c5ffdcc403149a3671b75c3bdcd'),
    'motion_conditioning': (1, 'bb9828f7448b91960988a30be730baefaa4b4f2911ca062b7973d2ee82ea2779',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'overflow': (1, 'c7af08295a50e59aec1fe05b5f5b141db2d7027da67e44e90d46b1c017eb1da6',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'thm31': (0, 'd5b04d3ce954ad580c27dec34368a282e110fdbf1dd0937237e7abe10d69333b',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'thm32': (0, 'f89d64c772963340920086970ff691e4723a83f20e9dee9e4b55f868f06cbdf6',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'thm42': (0, '7e87efcb125b6057ecf629520c71c868d0f04d4a757bd1e126c6554cb6392501',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'thm42_blocks': (0, '14127a3b734f6d5150d0834354a3c0c3bc1298a538a773d63293d75616d9e50f',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


@pytest.mark.parametrize("case", sorted(VERIFY_CASES))
def test_verify_digests(tmp_path, capsys, case):
    out = tmp_path / "v.json"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**VERIFY_CASES[case], "output": {"json": str(out)}}))
    capsys.readouterr()
    code = main(["verify", "--config", str(path)])
    report = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    err = hashlib.sha256(capsys.readouterr().err.encode("utf-8")).hexdigest()
    assert (code, report, err) == VERIFY_DIGESTS[case]


# `reconstruct` reports, pinned the same way: exit code, sha256 of the JSON
# report (None when the run writes none) and of standard error
RECONSTRUCT_CASES = {
    "thm31_plus": {"theorem": "3.1", "k0": 1.3, "g0": 0.8, "lam1": 0.2, "sign": 1},
    "thm31_minus": {"theorem": "3.1", "k0": -0.7, "lam1": -0.4, "sign": -1},
    "thm32_spacelike_lam": {"theorem": "3.2", "h0": 0.6, "f0": 1.4, "lam": 0.3,
                            "causal": "spacelike"},
    "thm32_timelike_lam": {"theorem": "3.2", "h0": -0.4, "f0": 0.9, "lam": -1.5,
                           "causal": "timelike", "y0": 0.2},
    "thm32_spacelike_u0": {"theorem": "3.2", "causal": "spacelike", "u0": 0.5},
    "thm32_timelike_u0": {"theorem": "3.2", "causal": "timelike", "u0": -1.2},
    # exit 4: the three ways the 3.2 branch bookkeeping rejects a run
    "slope_on_boundary": {"theorem": "3.2", "causal": "timelike", "u0": 1.0},
    "slope_on_wrong_side": {"theorem": "3.2", "causal": "timelike", "u0": 0.5},
    "crossing_mid_corridor": {"theorem": "3.2", "causal": "spacelike", "h0": 5.0,
                              "lam": -3.5, "h": 0.1},
    # exit 4: the corridor leaves |w| > 1, at its start or at its end, with
    # one message
    "timelike_start_inside": {"theorem": "3.2", "causal": "timelike", "lam": 0.5},
    "thm32_corridor": {"theorem": "3.2", "causal": "timelike", "lam": -1.5},
    "thm42_corridor": {"theorem": "4.2", "z0": 0.2},
    # g exceeds the float range; compared in log space
    "thm42_overflow": {"theorem": "4.2", "lam1": 1000.0},
}

RECONSTRUCT_DIGESTS = {
    'crossing_mid_corridor': (4, None,
        '9a4237dc0c34dc53b7868c034572055ac31ac193be2da46d2f0613932eae4519'),
    'slope_on_boundary': (4, None,
        'fb9ff838296bbc67d44f612804ea9fa5a97ad7d3ae968966142088a6774deaeb'),
    'slope_on_wrong_side': (4, None,
        'be8b949b44c4c47bd320c83f99f37b076bd641d3c7b35db91291e7b984700cbd'),
    'thm31_minus': (0, '3a0117775767608a9da4f011eb89a7bc9c1d600396819c49fc9a8c54ad77ae58',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'thm31_plus': (0, '55e609db6dfaf14493d90ea7e6d1e48ae361105285732b1784bffdefd39d5655',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'thm32_corridor': (4, None,
        'a9881ebaa86c450e624851092bc98fd4ad3279aea21870195eeeaa7fec908529'),
    'thm32_spacelike_lam': (0, 'd4975d729aba865335d7254f41521aa37eb664cfb31b8aa629d3601eb95f02e4',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'thm32_spacelike_u0': (0, 'f7fe248861af00ffc98feb852cca4b4e824595feb5ee63cca2af6da734e04c02',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'thm32_timelike_lam': (0, '54f4981b86ffa3b3c2ca2ae183d8debe61d95f1d5efbf35c3fba0618592b39d0',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'thm32_timelike_u0': (0, '95106ab13f9e7f5d2562a1d8690f879a945b82dccb1f5d1e061e0dd029fecbf5',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'thm42_corridor': (4, None,
        'c76bb50b1ee7f54d2c7cc5eedc6c89c7b71fdb274f7a6933cf0c310d468c73ea'),
    'thm42_overflow': (0, '5efcc1f73b2875156e73409d44846cca7e12d861437da9b4e2fa100d91da4a89',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'timelike_start_inside': (4, None,
        'a9881ebaa86c450e624851092bc98fd4ad3279aea21870195eeeaa7fec908529'),
}


@pytest.mark.parametrize("case", sorted(RECONSTRUCT_CASES))
def test_reconstruct_digests(tmp_path, capsys, case):
    out = tmp_path / "r.json"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**RECONSTRUCT_CASES[case], "output": {"json": str(out)}}))
    capsys.readouterr()
    code = main(["reconstruct", "--config", str(path)])
    report = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    err = hashlib.sha256(capsys.readouterr().err.encode("utf-8")).hexdigest()
    assert (code, report, err) == RECONSTRUCT_DIGESTS[case]


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


# ---------------------------------------------------------------------------
# the column rule: each float column is formatted once per axis value where
# its bits allow, and the text equals formatting every cell
# ---------------------------------------------------------------------------

FLOAT_COLUMNS = ("U1", "U2", "x", "y", "z", "K", "H", "eps", "W")
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
# NaNs with several payloads and signs, by their bits
NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                 0x7FF8DEADBEEF0001], dtype=np.uint64).view(np.float64).tolist()
SPECIALS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, *NANS])


def _cell(data, key, i, j):
    return format(float(data[key][i, j]), ".17g")


def _reference_csv(data):
    n1, n2 = data["excluded"].shape
    lines = [cli.CSV_HEADER]
    for i in range(n1):
        for j in range(n2):
            cells = [_cell(data, k, i, j) for k in FLOAT_COLUMNS[:5]]
            if data["excluded"][i, j]:
                lines.append(",".join(cells) + ",,,,,1")
            else:
                lines.append(",".join(cells + [_cell(data, k, i, j) for k in FLOAT_COLUMNS[5:]]) + ",0")
    return "\n".join(lines) + "\n"


def _reference_obj(data, faces):
    n1, n2 = data["excluded"].shape
    lines = [f"# pg-surf mesh {n1}x{n2}"]
    lines += ["v " + " ".join(_cell(data, k, i, j) for k in "xyz")
              for i in range(n1) for j in range(n2)]
    for i in range(n1 - 1):
        for j in range(n2 - 1):
            if faces[i, j]:
                a = i * n2 + j + 1
                lines.append(f"f {a} {a + n2} {a + n2 + 1} {a + 1}")
    return "\n".join(lines) + "\n"


def _reference_sidecar(data):
    n1, n2 = data["excluded"].shape
    lines = ["vertex,u1,u2,K,H,excluded"]
    for i in range(n1):
        for j in range(n2):
            cells = [str(i * n2 + j + 1), _cell(data, "U1", i, j), _cell(data, "U2", i, j)]
            if data["excluded"][i, j]:
                lines.append(",".join(cells) + ",,,1")
            else:
                lines.append(",".join(cells + [_cell(data, "K", i, j), _cell(data, "H", i, j)]) + ",0")
    return "\n".join(lines) + "\n"


def _sweep_dict(n1, n2, columns=None, excluded=None):
    """A sweep as `curvature`/`mesh` print it: every float column is a grid
    column of the first kind (x = u1, y = u2) unless `columns` gives it."""
    u1 = np.broadcast_to(np.linspace(-1.0, 1.0, n1)[:, None], (n1, n2))
    u2 = np.broadcast_to(np.linspace(0.5, 2.0, n2)[None, :], (n1, n2))
    data = {"U1": u1, "U2": u2, "x": u1.copy(), "y": u2.copy(), "z": u1 * u2,
            "K": np.full((n1, n2), -1.0), "H": np.sin(u1 + u2), "eps": np.ones((n1, n2)),
            "W": np.cos(u2) + 0.0 * u1}
    data.update({k: np.array(v, dtype=float) for k, v in (columns or {}).items()})
    data["excluded"] = (np.zeros((n1, n2), dtype=bool) if excluded is None
                        else np.array(excluded, dtype=bool))
    return data


def _except_one_cell():
    data = _sweep_dict(4, 5)
    x = data["x"].copy()
    x[2, 3] = 7.5
    return {**data, "x": x}


def _signed_zeros():
    u2 = np.array([[-0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [-0.0, 0.0, 1.0]])
    return _sweep_dict(3, 3, {"U2": u2, "y": u2})


def _excluded_row():
    excluded = np.zeros((3, 4), dtype=bool)
    excluded[1] = True
    return _sweep_dict(3, 4, {"K": np.full((3, 4), np.nan)}, excluded)


def _included_specials():
    """No point excluded; the free K column holds NaNs with several payloads
    and signs, -0.0 and both infinities."""
    k = np.concatenate([NANS, [-0.0, np.inf, -np.inf, 0.0, 1.5, -2.5, 1e-310, 3.0]]).reshape(3, 4)
    return _sweep_dict(3, 4, {"K": k})


def _repeated_specials():
    """No point excluded; the free K column repeats -0.0, 0.0 and two NaN
    payloads, fewer bit patterns than half its cells."""
    pool = np.array([-0.0, 0.0, NANS[0], NANS[3]])
    return _sweep_dict(3, 4, {"K": pool[[0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 0, 1]].reshape(3, 4)})


def _row_ends_excluded():
    excluded = np.zeros((3, 5), dtype=bool)
    excluded[1, [0, -1]] = True
    return _sweep_dict(3, 5, excluded=excluded)


def _two_columns():
    excluded = np.zeros((4, 2), dtype=bool)
    excluded[2, 1] = True
    return _sweep_dict(4, 2, {"K": np.arange(8.0).reshape(4, 2)}, excluded)


def _face_row_without_faces():
    """Row 2 is excluded at every other point, so face rows 1 and 2 keep no
    face while rows 0 and 3 keep all of theirs."""
    excluded = np.zeros((5, 4), dtype=bool)
    excluded[2, [0, 2]] = True
    return _sweep_dict(5, 4, excluded=excluded)


@st.composite
def sweeps(draw):
    """Sweep dicts on 2x2 to 6x7 grids; each float column is constant,
    constant along axis 0, constant along axis 1 or free, and a column
    constant along an axis is a broadcast view or a materialised grid.
    A free column draws its cells from independent floats or from a pool
    of 1 to 4 floats that may hold both zeros, NaN payloads, both
    infinities and a subnormal, so its bit patterns repeat.  Each grid
    row excludes no point, every point or a drawn subset, so both the
    one-`%` row and the line-by-line row are drawn."""
    n1, n2 = draw(st.integers(2, 6)), draw(st.integers(2, 7))
    columns = {}
    for key in FLOAT_COLUMNS:
        shape = draw(st.sampled_from([(1, 1), (1, n2), (n1, 1), (n1, n2)]))
        cells = FLOATS
        if shape == (n1, n2) and draw(st.booleans()):
            cells = st.sampled_from(draw(st.lists(FLOATS | SPECIALS, min_size=1, max_size=4)))
        values = np.array(draw(st.lists(cells, min_size=shape[0] * shape[1],
                                        max_size=shape[0] * shape[1])), dtype=float)
        grid = np.broadcast_to(values.reshape(shape), (n1, n2))
        columns[key] = grid if draw(st.booleans()) else grid.copy()
    excluded = []
    for kind in draw(st.lists(st.sampled_from(["none", "all", "random"]),
                              min_size=n1, max_size=n1)):
        excluded.append([False] * n2 if kind == "none" else [True] * n2 if kind == "all"
                        else draw(st.lists(st.booleans(), min_size=n2, max_size=n2)))
    return {**columns, "excluded": np.array(excluded, dtype=bool)}


@settings(max_examples=80, deadline=None)
@given(sweeps())
@example(_except_one_cell())
@example(_signed_zeros())
@example(_excluded_row())
@example(_included_specials())
@example(_repeated_specials())
@example(_row_ends_excluded())
@example(_two_columns())
@example(_face_row_without_faces())
def test_column_rule_matches_per_cell_format(data):
    ex = data["excluded"]
    faces = ~(ex[:-1, :-1] | ex[1:, :-1] | ex[1:, 1:] | ex[:-1, 1:])
    # the sweep cut by `row_spans` as one block, as blocks of two grid rows
    # and as blocks of 3 points, which splits a row of the text and of the
    # faces into spans where it is longer
    for width in (factorable._BLOCK_POINTS, 2 * ex.shape[1], 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(factorable, "_BLOCK_POINTS", width)
            blocks = [{k: v[span] for k, v in data.items()} for span in row_spans(*ex.shape)]
            firsts = np.cumsum([1] + [block["excluded"].size for block in blocks])
            csv = "".join(line for block in blocks for line in cli._csv_lines(block))
            obj = "".join(line for block in blocks for line in cli._vertex_lines(block))
            sidecar = "".join(line for block, first in zip(blocks, firsts.tolist())
                              for line in cli._sidecar_lines(block, first))
            n1, n2 = ex.shape
            assert cli.CSV_HEADER + "\n" + csv == _reference_csv(data)
            assert (f"# pg-surf mesh {n1}x{n2}\n" + obj + "".join(cli._face_lines(faces))
                    == _reference_obj(data, faces))
            assert "vertex,u1,u2,K,H,excluded\n" + sidecar == _reference_sidecar(data)


# ---------------------------------------------------------------------------
# the row assembly: `_lines` against every cell formatted by itself
# ---------------------------------------------------------------------------

def _line_columns(n1, n2):
    """One column of each rule, in an order that puts cell columns before,
    among and after the leading fields of an excluded line: vertex numbers,
    constant per row, constant per position, per cell (with floats outside
    fixed notation), repeated patterns (both zeros and a NaN), per cell,
    constant per position."""
    rng = np.random.default_rng(44)
    per_cell = rng.standard_normal((n1, n2)) * 10.0 ** rng.integers(-6, 20, (n1, n2))
    per_cell[0, :2] = 1e-300, -0.0
    pool = np.array([-0.0, 0.0, NANS[2]])
    return [np.arange(7, 7 + n1 * n2).reshape(n1, n2),
            np.broadcast_to(np.linspace(-1.0, 1.0, n1)[:, None], (n1, n2)),
            np.broadcast_to(np.linspace(0.5, 2.0, n2), (n1, n2)),
            per_cell,
            pool[rng.integers(0, 3, (n1, n2))],
            rng.uniform(-2.0, 2.0, (n1, n2)),
            np.broadcast_to(np.arange(n2) / 3.0, (n1, n2))]


LINE_INC, LINE_EXC = "{},{},{},{},{},{},{},0\n", "{},{},{},{},,,,1\n"


def _reference_lines(columns, excluded):
    head = LINE_EXC.count("{}")
    lines = []
    for i, j in np.ndindex(excluded.shape):
        cells = [str(column[i, j]) if column.dtype.kind == "i"
                 else format(float(column[i, j]), ".17g") for column in columns]
        lines.append(LINE_EXC.format(*cells[:head]) if excluded[i, j] else LINE_INC.format(*cells))
    return "".join(lines)


def _line_masks(n1=5, n2=7):
    """Exclusion masks: none, one point, the first and the last point of a
    row, a whole row, and a masked row followed by a clean one."""
    masks = {name: np.zeros((n1, n2), dtype=bool) for name in
             ("none", "one", "row_ends", "row", "then_clean")}
    masks["one"][2, 3] = True
    masks["row_ends"][1, [0, -1]] = True
    masks["row"][3] = True
    masks["then_clean"][1, 1:n2:2] = True
    return [pytest.param(mask, id=name) for name, mask in masks.items()]


@pytest.mark.parametrize("excluded", _line_masks())
@pytest.mark.parametrize("blocks", ["whole", "rows", "spans"])
def test_lines_match_per_cell_format(monkeypatch, excluded, blocks):
    """`_lines` prints what formatting every cell by itself prints, for each
    column rule and exclusion mask: in one block, in blocks of one row, and
    in spans of 3 points (`cli._CHUNK` cut to 3)."""
    columns = _line_columns(*excluded.shape)
    if blocks == "spans":
        monkeypatch.setattr(cli, "_CHUNK", 3)
    cuts = [slice(None)] if blocks == "whole" else [slice(i, i + 1) for i in range(len(excluded))]
    text = "".join(line for cut in cuts for line in cli._lines(
        [column[cut] for column in columns], LINE_INC, LINE_EXC, excluded[cut]))
    assert text == _reference_lines(columns, excluded)


# ---------------------------------------------------------------------------
# the face writer: each chunk of face lines as bytes built by numpy, each
# vertex number one 8-byte word
# ---------------------------------------------------------------------------

def _faces_kept(excluded):
    return ~(excluded[:-1, :-1] | excluded[1:, :-1] | excluded[1:, 1:] | excluded[:-1, 1:])


def _written_faces(faces):
    """The face lines as `mesh` writes them, each with its newline."""
    return "".join(cli._face_lines(faces)).splitlines(keepends=True)


def _reference_faces(faces):
    """The face lines of `_reference_obj`, each with its newline."""
    data = _sweep_dict(faces.shape[0] + 1, faces.shape[1] + 1)
    return [line + "\n" for line in _reference_obj(data, faces).splitlines() if line.startswith("f ")]


def _face_cases():
    """Face masks of a 101x100 grid, whose vertex numbers cross 10**4: every
    cell kept, a lightlike row and column, a lone dropped cell, a face row
    with no face."""
    excluded = np.zeros((101, 100), dtype=bool)
    yield pytest.param(_faces_kept(excluded), id="all")
    excluded[37] = excluded[:, 50] = True
    yield pytest.param(_faces_kept(excluded), id="lightlike")
    lone = _faces_kept(np.zeros_like(excluded))
    lone[60, 70] = False
    yield pytest.param(lone, id="lone")
    empty_row = lone.copy()
    empty_row[80] = False
    yield pytest.param(empty_row, id="empty_row")


@pytest.mark.parametrize("faces", list(_face_cases()))
@pytest.mark.parametrize("width", ["default", "two_rows", 3])
def test_face_lines_match_reference(monkeypatch, faces, width):
    """The face lines, written `cli._CHUNK` cells at a time, in chunks of
    the default size, of two rows of cells and of 3 cells (spans of a
    row), are those of the per-face reference."""
    if width != "default":
        monkeypatch.setattr(cli, "_CHUNK", 2 * faces.shape[1] if width == "two_rows" else width)
    assert _written_faces(faces) == _reference_faces(faces)


def test_face_lines_of_a_row_longer_than_a_block():
    """A grid of two rows one cell longer than a sweep block: its one row
    of cells is written in spans of `cli._CHUNK` cells, and the cells
    dropped at a span's end and at the block's end are left out."""
    n2 = factorable._BLOCK_POINTS + 2
    faces = np.ones((1, n2 - 1), dtype=bool)
    faces[0, [cli._CHUNK - 1, factorable._BLOCK_POINTS - 1]] = False
    assert _written_faces(faces) == _reference_faces(faces)


def test_vertex_words_print_their_numbers():
    """The word of a vertex number is its digits, right-aligned after NULs,
    and a space in 8 bytes: at each power-of-ten boundary below 10**7 and
    at the largest grid a configuration may ask for."""
    numbers = sorted({m for k in range(8) for m in (10 ** k - 1, 10 ** k, 10 ** k + 1)
                      if 1 <= m < 10 ** 7} | {cli.MAX_GRID_POINTS})
    words = render._vertex_words(np.array(numbers))
    assert [words[i:i + 1].tobytes() for i in range(len(numbers))] == [
        f"{n} ".encode().rjust(8, b"\0") for n in numbers]


def test_grid_limit_fits_the_vertex_words():
    """The word tables hold the numbers below 10**7, seven digits and a
    space: `MAX_GRID_POINTS`, the largest vertex number, must stay below."""
    assert cli.MAX_GRID_POINTS < 10 ** 4 * render._HIGH.size == 10 ** 7


# ---------------------------------------------------------------------------
# the per-cell renderer: the strings of format(x, ".17g") from numpy basic
# operations, with `_format` only for the floats outside fixed notation
# ---------------------------------------------------------------------------

def _signed(floats):
    return st.tuples(floats, st.booleans()).map(lambda pair: -pair[0] if pair[1] else pair[0])


# powers of ten, the ends of the fixed range and their neighbours
EDGES = sorted({float(y) for x in [float(f"1e{k}") for k in range(-6, 19)] + [1e-4, 1e17]
                for y in (np.nextafter(x, 0), x, np.nextafter(x, np.inf))})
RENDERED = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(lambda bits: float(np.array(bits, np.uint64).view(np.float64))),
    _signed(st.sampled_from(EDGES)),
    # odd * 2**-j: exact, and a tie of 17 digits where it has 18
    _signed(st.builds(lambda odd, j: odd * 2.0 ** -j,
                      st.integers(0, 2 ** 52 - 1).map(lambda i: 2 * i + 1), st.integers(0, 80))),
    SPECIALS,
    FLOATS,
)
# block shapes across row ends, `_CHUNK` ends and the renderer's padding:
# many rows to a chunk, a row to a chunk, rows cut into spans
SHAPES = [(1, 1), (3, 7), (30, 150), (cli._CHUNK + 1, 1), (2, cli._CHUNK - 1), (2, cli._CHUNK),
          (2, cli._CHUNK + 1), (1, 2 * cli._CHUNK + 1), (1, render._GRAIN), (1, render._GRAIN + 1)]


def _fixed(x):
    """Whether `format(x, ".17g")` prints x in fixed notation, by digits."""
    return 1e-4 <= abs(x) < 1e17


def _bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


@settings(max_examples=80, deadline=None)
@given(st.lists(RENDERED, min_size=1, max_size=40), st.sampled_from(SHAPES))
@example([1 + 2 ** -17], (1, 1))
@example([1 + 2 ** -17, -(1 + 2 ** -17), 0.5 + 2 ** -18], (2, cli._CHUNK + 1))
@example(EDGES, (3, 7))
@example([0.0, -0.0, *NANS, np.inf, -np.inf, 5e-324], (30, 150))
def test_renderer_matches_format(values, shape):
    """The values tiled over a block of `shape`: every cell prints as
    `format` prints it, and `_format` sees exactly the cells outside fixed
    notation, in order."""
    column = np.resize(np.array(values, dtype=float), shape)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_format", lambda x, original=cli._format: calls.append(x) or original(x))
        rows = list(cli._printed(column))
    assert rows == [[format(x, ".17g") for x in row] for row in column.tolist()]
    assert _bits(calls) == _bits([x for x in column.ravel().tolist() if not _fixed(x)])


def test_renderer_decades_are_exact():
    """Each decade bound is the smallest double at or above its power of
    ten, so the renderer's E is the decade of |x| exactly."""
    for e, bound in zip(range(-4, 17), render._DECADES.tolist()):
        assert Fraction(bound) >= Fraction(10) ** e > Fraction(float(np.nextafter(bound, 0))), e


# A child that checks that numpy dispatches no AVX-512 loop, then runs the
# renderer's equality test.
_WITHOUT_AVX512 = """
import sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
assert not __cpu_features__.get("X86_V4") and not __cpu_features__.get("AVX512_ICL"), __cpu_features__
import pytest
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[1]]))
"""


def test_renderer_without_avx512():
    """The renderer's equality test again in a child interpreter whose
    numpy dispatches no AVX-512 loop (a no-op where the CPU has none)."""
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(cli.__file__).resolve().parents[1]),
                                                       os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", _WITHOUT_AVX512,
                            f"{__file__}::test_renderer_matches_format"],
                           env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stdout + child.stderr
    assert "1 passed" in child.stdout, child.stdout


class TestColumnRuleFormatsOncePerAxisValue:
    """A thm32 `curvature` run at 40x30 on the default route: the axis
    columns, the axis position columns and eps are formatted once per axis
    value, not once per cell."""

    N1, N2 = 40, 30
    CFG = {"family": {"name": "thm32", "h0": 0.7, "lam1": 0.2, "f0": 1.5, "causal": "timelike"},
           "grid": {"n1": N1, "n2": N2}}

    @staticmethod
    def _counting(monkeypatch):
        calls = []
        original = cli._format

        def counted(value):
            calls.append(value)
            return original(value)

        monkeypatch.setattr(cli, "_format", counted)
        return calls

    def test_run_count(self, tmp_path, monkeypatch):
        calls = self._counting(monkeypatch)
        out = {"csv": str(tmp_path / "out.csv"), "json": str(tmp_path / "out.json")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.CFG, "output": out}))
        assert main(["curvature", "--config", str(path)]) == 0
        # U1 and x once per row value, the seven others once per column value
        assert len(calls) == 2 * self.N1 + 7 * self.N2

    def test_axis_columns(self, monkeypatch):
        calls = self._counting(monkeypatch)
        _, (data,) = cli._sweep(cli._read(self.CFG, cli.SCHEMA["curvature"]))
        for key in ("U1", "U2", "x", "y", "eps"):
            calls.clear()
            # a column the same in every row is formatted into its strings
            # and has no cells; one the same along each row has cells
            positions, rows = cli._column(data[key])
            for _ in rows or ():
                pass
            assert (positions is None) != (rows is None), key
            assert len(calls) in (self.N1, self.N2), key


class TestPerCellColumnsAreNotFormattedOneByOne:
    """Runs at 40x30 where some columns vary in both axes: `_format` sees
    each axis value of an axis-constant column exactly once, and of the
    other columns only the floats outside fixed notation: each such
    distinct bit pattern of a repeated column (fewer patterns than half its
    cells) once, each such cell of a per-cell column once; the renderer
    prints the rest.  Each case names the rule of every column that is not
    axis-constant: thm42's x, K and W are per-cell on both analytic routes
    and its H repeats a few dozen patterns; thm32's FD H and W repeat a few
    hundred; thm31's closed H repeats 0 and -0, both outside fixed
    notation; the saddle's z on a grid through its centre is per-cell with
    71 zeros."""

    GRID = {"n1": 40, "n2": 30}
    THM42 = {"name": "thm42", "h0": 0.5}
    THM42_RULES = {"x": "per-cell", "K": "per-cell", "H": "repeated", "W": "per-cell"}
    CASES = {
        "pipeline-thm42": ({"family": THM42, "formulas": "pipeline"}, THM42_RULES),
        "specialized-thm42": ({"family": THM42, "formulas": "specialized"}, THM42_RULES),
        "pipeline-fd-thm32": ({"family": {"name": "thm32", "h0": 0.7, "lam1": 0.2, "f0": 1.5,
                                          "causal": "timelike"}, "formulas": "pipeline-fd"},
                              {"H": "repeated", "W": "repeated"}),
        "specialized-thm31": ({"family": {"name": "thm31", "k0": 1.0}, "formulas": "specialized"},
                              {"z": "per-cell", "H": "repeated"}),
        "pipeline-saddle": ({"family": {"name": "saddle"}, "formulas": "pipeline",
                             "grid": {"u1": [-1.5, 1.5], "u2": [-1.5, 1.5], "n1": 41, "n2": 31}},
                            {"z": "per-cell"}),
    }
    KEYS = {"curvature": ("U1", "U2", "x", "y", "z", "K", "H", "eps", "W"),
            "mesh": ("x", "y", "z", "U1", "U2", "K", "H")}

    @staticmethod
    def _rule(column):
        """The rule of a column and the values it formats, read from the
        column's bits: the first row of a column constant along axis 0, the
        first column of one constant along axis 1, each distinct pattern of
        a repeated one outside fixed notation, each cell of a per-cell one
        outside fixed notation."""
        bits = column.view(np.int64)
        if (bits == bits[:1]).all():
            return "axis", column[0].tolist()
        if (bits == bits[:, :1]).all():
            return "axis", column[:, 0].tolist()
        patterns = np.unique(bits)
        if 2 * patterns.size < bits.size:
            return "repeated", [x for x in patterns.view(np.float64).tolist() if not _fixed(x)]
        return "per-cell", [x for x in column.ravel().tolist() if not _fixed(x)]

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("command", sorted(KEYS))
    def test_format_calls(self, tmp_path, monkeypatch, command, case):
        cfg, rules = self.CASES[case]
        cfg = {"grid": self.GRID, **cfg}
        _, (data,) = cli._sweep(cli._read(cfg, cli.SCHEMA[command]))
        taken = {key: self._rule(data[key]) for key in self.KEYS[command]}
        assert {key: rule for key, (rule, _) in taken.items() if rule != "axis"} == {
            key: rule for key, rule in rules.items() if key in self.KEYS[command]}
        calls = TestColumnRuleFormatsOncePerAxisValue._counting(monkeypatch)
        out = {key: str(tmp_path / f"out.{key}") for key in COMMANDS[command]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "output": out}))
        assert main([command, "--config", str(path)]) == 0
        expected = [x for _, values in taken.values() for x in values]
        assert len(calls) == len(expected)
        assert sorted(_bits(calls)) == sorted(_bits(expected))

    @pytest.mark.parametrize("key", ["x", "K", "W"])
    def test_fast_path_share(self, monkeypatch, key):
        """On thm42's 150x150 `pipeline` block the renderer prints at least
        99% of the cells of each per-cell column itself, so a renderer that
        handed every cell to `_format` fails here."""
        cfg = {"family": self.THM42, "grid": {"n1": 150, "n2": 150}}
        _, (data,) = cli._sweep(cli._read(cfg, cli.SCHEMA["curvature"]))
        calls = TestColumnRuleFormatsOncePerAxisValue._counting(monkeypatch)
        positions, rows = cli._column(data[key])
        assert positions is None
        assert list(rows) == [[format(x, ".17g") for x in row] for row in data[key].tolist()]
        assert len(calls) <= 0.01 * data[key].size
