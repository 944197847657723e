"""Checks that tie statements of the README to the code they describe.

The `### Exit codes` list names each exit code of `pg-surf` once; it must
give the values of the `cli.EXIT_*` constants, as many as there are, and
the same codes as the exit-code sentence of the `cli` module docstring.

Under `### Config keys`, the `family.name` row names the rows of
`families.FAMILIES` in their order, with the ones `verify` checks first.
The `family.*` key table gives each key of `cli.FAMILIES` once, and the
key tables of `curvature`/`mesh`, `verify`, `reconstruct` and `probe`
each key of their `cli.SCHEMA` tables outside the shared sections once,
and each key of the tables a choice picks (`cli.ROUTES`, `cli.THEOREMS`)
once per table, with its kind, default and choices in order.  The
shared-section table gives the keys of the shared sections of every
command (`family.name`, `grid.*`, `output.*`), and no other, with their
kinds.  The `output.*` rows name each command's `output` table once, in
its order: the first key is the one an empty path sends to stdout, and
any later key is the one it leaves unwritten.

Every fenced ```python block runs as it stands, so a sketch that names a
deleted or renamed API fails.  The example configs are configs: the
```jsonc block, its comments stripped, is read as a `curvature` config,
and the `cfg.json` of the example commands as a `verify` and a `mesh`
one.
"""

import json

import re
from pathlib import Path

import pytest

from pgsurf import cli
from pgsurf import families as fam

README = Path(__file__).parents[1] / "README.md"


def _section(heading: str) -> str:
    """The README text under `heading`, up to the next heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n{heading}\n") + len(heading) + 2
    end = re.compile(r"^#+ ", re.M).search(text, start)
    return text[start:end.start() if end else len(text)]


def _readme_exit_codes() -> list[int]:
    return [int(code) for code in re.findall(r"^- `(\d+)`:", _section("### Exit codes"), re.M)]


def _docstring_exit_codes() -> list[int]:
    sentence = re.search(r"Exit codes: (.*?)\.\n", cli.__doc__, re.S).group(1)
    return [int(code) for code in re.findall(r"(?:^|, )(\d+) ", " ".join(sentence.split()))]


def _constants() -> dict[str, int]:
    return {name: getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_")}


def test_exit_constants_are_distinct():
    values = list(_constants().values())
    assert len(values) == len(set(values))


def test_readme_lists_every_exit_code_once():
    assert _readme_exit_codes() == sorted(_constants().values())


def test_docstring_names_every_exit_code_once():
    assert _docstring_exit_codes() == sorted(_constants().values())


def _cells(table: str) -> list[list[str]]:
    """The cells of each line of a README `table`, header and rule too."""
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table.splitlines() if line.startswith("|")]


def _table_rows(heading: str) -> list[list[str]]:
    """The cells of each table line under `heading`, header and rule too."""
    return _cells(_section(heading))


def _names(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


def test_family_names_are_the_table_in_order():
    bounds = next(cells[3] for cells in _table_rows("### Config keys")
                  if cells[0] == "`family.name`")
    names, first = re.fullmatch(r"(.*) \(`verify`: the first (\w+)\)", bounds).groups()
    assert _names(names) == list(fam.FAMILIES)
    # the rows `verify` checks, those with a field, come first
    n = ["one", "two", "three", "four", "five"].index(first) + 1
    assert [row.field is not None for row in fam.FAMILIES.values()] == (
        [True] * n + [False] * (len(fam.FAMILIES) - n))


def _default(row: cli.Row) -> str:
    """`row`'s default as the README's tables print it."""
    default = row.default
    if default is ...:
        return "required"
    if default is None:
        return "none"
    if isinstance(default, bool):
        return f"`{str(default).lower()}`"
    if isinstance(default, str):
        return f"`{default}`" if default else '`""`'
    if isinstance(default, tuple):
        return f"`[{', '.join(map(_number, default))}]`"
    return _number(default)


def _number(value) -> str:
    """`value` in `g` notation, or a float as `1e-4` where that is exact
    and shorter."""
    text, short = format(value, "g"), re.sub(r"e-0*", "e-", format(value, ".0e"))
    exact = isinstance(value, float) and float(short) == value
    return short if exact and len(short) < len(text) else text


def _kind(row: cli.Row) -> str:
    # `_flag` and `_path` are closures that `cli._exactly` names `kind`
    return {cli._flag: "flag", cli._path: "path"}.get(row.kind, row.kind.__name__.strip("_"))


def _check(cells: list[str], rows: list[cli.Row], keys: list[str]) -> None:
    """The kind, default and bounds `cells` of a table line give those of
    the `rows` of its `keys`: one kind, one default per key (equal
    neighbours printed once), and each choice's choices in order."""
    kind, default, bounds = cells
    assert [kind] * len(rows) == [_kind(row) for row in rows], keys
    # a remark after the default, such as "(no perturbation)", is not read
    assert default.split(" (")[0] == ", ".join(dict.fromkeys(map(_default, rows))), keys
    for row in rows:
        if row.kind is cli._choice:
            assert _names(bounds) == list(row.bound), keys


def test_family_keys_have_the_cli_kinds_and_defaults():
    seen = []
    for cells in _table_rows("### Config keys"):
        if not cells[1].startswith("`family."):
            continue
        for name in _names(cells[0]):
            keys = [key.removeprefix("family.") for key in _names(cells[1])]
            _check(cells[2:], [cli.FAMILIES[name][key] for key in keys], keys)
            seen += [(name, key) for key in keys]
    assert sorted(seen) == sorted((name, key) for name, rows in cli.FAMILIES.items()
                                  for key in rows)


def test_output_rows_are_the_command_tables():
    """Each `output.*` row: its keys, the commands that take exactly those
    (`... only`), the key an empty path sends to stdout (the table's
    first) and the one it leaves unwritten (any later key)."""
    seen = []
    for cells in _table_rows("### Config keys"):
        if not cells[0].startswith("`output."):
            continue
        keys = [key.removeprefix("output.") for key in _names(cells[0])]
        readers, stdout, dropped = re.fullmatch(
            r"(.*) only; empty: `output\.(\w+)` to stdout(?:, `output\.(\w+)` not written)?",
            cells[3]).groups()
        assert [stdout] + ([dropped] if dropped else []) == keys, cells
        for command in _names(readers):
            table = cli.SCHEMA[command]["output"]
            assert list(table) == keys, command
            _check(cells[1:], list(table.values()), keys)
            seen.append(command)
    assert sorted(seen) == sorted(cli.SCHEMA)


# the sections with a table of their own, under "Shared sections"
_SHARED = ("family", "grid", "output")


def _key_tables() -> list[tuple[str, list[list[str]]]]:
    """The paragraph before each key table under `### Config keys` and
    the table's body lines."""
    blocks = re.findall(r"((?:^[^|\n].*\n)+)\n((?:^\|.*\n)+)", _section("### Config keys"), re.M)
    return [(intro, _cells(table)[2:]) for intro, table in blocks]


def _command_tables() -> dict[str, list[list[str]]]:
    """The body lines of each key table whose paragraph begins with the
    commands that read it, by command."""
    tables = {}
    for intro, table in _key_tables():
        readers = re.match(r"((?:`\w+`(?: and )?)+) reads? ", intro)
        for command in _names(readers.group(1)) if readers else []:
            tables[command] = table
    return tables


def _leaves(table: dict, where: str = "") -> list[str]:
    """The dotted keys of a `cli.SCHEMA` table outside the shared sections."""
    keys = []
    for key, value in table.items():
        if isinstance(value, dict):
            keys += [] if not where and key in _SHARED else _leaves(value, f"{where}{key}.")
        else:
            keys.append(where + key)
    return keys


def _row(table: dict, key: str) -> cli.Row:
    for part in key.split("."):
        table = table[part]
    return table


def test_shared_keys_are_the_shared_sections():
    """Each key of the shared table has the kind of its row in every
    command that reads it, and the table names every key of the shared
    sections."""
    shared: dict = {}
    for schema in cli.SCHEMA.values():
        for section in _SHARED:
            for key, row in schema.get(section, {}).items():
                shared.setdefault(f"{section}.{key}", []).append(row)
    table = next(table for intro, table in _key_tables() if intro == "Shared sections:\n")
    seen = set()
    for cells in table:
        for key in _names(cells[0]):
            assert {_kind(row) for row in shared.get(key, [])} == {cells[1]}, key
            seen.add(key)
    assert seen == set(shared)


def test_command_tables_are_read_for_every_command():
    assert sorted(_command_tables()) == sorted(cli.SCHEMA)


def _check_chosen_tables(command: str, choice: str) -> None:
    """The first column of `command`'s key table names the tables of a
    line that its `choice` key picks: none for a key of the command's own
    table, every one for `all`."""
    chosen = cli.SCHEMA[command][choice].bound
    seen = []
    for cells in _command_tables()[command]:
        keys = _names(cells[1])
        if not cells[0]:
            tables = [cli.SCHEMA[command]]
            seen += [("", key) for key in keys]
        else:
            names = list(chosen) if cells[0] == "all" else _names(cells[0])
            tables = [chosen[name] for name in names]
            seen += [(name, key) for name in names for key in keys]
        for table in tables:
            _check(cells[2:], [_row(table, key) for key in keys], keys)
    assert sorted(seen) == sorted([("", key) for key in _leaves(cli.SCHEMA[command])]
                                  + [(name, key) for name, rows in chosen.items()
                                     for key in rows])


@pytest.mark.parametrize("command", ["curvature", "mesh", "verify", "probe"])
def test_command_keys_have_the_cli_kinds_and_defaults(command):
    if command in ("curvature", "mesh"):
        # `fd_step` is a key of the `pipeline-fd` route
        _check_chosen_tables(command, "formulas")
        return
    seen = []
    for cells in _command_tables()[command]:
        keys = _names(cells[0])
        _check(cells[1:], [_row(cli.SCHEMA[command], key) for key in keys], keys)
        seen += keys
    assert sorted(seen) == sorted(_leaves(cli.SCHEMA[command]))


def test_reconstruct_keys_have_the_cli_kinds_and_defaults():
    _check_chosen_tables("reconstruct", "theorem")


def test_jsonc_block_is_a_curvature_config():
    """The ```jsonc block, its `//` comments stripped, is a config that
    `curvature` reads whole: no key of another command."""
    block = re.search(r"^```jsonc\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.M | re.S).group(1)
    config = json.loads(re.sub(r"\s*//.*$", "", block, flags=re.M))
    values = cli._read(config, cli.SCHEMA["curvature"])
    assert values["formulas"] == "pipeline-fd" and values["fd_step"] == config["fd_step"]


@pytest.mark.parametrize("command", ["verify", "mesh"])
def test_example_config_serves_verify_and_mesh(command):
    commands = _section("Example session:").split("\n```\n")[1]
    config = json.loads(re.search(r"^echo '(.*)' > cfg\.json$", commands, re.M).group(1))
    assert re.search(rf"^pg-surf {command} --config cfg\.json", commands, re.M)
    assert cli._read(config, cli.SCHEMA[command])["family"]["name"] == "thm42"


def test_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert blocks  # no block would check nothing
    for block in blocks:
        # padded to its README line, so a traceback points into the README
        code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(code, str(README), "exec"), {})
