"""Checks that tie statements of the README to the code they describe.

The `### Exit codes` list names each exit code of `pg-surf` once; it must
give the values of the `cli.EXIT_*` constants, as many as there are, and
the same codes as the exit-code sentence of the `cli` module docstring.

Under `### Config keys`, the `family.name` row names the rows of
`families.FAMILIES` in their order, with the ones `verify` checks first,
and the `family.*` key table gives each key of `cli.FAMILIES` once, with
its kind, default and choices.

Every fenced ```python block runs as it stands, so a sketch that names a
deleted or renamed API fails.
"""

import re
from pathlib import Path

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


def _table_rows(heading: str) -> list[list[str]]:
    """The cells of each table line under `heading`, header and rule too."""
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in _section(heading).splitlines() if line.startswith("|")]


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
    if row.default is ...:
        return "required"
    return f"`{row.default}`" if isinstance(row.default, str) else format(row.default, "g")


def test_family_keys_have_the_cli_kinds_and_defaults():
    seen = []
    for cells in _table_rows("### Config keys"):
        if not cells[1].startswith("`family."):
            continue
        for name in _names(cells[0]):
            for key in _names(cells[1]):
                row = cli.FAMILIES[name][key.removeprefix("family.")]
                assert (cells[2], cells[3]) == (row.kind.__name__.strip("_"), _default(row)), key
                if row.kind is cli._choice:
                    assert _names(cells[4]) == list(row.bound), key
                seen.append((name, key.removeprefix("family.")))
    assert sorted(seen) == sorted((name, key) for name, rows in cli.FAMILIES.items()
                                  for key in rows)


def test_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert blocks  # no block would check nothing
    for block in blocks:
        # padded to its README line, so a traceback points into the README
        code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(code, str(README), "exec"), {})
