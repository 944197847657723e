"""Checks that tie statements of the README to the code they describe.

The `### Exit codes` list names each exit code of `pg-surf` once; it must
give the values of the `cli.EXIT_*` constants, as many as there are, and
the same codes as the exit-code sentence of the `cli` module docstring.
"""

import re
from pathlib import Path

from pgsurf import cli

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
