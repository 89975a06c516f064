"""The README's command examples parse with the CLI's own parser, so a flag
that the CLI drops or renames cannot stay in the docs."""

import re
import shlex
from pathlib import Path

import pytest

from asrfuse.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
COMMANDS = {"train", "extract", "combine", "score", "significance"}


def examples() -> list:
    """The argv of each `asrfuse <command> ...` line in the README's code
    blocks, with backslash continuations joined."""
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    return [words[1:] for words in map(shlex.split, lines) if words[:1] == ["asrfuse"]]


def test_every_command_has_an_example():
    assert {argv[0] for argv in examples()} == COMMANDS


@pytest.mark.parametrize("argv", examples(), ids=lambda argv: argv[0])
def test_example_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"the README example `asrfuse {shlex.join(argv)}` does not parse")
