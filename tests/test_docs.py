"""The README's command examples parse with the CLI's own parser, so a flag
that the CLI drops or renames cannot stay in the docs, and its preset table
lists the presets `asrfuse.combine` holds, with their weights."""

import re
import shlex
from pathlib import Path

import pytest

from asrfuse.cli import build_parser
from asrfuse.combine import JOINT_PRESETS, RESCORE_PRESETS

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


def readme_presets() -> dict:
    """Preset name -> (values, names or None) from the README's preset
    table: `8:5:5` is positional, `ctc 0.9, tdnn 0.1` is named."""
    table = README.read_text(encoding="utf-8").split("### Weight presets", 1)[1]
    presets = {}
    for name, weights in re.findall(r"^\| `([^`]+)` \| ([^|]+) \|", table, flags=re.M):
        if ":" in weights:
            presets[name] = (tuple(float(v) for v in weights.split(":")), None)
        else:
            named = [pair.split() for pair in weights.split(",")]
            presets[name] = (tuple(float(v) for _, v in named), tuple(n for n, _ in named))
    return presets


def test_readme_preset_table_matches_the_presets():
    held = {name: (w.values, w.names) for name, w in {**JOINT_PRESETS,
                                                      **RESCORE_PRESETS}.items()}
    assert readme_presets() == held
