"""The README's library example runs as written, and its quick-start
commands print what it shows."""

import re
import shlex
from pathlib import Path

import pytest

from lctkit.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks, "README has no python block under ## Library"
    exec(compile(blocks[0], "README.md", "exec"), {})


def _quick_start_runs():
    """(argv, expected stdout lines) for each `$ lctkit ...` line under
    "Quick start" that shows output: the lines after it up to the next `$`
    line or the end of its block."""
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    section = section.split("\n## ", 1)[0]
    runs = []
    for block in re.findall(r"```\n(.*?)```", section, re.S):
        for command in re.split(r"^(?=\$ )", block, flags=re.M):
            if not command.startswith("$ lctkit "):
                continue
            first, *output = command.rstrip("\n").split("\n")
            if output:
                runs.append((shlex.split(first[len("$ lctkit "):], comments=True),
                             output))
    return runs


RUNS = _quick_start_runs()


def test_quick_start_has_examples():
    assert {argv[0] for argv, _ in RUNS} >= {"pole", "newton", "verify", "estimate"}


@pytest.mark.parametrize("argv, expected", RUNS, ids=[" ".join(a) for a, _ in RUNS])
def test_quick_start_output_is_what_the_cli_prints(argv, expected, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == expected
