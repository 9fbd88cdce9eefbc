"""Every ``python`` block of README.md runs as written, and every
``oqmetro`` command shown with its output prints that output."""

import re
import shlex
from pathlib import Path

import pytest

from oqmetro.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT,
                    flags=re.DOTALL | re.MULTILINE)
# a one-line command directly followed by a comment line holding its output
SHOWN = re.findall(r"^oqmetro ([^\\\n]*)\n# (.*)$", TEXT, flags=re.MULTILINE)


def _ids(commands):
    """Each command's subcommand, numbered from its second use on, so a
    command keeps its id when a later one is added."""
    uses, ids = {}, []
    for command in commands:
        name = command.split()[0]
        uses[name] = uses.get(name, 0) + 1
        ids.append(name if uses[name] == 1 else f"{name}-{uses[name]}")
    return ids


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(source, capsys):
    exec(compile(source, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_shows_the_compat_output():
    assert "compat --mu 0,0,0.9 --nu 0.9,0,0" in [cmd for cmd, _ in SHOWN]
    # a list starting with "-" is attached with "=", or argparse refuses it
    assert "compat --mu 0,0,0.9 --nu=-0.9,0,0" in [cmd for cmd, _ in SHOWN]


@pytest.mark.parametrize("command, shown", SHOWN,
                         ids=_ids(cmd for cmd, _ in SHOWN))
def test_shown_output_is_what_main_prints(command, shown, capsys):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == shown + "\n"
