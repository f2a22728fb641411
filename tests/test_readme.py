"""Every ``minprog`` line of every README ``sh`` block prints what it
printed when ``golden/readme.json`` was recorded, ``elapsed_ms`` aside."""

import json
import shlex
from pathlib import Path

import pytest

from minprog import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "golden" / "readme.json").read_text())


def readme_examples():
    """The ``minprog`` lines of every ``sh`` code block, in README order."""
    examples, in_sh = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("minprog "):
            examples.append(line)
    return examples


def run_example(line, capsys):
    """The exit code and stdout of one example, a ``--json`` report parsed
    with its ``elapsed_ms`` dropped."""
    code = cli.main(shlex.split(line)[1:])
    out = capsys.readouterr().out
    if "--json" in line:
        out = json.loads(out)
        del out["elapsed_ms"]
    return [code, out]


def test_the_golden_file_covers_every_example():
    assert list(GOLDEN) == readme_examples()


@pytest.mark.parametrize("line", readme_examples())
def test_readme_example_output_is_pinned(line, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run_example(line, capsys) == GOLDEN[line]
