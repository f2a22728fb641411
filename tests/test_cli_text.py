"""The CLI's help, usage and error text is pinned, and a call builds the
parser of its own command only.

``golden/cli.json`` maps each argv below to the (exit code, stdout,
stderr) that ``minprog`` printed for it when the file was recorded, at
80 columns, since argparse wraps to the terminal width."""

import argparse
import json
import shlex
from pathlib import Path

import pytest

from minprog.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())

COMMANDS = (
    "run-tm", "run-itm", "complexity", "func-complexity", "invariance", "enumerate-nontotal",
    "emptiness", "totality", "halting-itm", "diagonal", "reduce", "orders",
)
ARGVS = [
    "", "-h", "--help", "--json", "bogus", "--json bogus", "-h run-tm", "-- orders",
    "orders -- HP", "--jso orders", "--bogus orders", "- orders", "-1 orders", "'-x y' orders",
    "run-tm --machine machines/identity.tm --bogus",
    "run-tm --machine machines/identity.tm extra",
    *(f"{command} -h" for command in COMMANDS),
    *COMMANDS,
]


def run_argv(line, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    code = main(shlex.split(line))
    captured = capsys.readouterr()
    return [code, captured.out, captured.err]


def test_the_golden_file_covers_every_argv():
    assert list(GOLDEN) == ARGVS


@pytest.mark.parametrize("line", ARGVS)
def test_cli_text_is_pinned(line, capsys, monkeypatch):
    assert run_argv(line, capsys, monkeypatch) == GOLDEN[line]


@pytest.mark.parametrize("argv, parsers", [
    (["--json", "orders", "EmP"], 2),
    (["orders", "-h"], 2),
    ([], 13),
    (["bogus"], 13),
    (["--", "orders"], 13),
])
def test_a_call_builds_the_parser_of_its_command_only(argv, parsers, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    main(argv)
    capsys.readouterr()
    assert len(built) == parsers
