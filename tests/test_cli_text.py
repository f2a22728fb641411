"""The CLI's help, usage and error text is pinned, and a call builds the
parser of its own command only, once per process.

``golden/cli.json`` maps each argv below to the (exit code, stdout,
stderr) that ``minprog`` printed for it when the file was recorded, at
80 columns, since argparse wraps to the terminal width."""

import argparse
import json
import shlex
from pathlib import Path

import pytest

from minprog.cli import build_parser, main

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
    build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    main(argv)
    assert len(built) == parsers
    main(argv)  # the same call again only parses
    capsys.readouterr()
    assert len(built) == parsers


def test_words_that_name_no_command_share_one_parser(capsys):
    build_parser.cache_clear()
    for n in range(50):
        main([f"bogus{n}"])
    capsys.readouterr()
    assert build_parser.cache_info().currsize <= 1


def report_without_elapsed(argv, capsys, monkeypatch):
    code, out, err = run_argv(shlex.join(["--json", *argv]), capsys, monkeypatch)
    assert code == 0, err
    report = json.loads(out)
    report.pop("elapsed_ms")
    return report


# each call leaves out an option that the call before it gave
WARM_SEQUENCE = [
    ["func-complexity", "--pair", "0=0", "--max-len", "4"],
    ["func-complexity", "--pair", "1=1", "--max-len", "4"],
    ["enumerate-nontotal", "--machines", "machines/identity.tm", "--cycles", "4"],
    ["enumerate-nontotal", "--cycles", "4"],
    ["complexity", "--predicate", "equals:0", "--max-len", "4", "--horizon", "5"],
    ["complexity", "--predicate", "equals:0", "--max-len", "4"],
]


def test_a_warm_parser_carries_nothing_from_one_call_to_the_next(capsys, monkeypatch):
    cold = []
    for argv in WARM_SEQUENCE:
        build_parser.cache_clear()
        cold.append(report_without_elapsed(argv, capsys, monkeypatch))
    build_parser.cache_clear()
    warm = [report_without_elapsed(argv, capsys, monkeypatch) for argv in WARM_SEQUENCE]
    assert warm == cold
    assert all(cold[i] != cold[i + 1] for i in range(0, len(cold), 2))


@pytest.mark.parametrize("line", [
    *(f"{command} -h" for command in COMMANDS), "-h", "run-tm --machine machines/identity.tm --bogus",
])
def test_help_and_usage_errors_read_the_same_cold_and_warm(line, capsys, monkeypatch):
    build_parser.cache_clear()
    cold = run_argv(line, capsys, monkeypatch)
    assert run_argv(line, capsys, monkeypatch) == cold
