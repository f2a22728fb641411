"""The ``--json`` reports of the diagonal machine, the output-change
reduction and the three dovetailed limit constructions print what they
printed when ``golden/runs.json`` was recorded, ``elapsed_ms`` aside.

The horizons straddle the steps where the composed machine's stages hand
over: the stock decider's verdict lands at step 108 of the pipeline on its
own code, and the shipped ITM deciders start after a 518-step checker.  The
limit commands cover every machine of the stock pool: the emptiness solver
and the totality scanner on each, and the list scheduler over all of them.
"""

import json
import shlex
from pathlib import Path

import pytest

from minprog import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "golden" / "runs.json").read_text())

COMMANDS = [
    f"diagonal --decider {decider} --horizon {horizon}"
    for decider in ("yes", "no", "sim")
    for horizon in (100, 108, 109, 4001)
] + [
    f"reduce --machine machines/{name}.itm --probes 6" for name in ("alternator", "writer")
] + ["enumerate-nontotal --cycles 256"] + [
    f"emptiness --pool-index {k} --cycles 64" for k in range(6)
] + [
    f"totality --index {k} --cycles 128" for k in range(6)
]


def report(command, capsys):
    """The parsed ``--json`` report of one command, ``elapsed_ms`` dropped."""
    assert cli.main(["--json", *shlex.split(command)]) == 0
    out = json.loads(capsys.readouterr().out)
    del out["elapsed_ms"]
    return out


def test_the_golden_file_covers_every_command():
    assert list(GOLDEN) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_run_report_is_pinned(command, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert report(command, capsys) == GOLDEN[command]
