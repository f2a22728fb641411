"""The code words of the shipped machines and of the benchmark's random
search TMs, pinned in ``golden/codes.json``: a codec change that alters
any code word fails here."""

import hashlib
import json
from pathlib import Path

import pytest

from minprog import zoo
from minprog.codec import encode_machine
from minprog.hierarchy import DiagonalPipeline, SimDecider
from minprog.machinefile import parse_machine_file
from minprog.turing import MachineTM, Transition
from minprog.universal import tm_program
from minprog.words import BINARY

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "golden" / "codes.json").read_text())

ZOO = (
    zoo.identity, zoo.looper, zoo.blocked, zoo.halt_now, zoo.const_zero, zoo.last_symbol,
    zoo.nonempty_only, zoo.epsilon_only, zoo.append_zero, zoo.eraser,
    zoo.writer, zoo.alternator, zoo.silent, zoo.decider_yes, zoo.decider_no,
)


def shipped_codes():
    """Every shipped machine's code word, by a label naming where it comes from."""
    codes = {f"zoo {make.__name__}": encode_machine(make()) for make in ZOO}
    codes.update((f"pool {i}", encode_machine(m)) for i, m in enumerate(zoo.acceptance_pool()))
    for path in sorted((ROOT / "machines").iterdir()):
        codes[f"file {path.name}"] = encode_machine(parse_machine_file(path.read_text()))
    for name, decider in (("yes", zoo.decider_yes()), ("no", zoo.decider_no()), ("sim", SimDecider())):
        codes[f"pipeline {name}"] = encode_machine(DiagonalPipeline(decider))
    return codes


def random_search_tm(spec):
    """The benchmark's random search TM whose table reads ``spec``: for each
    left part in order, the next state's last letter, the output write and
    the input and output moves."""
    rows = []
    for q in ("q0", "q1"):
        for r0 in "01_":
            for r2 in "_01":
                nq, w2, m0, m2 = spec[4 * len(rows): 4 * len(rows) + 4]
                rows.append(Transition(q, (r0, "_", r2), f"q{nq}", (r0, "_", w2), (m0, "S", m2)))
    return MachineTM("random", ("q0", "q1", "qf"), "q0", frozenset({"qf"}), BINARY, tuple(rows))


def test_shipped_code_words_are_pinned():
    assert shipped_codes() == GOLDEN["shipped"]


@pytest.mark.parametrize("spec, x, digest", GOLDEN["search_seed_1"], ids=range(128))
def test_benchmark_search_programs_are_pinned(spec, x, digest):
    program = tm_program(random_search_tm(spec), x)
    assert hashlib.sha256(program.encode()).hexdigest() == digest
