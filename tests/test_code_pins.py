"""The code words of the shipped machines and of the benchmark's random
search TMs, pinned in ``golden/codes.json``: a codec change that alters
any code word fails here.  ``golden/decodes.json`` pins what the decoder
makes of those codes, their edits and every short word, error messages
included."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from minprog import zoo
from minprog.codec import InvalidCodeError, builtin_memory, decode_machine, encode_machine
from minprog.hierarchy import DiagonalPipeline, SimDecider
from minprog.inductive import MachineITM, Rule
from minprog.machinefile import parse_machine_file
from minprog.turing import MachineTM, Transition
from minprog.universal import tm_program
from minprog.words import BINARY, words_up_to

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "golden" / "codes.json").read_text())
DECODES = json.loads((Path(__file__).parent / "golden" / "decodes.json").read_text())

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


def random_search_spec(rng):
    """A spec for :func:`random_search_tm` drawn as the benchmark draws its
    random search TMs: next state 0, 1 or final, an output write that never
    erases, and random input and output moves."""
    return "".join(
        rng.choice("0101f") + rng.choice("01_" if r2 == "_" else "01") + rng.choice("LRS") + rng.choice("LRS")
        for _ in range(6) for r2 in "_01"
    )


def edited_words(code, rng, count):
    """``count`` seeded truncations, 1-bit edits, inserted 2-bit blocks and
    inserted runs of 21 zero digits (numbers out of range, or with a leading
    zero) of ``code`` each, or all of them when ``count`` is None."""
    def pick(n):
        return range(n) if count is None else [rng.randrange(n) for _ in range(count)]

    flip = {"0": "1", "1": "0"}
    return (
        [code[:i] for i in pick(len(code))]
        + [code[:i] + flip[code[i]] + code[i + 1:] for i in pick(len(code))]
        + [code[:2 * i] + block + code[2 * i:] for i in pick(len(code) // 2 + 1)
           for block in ("00", "01", "10", "11", "00" * 21)]
    )


def decode_families():
    """The word families whose decode outcomes ``golden/decodes.json`` pins:
    every word of up to 14 bits; every shipped code with all the edits
    :func:`edited_words` makes; and 50 seeded benchmark-style random TM
    codes with 30 of each kind of edit."""
    rng = random.Random("decode pins")
    shipped = sorted(set(shipped_codes().values()))
    randoms = [encode_machine(random_search_tm(random_search_spec(rng))) for _ in range(50)]
    return {
        "words up to 14 bits": list(words_up_to(14)),
        "shipped codes": [w for code in shipped for w in [code, *edited_words(code, rng, None)]],
        "random TM codes": [w for code in randoms for w in [code, *edited_words(code, rng, 30)]],
    }


def decode_digest(words):
    """SHA-256 over each word's decode outcome in order: the re-encoded code
    of a decodable word, else the error's type and message."""
    h = hashlib.sha256()
    for w in words:
        try:
            outcome = "ok " + encode_machine(decode_machine(w))
        except InvalidCodeError as exc:
            outcome = f"{type(exc).__name__} {exc}"
        h.update(f"{w}\t{outcome}\n".encode())
    return h.hexdigest()


def test_decode_outcomes_are_pinned():
    """Every decode error type and message, and every accepted code, stays
    what it was when ``golden/decodes.json`` was recorded."""
    got = {name: [len(words), decode_digest(words)] for name, words in decode_families().items()}
    assert got == DECODES


# The code word of :func:`small_itm` over each builtin memory.  No shipped
# machine runs on ``limitlist``, so no pin above covers its builtin id.
BUILTIN_CODES = {
    "linear": "01100101100100100110010010010001100010001001011000100100100100100110001001100110011001100110001001100100100110010010010010",
    "thm72": "0110010110010010011001001001010010001001100101100010010010010010011001011001100110011001100100001000100110010010011001000110010010",
    "limitlist": "0110010110010010011001001001000110001001001001011000100100100100100110010010011001100110011001011000100110010010011001000010010010",
}


def small_itm(memory):
    """A three-state ITM that moves by the r, i and l connections every
    builtin memory has."""
    rules = [Rule("q0", "_", "q1", write="1", move="r"), Rule("q1", "_", "qf", move="i"),
             Rule("q1", "1", "q0", move="l")]
    return MachineITM("small", ("q0", "q1", "qf"), "q0", ("qf",), BINARY, rules, memory)


@pytest.mark.parametrize("name", sorted(BUILTIN_CODES))
def test_builtin_memory_codes_are_pinned(name):
    code = encode_machine(small_itm(builtin_memory(name)))
    assert code == BUILTIN_CODES[name]
    assert encode_machine(decode_machine(code)) == code


# The (i, r, l) connections of the stock limit memories on cells of both
# and of neither: the input chain is walked by r and l, and i enters it
# from every cell.
_NO_CHAIN = ("i0", None, None)
STOCK_CHAIN_ANSWERS = {
    "c0": _NO_CHAIN, "c1": _NO_CHAIN, "a0": _NO_CHAIN, "a3": _NO_CHAIN, "out0": _NO_CHAIN,
    "i0": ("i0", "i1", None), "i5": ("i0", "i6", "i4"),
    "h1": _NO_CHAIN, "h4": _NO_CHAIN, "d2": _NO_CHAIN,
}
STOCK_LAYOUT = {
    "thm72": ("c0", ("t", "p", "o", "r", "l", "i"), {"out0": 0}, {"c1": "1"}),
    "limitlist": ("h1", ("n", "m", "r", "l", "i"), {}, {}),
}


@pytest.mark.parametrize("name", sorted(STOCK_LAYOUT))
def test_stock_memories_input_chain_and_layout_are_pinned(name):
    memory = builtin_memory(name)
    for graph in (memory, memory.base):
        answers = {cell: tuple(graph.connection(cell, t) for t in "irl") for cell in STOCK_CHAIN_ANSWERS}
        assert answers == STOCK_CHAIN_ANSWERS
        ranks = {cell: rank for cell in STOCK_CHAIN_ANSWERS if (rank := graph.output_rank(cell)) is not None}
        layout = (graph.start, graph.conn_types, ranks, graph.initial_contents())
        assert layout == STOCK_LAYOUT[name]
        assert [graph.input_cell(i) for i in (0, 5)] == ["i0", "i5"]
