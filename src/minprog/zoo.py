"""Hand-built machines with behavior known by construction.

Everything the experiments and tests need as ground truth lives here: the
classic single-purpose Turing machines, the fixed six-machine scheduling
pool (three total, three non-total, ordered so the slow ones activate
first), and the small inductive machines with known output histories.
"""

from __future__ import annotations

from functools import cache

from .words import BLANK, BINARY
from .turing import MachineTM, Transition
from .inductive import ExplicitMemory, LinearMemory, MachineITM, Rule

_SYMS = ("0", "1")
_ALL = ("0", "1", BLANK)


def _tm(name: str, states, start, finals, rows) -> MachineTM:
    trans = tuple(
        Transition(q, tuple(reads), nq, tuple(writes), tuple(moves))
        for q, reads, nq, writes, moves in rows
    )
    return MachineTM(name, tuple(states), start, frozenset(finals), BINARY, trans)


@cache
def identity() -> MachineTM:
    """Copies its input to the output tape and halts."""
    rows = [
        ("q0", (s, BLANK, BLANK), "q0", (s, BLANK, s), ("R", "S", "R")) for s in _SYMS
    ]
    rows.append(("q0", (BLANK, BLANK, BLANK), "qf", (BLANK, BLANK, BLANK), ("S", "S", "S")))
    return _tm("identity", ["q0", "qf"], "q0", ["qf"], rows)


@cache
def looper() -> MachineTM:
    """Never halts on any input: one state, self-loop on every read."""
    rows = [("q0", (s, BLANK, BLANK), "q0", (s, BLANK, BLANK), ("S", "S", "S")) for s in _ALL]
    return _tm("looper", ["q0"], "q0", [], rows)


@cache
def blocked() -> MachineTM:
    """No applicable rule in its non-final start state: stops, no result."""
    return _tm("blocked", ["q0"], "q0", [], [])


@cache
def halt_now() -> MachineTM:
    """Start state is final: halts immediately with empty output."""
    return _tm("halt-now", ["q0"], "q0", ["q0"], [])


@cache
def const_zero() -> MachineTM:
    """Outputs "0" on every input."""
    rows = [("q0", (s, BLANK, BLANK), "qf", (s, BLANK, "0"), ("S", "S", "S")) for s in _ALL]
    return _tm("const-zero", ["q0", "qf"], "q0", ["qf"], rows)


@cache
def last_symbol() -> MachineTM:
    """Outputs the last symbol of its input (empty output on empty input)."""
    rows = [("q0", (BLANK, BLANK, BLANK), "qf", (BLANK, BLANK, BLANK), ("S", "S", "S"))]
    for s in _SYMS:
        rows.append(("q0", (s, BLANK, BLANK), f"c{s}", (s, BLANK, BLANK), ("R", "S", "S")))
    for seen in _SYMS:
        for s in _SYMS:
            rows.append((f"c{seen}", (s, BLANK, BLANK), f"c{s}", (s, BLANK, BLANK), ("R", "S", "S")))
        rows.append((f"c{seen}", (BLANK, BLANK, BLANK), "qf", (BLANK, BLANK, seen), ("S", "S", "S")))
    return _tm("last-symbol", ["q0", "c0", "c1", "qf"], "q0", ["qf"], rows)


@cache
def nonempty_only() -> MachineTM:
    """Halts exactly on non-empty inputs (with empty output)."""
    rows = [("q0", (BLANK, BLANK, BLANK), "q0", (BLANK, BLANK, BLANK), ("S", "S", "S"))]
    for s in _SYMS:
        rows.append(("q0", (s, BLANK, BLANK), "qf", (s, BLANK, BLANK), ("S", "S", "S")))
    return _tm("nonempty-only", ["q0", "qf"], "q0", ["qf"], rows)


@cache
def epsilon_only() -> MachineTM:
    """Halts exactly on the empty input."""
    rows = [("q0", (BLANK, BLANK, BLANK), "qf", (BLANK, BLANK, BLANK), ("S", "S", "S"))]
    for s in _SYMS:
        rows.append(("q0", (s, BLANK, BLANK), "q0", (s, BLANK, BLANK), ("S", "S", "S")))
    return _tm("epsilon-only", ["q0", "qf"], "q0", ["qf"], rows)


@cache
def append_zero() -> MachineTM:
    """Copies its input and appends "0": the post-processing transducer."""
    rows = [
        ("q0", (s, BLANK, BLANK), "q0", (s, BLANK, s), ("R", "S", "R")) for s in _SYMS
    ]
    rows.append(("q0", (BLANK, BLANK, BLANK), "qf", (BLANK, BLANK, "0"), ("S", "S", "S")))
    return _tm("append-zero", ["q0", "qf"], "q0", ["qf"], rows)


@cache
def eraser() -> MachineTM:
    """Halts at once with empty output whatever the input."""
    rows = [("q0", (s, BLANK, BLANK), "qf", (s, BLANK, BLANK), ("S", "S", "S")) for s in _ALL]
    return _tm("eraser", ["q0", "qf"], "q0", ["qf"], rows)


# ---------------------------------------------------------------------------
# the fixed scheduling pool: 3 non-total then 3 total machines.
#
# The non-total machines lead so that no early cycle of the list scheduler
# sees a machine halt on all of its probed inputs; the quirky literal
# placement rules of the first cycles then all take their plain branch.
def acceptance_pool() -> list[MachineTM]:
    return [looper(), nonempty_only(), epsilon_only(), identity(), const_zero(), last_symbol()]


def pool_halts(name: str, word: str) -> bool:
    """Ground truth by construction: does the pool machine halt on word?"""
    if name == "looper":
        return False
    if name == "nonempty-only":
        return word != ""
    if name == "epsilon-only":
        return word == ""
    if name in ("identity", "const-zero", "last-symbol"):
        return True
    raise KeyError(name)


def pool_total(name: str) -> bool:
    return name in ("identity", "const-zero", "last-symbol")


def pool_empty(name: str) -> bool:
    """True when the machine gives a result on no input at all."""
    return name == "looper"


# ---------------------------------------------------------------------------
# inductive machines with known output histories


@cache
def writer() -> MachineITM:
    """Writes "1" to the output register at step 3, then never touches it.

    Output value history: empty until step 2, then "1" forever; exactly one
    change, so the change-value sequence is (empty, "1").
    """
    rules = [Rule("q0", s, "q1", move="o") for s in _ALL]
    rules += [
        Rule("q1", BLANK, "q2", write=BLANK),
        Rule("q2", BLANK, "q3", write="1"),
        Rule("q3", "1", "q3", write="1"),
    ]
    return MachineITM("writer", ("q0", "q1", "q2", "q3"), "q0", (), BINARY, rules, LinearMemory())


@cache
def alternator() -> MachineITM:
    """Toggles its single output cell between "1" and "0" every step."""
    memory = ExplicitMemory(
        cells=[("c", "output"), ("in0", "input")], links=[], conn_types=()
    )
    rules = [
        Rule("q0", BLANK, "q0", write="1"),
        Rule("q0", "1", "q0", write="0"),
        Rule("q0", "0", "q0", write="1"),
    ]
    return MachineITM("alternator", ("q0",), "q0", (), BINARY, rules, memory)


@cache
def silent() -> MachineITM:
    """Runs forever without ever writing output: stabilized on empty from step 0."""
    memory = ExplicitMemory(
        cells=[("c", "work"), ("in0", "input")], links=[], conn_types=()
    )
    rules = [Rule("q0", BLANK, "q0", write=BLANK)]
    return MachineITM("silent", ("q0",), "q0", (), BINARY, rules, memory)


@cache
def decider_yes() -> MachineITM:
    """Stabilizes its output on "1" whatever the input: claims every run
    gives a result."""
    rules = [Rule("q0", s, "q1", move="o") for s in _ALL]
    rules += [Rule("q1", BLANK, "q2", write="1"), Rule("q2", "1", "q2", write="1")]
    return MachineITM("decider-yes", ("q0", "q1", "q2"), "q0", (), BINARY, rules, LinearMemory())


@cache
def decider_no() -> MachineITM:
    """Stabilizes its output on "0" whatever the input."""
    rules = [Rule("q0", s, "q1", move="o") for s in _ALL]
    rules += [Rule("q1", BLANK, "q2", write="0"), Rule("q2", "0", "q2", write="0")]
    return MachineITM("decider-no", ("q0", "q1", "q2"), "q0", (), BINARY, rules, LinearMemory())
