"""Hand-built machines with behavior known by construction.

What the commands and the benchmark use as ground truth lives here: the
classic single-purpose Turing machines, the fixed six-machine scheduling
pool (three total, three non-total, ordered so the slow ones activate
first) with what each of them does, and the two constant deciders of the
diagonal experiment.  The inductive machines with known output histories
ship as files in ``machines/``.
"""

from __future__ import annotations

from functools import cache

from .words import BLANK, BINARY
from .turing import MachineTM, Transition
from .inductive import LinearMemory, MachineITM, Rule

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
# the constant deciders of the diagonal experiment


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
