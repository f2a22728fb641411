"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from minprog.turing import MOVES, MachineTM, Transition
from minprog.words import BINARY, BLANK, Alphabet
from minprog import zoo

_SYMS = ("0", "1", BLANK)


@st.composite
def small_tms(draw):
    """Random valid machines: up to 3 states, up to 4 transitions, any finals."""
    states = tuple(f"q{i}" for i in range(draw(st.integers(1, 3))))
    state = st.sampled_from(states)
    lefts = draw(st.lists(st.tuples(state, st.tuples(*[st.sampled_from(_SYMS)] * 3)),
                          max_size=4, unique=True))
    transitions = []
    for q, reads in lefts:
        work = draw(st.sampled_from(_SYMS))
        out = draw(st.sampled_from(_SYMS if reads[2] == BLANK else _SYMS[:2]))
        moves = draw(st.tuples(*[st.sampled_from(MOVES)] * 3))
        transitions.append(Transition(q, reads, draw(state), (reads[0], work, out), moves))
    finals = draw(st.frozensets(state))
    return MachineTM("random", states, states[0], finals, BINARY, tuple(transitions))


def zoo_tms():
    """The zoo's Turing machines: the scheduling pool and four extras."""
    return zoo.acceptance_pool() + [zoo.halt_now(), zoo.blocked(), zoo.append_zero(), zoo.eraser()]


def gap_writer():
    """Writes 0, skips a cell, writes 1 and halts: an interior output blank."""
    rows = (
        Transition("q0", (BLANK, BLANK, BLANK), "q1", (BLANK, BLANK, "0"), ("S", "S", "R")),
        Transition("q1", (BLANK, BLANK, BLANK), "q2", (BLANK, BLANK, BLANK), ("S", "S", "R")),
        Transition("q2", (BLANK, BLANK, BLANK), "qf", (BLANK, BLANK, "1"), ("S", "S", "S")),
    )
    return MachineTM("gap-writer", ("q0", "q1", "q2", "qf"), "q0", frozenset({"qf"}), BINARY, rows)


UNARY = Alphabet(("0",))


def unary_tms():
    """Two machines over the one-symbol alphabet 0: the identity, and one
    that halts exactly on inputs of two or more symbols."""
    copy = (
        Transition("q0", ("0", BLANK, BLANK), "q0", ("0", BLANK, "0"), ("R", "S", "R")),
        Transition("q0", (BLANK, BLANK, BLANK), "qf", (BLANK, BLANK, BLANK), ("S", "S", "S")),
    )
    two = (
        Transition("q0", ("0", BLANK, BLANK), "q1", ("0", BLANK, BLANK), ("R", "S", "S")),
        Transition("q1", ("0", BLANK, BLANK), "qf", ("0", BLANK, BLANK), ("S", "S", "S")),
    )
    return [
        MachineTM("unary-identity", ("q0", "qf"), "q0", frozenset({"qf"}), UNARY, copy),
        MachineTM("unary-two-or-more", ("q0", "q1", "qf"), "q0", frozenset({"qf"}), UNARY, two),
    ]
