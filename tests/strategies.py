"""Hypothesis strategies shared by the property tests."""

import itertools
import random

from hypothesis import strategies as st

from minprog.codec import builtin_memory
from minprog.inductive import ExplicitMemory, LinearMemory, MachineITM, Rule
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


def random_tm(rng):
    """A random valid Turing machine with a row for every (state, reads)
    left part, so it never gets stuck: up to 3 states, at most one final
    state, not the start, and most rows moving no head, so that many of
    them come back to an earlier configuration."""
    states = tuple(f"q{i}" for i in range(rng.randint(1, 3)))
    rows = []
    for q in states:
        for reads in itertools.product(_SYMS, repeat=3):
            out = rng.choice(_SYMS if reads[2] == BLANK else _SYMS[:2])
            moves = ("S",) * 3 if rng.random() < 0.75 else tuple(rng.choice(MOVES) for _ in range(3))
            rows.append(Transition(q, reads, rng.choice(states), (reads[0], rng.choice(_SYMS), out), moves))
    finals = {rng.choice(states[1:])} if len(states) > 1 and rng.random() < 0.3 else ()
    return MachineTM("random-full", states, states[0], frozenset(finals), BINARY, tuple(rows))


def random_sweep_tm(rng):
    """A random valid Turing machine whose rows are mostly sweep steps: at
    most 4 states, a row for most (state, reads) left parts, and at most one
    final state, not the start.  Where it reads a non-blank input symbol and
    a blank output cell a row most often moves the input head right, leaves
    the work tape alone, and either leaves the output alone or writes it
    and moves right; the other rows write and move at random, the input
    head more often left than right, so that sweeps turn around."""
    states = tuple(f"q{i}" for i in range(rng.randint(1, 4)))
    rows = []
    for q in states:
        for r0, r1, r2 in itertools.product(_SYMS, repeat=3):
            if rng.random() < 0.15:
                continue  # no row: the run gets stuck here
            if r0 != BLANK and r2 == BLANK and rng.random() < 0.7:
                out = rng.choice(_SYMS)
                moves = ("R", "S", "S" if out == BLANK else "R")
                rows.append(Transition(q, (r0, r1, r2), rng.choice(states), (r0, r1, out), moves))
                continue
            out = rng.choice(_SYMS if r2 == BLANK else _SYMS[:2])
            moves = (rng.choice("LLRS"), rng.choice(MOVES), rng.choice(MOVES))
            rows.append(Transition(q, (r0, r1, r2), rng.choice(states), (r0, rng.choice(_SYMS), out), moves))
    finals = {rng.choice(states[1:])} if len(states) > 1 and rng.random() < 0.3 else ()
    return MachineTM("random-sweep", states, states[0], frozenset(finals), BINARY, tuple(rows))


TERNARY = Alphabet(("0", "1", "2"))


def random_definite_sweep_tm(rng, writes):
    """A random valid Turing machine whose sweeps are all definite (see
    ``MachineTM.sweeps``), and the input symbols S of the sweeps it starts
    with.  Over a binary or ternary alphabet, the states of one component
    of 1 to 3 states have, per work symbol, the same sweep steps on a set S
    of input symbols, each symbol sending them all to one state of the
    component.  ``writes`` says which symbols of S write an output symbol:
    "all", "none", or "some" (at least one each way when S has two or more
    symbols).  About half the work symbols leave an alphabet symbol outside
    S.  Reading one, a state writes a new work symbol and reads on, turns
    back, halts or has no row; at the blank past the input it turns back,
    halts, stays or has no row; over a written output cell it reads on
    without writing.  A turning state walks both heads left to the blank
    before the input and starts the component again, writing a random work
    symbol."""
    alphabet = rng.choice((BINARY, TERNARY))
    symbols = alphabet.symbols
    cells = (*symbols, BLANK)
    component = tuple(f"q{i}" for i in range(rng.randint(1, 3)))
    halts = rng.random() < 0.5
    rows = []
    for r1 in cells:
        size = len(symbols) if rng.random() < 0.5 else rng.randint(1, len(symbols) - 1)
        covered = sorted(rng.sample(symbols, size))
        if r1 == BLANK:
            first = "".join(covered)
        if writes == "all":
            writing = set(covered)
        elif writes == "none":
            writing = set()
        else:
            writing = set(rng.sample(covered, rng.randint(1, max(1, len(covered) - 1))))
        sweep = {s: (rng.choice(component), rng.choice(symbols) if s in writing else BLANK) for s in covered}
        for q in component:
            for r0 in cells:
                for r2 in cells:
                    reads = (r0, r1, r2)
                    if r2 != BLANK:
                        if r0 != BLANK:
                            rows.append(Transition(q, reads, rng.choice(component), reads, ("R", "S", "R")))
                        else:
                            rows.append(Transition(q, reads, "t", reads, ("L", "S", "S")))
                        continue
                    if r0 in sweep:
                        nxt, out = sweep[r0]
                        moves = ("R", "S", "S" if out == BLANK else "R")
                        rows.append(Transition(q, reads, nxt, (r0, r1, out), moves))
                        continue
                    roll = rng.choice(("none", "final", "turn", "work" if r0 != BLANK else "stay"))
                    if roll == "final" and halts:
                        rows.append(Transition(q, reads, "h", reads, ("S", "S", "S")))
                    elif roll == "turn":
                        rows.append(Transition(q, reads, "t", reads, ("L", "S", "S")))
                    elif roll == "work":
                        work = rng.choice([c for c in cells if c != r1])
                        rows.append(Transition(q, reads, rng.choice(component), (r0, work, r2), ("R", "S", "S")))
                    elif roll == "stay":
                        rows.append(Transition(q, reads, q, reads, ("S", "S", "S")))
        for r2 in cells:
            for r0 in symbols:
                rows.append(Transition("t", (r0, r1, r2), "t", (r0, r1, r2), ("L", "S", "L")))
            work = rng.choice(cells)
            rows.append(Transition("t", (BLANK, r1, r2), component[0], (BLANK, work, r2),
                                   ("R", "S", rng.choice(MOVES))))
    states = (*component, "t", *(("h",) if halts else ()))
    finals = frozenset({"h"} if halts else ())
    machine = MachineTM("random-definite-sweep", states, component[0], finals, alphabet, tuple(rows))
    return machine, first


def random_stay_tm(rng):
    """A random valid Turing machine with at least one stay row: one that
    keeps its state, writes what it reads and moves no head.  Up to 3
    states, a row for most (state, reads) left parts, and at most one
    final state, not the start, which has no rows.  About one row in five
    is a stay row, and about one in four moves no head but is no stay: it
    changes its state, its work cell or its output cell.  The other rows
    write and move at random."""
    states = tuple(f"q{i}" for i in range(rng.randint(1, 3)))
    finals = {rng.choice(states[1:])} if len(states) > 1 and rng.random() < 0.3 else set()
    lefts = [(q, reads) for q in states if q not in finals for reads in itertools.product(_SYMS, repeat=3)]
    stays = {left for left in lefts if rng.random() < 0.2} or {rng.choice(lefts)}
    rows = []
    for q, (r0, r1, r2) in lefts:
        nxt, writes, moves = q, (r0, r1, r2), ("S", "S", "S")
        if (q, (r0, r1, r2)) not in stays:
            roll = rng.random()
            if roll < 0.15:
                continue  # no row: the run gets stuck here
            if roll < 0.45:
                change = rng.choice(("state", "work", "output"))
                if change == "state" and len(states) > 1:
                    nxt = rng.choice([s for s in states if s != q])
                elif change == "work":
                    writes = (r0, rng.choice([s for s in _SYMS if s != r1]), r2)
                elif r2 == BLANK:
                    writes = (r0, r1, rng.choice(_SYMS[:2]))
                else:
                    writes = (r0, r1, _SYMS[1 - _SYMS.index(r2)])
            else:
                nxt = rng.choice(states)
                out = rng.choice(_SYMS if r2 == BLANK else _SYMS[:2])
                writes = (r0, rng.choice(_SYMS), out)
                moves = tuple(rng.choice(MOVES) for _ in range(3))
        rows.append(Transition(q, (r0, r1, r2), nxt, writes, moves))
    return MachineTM("random-stay", states, states[0], frozenset(finals), BINARY, tuple(rows))


def random_walking_tm(rng):
    """A random valid Turing machine whose work and output heads walk:
    up to 3 states, each with a way (L or R) per tape that most of its
    rows move that head, and most rows keep their state, so a run walks
    one way for a while and turns when it changes state.  A row for most
    (state, reads) left parts, random writes (erases on the work tape
    included), the input head moved at random, and at most one final
    state, not the start."""
    states = tuple(f"q{i}" for i in range(rng.randint(1, 3)))
    ways = {q: (rng.choice("LR"), rng.choice("LR")) for q in states}
    rows = []
    for q in states:
        for r0, r1, r2 in itertools.product(_SYMS, repeat=3):
            if rng.random() < 0.03:
                continue  # no row: the run gets stuck here
            nxt = q if rng.random() < 0.8 else rng.choice(states)
            m1, m2 = (way if rng.random() < 0.85 else rng.choice(MOVES) for way in ways[q])
            out = rng.choice(_SYMS if r2 == BLANK else _SYMS[:2])
            rows.append(Transition(q, (r0, r1, r2), nxt, (r0, rng.choice(_SYMS), out),
                                   (rng.choice(MOVES), m1, m2)))
    finals = {rng.choice(states[1:])} if len(states) > 1 and rng.random() < 0.3 else ()
    return MachineTM("random-walking", states, states[0], frozenset(finals), BINARY, tuple(rows))


def walking_tms():
    """Random machines with walking heads drawn by :func:`random_walking_tm` from a seed."""
    return st.integers(0, 2**32).map(lambda seed: random_walking_tm(random.Random(seed)))


def stay_tms():
    """Random machines with stay rows drawn by :func:`random_stay_tm` from a seed."""
    return st.integers(0, 2**32).map(lambda seed: random_stay_tm(random.Random(seed)))


def sweep_tms():
    """Random sweep-heavy machines drawn by :func:`random_sweep_tm` from a seed."""
    return st.integers(0, 2**32).map(lambda seed: random_sweep_tm(random.Random(seed)))


_WRITES = ("all", "none", "some")


def definite_sweep_tms(writes=_WRITES):
    """Random machines whose sweeps are all definite, drawn by
    :func:`random_definite_sweep_tm` from a seed and one of ``writes``."""
    return st.tuples(st.integers(0, 2**32), st.sampled_from(writes)).map(
        lambda drawn: random_definite_sweep_tm(random.Random(drawn[0]), drawn[1])[0])


@st.composite
def definite_sweep_runs(draw, writes=_WRITES, min_size=0):
    """(machine, word): a machine drawn as :func:`definite_sweep_tms` draws
    it, and a word over its alphabet of at least ``min_size`` symbols, most
    often a long run of the symbols its first sweep reads, then any symbols."""
    seed, mode = draw(st.integers(0, 2**32)), draw(st.sampled_from(writes))
    machine, covered = random_definite_sweep_tm(random.Random(seed), mode)
    symbols = "".join(machine.alphabet.symbols)
    if min_size == 0 and draw(st.integers(0, 4)) == 0:
        return machine, draw(st.text(symbols, max_size=4))
    head = draw(st.text(covered, min_size=max(min_size, 10), max_size=max(min_size, 10) + 290))
    return machine, head + draw(st.text(symbols, max_size=20))


def full_tms():
    """Random never-stuck machines drawn by :func:`random_tm` from a seed."""
    return st.integers(0, 2**32).map(lambda seed: random_tm(random.Random(seed)))


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


def stuck_below_a_halt():
    """Stuck on the empty input after one step, found stuck in the round
    that first tries a second; on every other input writes 1 and halts at
    step 2.  So x_1's run closes stuck in round 2, where x_2 surfaces."""
    rows = [Transition("q0", (BLANK, BLANK, BLANK), "q2", (BLANK, BLANK, BLANK), ("S", "R", "S"))]
    for x in ("0", "1"):
        rows.append(Transition("q0", (x, BLANK, BLANK), "q1", (x, BLANK, "1"), ("S", "S", "S")))
        rows.append(Transition("q1", (x, BLANK, "1"), "qf", (x, BLANK, "1"), ("S", "S", "S")))
    return MachineTM("stuck-below-a-halt", ("q0", "q1", "q2", "qf"), "q0", frozenset({"qf"}), BINARY, tuple(rows))


def walker_below_a_halt():
    """Walks its work head right over blanks forever on the empty input, a
    run that never comes back to a configuration; on every other input
    halts at step 1.  So x_2 gives the first result, in cycle 2, however
    many cycles x_1 could run."""
    rows = [Transition("q0", (BLANK, BLANK, BLANK), "q0", (BLANK, BLANK, BLANK), ("S", "R", "S"))]
    rows += [Transition("q0", (x, BLANK, BLANK), "qf", (x, BLANK, BLANK), ("S", "S", "S")) for x in ("0", "1")]
    return MachineTM("walker-below-a-halt", ("q0", "qf"), "q0", frozenset({"qf"}), BINARY, tuple(rows))


def bouncer():
    """Sweeps its work head right over a growing block of 1s, adds a 1 and
    sweeps back, and halts on the first sweep that finds five 1s, at step
    35.  Its state and heads at step 16 come back at step 26 on a longer
    block: a repeat of state and heads whose work tape differs."""
    right = [f"r{j}" for j in range(5)]
    rows = []
    for x in _SYMS:  # the input head stays on its first cell
        for j, q in enumerate(right):
            after = right[j + 1] if j < 4 else "h"
            rows.append(Transition(q, (x, "1", BLANK), after, (x, "1", BLANK), ("S", "R", "S")))
            rows.append(Transition(q, (x, BLANK, BLANK), "l", (x, "1", BLANK), ("S", "L", "S")))
        rows.append(Transition("l", (x, "1", BLANK), "l", (x, "1", BLANK), ("S", "L", "S")))
        rows.append(Transition("l", (x, BLANK, BLANK), "r0", (x, BLANK, BLANK), ("S", "R", "S")))
    return MachineTM("bouncer", (*right, "l", "h"), "r0", frozenset({"h"}), BINARY, tuple(rows))


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


def itm_zoo():
    """The zoo's inductive machines."""
    return [zoo.writer(), zoo.alternator(), zoo.silent(), zoo.decider_yes(), zoo.decider_no()]


def grower():
    """Jumps to the output chain, then writes 1 and moves right on every
    step: its register grows by one cell a step and never repeats."""
    rules = (Rule("q0", BLANK, "q1", move="o"), Rule("q1", BLANK, "q1", write="1", move="r"))
    return MachineITM("grower", ("q0", "q1"), "q0", (), BINARY, rules, LinearMemory())


def any_input_grower():
    """The grower, but it jumps to the output chain on any first cell, so
    its register grows on every input, a program pair included."""
    rules = (*(Rule("q0", s, "q1", move="o") for s in ("0", "1", BLANK)),
             Rule("q1", BLANK, "q1", write="1", move="r"))
    return MachineITM("any-input-grower", ("q0", "q1"), "q0", (), BINARY, rules, LinearMemory())


_CELLS = (("in0", "input"), ("in1", "input"), ("w0", "work"),
          ("o0", "output"), ("o1", "output"), ("o2", "output"))


def _explicit_memory(rng):
    cells = rng.sample(_CELLS, len(_CELLS))  # the first declared cell is the start
    names = [cell for cell, _ in _CELLS]
    links = [(frm, ctype, rng.choice(names)) for frm in names for ctype in "ab" if rng.random() < 0.75]
    return ExplicitMemory(cells, links, ("a", "b"))


def random_itm(rng):
    """A random valid inductive machine: up to 3 states, a rule for most
    (state, read) pairs and at most one final state, not the start, over
    an explicit memory of two input cells, a linear memory, or a stock
    limit memory; every input of up to two symbols fits each of them."""
    memory = rng.choice([
        _explicit_memory(rng),
        LinearMemory(),
        builtin_memory(rng.choice(("thm72", "limitlist"))),
    ])
    states = tuple(f"q{i}" for i in range(rng.randint(1, 3)))
    rules = []
    for q in states:
        for read in _SYMS:
            if rng.random() < 0.1:
                continue  # no rule: the run stops here
            write = rng.choice((*_SYMS, None))
            move = rng.choice((*memory.conn_types, None))
            if write is None and move is None:
                write = read
            rules.append(Rule(q, read, rng.choice(states), write=write, move=move))
    finals = {rng.choice(states[1:])} if len(states) > 1 and rng.random() < 0.5 else ()
    return MachineITM("random-itm", states, states[0], finals, BINARY, rules, memory)


def small_itms():
    """Random inductive machines drawn by :func:`random_itm` from a seed,
    which spreads them evenly where Hypothesis's own draws would favour
    the simplest machines, most of which stop at once."""
    return st.integers(0, 2**32).map(lambda seed: random_itm(random.Random(seed)))
