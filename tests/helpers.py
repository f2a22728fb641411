"""Machine helpers that only tests use: a static non-halting proof, state
renaming into canonical form, the standard two-input program word, the
live words of a tier built from its heads, single steps and
configurations of the package's steppers, the register reads of an
inductive run against a reference change log, the order on verdicts, and
the conjunction of predicates."""

import itertools

from minprog.codec import canonical_state_order, encode_machine
from minprog.predicates import Predicate
from minprog.turing import MachineTM, Transition
from minprog.words import BLANK, sd


def never_halts_by_inspection(machine: MachineTM) -> bool:
    """Conservative static proof that a machine can never stop.

    Over-approximates the symbols each tape can ever hold (input: alphabet
    plus blank; work/output: blank plus whatever some transition writes)
    and demands that no final state is reachable and that every reachable
    state has a transition for every read triple in the approximation.
    Sound but incomplete.
    """
    if machine.start in machine.finals:
        return False
    rows = {(tr.state, tr.reads): tr for tr in machine.transitions}
    possible: list[set[str]] = [
        set(machine.alphabet.symbols) | {BLANK},
        {BLANK},
        {BLANK},
    ]
    for tr in machine.transitions:
        possible[1].add(tr.writes[1])
        possible[2].add(tr.writes[2])
    reachable = {machine.start}
    frontier = [machine.start]
    while frontier:
        state = frontier.pop()
        for r0 in possible[0]:
            for r1 in possible[1]:
                for r2 in possible[2]:
                    tr = rows.get((state, (r0, r1, r2)))
                    if tr is None:
                        return False  # could get stuck, i.e. stop
                    nxt = tr.next_state
                    if nxt in machine.finals:
                        return False
                    if nxt not in reachable:
                        reachable.add(nxt)
                        frontier.append(nxt)
    return True


def canonicalize_tm(machine: MachineTM) -> MachineTM:
    """Behaviorally identical machine with states renamed s0, s1, ... in
    the codec's canonical order, rows sorted as the codec emits them."""
    order = canonical_state_order(machine)
    rename = {old: f"s{i}" for i, old in enumerate(order)}
    symbol = {sym: i for i, sym in enumerate((*machine.alphabet.symbols, BLANK))}
    trans = [
        Transition(rename[t.state], t.reads, rename[t.next_state], t.writes, t.moves)
        for t in machine.transitions
    ]
    trans.sort(key=lambda t: (int(t.state[1:]), tuple(symbol[s] for s in t.reads)))
    return MachineTM(
        name=machine.name,
        states=tuple(rename[s] for s in order),
        start=rename[machine.start],
        finals=frozenset(rename[s] for s in machine.finals),
        alphabet=machine.alphabet,
        transitions=tuple(trans),
    )


def tm_program2(machine: MachineTM) -> str:
    """The standard two-input program word for a machine."""
    return sd(encode_machine(machine))


def tier_words(heads, length: int) -> list[tuple[str, str, str, object]]:
    """(head + w, head, w, what the head runs) for each head of a tier and
    every binary w that fills it to ``length`` symbols, in head order."""
    return [
        (head + "".join(w), head, "".join(w), runs)
        for head, runs in heads
        for w in itertools.product("01", repeat=length - len(head))
    ]


def step(run) -> bool:
    """Advance a stepper one step; False once the run has stopped."""
    before = run.steps
    return run.run_to(before + 1).steps > before


def configuration(run) -> tuple:
    """Hashable full configuration of a Turing machine run, as the
    reference stepper gives it: each tape's non-blank cells as (position,
    symbol) in tape order."""
    word, *dense = run.tapes
    cells = (tuple((i - origin, c) for i, c in enumerate(tape) if c not in ("", BLANK))
             for tape, origin in zip(dense, run.origins))
    return (run.state, tuple(run.heads), (tuple(enumerate(word)), *cells))


def assert_register_reads(run, log) -> None:
    """Every read of an inductive run's register history equals the
    reference change ``log``: the register after each of its first k
    changes, for every k up to its change count, the change log, and the
    output word, which a run may read another way than by replay."""
    assert run.change_count == len(log) - 1
    assert [run.register_after(k) for k in range(run.change_count + 1)] == [value for _, value in log]
    assert run.change_log == log
    assert run.output_word() == log[-1][1]


def verdict_le(a, b) -> bool:
    """Order verdicts with every finite value below no-witness."""
    if a.finite:
        return (not b.finite) or a.value <= b.value
    return not b.finite


def all_of(*members: Predicate) -> Predicate:
    """The conjunction of the members: a problem given by several
    conditions at once is the one predicate that checks them all."""
    return Predicate("all-of(" + ",".join(p.name for p in members) + ")",
                     lambda w: all(p(w) for p in members))
