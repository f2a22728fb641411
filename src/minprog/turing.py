"""Deterministic three-tape Turing machine model with fueled execution.

Tapes are numbered 0 (input, read-only), 1 (work), 2 (output).  A machine
halts with a result exactly when it reaches a final state; running out of
applicable rules in a non-final state is the no-result outcome, and fuel
exhaustion is reported separately so callers can distinguish "still
running" from "stuck".
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import itemgetter
from typing import NamedTuple

from .words import BLANK, Alphabet

MOVES = ("L", "R", "S")
MOVE_DELTAS = (-1, 1, 0)  # the head delta of each move in MOVES

Triple = tuple[str, str, str]


class MachineValidationError(ValueError):
    """The transition table violates a structural invariant."""


class Transition(NamedTuple):
    state: str
    reads: Triple
    next_state: str
    writes: Triple
    moves: Triple


@dataclass(frozen=True)
class RunOutcome:
    """Result of a fueled run: halted / out-of-fuel / no-result."""

    kind: str  # "halted" | "out-of-fuel" | "no-result"
    steps: int
    output: str | None = None

    @property
    def halted(self) -> bool:
        return self.kind == "halted"

    @property
    def result(self) -> str | None:
        """The output of a halted run, else None."""
        return self.output if self.halted else None

    @staticmethod
    def of_halt(output: str, steps: int) -> "RunOutcome":
        return RunOutcome("halted", steps, output)

    @staticmethod
    def of_fuel(steps: int) -> "RunOutcome":
        return RunOutcome("out-of-fuel", steps)

    @staticmethod
    def of_stuck(steps: int) -> "RunOutcome":
        return RunOutcome("no-result", steps)


# A compiled transition: the next state, the tape-1 and tape-2 writes as
# compiled_write gives them (tape 0 is read-only), the three head deltas,
# and its kind: FINAL when it enters a final state, else SWEEP, STAY or 0.
# A SWEEP step reads a non-blank input symbol and a blank output cell,
# moves the input head right, leaves the work head and its cell alone, and
# either leaves the output alone or writes it and moves right.  A STAY step
# keeps its state, changes no cell and moves no head: the configuration
# after it is the one before it.
TmStep = tuple[str, str | None, str | None, int, int, int, int]
FINAL, SWEEP, STAY = 1, 2, 3

# A numbered transition: the state's index, the three read symbols' codes,
# the next state's index, the three write codes and the three move codes.
# A symbol's code is its index in the alphabet, or the alphabet's size for
# blank; a move's code is its index in MOVES.
NumberedRow = tuple[int, int, int, int, int, int, int, int, int, int, int]

_MOVE_CODE = {m: i for i, m in enumerate(MOVES)}
_R, _S = _MOVE_CODE["R"], _MOVE_CODE["S"]


def check_states(states: tuple[str, ...], start: str, finals: Iterable[str]) -> set[str]:
    """The declared states, once they hold no duplicate and hold the start
    state and every final state: the state checks of both machine kinds."""
    declared = set(states)
    if len(declared) != len(states):
        raise MachineValidationError("duplicate state declaration")
    if start not in declared:
        raise MachineValidationError(f"start state {start!r} is not declared")
    for s in finals:
        if s not in declared:
            raise MachineValidationError(f"final state {s!r} is not declared")
    return declared


def compiled_write(read: str, write: str | None) -> str | None:
    """A write as a compiled table holds it: None when it leaves the cell
    as read (or there is none), "" when it blanks a non-blank cell."""
    if write is None or write == read:
        return None
    return "" if write == BLANK else write


def _compile(
    rows: Iterable[NumberedRow], states: tuple[str, ...], alphabet: Alphabet, finals: frozenset[str]
) -> dict[tuple[str, str, str, str], TmStep]:
    """The table of numbered rows, in row order.  Each row is checked before
    the next is read: a write to the read-only input, an erased output cell,
    then a left part an earlier row has.  An index out of range raises
    IndexError."""
    symbols = (*alphabet.symbols, BLANK)  # by code
    blank = len(alphabet)
    stored = (*alphabet.symbols, "")  # a write's compiled form by code, when it changes the cell
    table: dict[tuple[str, str, str, str], TmStep] = {}
    for q, r0, r1, r2, nq, w0, w1, w2, m0, m1, m2 in rows:
        if w0 != r0:
            raise MachineValidationError(
                f"transition in state {states[q]!r} writes to the read-only input tape"
            )
        if w2 == blank and r2 != blank:
            raise MachineValidationError(
                f"transition in state {states[q]!r} erases the output tape"
            )
        key = (states[q], symbols[r0], symbols[r1], symbols[r2])
        if key in table:
            raise MachineValidationError(
                f"two transitions share the left part ({key[0]}, {key[1]}/{key[2]}/{key[3]})"
            )
        nxt = states[nq]
        c1 = None if w1 == r1 else stored[w1]
        c2 = None if w2 == r2 else stored[w2]
        d0, d1, d2 = MOVE_DELTAS[m0], MOVE_DELTAS[m1], MOVE_DELTAS[m2]
        if nxt in finals:
            kind = FINAL
        elif (r0 != blank and r2 == blank and m0 == _R and m1 == _S and c1 is None
                and m2 == (_S if c2 is None else _R)):
            kind = SWEEP
        elif nq == q and m0 == m1 == m2 == _S and c1 is None and c2 is None:
            kind = STAY
        else:
            kind = 0
        table[key] = (nxt, c1, c2, d0, d1, d2, kind)
    return table


class MachineTM:
    """A deterministic 3-tape transducer.

    ``table`` maps (state, r0, r1, r2) to the compiled :data:`TmStep` of the
    one transition with that left part; it is the machine's one form, and
    ``transitions`` is read back from it.  Structural rules enforced at
    construction, each transition checked in this order:

    * it reads, writes and moves on exactly three tapes,
    * its states are declared, its symbols are in the alphabet or blank,
      and its moves are L, R or S,
    * tape 0 is read-only (every write equals the read),
    * the output tape is never erased (a non-blank cell is never
      overwritten with blank), so the word on the output tape, its
      non-blank cells in tape order, only grows,
    * at most one transition per left part (determinism).

    The first two rules are checked on the names, then the row is numbered
    (see :data:`NumberedRow`) and the others are checked as it is compiled;
    :meth:`numbered` builds a machine from rows already numbered.  Two
    machines are equal when their name, states, start, finals, alphabet and
    transitions are.
    """

    def __init__(
        self,
        name: str,
        states: tuple[str, ...],
        start: str,
        finals: frozenset[str],
        alphabet: Alphabet,
        transitions: Iterable[Transition],
    ) -> None:
        self._declare(name, states, start, finals, alphabet)
        self.table = _compile(self._numbering(transitions), states, alphabet, finals)

    @classmethod
    def numbered(
        cls,
        name: str,
        states: tuple[str, ...],
        start: str,
        finals: frozenset[str],
        alphabet: Alphabet,
        rows: Iterable[NumberedRow],
    ) -> "MachineTM":
        """The machine of rows numbered by ``states`` and ``alphabet`` (see
        :data:`NumberedRow`); an index out of range raises IndexError."""
        machine = cls.__new__(cls)
        machine._declare(name, states, start, finals, alphabet)
        machine.table = _compile(rows, states, alphabet, finals)
        return machine

    def _declare(self, name, states, start, finals, alphabet) -> None:
        self.name = name
        self.states = states
        self.start = start
        self.finals = finals
        self.alphabet = alphabet
        check_states(states, start, finals)

    def _numbering(self, transitions: Iterable[Transition]) -> Iterator[NumberedRow]:
        """Each transition numbered, once its names check out."""
        index = {s: i for i, s in enumerate(self.states)}
        code = {**self.alphabet.index, BLANK: len(self.alphabet)}
        symbols = set(code)
        for state, reads, nxt, writes, moves in transitions:
            try:
                (r0, r1, r2), (w0, w1, w2), (m0, m1, m2) = reads, writes, moves
            except ValueError:
                raise MachineValidationError(
                    f"transition in state {state!r} does not read, write and move on three tapes"
                ) from None
            if state not in index or nxt not in index:
                raise MachineValidationError(f"transition {state}->{nxt} uses an undeclared state")
            if not (symbols.issuperset(reads) and symbols.issuperset(writes)):
                for sym in (*reads, *writes):
                    self.alphabet.check_symbol(sym)
            if m0 not in _MOVE_CODE or m1 not in _MOVE_CODE or m2 not in _MOVE_CODE:
                bad = next(m for m in moves if m not in _MOVE_CODE)
                raise MachineValidationError(f"unknown move {bad!r}")
            yield (index[state], code[r0], code[r1], code[r2], index[nxt], code[w0], code[w1], code[w2],
                   _MOVE_CODE[m0], _MOVE_CODE[m1], _MOVE_CODE[m2])

    @cached_property
    def transitions(self) -> tuple[Transition, ...]:
        """The transitions, read back from ``table`` in its order: the order
        they were given in."""
        move = dict(zip(MOVE_DELTAS, MOVES))
        return tuple(
            Transition(state, (r0, r1, r2), nxt,
                       (r0, r1 if c1 is None else c1 or BLANK, r2 if c2 is None else c2 or BLANK),
                       (move[d0], move[d1], move[d2]))
            for (state, r0, r1, r2), (nxt, c1, c2, d0, d1, d2, *_) in self.table.items()
        )

    def _fields(self) -> tuple:
        return (self.name, self.states, self.start, self.finals, self.alphabet, self.transitions)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"MachineTM(name={self.name!r}, states={self.states!r}, start={self.start!r}, "
                f"finals={self.finals!r}, alphabet={self.alphabet!r}, transitions={self.transitions!r})")

    @cached_property
    def sweeps(self) -> dict[str, dict[str, dict]]:
        """The sweep steps of ``table`` as a transducer, built on first use:
        per work symbol, state -> {input symbol: (next state, output write
        or "", next state's row), or None where no sweep step reads it}."""
        maps: dict[str, dict[str, dict]] = {}
        for (state, r0, r1, _), (nxt, _, w2, *_, kind) in self.table.items():
            if kind == SWEEP:
                if r1 not in maps:
                    maps[r1] = {q: dict.fromkeys(self.alphabet.symbols) for q in self.states}
                rows = maps[r1]
                rows[state][r0] = (nxt, w2 or "", rows[nxt])
        return maps

    def start_run(self, input_word: str) -> "TmRun":
        """A run on ``input_word``, once its symbols are checked against
        the alphabet."""
        return TmRun(self, self.alphabet.check_word(input_word))


_STEP = itemgetter(0)

# The step of a run's first snapshot; later ones are at its doublings.  A
# run shorter than this copies no tapes.
FIRST_SNAPSHOT = 16

# A sweep costs about as much to set up as this many single steps, so a run
# takes one only when at least this many steps and input symbols are ahead.
SWEEP_MIN = 8


class EventLog:
    """Step-stamped events, tuples led by their step, in step order.

    ``events`` holds what a run logged.  Once the run repeats its
    configuration, ``repeat`` is (start, period, first): from step ``start``
    on the run goes through the same configurations every ``period`` steps,
    and ``events[first:]`` are the events of one period, which recur shifted
    by the period.  The events of the periods a run skips are worked out
    from these when asked for.
    """

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self.repeat: tuple[int, int, int] | None = None

    def repeat_from(self, start: int, period: int) -> None:
        """Mark the events logged after step ``start`` as one period."""
        events = self.events
        first = len(events)
        while first and events[first - 1][0] > start:
            first -= 1
        self.repeat = (start, period, first)

    @property
    def complete(self) -> bool:
        """Whether no event can follow the logged ones: the run repeats with
        no event in a period."""
        return self.repeat is not None and self.repeat[2] == len(self.events)

    def count(self, steps: int) -> int:
        """How many events happen within the first ``steps`` steps."""
        events = self.events
        if self.repeat is None:
            return len(events)
        start, period, first = self.repeat
        laps, offset = divmod(steps - start, period)
        within = bisect_right(events, start + offset, first, key=_STEP) - first
        return first + laps * (len(events) - first) + within

    def event(self, n: int) -> tuple:
        """The n-th event (from 0), with the step it happens at."""
        events = self.events
        if self.repeat is None or n < self.repeat[2]:
            return events[n]
        start, period, first = self.repeat
        lap, j = divmod(n - first, len(events) - first)
        step, *rest = events[first + j]
        return (step + lap * period, *rest)


class TmRun:
    """Mutable stepper for one machine on one input.

    The input tape ``tapes[0]`` is the input word itself, a string; every
    cell off its ends is blank.  The word is not checked here:
    :meth:`MachineTM.start_run` checks it, and a caller that starts a run
    directly passes a word over the machine's alphabet.  The work and output tapes are sparse
    dicts position -> symbol; absent means blank.  The configuration is
    inspectable between steps, which the schedulers and the behavioural
    round-trip tests rely on.  :meth:`output_word` reads the output tape as
    its non-blank cells in tape order, a blank between two of them dropped;
    every view of a halted run takes that word as the run's result.  When
    ``write_log`` is an :class:`EventLog`, each step that changes the output
    tape logs (step, position, symbol) in it.

    A run that comes back to an earlier configuration repeats forever:
    ``period`` is then its length, and the run skips whole periods.
    """

    # the rightmost output cell of the first n written, and n; sweeps update it
    _top = (float("-inf"), 0)

    def __init__(self, machine: MachineTM, input_word: str) -> None:
        self.machine = machine
        self.tapes: tuple[str, dict[int, str], dict[int, str]] = (input_word, {}, {})
        self.heads = [0, 0, 0]
        self.state = machine.start
        self.steps = 0
        self.stuck = False
        self.period = 0
        # (step, state, heads, work and output tape copies) at the last
        # snapshot step, which later steps are compared with
        self._snapshot = (0, None, None, None, None, None, None)
        self.write_log: EventLog | None = None

    @property
    def in_final(self) -> bool:
        return self.state in self.machine.finals

    def run_to(self, fuel: int) -> "TmRun":
        """Step until ``fuel`` total steps, a final state, or stuck.

        Machines are deterministic, so resuming a paused run up to n total
        steps leaves it exactly where a fresh n-step run would: the
        dovetailers keep one live run per pair and never repeat a step.
        The loop runs on locals and writes the configuration back when it
        stops.

        Each step compares the state and heads with a snapshot retaken
        each time the step count doubles (Brent's cycle finding), and a
        match with equal work and output tapes is a repeat.  The input tape is
        read-only.  A stay step (see :data:`TmStep`) is a repeat of period 1:
        it retakes the snapshot at the step before it, whose configuration
        is the one after it, and goes through the same check.  After a repeat
        the run skips whole periods and steps the rest.

        A sweep step (see :data:`TmStep`) hands the rest of its sweep to
        :meth:`_sweep` when the next snapshot step or the fuel, and the end
        of the input, are at least :data:`SWEEP_MIN` steps ahead and the
        input head is past the snapshot's.  This is exact: a sweep ends by
        the snapshot step, enters no final state, and only moves the input
        head right, so no step inside it can match the snapshot.
        """
        steps = self.steps
        if steps >= fuel or self.stuck or self.state in self.machine.finals:
            return self
        table = self.machine.table
        x, t1, t2 = self.tapes
        n = len(x)
        get1, get2 = t1.get, t2.get
        h0, h1, h2 = self.heads
        state = self.state
        period = self.period
        log = self.write_log
        writes = None if log is None or period else log.events
        since, s_state, s0, s1, s2, s_work, s_out = self._snapshot
        final = stuck = False
        while steps < fuel and not (final or stuck):
            if period:
                steps += (fuel - steps) // period * period
                mark = fuel
            else:
                mark = 2 * since or FIRST_SNAPSHOT
                if steps == mark:
                    since, s_state, s0, s1, s2, s_work, s_out = steps, state, h0, h1, h2, dict(t1), dict(t2)
                    mark *= 2
            limit = mark if mark < fuel else fuel
            room = limit - SWEEP_MIN  # the last step a sweep may follow
            for steps in range(steps + 1, limit + 1):
                # two int comparisons run faster than one chained comparison
                entry = table.get((state, x[h0] if h0 >= 0 and h0 < n else BLANK, get1(h1, BLANK), get2(h2, BLANK)))
                if entry is None:
                    stuck = True
                    steps -= 1
                    break
                state, w1, w2, d0, d1, d2, kind = entry
                if w1 is not None:
                    if w1:
                        t1[h1] = w1
                    else:
                        del t1[h1]
                if w2 is not None:
                    t2[h2] = w2
                    if writes is not None:
                        writes.append((steps, h2, w2))
                h0 += d0
                h1 += d1
                h2 += d2
                if kind:
                    if kind == FINAL:
                        final = True
                        break
                    if kind == STAY:
                        since, s_state, s0, s1, s2, s_work, s_out = steps - 1, state, h0, h1, h2, t1, t2
                    elif s0 is not None and steps <= room and h0 > s0 and h0 + SWEEP_MIN <= n:
                        swept = self._sweep(state, h0, h1, h2, steps, limit, writes)
                        if swept:
                            state, h0, h2, steps = swept
                            break
                if h0 == s0 and h1 == s1 and h2 == s2 and state == s_state and t1 == s_work and t2 == s_out:
                    period = steps - since
                    if writes is not None:
                        log.repeat_from(since, period)
                        writes = None
                    s_state = s0 = s1 = s2 = s_work = s_out = None
                    break
        self.heads = [h0, h1, h2]
        self.state = state
        self.steps = steps
        self.stuck = stuck
        self.period = period
        self._snapshot = (since, s_state, s0, s1, s2, s_work, s_out)
        return self

    def _sweep(
        self, state: str, h0: int, h1: int, h2: int, steps: int, limit: int, writes: list[tuple] | None
    ) -> tuple[str, int, int, int] | None:
        """Take the rest of a sweep at once, up to step ``limit``: run the
        input through the machine's ``sweeps`` and write the output tape and
        the write log in bulk.  The state, heads and steps after it, or None
        if it takes no step or an output cell from the output head on is set."""
        t2 = self.tapes[2]
        # output cells are never erased and a dict keeps insertion order:
        # the cells written since the last sweep are its last keys
        top, known = self._top
        if len(t2) > known:
            top = max(top, max(islice(reversed(t2), len(t2) - known)))
            self._top = (top, len(t2))
        if h2 <= top:
            return None
        row = self.machine.sweeps[self.tapes[1].get(h1, BLANK)][state]
        trail: list[str] = []  # the output write of each step, or ""
        put = trail.append
        for symbol in self.tapes[0][h0 : h0 + limit - steps]:
            hit = row[symbol]
            if hit is None:
                break
            state, w2, row = hit
            put(w2)
        if not trail:
            return None
        if out := "".join(trail):
            cells = range(h2, h2 + len(out))
            t2.update(zip(cells, out))
            if writes is not None:
                writes.extend(zip([steps + i for i, w in enumerate(trail, 1) if w], cells, out))
            h2 += len(out)
            self._top = (h2 - 1, len(t2))
        return state, h0 + len(trail), h2, steps + len(trail)

    def output_word(self) -> str:
        """The non-blank cells of the output tape, in tape order."""
        tape = self.tapes[2]
        cells = sorted(tape)
        # a tape written from left to right holds its cells in tape order
        return "".join(tape.values() if list(tape) == cells else [tape[pos] for pos in cells])


def run_fueled(machine, input_word: str, fuel: int) -> RunOutcome:
    """Run for at most ``fuel`` steps.

    Accepts either a :class:`MachineTM` (simulated by the VM) or any object
    exposing ``run(input_word, fuel) -> RunOutcome`` (the host-backed
    machines built by the hierarchy constructions).
    """
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    if isinstance(machine, MachineTM):
        run = machine.start_run(input_word).run_to(fuel)
        if run.in_final:
            return RunOutcome.of_halt(run.output_word(), run.steps)
        if run.stuck:
            return RunOutcome.of_stuck(run.steps)
        return RunOutcome.of_fuel(run.steps)
    runner = getattr(machine, "run", None)
    if runner is None:
        raise TypeError(f"{machine!r} is not runnable")
    return runner(input_word, fuel)
