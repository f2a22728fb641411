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
from functools import cached_property
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


class RunOutcome(NamedTuple):
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


# A compiled transition: the next state, the tape-1 and tape-2 writes (None
# when one leaves its cell as read; tape 0 is read-only), the three head
# deltas, and its kind: FINAL when it enters a final state, else SWEEP, STAY or 0.
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


def _compile(
    rows: Iterable[NumberedRow], states: tuple[str, ...], alphabet: Alphabet, finals: frozenset[str]
) -> dict[tuple[str, str, str, str], TmStep]:
    """The table of numbered rows, in row order.  Each row is checked before
    the next is read: a write to the read-only input, an erased output cell,
    then a left part an earlier row has.  An index out of range raises
    IndexError."""
    symbols = (*alphabet.symbols, BLANK)  # by code
    blank = len(alphabet)
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
        c1 = None if w1 == r1 else symbols[w1]
        c2 = None if w2 == r2 else symbols[w2]
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


def _definite(steps: dict[str, dict[str, tuple[str, str]]], state: str, symbols: tuple[str, ...]
              ) -> tuple[str, dict[str, str], dict[int, str | None]] | None:
    """The sweep from ``state`` as :attr:`MachineTM.sweeps` gives it, over
    the sweep ``steps`` on one work symbol (state -> input symbol -> (next
    state, output write or "")) and the alphabet's ``symbols``.  The states
    it can enter are ``state`` and the next states of its steps, so it is
    definite when each of those has the same steps."""
    mine = steps[state]
    if any(steps.get(nxt) != mine for nxt, _ in mine.values()):
        return None
    # a deletion maps to None, which keeps str.translate on its fast path
    return ("".join(s for s in symbols if s not in mine),
            {s: nxt for s, (nxt, _) in mine.items()},
            str.maketrans({s: w or None for s, (_, w) in mine.items()}))


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
    :meth:`numbered` builds a machine from rows already numbered.
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
                       (r0, r1 if c1 is None else c1, r2 if c2 is None else c2),
                       (move[d0], move[d1], move[d2]))
            for (state, r0, r1, r2), (nxt, c1, c2, d0, d1, d2, *_) in self.table.items()
        )

    @cached_property
    def sweeps(self) -> dict[str, dict[str, tuple[str, dict[str, str], dict[int, str | None]] | None]]:
        """The sweeps of ``table``, built on first use: per work symbol, each
        state with sweep steps on it -> its sweep if definite, else None.  A
        sweep from a state is definite when every state it can enter, that
        state included, has sweep steps on the same input symbols S and each
        symbol sends them all to one next state with one write (a definite
        automaton of order 1); it is then (the alphabet symbols outside S as
        a string, next state by symbol, a ``str.translate`` table of the
        writes)."""
        steps: dict[str, dict[str, dict[str, tuple[str, str]]]] = {}
        for (state, r0, r1, _), (nxt, _, w2, *_, kind) in self.table.items():
            if kind == SWEEP:
                steps.setdefault(r1, {}).setdefault(state, {})[r0] = (nxt, w2 or "")
        symbols = self.alphabet.symbols
        return {r1: {q: _definite(on, q, symbols) for q in on} for r1, on in steps.items()}

    def start_run(self, input_word: str) -> "TmRun":
        """A run on ``input_word``, once its symbols are checked against
        the alphabet."""
        return TmRun(self, self.alphabet.check_word(input_word))


_STEP = itemgetter(0)

# The step of a run's first snapshot; later ones are at its doublings.  A
# run shorter than this copies no tapes.
FIRST_SNAPSHOT = 16

# A fresh output tape's blank cells: one, and the 16 of its first widening to
# the right, so a short writer widens no tape and a long one the same lengths
_ROOM = (BLANK,) * 17

# A sweep costs about as much to set up as this many single steps, so a run
# takes one only when at least this many steps and input symbols are ahead.
SWEEP_MIN = 8


class EventLog:
    """Step-stamped events, tuples led by their step, in step order.

    ``events`` holds what a run logged.  Once the run repeats its
    configuration, ``repeat`` is (start, period, first): from step ``start``
    on the run goes through the same configurations every ``period`` steps,
    and ``events[first:]`` are the events of one period, which recur shifted
    by the period.  Readers ask :meth:`count`, how many events happen by a
    step, and :meth:`locate`, where an event is logged and when it happens:
    the one map from an event of a skipped period to the one it repeats.
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

    def count(self, steps: int) -> int:
        """How many events happen within the first ``steps`` steps."""
        events = self.events
        if self.repeat is None:
            return len(events)
        start, period, first = self.repeat
        laps, offset = divmod(steps - start, period)
        within = bisect_right(events, start + offset, first, key=_STEP) - first
        return first + laps * (len(events) - first) + within

    def locate(self, n: int) -> tuple[int, int]:
        """Where the n-th event (from 0) is logged and the step it happens
        at: (index into ``events``, step)."""
        events = self.events
        if self.repeat is None or n < self.repeat[2]:
            return n, events[n][0]
        _, period, first = self.repeat
        lap, j = divmod(n - first, len(events) - first)
        return first + j, events[first + j][0] + lap * period


def _widen(tape: list[str], copy: list[str] | None, left: bool) -> int:
    """Widen ``tape`` in place by its length, and by at least 16 blanks, at
    its left end if ``left`` else at its right, moving the sentinel out, and
    ``copy`` (a snapshot copy or None) alike; how far its indices move."""
    by = len(tape) if len(tape) > 16 else 16  # a call to max() costs more
    edge = [BLANK] * (by + 1)
    edge[0 if left else by] = ""
    at = 0 if left else len(tape) - 1
    tape[at : at + 1] = edge
    if copy is not None:
        copy[at : at + 1] = edge
    return by if left else 0


class TmRun:
    """Mutable stepper for one machine on one input.

    The input tape ``tapes[0]`` is the input word itself, a string; every
    cell off its ends is blank.  The word is not checked here:
    :meth:`MachineTM.start_run` checks it, and a caller that starts a run
    directly passes a word over the machine's alphabet.  The work and output
    tapes are dense lists between "" sentinels that no row reads, a blank
    stored as BLANK, cell h of tape t at index h + ``origins[t - 1]``; a
    fresh work tape holds one blank cell and a fresh output tape 17;
    ``heads`` are cell positions.  The configuration is inspectable between
    steps, which the schedulers and the behavioural round-trip tests rely
    on.  :meth:`output_word` reads the output tape as its non-blank cells in
    tape order, a blank between two of them dropped; every view of a halted
    run takes that word as the run's result.  When ``write_log`` is an
    :class:`EventLog`, each step that changes the output tape logs (step,
    position, symbol) in it.

    A run that comes back to an earlier configuration repeats forever:
    ``period`` is then its length, and the run skips whole periods.
    """

    def __init__(self, machine: MachineTM, input_word: str) -> None:
        # all set here: an attribute read off the class costs a fresh run more
        self.machine = machine
        self.tapes: tuple[str, list[str], list[str]] = (input_word, ["", BLANK, ""], ["", *_ROOM, ""])
        self.state = machine.start
        self.steps = self.period = 0
        self.stuck = False
        self.heads = (0, 0, 0)
        self.origins = (1, 1)
        # (step, state, heads, work and output tape copies) at the last snapshot
        # step, which later steps are compared with; the tape heads as indices
        self._snapshot = (0, None, None, 0, 0, None, None)
        self.write_log: EventLog | None = None

    @property
    def in_final(self) -> bool:
        return self.state in self.machine.finals

    def run_to(self, fuel: int) -> "TmRun":
        """Step until ``fuel`` total steps, a final state, or stuck.

        Machines are deterministic, so resuming a paused run up to n total
        steps leaves it exactly where a fresh n-step run would: the range
        enumerator resumes its open runs and never repeats a step.
        The loop runs on locals, tape heads as list indices, and writes the
        configuration back when it stops, the snapshot once it has one.

        Each step compares the state and heads with a snapshot retaken
        each time the step count doubles (Brent's cycle finding), and a
        match with equal work and output tapes is a repeat (the input tape
        is read-only).  A step that reads a sentinel widens that tape and
        the snapshot's copy alike and is taken again; only a sweep that
        writes past the output tape's end grows it otherwise, by its
        output and 16 blanks (see :meth:`_sweep`).  A stay step (see
        :data:`TmStep`) is a repeat of period 1: it retakes the snapshot at
        the step before it, whose configuration is the one after it, and
        goes through the same check.  After a repeat the run skips whole
        periods and steps the rest.

        A sweep step (see :data:`TmStep`) hands the rest of its sweep to
        :meth:`_sweep`, which takes a definite one at once, when the next
        snapshot step or the fuel, and the end of the input, are at least
        :data:`SWEEP_MIN` steps ahead and the input head is past the
        snapshot's.  This is exact: a sweep ends by the snapshot step,
        enters no final state, and only moves the input head right, so no
        step inside it can match the snapshot.
        """
        steps, machine, state = self.steps, self.machine, self.state
        if steps >= fuel or self.stuck or state in machine.finals:
            return self
        table = machine.table
        x, t1, t2 = self.tapes
        n = len(x)
        o1, o2 = self.origins
        h0, h1, h2 = self.heads
        i1, i2 = h1 + o1, h2 + o2
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
                    since, s_state, s0, s1, s2, s_work, s_out = steps, state, h0, i1, i2, t1[:], t2[:]
                    mark *= 2
            limit = mark if mark < fuel else fuel
            room = limit - SWEEP_MIN  # the last step a sweep may follow
            for steps in range(steps + 1, limit + 1):
                # two int comparisons run faster than one chained comparison
                entry = table.get((state, x[h0] if h0 >= 0 and h0 < n else BLANK, t1[i1], t2[i2]))
                if entry is None:
                    if not t1[i1]:
                        shift = _widen(t1, s_work, not i1)
                        i1, s1, o1 = i1 + shift, s1 + shift, o1 + shift
                    if not t2[i2]:
                        shift = _widen(t2, s_out, not i2)
                        i2, s2, o2 = i2 + shift, s2 + shift, o2 + shift
                    self.origins = (o1, o2)
                    entry = table.get((state, x[h0] if h0 >= 0 and h0 < n else BLANK, t1[i1], t2[i2]))
                    if entry is None:
                        stuck = True
                        steps -= 1
                        break
                state, w1, w2, d0, d1, d2, kind = entry
                if w1 is not None:
                    t1[i1] = w1
                if w2 is not None:
                    t2[i2] = w2
                    if writes is not None:
                        writes.append((steps, i2 - o2, w2))
                h0 += d0
                i1 += d1
                i2 += d2
                if kind:
                    if kind == FINAL:
                        final = True
                        break
                    if kind == STAY:
                        since, s_state, s0, s1, s2, s_work, s_out = steps - 1, state, h0, i1, i2, t1, t2
                    elif s0 is not None and steps <= room and h0 > s0 and h0 + SWEEP_MIN <= n:
                        swept = self._sweep(state, t1[i1], h0, i2, steps, limit, writes)
                        if swept:
                            state, h0, i2, steps = swept
                            break
                if h0 == s0 and i1 == s1 and i2 == s2 and state == s_state and t1 == s_work and t2 == s_out:
                    period = steps - since
                    if writes is not None:
                        log.repeat_from(since, period)
                        writes = None
                    s_state = s0 = s_work = s_out = None
                    break
        self.heads = (h0, i1 - o1, i2 - o2)
        self.state = state
        self.steps = steps
        self.stuck = stuck
        if s0 is not None or period:  # a snapshot is held, or a repeat dropped it
            self.period = period
            self._snapshot = (since, s_state, s0, s1, s2, s_work, s_out)
        return self

    def _sweep(
        self, state: str, work: str, h0: int, i2: int, steps: int, limit: int, writes: list[tuple] | None
    ) -> tuple[str, int, int, int] | None:
        """Take the rest of a definite sweep (see :attr:`MachineTM.sweeps`)
        on the ``work`` symbol at once, up to step ``limit``.  It runs to the
        first input symbol outside S, found with one ``str.find`` per such
        symbol of the alphabet, ends in the state its last symbol sends every
        state to, and writes the ``translate`` of the symbols it read from
        index ``i2``, the write log in bulk: in one slice, or past the tape's
        right end in place of the tape's rest, then 16 blanks and the
        sentinel, so a swept span carries no widening slack.  Exact: plain
        stepping reads and writes the same cells, and no reader counts
        trailing blank slots.  The snapshot's copy is not widened: output is
        never erased, so once a sweep writes, the copy matches no later step.
        The state, input head, output index and steps after it, or None if
        the sweep is not definite, takes no step or reads a non-blank output
        cell; :meth:`run_to` then steps on."""
        definite = self.machine.sweeps[work].get(state)
        if definite is None:
            return None
        stops, after, table = definite
        ahead = self.tapes[0][h0 : h0 + limit - steps]
        taken = len(ahead)
        for stop in stops:
            at = ahead.find(stop, 0, taken)
            if at >= 0:
                taken = at
        if not taken:
            return None
        ahead = ahead[:taken]
        out = ahead.translate(table)
        end = i2 + len(out)
        t2 = self.tapes[2]
        # the cells read: those written, and the next if a step writes none
        read = t2[i2 : end + (len(out) < taken)]
        if read.count(BLANK) + (not read[-1]) < len(read):
            return None
        if end < len(t2):
            t2[i2:end] = out
        else:  # past the sentinel: the output, 16 blanks and a new sentinel
            del t2[i2:]
            t2 += out  # extending from a str builds no temporary list
            t2 += (*_ROOM[1:], "")
        if out and writes is not None:
            cells = range(i2 - self.origins[1], end - self.origins[1])
            if len(out) == taken:
                stamps = range(steps + 1, steps + taken + 1)
            else:  # the steps that write
                stamps = [steps + i for i, symbol in enumerate(ahead, 1) if table[ord(symbol)]]
            writes.extend(zip(stamps, cells, out))
        return after[ahead[-1]], h0 + taken, end, steps + taken

    def output_word(self) -> str:
        """The non-blank cells of the output tape, in tape order."""
        return "".join(self.tapes[2]).replace(BLANK, "")


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
