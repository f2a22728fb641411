"""Deterministic three-tape Turing machine model with fueled execution.

Tapes are numbered 0 (input, read-only), 1 (work), 2 (output).  A machine
halts with a result exactly when it reaches a final state; running out of
applicable rules in a non-final state is the no-result outcome, and fuel
exhaustion is reported separately so callers can distinguish "still
running" from "stuck".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .words import BLANK, Alphabet

MOVES = ("L", "R", "S")
_MOVE_DELTA = {"L": -1, "R": 1, "S": 0}

Triple = tuple[str, str, str]


class MachineValidationError(ValueError):
    """The transition table violates a structural invariant."""


@dataclass(frozen=True)
class Transition:
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
# and whether the next state is final.
TmStep = tuple[str, str | None, str | None, int, int, int, bool]


def compiled_write(read: str, write: str | None) -> str | None:
    """A write as a compiled table holds it: None when it leaves the cell
    as read (or there is none), "" when it blanks a non-blank cell."""
    if write is None or write == read:
        return None
    return "" if write == BLANK else write


@dataclass(frozen=True)
class MachineTM:
    """A deterministic 3-tape transducer.

    ``table`` maps (state, r0, r1, r2) to the compiled :data:`TmStep` of the
    one transition with that left part.  Structural rules enforced at
    construction:

    * at most one transition per left part (determinism),
    * tape 0 is read-only (every write equals the read),
    * the output tape is never erased (a non-blank cell is never
      overwritten with blank), which keeps "the word on the output tape"
      unambiguous.
    """

    name: str
    states: tuple[str, ...]
    start: str
    finals: frozenset[str]
    alphabet: Alphabet
    transitions: tuple[Transition, ...]
    table: dict[tuple[str, str, str, str], TmStep] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        declared = set(self.states)
        if len(declared) != len(self.states):
            raise MachineValidationError("duplicate state declaration")
        if self.start not in declared:
            raise MachineValidationError(f"start state {self.start!r} is not declared")
        for s in self.finals:
            if s not in declared:
                raise MachineValidationError(f"final state {s!r} is not declared")
        table: dict[tuple[str, str, str, str], TmStep] = {}
        for tr in self.transitions:
            if tr.state not in declared or tr.next_state not in declared:
                raise MachineValidationError(
                    f"transition {tr.state}->{tr.next_state} uses an undeclared state"
                )
            for sym in (*tr.reads, *tr.writes):
                self.alphabet.check_symbol(sym)
            for mv in tr.moves:
                if mv not in MOVES:
                    raise MachineValidationError(f"unknown move {mv!r}")
            if tr.writes[0] != tr.reads[0]:
                raise MachineValidationError(
                    f"transition in state {tr.state!r} writes to the read-only input tape"
                )
            if tr.reads[2] != BLANK and tr.writes[2] == BLANK:
                raise MachineValidationError(
                    f"transition in state {tr.state!r} erases the output tape"
                )
            key = (tr.state, *tr.reads)
            if key in table:
                raise MachineValidationError(
                    f"two transitions share the left part ({tr.state}, {'/'.join(tr.reads)})"
                )
            d0, d1, d2 = (_MOVE_DELTA[m] for m in tr.moves)
            table[key] = (
                tr.next_state,
                compiled_write(tr.reads[1], tr.writes[1]),
                compiled_write(tr.reads[2], tr.writes[2]),
                d0, d1, d2,
                tr.next_state in self.finals,
            )
        object.__setattr__(self, "table", table)

    def start_run(self, input_word: str) -> "TmRun":
        return TmRun(self, input_word)


class TmRun:
    """Mutable stepper for one machine on one input.

    Tapes are sparse dicts position -> symbol; absent means blank.  The
    configuration is inspectable between steps, which the schedulers and
    the behavioural round-trip tests rely on.  When ``output_writes`` is a
    list, each step that changes the output tape appends (step, position,
    symbol) to it.
    """

    def __init__(self, machine: MachineTM, input_word: str) -> None:
        machine.alphabet.check_word(input_word)
        self.machine = machine
        self.tapes: tuple[dict[int, str], ...] = (dict(enumerate(input_word)), {}, {})
        self.heads = [0, 0, 0]
        self.state = machine.start
        self.steps = 0
        self.stuck = False
        self.output_writes: list[tuple[int, int, str]] | None = None

    @property
    def in_final(self) -> bool:
        return self.state in self.machine.finals

    def step(self) -> bool:
        """Apply one transition.  Returns False if halted or stuck."""
        before = self.steps
        return self.run_to(before + 1).steps > before

    def run_to(self, fuel: int) -> "TmRun":
        """Step until ``fuel`` total steps, a final state, or stuck.

        Machines are deterministic, so resuming a paused run up to n total
        steps leaves it exactly where a fresh n-step run would: the
        dovetailers keep one live run per pair and never repeat a step.
        The loop runs on locals and writes the configuration back when it
        stops.
        """
        steps = self.steps
        if steps >= fuel or self.stuck or self.in_final:
            return self
        table = self.machine.table
        t0, t1, t2 = self.tapes
        get0, get1, get2 = t0.get, t1.get, t2.get
        h0, h1, h2 = self.heads
        state = self.state
        writes = self.output_writes
        for steps in range(steps + 1, fuel + 1):
            entry = table.get((state, get0(h0, BLANK), get1(h1, BLANK), get2(h2, BLANK)))
            if entry is None:
                self.stuck = True
                steps -= 1
                break
            state, w1, w2, d0, d1, d2, final = entry
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
            if final:
                break
        self.heads = [h0, h1, h2]
        self.state = state
        self.steps = steps
        return self

    def output_cells(self) -> str:
        """The non-blank cells of the output tape, in tape order."""
        tape = self.tapes[2]
        return "".join([tape[pos] for pos in sorted(tape)])

    def output_word(self) -> str:
        """Output tape content with surrounding blanks stripped."""
        tape = self.tapes[2]
        if tape and max(tape) - min(tape) >= len(tape):
            raise MachineValidationError(
                f"machine {self.machine.name!r} left an interior blank on its output tape"
            )
        return self.output_cells()

    def configuration(self) -> tuple:
        """Hashable full configuration, for step-by-step behaviour checks."""
        frozen = tuple(tuple(sorted(t.items())) for t in self.tapes)
        return (self.state, tuple(self.heads), frozen)


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
