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

    @staticmethod
    def of_halt(output: str, steps: int) -> "RunOutcome":
        return RunOutcome("halted", steps, output)

    @staticmethod
    def of_fuel(steps: int) -> "RunOutcome":
        return RunOutcome("out-of-fuel", steps)

    @staticmethod
    def of_stuck(steps: int) -> "RunOutcome":
        return RunOutcome("no-result", steps)


@dataclass(frozen=True)
class MachineTM:
    """A deterministic 3-tape transducer.

    The table maps (state, read-triple) to (state', write-triple,
    move-triple).  Structural rules enforced at construction:

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
    table: dict[tuple[str, Triple], Transition] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        declared = set(self.states)
        if self.start not in declared:
            raise MachineValidationError(f"start state {self.start!r} is not declared")
        for s in self.finals:
            if s not in declared:
                raise MachineValidationError(f"final state {s!r} is not declared")
        table: dict[tuple[str, Triple], Transition] = {}
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
            key = (tr.state, tr.reads)
            if key in table:
                raise MachineValidationError(
                    f"two transitions share the left part ({tr.state}, {'/'.join(tr.reads)})"
                )
            table[key] = tr
        object.__setattr__(self, "table", table)

    def start_run(self, input_word: str) -> "TmRun":
        return TmRun(self, input_word)


class TmRun:
    """Mutable stepper for one machine on one input.

    Tapes are sparse dicts position -> symbol; absent means blank.  The
    configuration is inspectable between steps, which the schedulers and
    the behavioural round-trip tests rely on.
    """

    def __init__(self, machine: MachineTM, input_word: str) -> None:
        machine.alphabet.check_word(input_word)
        self.machine = machine
        self.tapes: tuple[dict[int, str], ...] = ({}, {}, {})
        for i, ch in enumerate(input_word):
            self.tapes[0][i] = ch
        self.heads = [0, 0, 0]
        self.state = machine.start
        self.steps = 0
        self.stuck = False
        self.output_version = 0

    def reads(self) -> Triple:
        return tuple(
            self.tapes[t].get(self.heads[t], BLANK) for t in range(3)
        )  # type: ignore[return-value]

    @property
    def in_final(self) -> bool:
        return self.state in self.machine.finals

    def step(self) -> bool:
        """Apply one transition.  Returns False if halted or stuck."""
        if self.in_final or self.stuck:
            return False
        tr = self.machine.table.get((self.state, self.reads()))
        if tr is None:
            self.stuck = True
            return False
        for t in range(3):
            sym = tr.writes[t]
            pos = self.heads[t]
            if t == 2 and self.tapes[2].get(pos, BLANK) != sym:
                self.output_version += 1
            if sym == BLANK:
                self.tapes[t].pop(pos, None)
            else:
                self.tapes[t][pos] = sym
            self.heads[t] += _MOVE_DELTA[tr.moves[t]]
        self.state = tr.next_state
        self.steps += 1
        return True

    def run_to(self, fuel: int) -> "TmRun":
        """Step until ``fuel`` total steps, a final state, or stuck.

        Machines are deterministic, so resuming a paused run up to n total
        steps leaves it exactly where a fresh n-step run would: the
        dovetailers keep one live run per pair and never repeat a step.
        """
        while self.steps < fuel and self.step():
            pass
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


def never_halts_by_inspection(machine: MachineTM) -> bool:
    """Conservative static proof that a machine can never stop.

    Over-approximates the symbols each tape can ever hold (input: alphabet
    plus blank; work/output: blank plus whatever some transition writes)
    and demands that no final state is reachable and that every reachable
    state has a transition for every read triple in the approximation.
    Sound but incomplete.  Nothing in the package calls it: the scheduler
    and the searches only ever observe machines under fuel.
    """
    if machine.start in machine.finals:
        return False
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
                    tr = machine.table.get((state, (r0, r1, r2)))
                    if tr is None:
                        return False  # could get stuck, i.e. stop
                    nxt = tr.next_state
                    if nxt in machine.finals:
                        return False
                    if nxt not in reachable:
                        reachable.add(nxt)
                        frontier.append(nxt)
    return True
