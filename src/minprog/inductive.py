"""First-order inductive machine model: structured memory, three rule forms,
and output-register stabilization semantics.

An inductive machine keeps running after its output is written; its result
is the content of the output register once that content stops changing.
A run at a finite horizon therefore reports one of four outcomes: halted in
a final state (result), halted elsewhere (no result), output stable since
some step (result so far), or output still churning (no result so far).

Memory is a set of named cells joined by typed connections, at most one
connection per type out of any cell.  Infinite memories are lazy: a pure
generator materializes cells and connections on first access, so the
unbounded cell rows used by the scheduler constructions are representable.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .words import BLANK, Alphabet, InvalidWordError
from .turing import FIRST_SNAPSHOT, EventLog, MachineTM, MachineValidationError, check_states, compiled_write


# ---------------------------------------------------------------------------
# memory


class MemoryGraph:
    """Base interface: deterministic cell lookup plus register layout."""

    start: str
    conn_types: tuple[str, ...]

    def connection(self, cell: str, ctype: str) -> str | None:
        raise NotImplementedError

    def input_cell(self, i: int) -> str:
        """The i-th input register cell (0-based); raises if unavailable."""
        raise NotImplementedError

    def output_rank(self, cell: str) -> int | None:
        """Position of ``cell`` in the output register, or None."""
        raise NotImplementedError

    def initial_contents(self) -> dict[str, str]:
        return {}


class ExplicitMemory(MemoryGraph):
    """Finite memory declared cell by cell.

    The head starts at the first declared cell.  Register order is
    declaration order.
    """

    def __init__(
        self,
        cells: Iterable[tuple[str, str]],
        links: Iterable[tuple[str, str, str]],
        conn_types: Iterable[str],
    ) -> None:
        self.cells: list[tuple[str, str]] = list(cells)
        if not self.cells:
            raise MachineValidationError("explicit memory declares no cells")
        names = [c for c, _ in self.cells]
        if len(set(names)) != len(names):
            raise MachineValidationError("duplicate cell declaration")
        for _, kind in self.cells:
            if kind not in ("input", "work", "output"):
                raise MachineValidationError(f"unknown cell kind {kind!r}")
        self.conn_types = tuple(conn_types)
        if len(set(self.conn_types)) != len(self.conn_types):
            raise MachineValidationError("duplicate connection type declaration")
        self.start = names[0]
        self._names = set(names)
        self._links: dict[tuple[str, str], str] = {}
        for frm, ctype, to in links:
            if frm not in self._names or to not in self._names:
                raise MachineValidationError(f"link {frm}-{ctype}->{to} uses an undeclared cell")
            if ctype not in self.conn_types:
                raise MachineValidationError(f"link uses undeclared connection type {ctype!r}")
            if (frm, ctype) in self._links:
                raise MachineValidationError(
                    f"two connections of type {ctype!r} leave cell {frm!r}"
                )
            self._links[(frm, ctype)] = to
        self._inputs = [c for c, k in self.cells if k == "input"]
        self._output_rank = {c: i for i, (c, k) in enumerate(self.cells) if k == "output"}

    def connection(self, cell: str, ctype: str) -> str | None:
        return self._links.get((cell, ctype))

    def input_cell(self, i: int) -> str:
        if i >= len(self._inputs):
            raise MachineValidationError(
                f"input register has {len(self._inputs)} cells, word needs {i + 1}"
            )
        return self._inputs[i]

    def output_rank(self, cell: str) -> int | None:
        return self._output_rank.get(cell)

    def describe(self) -> tuple:
        return ("explicit", tuple(self.cells), tuple(sorted(self._links.items())))


_CHAIN = re.compile(r"^([iwo])(\d+)$")


class LinearMemory(MemoryGraph):
    """Three unbounded chains i0,i1,... / w0,... / o0,... generated lazily.

    Types r/l walk a chain; i/w/o jump to the head of the named chain from
    anywhere.  The head starts on i0.
    """

    conn_types = ("r", "l", "i", "w", "o")
    start = "i0"

    def connection(self, cell: str, ctype: str) -> str | None:
        if ctype in ("i", "w", "o"):
            return ctype + "0"
        m = _CHAIN.match(cell)
        if not m:
            return None
        chain, idx = m.group(1), int(m.group(2))
        if ctype == "r":
            return f"{chain}{idx + 1}"
        if ctype == "l":
            return f"{chain}{idx - 1}" if idx > 0 else None
        return None

    def input_cell(self, i: int) -> str:
        return f"i{i}"

    def output_rank(self, cell: str) -> int | None:
        m = _CHAIN.match(cell)
        if m and m.group(1) == "o":
            return int(m.group(2))
        return None

    def describe(self) -> tuple:
        return ("builtin", "linear")


# ---------------------------------------------------------------------------
# limit memory: connections asserted cycle by cycle by a driving process


class LimitMemory(MemoryGraph):
    """A memory whose connections accrue cycle by cycle over a base graph.

    ``cycles[n - 1]`` holds the (cell, type, target) assertions of cycle n,
    indexed once by (cell, type).  ``oracle(cell, type, budget)`` answers
    with the latest assertion made within the first ``budget`` cycles,
    falling back to the base graph; a budget past the last cycle answers as
    at the last.  As an ordinary memory the graph answers at its last
    cycle.  ``label`` lets a stock configuration advertise itself under a
    serializable builtin name; an unlabelled limit memory has no code form.
    """

    def __init__(
        self,
        base: MemoryGraph,
        cycles: Sequence[Iterable[tuple[str, str, str]]],
        label: tuple | None = None,
    ) -> None:
        self.base = base
        self.start = base.start
        self.conn_types = base.conn_types
        self.label = label
        self.budget = len(cycles)
        # (cell, type) -> (ascending cycle numbers, target asserted in each)
        self._asserted: dict[tuple[str, str], tuple[list[int], list[str]]] = {}
        for n, cycle in enumerate(cycles, start=1):
            for cell, ctype, target in cycle:
                numbers, targets = self._asserted.setdefault((cell, ctype), ([], []))
                numbers.append(n)
                targets.append(target)

    def oracle(self, cell: str, ctype: str, budget: int) -> str | None:
        if budget < 0:
            raise ValueError("budget must be non-negative")
        asserted = self._asserted.get((cell, ctype))
        if asserted is not None:
            numbers, targets = asserted
            i = bisect_right(numbers, budget)
            if i:
                return targets[i - 1]
        return self.base.connection(cell, ctype)

    def connection(self, cell: str, ctype: str) -> str | None:
        return self.oracle(cell, ctype, self.budget)

    def input_cell(self, i: int) -> str:
        return self.base.input_cell(i)

    def output_rank(self, cell: str) -> int | None:
        return self.base.output_rank(cell)

    def initial_contents(self) -> dict[str, str]:
        return self.base.initial_contents()

    def describe(self) -> tuple:
        if self.label is not None:
            return self.label
        return ("limit-snapshot", self.budget, self.base.describe())


# ---------------------------------------------------------------------------
# machine and rules


@dataclass(frozen=True)
class Rule:
    """One rule: optional write, optional move by connection type, new state.

    write-only, move-only and write-then-move cover the three rule forms.
    """

    state: str
    read: str
    next_state: str
    write: str | None = None
    move: str | None = None

    def __post_init__(self) -> None:
        if self.write is None and self.move is None:
            raise MachineValidationError("a rule must write, move, or both")


@dataclass(frozen=True)
class ItmOutcome:
    kind: str  # "halted-final" | "halted-nonfinal" | "stabilized" | "unstable"
    output: str | None = None
    steps: int | None = None
    last_change_step: int | None = None
    horizon: int | None = None
    change_count: int = 0

    @property
    def gives_result(self) -> bool:
        return self.kind in ("halted-final", "stabilized")

    @property
    def result(self) -> str | None:
        return self.output if self.gives_result else None


# A compiled rule: the next state, the write as compiled_write gives it, the
# connection type to move by (None for no move), and whether the next state
# is final.
ItmStep = tuple[str, str | None, str | None, bool]


class MachineITM:
    """Deterministic first-order inductive machine.

    ``table`` maps (state, read) to the compiled :data:`ItmStep` of the
    one rule with that left part.
    """

    def __init__(
        self,
        name: str,
        states: Iterable[str],
        start: str,
        finals: Iterable[str],
        alphabet: Alphabet,
        rules: Iterable[Rule],
        memory: MemoryGraph,
    ) -> None:
        self.name = name
        self.states = tuple(states)
        self.start = start
        self.finals = frozenset(finals)
        self.alphabet = alphabet
        self.memory = memory
        declared = check_states(self.states, start, self.finals)
        self.rules = tuple(rules)
        table: dict[tuple[str, str], ItmStep] = {}
        for r in self.rules:
            if r.state not in declared or r.next_state not in declared:
                raise MachineValidationError(f"rule {r.state}->{r.next_state} uses an undeclared state")
            alphabet.check_symbol(r.read)
            if r.write is not None:
                alphabet.check_symbol(r.write)
            if r.move is not None and r.move not in memory.conn_types:
                raise MachineValidationError(
                    f"rule in state {r.state!r} moves by undeclared connection type {r.move!r}"
                )
            key = (r.state, r.read)
            if key in table:
                raise MachineValidationError(
                    f"two rules share the left part ({r.state}, {r.read})"
                )
            write = compiled_write(r.read, r.write)
            table[key] = (r.next_state, write, r.move, r.next_state in self.finals)
        self.table = table

    def start_run(self, input_word: str) -> "ItmRun":
        return ItmRun(self, input_word)


class InductiveRun:
    """One inductive run: its step count, how it stopped, and the history of
    its output register.

    ``writes`` logs (step, position, symbol) for each write that changes
    the register ("" blanks the cell) in an :class:`EventLog`, whose
    periodic tail stands for the writes of the periods a repeating run
    skips.  The counts and the last change come from it; the values, and
    ``change_log`` of (step, value) for the initial value ``register``
    (its non-blank cells in position order) and every change after it,
    are replayed from it only when read.  A subclass defines ``run_to``.
    """

    def __init__(self, register: Sequence[tuple[int, str]] = ()) -> None:
        self.steps = 0
        self.stopped_final = False
        self.stopped_stuck = False
        self.writes = EventLog()
        # the replay so far: the positions of the non-blank cells after
        # the last replayed write, and (step, value) after each write
        self._positions = [pos for pos, _ in register]
        self._changes = [(0, "".join(sym for _, sym in register))]

    def run_to(self, horizon: int) -> "InductiveRun":
        """Step until ``horizon`` total steps or a stop, like :meth:`TmRun.run_to`."""
        raise NotImplementedError

    @property
    def change_log(self) -> list[tuple[int, str]]:
        changes = self._replay()
        count = self.change_count
        if count + 1 == len(changes):
            return changes
        event = self.writes.event
        return changes[:1] + [(event(n)[0], changes[self._logged(n + 1)][1]) for n in range(count)]

    def output_word(self) -> str:
        return self._replay()[self._logged(self.change_count)][1]

    @property
    def last_change_step(self) -> int:
        count = self.change_count
        return self.writes.event(count - 1)[0] if count else 0

    @property
    def change_count(self) -> int:
        return self.writes.count(self.steps)

    def settled(self) -> bool:
        """Whether the register can no longer change: the run has stopped,
        or it repeats with no write in a period."""
        return self.stopped_final or self.stopped_stuck or self.writes.complete

    def _replay(self) -> list[tuple[int, str]]:
        """(step, register value) before the first write and after each
        logged one, replaying the writes not replayed yet."""
        changes = self._changes
        value = changes[-1][1]
        for step, pos, sym in self.writes.events[len(changes) - 1 :]:
            value = _splice(self._positions, value, pos, sym)
            changes.append((step, value))
        return changes

    def _logged(self, n: int) -> int:
        """The number of logged writes after which the register holds what
        it holds after ``n`` writes.  Past the logged writes of a repeating
        run, whole periods bring the register back to where it was at the
        period's start, so ``n`` maps back into the logged period."""
        events = self.writes.events
        if n <= len(events):
            return n
        first = self.writes.repeat[2]
        return first + (n - first) % (len(events) - first)

    def _observe(self, sym: str) -> None:
        """Log a write of ``sym`` to the one cell of a one-cell register,
        empty at the start, if it changes the cell."""
        events = self.writes.events
        if not events or events[-1][2] != sym:
            events.append((self.steps, 0, sym))


def _splice(positions: list[int], value: str, pos: int, sym: str) -> str:
    """The register ``value`` after the cell at ``pos`` is set to ``sym``
    ("" blanks it).  ``positions`` lists the positions of the non-blank
    cells, which ``value`` holds in that order; it is updated in place."""
    i = bisect_left(positions, pos)
    if i < len(positions) and positions[i] == pos:
        if not sym:
            del positions[i]
        return value[:i] + sym + value[i + 1 :]
    if sym:
        positions.insert(i, pos)
    return value[:i] + sym + value[i:]


def _no_rank(cell: str) -> None:
    """The output rank lookup of a repeating run, whose register writes
    are all in its write log's periodic tail."""
    return None


class ItmRun(InductiveRun):
    """Stepper for one inductive machine on one input."""

    def __init__(self, machine: MachineITM, input_word: str) -> None:
        machine.alphabet.check_word(input_word)
        self.machine = machine
        self.memory = memory = machine.memory
        self.contents: dict[str, str] = {
            cell: sym for cell, sym in memory.initial_contents().items() if sym != BLANK
        }
        for i, ch in enumerate(input_word):
            self.contents[memory.input_cell(i)] = ch
        super().__init__(sorted(
            (rank, sym)
            for cell, sym in self.contents.items()
            if (rank := memory.output_rank(cell)) is not None
        ))
        self.head = memory.start
        self.state = machine.start
        self.stopped_final = machine.start in machine.finals
        # (step, state, head, contents copy) at the last snapshot step
        self._snapshot = (0, None, None, None)

    def run_to(self, horizon: int) -> "ItmRun":
        """Apply the unique matching rule until ``horizon`` total steps or a
        stop, on locals; the configuration is written back when it stops.

        Like :meth:`TmRun.run_to`, each step compares the state and head
        with a snapshot retaken each time the step count doubles, and a
        match with equal contents is a repeat.  ``connection`` is a pure
        function, so this holds on any memory.  The write log then takes
        the writes since the snapshot as its periodic tail, and the run
        skips whole periods and steps the rest without logging.
        """
        steps = self.steps
        if steps >= horizon or self.stopped_final or self.stopped_stuck:
            return self
        table = self.machine.table
        connection, output_rank = self.memory.connection, self.memory.output_rank
        contents = self.contents
        get = contents.get
        history = self.writes
        log = history.events
        head, state = self.head, self.state
        period = history.repeat[1] if history.repeat else 0
        if period:
            output_rank = _no_rank
        since, s_state, s_head, s_contents = self._snapshot
        final = stuck = False
        while steps < horizon and not (final or stuck):
            if period:
                steps += (horizon - steps) // period * period
                mark = horizon
            else:
                mark = 2 * since or FIRST_SNAPSHOT
                if steps == mark:
                    since, s_state, s_head, s_contents = steps, state, head, dict(contents)
                    mark *= 2
            for steps in range(steps + 1, (mark if mark < horizon else horizon) + 1):
                entry = table.get((state, get(head, BLANK)))
                if entry is None:
                    stuck = True
                    steps -= 1
                    break
                state, write, move, final = entry
                if write is not None:
                    if write:
                        contents[head] = write
                    else:
                        del contents[head]
                    rank = output_rank(head)
                    if rank is not None:
                        log.append((steps, rank, write))
                if move is not None:
                    target = connection(head, move)
                    if target is not None:
                        head = target
                    # no connection of the prescribed type: the head stays put
                if final:
                    break
                if head == s_head and state == s_state and contents == s_contents:
                    period = steps - since
                    history.repeat_from(since, period)
                    output_rank = _no_rank
                    s_state = s_head = s_contents = None
                    break
        self.head, self.state, self.steps = head, state, steps
        self.stopped_final, self.stopped_stuck = final, stuck
        self._snapshot = (since, s_state, s_head, s_contents)
        return self


def classify_run(run, horizon: int) -> ItmOutcome:
    """Turn a driven run into its horizon outcome."""
    if run.stopped_final:
        return ItmOutcome("halted-final", output=run.output_word(), steps=run.steps)
    if run.stopped_stuck:
        return ItmOutcome("halted-nonfinal", steps=run.steps)
    last = run.last_change_step
    if last < horizon:
        return ItmOutcome(
            "stabilized",
            output=run.output_word(),
            last_change_step=last,
            horizon=horizon,
            change_count=run.change_count,
        )
    return ItmOutcome("unstable", horizon=horizon, change_count=run.change_count)


def itm_run(machine, input_word: str, horizon: int) -> ItmOutcome:
    """Classify a run at a finite horizon.

    The output register is sampled after every step.  Stabilized means the
    content last changed strictly before the horizon and survived to it;
    halting outcomes are horizon-independent once reached.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    return classify_run(machine.start_run(input_word).run_to(horizon), horizon)


def start_if_fits(machine, input_word: str) -> InductiveRun | None:
    """Start ``machine`` on ``input_word``, or None when the input does not
    fit it: a symbol outside its alphabet, or more input than its register
    holds.  Such a run does not exist, so it gives no result."""
    try:
        return machine.start_run(input_word)
    except (InvalidWordError, MachineValidationError):
        return None


# ---------------------------------------------------------------------------
# running a TM under inductive semantics

class TmAsItm:
    """A Turing machine interpreted under inductive outcome semantics.

    The same transition table runs step for step in the TM VM; only the
    observation differs.  Halting in a final state becomes halted-final,
    getting stuck halted-nonfinal, and an unfinished run is classified by
    the history of its output tape.
    """

    def __init__(self, machine: MachineTM) -> None:
        self.name = f"{machine.name}@itm"
        self.tm = machine
        self.alphabet = machine.alphabet

    def start_run(self, input_word: str) -> "_TmItmRun":
        return _TmItmRun(self.tm, input_word)


class _TmItmRun(InductiveRun):
    """A TM run watched as an inductive run.

    The TM loop logs each output-tape write in ``writes``; the output tape
    is never erased, so each one changes the register.  The register is
    read off the tape, which is cheaper than replaying the writes.
    """

    def __init__(self, machine: MachineTM, input_word: str) -> None:
        super().__init__()
        self.run = machine.start_run(input_word)
        self.run.write_log = self.writes
        self.stopped_final = self.run.in_final

    def run_to(self, horizon: int) -> "_TmItmRun":
        run = self.run.run_to(horizon)
        self.steps = run.steps
        self.stopped_final = run.in_final
        self.stopped_stuck = run.stuck
        return self

    def output_word(self) -> str:
        return self.run.output_word()
