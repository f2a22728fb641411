"""Executable limit constructions: the list scheduler that corrals
non-total machines, budgeted halting/emptiness/totality demonstrators, the
output-change reduction, and the three-stage diagonal machine.

Every verdict these produce is labelled with the budget it was computed
under.  The tools report stabilization-so-far, never a limit fact; the only
exceptions are finite certificates such as a static proof that a machine
has no reachable way to stop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .words import BINARY, MalformedPairError, nth_word, shortlex_index, sd, unpair
from .turing import MachineTM, RunOutcome, TmRun, run_fueled
from .inductive import (
    InductiveRun,
    ItmOutcome,
    LimitMemory,
    MachineITM,
    MemoryGraph,
    classify_run,
    itm_run,
    start_if_fits,
)
from .codec import InvalidCodeError, decode_machine, encode_machine
from .universal import start_itm_run
from .zoo import acceptance_pool


@dataclass(frozen=True)
class InductiveVerdict:
    """A budgeted answer from an inductive process: the current output
    value, the cycle it last changed at, and whether the process halted
    outright (a final answer rather than an approximation)."""

    value: str | None
    stabilized_since: int | None
    budget: int
    halted: bool = False


def _decode(code: str, kind):
    """The machine ``code`` codes, which must be an instance of ``kind``."""
    machine = decode_machine(code)
    if not isinstance(machine, kind):
        raise InvalidCodeError(f"this construction does not take a {type(machine).__name__} code")
    return machine


# ---------------------------------------------------------------------------
# the halting demonstrator


def halting_itm(code: str, input_word: str, horizon: int) -> InductiveVerdict:
    """Order-one halting demonstrator: output starts at 0 and flips to 1
    the moment the simulated machine stops.

    A 0 at the horizon means "has not halted yet", the converging
    approximation; a 1 is a finite certificate.
    """
    run = _decode(code, MachineTM).start_run(input_word).run_to(horizon)
    if run.in_final or run.stuck:
        return InductiveVerdict("1", stabilized_since=run.steps, budget=horizon)
    return InductiveVerdict("0", stabilized_since=0, budget=horizon)


# ---------------------------------------------------------------------------
# the emptiness solver


def first_result_cycle(machine: MachineTM, cycles: int) -> int | None:
    """First cycle n <= cycles at which the machine reaches a final state
    when dovetailed over inputs x_1..x_n (words over its own alphabet) for
    n steps in cycle n.

    Each input keeps one live run, started at its first cycle and resumed
    to n total steps in cycle n (see :meth:`TmRun.run_to`).
    """
    runs: list[TmRun] = []
    for n in range(1, cycles + 1):
        runs.append(machine.start_run(nth_word(n, machine.alphabet)))
        if any(run.run_to(n).in_final for run in runs):
            return n
    return None


def emptiness_solver(code: str, cycles: int) -> InductiveVerdict:
    """The first observed result of the dovetail schedule flips the output
    to 0 and halts the solver; otherwise every completed cycle reasserts 1."""
    n = first_result_cycle(_decode(code, MachineTM), cycles)
    if n is None:
        return InductiveVerdict("1", stabilized_since=1, budget=cycles)
    return InductiveVerdict("0", stabilized_since=n, budget=n, halted=True)


# ---------------------------------------------------------------------------
# the non-total list scheduler


@dataclass
class EnumerationList:
    """Snapshot of the cycle scheduler's list of machine codes.

    Machines that keep demonstrating results are repeatedly demoted to the
    back; machines with a diverging probe freeze in place.  The stable
    prefix estimate is the longest prefix whose codes have not been demoted
    for the trailing half of the run.
    """

    pool_names: tuple[str, ...]
    codes: tuple[str, ...]
    order: list[str] = field(default_factory=list)
    cycle: int = 0
    halted_pairs: set[tuple[int, int]] = field(default_factory=set)
    last_moved: dict[str, int] = field(default_factory=dict)

    def stable_prefix_estimate(self) -> list[str]:
        if self.cycle == 0:
            return []
        window = max(1, self.cycle // 2)
        prefix = []
        for code in self.order:
            if self.last_moved.get(code, 0) <= self.cycle - window:
                prefix.append(code)
            else:
                break
        return prefix

    def report(self) -> dict:
        return {
            "cycle": self.cycle,
            "list": list(self.order),
            "halted_pairs": sorted(self.halted_pairs),
            "stable_prefix_estimate": self.stable_prefix_estimate(),
        }


class _Dovetail:
    """Incremental implementation of the cycle schedule.

    Cycle n simulates machines 1..n on inputs x_1..x_n, resuming each
    still-active pair's live run to n total steps.  List maintenance follows
    the construction's stated rules verbatim for the first three cycles,
    including their peculiar early insertions, and the uniform rule
    afterwards: append the next code, then demote every machine that
    produced a result on all of its probed inputs this cycle, preserving
    relative order.  Insertions are idempotent so each code appears at most
    once.
    """

    def __init__(self, pool: list[MachineTM]) -> None:
        self.pool = pool
        self.codes = tuple(encode_machine(m) for m in pool)
        self.state = EnumerationList(
            pool_names=tuple(m.name for m in pool), codes=self.codes
        )
        self._runs: dict[tuple[int, int], TmRun] = {}

    def _pair_halts_within(self, k: int, i: int, fuel: int) -> bool:
        run = self._runs.get((k, i))
        if run is None:
            machine = self.pool[k - 1]
            run = self._runs[(k, i)] = machine.start_run(nth_word(i, machine.alphabet))
        return run.run_to(fuel).in_final

    def _code(self, k: int) -> str | None:
        """Code of machine T_k (1-based), if the pool has it."""
        return self.codes[k - 1] if 1 <= k <= len(self.codes) else None

    def _insert(self, code: str | None, position: int | None = None) -> None:
        if code is None or code in self.state.order:
            return
        if position is None:
            self.state.order.append(code)
        else:
            self.state.order.insert(position, code)

    def _demote(self, movers: list[str], cycle: int) -> None:
        if not movers:
            return
        keep = [c for c in self.state.order if c not in movers]
        tail = [c for c in self.state.order if c in movers]
        self.state.order = keep + tail
        for c in tail:
            self.state.last_moved[c] = cycle

    def run_cycle(self) -> None:
        st = self.state
        n = st.cycle + 1
        if n == 1:
            self._insert(self._code(1))
        active = min(n, len(self.pool))
        all_halted: list[int] = []
        for k in range(1, active + 1):
            # pair (k, n) is new in cycle n, so each machine runs at least one
            # pair and moves exactly when every one of its pairs has halted
            halted_all = True
            for i in range(1, n + 1):
                if (k, i) in st.halted_pairs:
                    continue
                if self._pair_halts_within(k, i, n):
                    st.halted_pairs.add((k, i))
                else:
                    halted_all = False
            if halted_all:
                all_halted.append(k)
        movers = [self.codes[k - 1] for k in all_halted]

        if n == 1:
            nxt = self._code(2)
            if movers:
                self._insert(nxt, 0)
                self._demote(movers, n)
            else:
                self._insert(nxt)
        elif n == 2:
            halted1 = 1 in all_halted
            halted2 = 2 in all_halted and len(self.pool) >= 2
            if not halted1 and not halted2:
                self._insert(self._code(3))
            elif halted1 and not halted2:
                self._insert(self._code(2), 0)
                self._demote([self.codes[0]], n)
                pos = self.state.order.index(self.codes[0])
                self._insert(self._code(4), pos)
            elif halted2 and not halted1:
                self._insert(self._code(1), 0)
                self._demote([self.codes[1]], n)
                pos = self.state.order.index(self.codes[1])
                self._insert(self._code(4), pos)
            else:
                self._insert(self._code(3), 0)
                self._demote([self.codes[0], self.codes[1]], n)
        elif n == 3:
            if not movers:
                self._insert(self._code(4))
            elif len(movers) == len(self.state.order):
                self._insert(self._code(4), 0)
                self._demote(movers, n)
            else:
                self._demote(movers, n)
                first_mover = self.state.order.index(movers[0])
                self._insert(self._code(4), first_mover)
        else:
            self._insert(self._code(n + 1))
            self._demote(movers, n)
        st.cycle = n


def dovetail_nontotal(pool: list[MachineTM], cycles: int) -> EnumerationList:
    if not pool:
        raise ValueError("the scheduler needs a non-empty machine pool")
    dov = _Dovetail(pool)
    for _ in range(cycles):
        dov.run_cycle()
    return dov.state


def totality_verdict(pool: list[MachineTM], machine_index: int, cycles: int) -> InductiveVerdict:
    """Scan the stable region of the scheduler's list for the machine's
    code: found means certified non-total-so-far (0, scanner halts), not
    found means total-so-far (1)."""
    if not 0 <= machine_index < len(pool):
        raise IndexError(f"machine index {machine_index} out of range")
    if cycles == 0:
        return InductiveVerdict(None, stabilized_since=None, budget=0)
    state = dovetail_nontotal(pool, cycles)
    target = state.codes[machine_index]
    for j, code in enumerate(state.stable_prefix_estimate(), start=1):
        if code == target:
            return InductiveVerdict("0", stabilized_since=j, budget=cycles, halted=True)
    return InductiveVerdict("1", stabilized_since=1, budget=cycles)


# ---------------------------------------------------------------------------
# range / totality transformers
#
# The host machines below run through ``run_fueled``: one unit of fuel pays
# for one simulated step of the machine they are built from.


class RangeEnumerator:
    """On input x_n, dovetails the base machine over inputs and step counts
    and outputs the n-th distinct output value discovered; diverges when
    fewer than n values exist."""

    def __init__(self, base: MachineTM) -> None:
        self.base = base
        self.name = f"range-enum({base.name})"

    def run(self, input_word: str, fuel: int) -> RunOutcome:
        n = shortlex_index(input_word) + 1
        discovered: list[str] = []
        runs: list[TmRun] = []
        spent = 0
        while spent < fuel:
            round_no = len(runs) + 1
            runs.append(self.base.start_run(nth_word(round_no, self.base.alphabet)))
            for i, run in enumerate(runs, start=1):
                run.run_to(round_no)
                # a round charges each pair its step count so far (at least
                # 1), what a fresh run of round_no steps would cost
                spent += run.steps or 1
                # a pair surfaces in the first round covering both its input
                # index and its halting time
                if run.in_final and round_no == max(i, run.steps):
                    output = run.output_word()
                    if output not in discovered:
                        discovered.append(output)
                        if len(discovered) >= n:
                            return RunOutcome.of_halt(discovered[n - 1], min(spent, fuel))
                if spent >= fuel:
                    break
        return RunOutcome.of_fuel(fuel)


class Totalizer:
    """On input x_n, runs the base machine on x_1..x_n in order and outputs
    the last value; diverges as soon as any prefix input diverges."""

    def __init__(self, base: MachineTM) -> None:
        self.base = base
        self.name = f"totalizer({base.name})"

    def run(self, input_word: str, fuel: int) -> RunOutcome:
        n = shortlex_index(input_word) + 1
        spent = 0
        last = ""
        for i in range(1, n + 1):
            remaining = fuel - spent
            if remaining <= 0:
                return RunOutcome.of_fuel(fuel)
            out = run_fueled(self.base, nth_word(i, self.base.alphabet), remaining)
            spent += out.steps
            if not out.halted:
                return RunOutcome.of_fuel(fuel) if out.kind == "out-of-fuel" else RunOutcome.of_stuck(spent)
            last = out.output
        return RunOutcome.of_halt(last, spent)


def build_range_enumerator(code: str) -> RangeEnumerator:
    return RangeEnumerator(_decode(code, MachineTM))


def build_totalizer(code: str) -> Totalizer:
    return Totalizer(_decode(code, MachineTM))


# ---------------------------------------------------------------------------
# reduction: result-giving of an inductive machine vs totality of a TM


class ReductionTM:
    """T built from an inductive machine M and a fixed input x.

    On input x_n it replays M on x watching the output register; at the
    n-th change of the register it halts, emitting the value the register
    held just before that change.  If fewer than n changes ever happen the
    run diverges.  T is total on the probe sequence exactly when M's output
    on x never settles, i.e. when M(x) is undefined by instability.
    """

    def __init__(self, machine, x: str) -> None:
        self.machine = machine
        self.x = x
        self.name = f"reduction({getattr(machine, 'name', 'itm')}@{x or 'ε'})"

    def run(self, input_word: str, fuel: int) -> RunOutcome:
        n = shortlex_index(input_word) + 1
        run = self.machine.start_run(self.x)
        # resume in doubling chunks: the change log does not depend on how
        # the run was cut, so overshooting the n-th change costs at most
        # as many steps as were needed to reach it
        chunk = 1
        while run.change_count < n and run.steps < fuel:
            before = run.steps
            if run.run_to(min(fuel, before + chunk)).steps == before:
                break  # the run has stopped
            chunk *= 2
        if run.change_count < n:
            return RunOutcome.of_fuel(fuel)
        # halt at the n-th change with the value the register held before it
        return RunOutcome.of_halt(run.change_log[n - 1][1], run.change_log[n][0])


def build_reduction_tm(itm_code: str, x: str) -> ReductionTM:
    return ReductionTM(_decode(itm_code, (MachineITM, DiagonalPipeline)), x)


# ---------------------------------------------------------------------------
# diagonalization: M = checker -> decider -> alternating filter


# The stock decider simulates each program pair for this many steps.
SIM_DECIDER_STEPS = 64


class SimDecider:
    """Shipped host-level decider: simulates the coded machine on its input
    for :data:`SIM_DECIDER_STEPS` steps and answers 1 if a result was
    observed, otherwise guesses 0.  Deterministic, stabilizes after its
    simulation budget; wrong whenever results take longer than the budget."""

    kind = "builtin-decider"
    name = f"decider-sim-{SIM_DECIDER_STEPS}"

    def start_run(self, input_word: str) -> "_SimDeciderRun":
        return _SimDeciderRun(input_word)


class _SimDeciderRun(InductiveRun):
    """The register is empty until step :data:`SIM_DECIDER_STEPS`, then holds
    the verdict; the run never stops, so each step past that is idle."""

    def __init__(self, input_word: str) -> None:
        super().__init__()
        try:
            payload, code = unpair(input_word)
        except MalformedPairError:
            self._inner = None
        else:
            self._inner = start_itm_run(code, payload)

    def run_to(self, horizon: int) -> "_SimDeciderRun":
        if self.steps < SIM_DECIDER_STEPS <= horizon:
            self.steps = SIM_DECIDER_STEPS
            self._observe("1" if self._inner_gives_result() else "0")
        self.steps = max(self.steps, horizon)
        return self

    def _inner_gives_result(self) -> bool:
        if self._inner is None:
            return False
        return classify_run(self._inner.run_to(SIM_DECIDER_STEPS), SIM_DECIDER_STEPS).gives_result


class DiagonalPipeline:
    """The composed machine: a checker that validates its input word as a
    machine code and duplicates it into a program pair, the candidate
    decider, and the alternating filter that turns the decider's claims
    into the opposite observable behavior.

    Composition is streamed: the checker emits one symbol per step, the
    decider then advances one step per step with its output register
    sampled continuously, and the filter re-emits on every step.  The
    pipeline's output register is the filter's.
    """

    kind = "diagonal-pipeline"

    def __init__(self, decider: MachineITM | SimDecider) -> None:
        self.decider = decider
        self.name = f"diagonal({decider.name})"
        self.alphabet = BINARY

    def start_run(self, input_word: str) -> "_PipelineRun":
        return _PipelineRun(self, input_word)


class _PipelineRun(InductiveRun):
    def __init__(self, pipeline: DiagonalPipeline, input_word: str) -> None:
        BINARY.check_word(input_word)
        super().__init__()
        self.pipeline = pipeline
        self.input_word = input_word
        self._alt = False
        try:
            decode_machine(input_word)
            self._valid = True
        except InvalidCodeError:
            self._valid = False
        self._pair_word = sd(input_word) + input_word
        self._b_latency = (3 * len(input_word) + 2) if self._valid else (len(input_word) + 1)
        self._d_run = None
        self.b_events: list[tuple[int, str]] = []
        self.d_events: list[tuple[int, str]] = [(0, "")]

    def step(self) -> bool:
        if self.stopped_final or self.stopped_stuck:
            return False
        self.steps += 1
        if self.steps < self._b_latency:
            pass  # checker still copying
        elif self.steps == self._b_latency:
            if not self._valid:
                self.stopped_stuck = True
                return False
            self.b_events.append((self.steps, self._pair_word))
            # a decider that cannot hold the pair word has no run and so
            # never claims anything: the filter alternates
            self._d_run = start_if_fits(self.pipeline.decider, self._pair_word)
        elif self._d_run is not None:
            d = self._d_run.run_to(self.steps - self._b_latency)
            d_out = d.output_word()
            if not self.d_events or self.d_events[-1][1] != d_out:
                self.d_events.append((self.steps, d_out))
        d_out = self._d_run.output_word() if self._d_run is not None else ""
        if d_out == "0":
            self._observe("1")
        else:
            self._alt = not self._alt
            self._observe("1" if self._alt else "0")
        return True


def build_diagonal(decider) -> DiagonalPipeline:
    """Build the composed machine from a decider given as an inductive
    machine, its code word, or the shipped :class:`SimDecider`."""
    if isinstance(decider, str):
        decider = _decode(decider, MachineITM)
    if isinstance(decider, (MachineITM, SimDecider)):
        return DiagonalPipeline(decider)
    raise TypeError(f"cannot build a diagonal machine from {decider!r}")


@dataclass(frozen=True)
class DiagonalReport:
    decider_name: str
    code: str
    decider_verdict: str | None
    machine_gives_result: bool
    machine_outcome: ItmOutcome
    contradiction: bool
    stage_histories: dict


def diagonal_experiment(decider, horizon: int) -> DiagonalReport:
    """Run the composed machine on its own code and compare with the
    decider's standalone claim about that very run."""
    pipeline = build_diagonal(decider)
    code = encode_machine(pipeline)
    run = pipeline.start_run(code).run_to(horizon)
    own_run_outcome = classify_run(run, horizon)
    probe = sd(code) + code
    decider_outcome = itm_run(pipeline.decider, probe, horizon)
    verdict = decider_outcome.result
    gives = own_run_outcome.gives_result
    contradiction = (verdict == "1" and not gives) or (verdict == "0" and gives)
    histories = {
        "checker": run.b_events,
        "decider": run.d_events,
        "filter": run.change_log,
    }
    return DiagonalReport(
        decider_name=pipeline.name,
        code=code,
        decider_verdict=verdict,
        machine_gives_result=gives,
        machine_outcome=own_run_outcome,
        contradiction=contradiction,
        stage_histories=histories,
    )


# ---------------------------------------------------------------------------
# the static order table


ORDER_TABLE: dict[str, tuple[int, str]] = {
    "HP": (1, "Thm 8.1"),
    "AP": (1, "Cor 8.1"),
    "TP": (2, "Thm 8.6"),
    "IfP": (2, "Thm 8.7"),
    "EmP": (1, "Thm 8.8"),
    "LEmP": (1, "Cor 8.3"),
}


@dataclass(frozen=True)
class OrderRow:
    problem: str
    order: int
    source: str


def order_lookup(problem_name: str) -> OrderRow:
    """Strict inductive order of a named problem, with its source label.

    RPI_n rows are parameterized: the result problem for order-n inductive
    machines sits at level n+1.
    """
    name = problem_name.strip()
    if name in ORDER_TABLE:
        order, source = ORDER_TABLE[name]
        return OrderRow(name, order, source)
    if name.startswith("RPI_") and name[4:].isdecimal() and int(name[4:]) >= 1:
        return OrderRow(name, int(name[4:]) + 1, "Thm 8.2")
    raise KeyError(f"unknown problem {problem_name!r}")


def order_rows() -> list[OrderRow]:
    rows = [order_lookup(name) for name in ORDER_TABLE]
    rows.append(order_lookup("RPI_1"))
    rows.append(order_lookup("RPI_2"))
    rows.append(order_lookup("RPI_3"))
    return rows


# ---------------------------------------------------------------------------
# builtin limit-backed memories


# The stock memories dovetail the stock pool for this many cycles.
STOCK_MEMORY_CYCLES = 64


class _Thm72Base(MemoryGraph):
    """Start cell, a marker cell, an unbounded probe row, and an input
    chain.  The probe row is walked by t-connections; p-connections into
    the marker cell are asserted cycle by cycle (see :func:`thm72_memory`)."""

    conn_types = ("t", "p", "o", "r", "l", "i")
    start = "c0"

    def connection(self, cell: str, ctype: str) -> str | None:
        if ctype == "o":
            return "out0"
        if ctype == "i":
            return "i0"
        if ctype == "t":
            if cell == "c0":
                return "a0"
            if cell.startswith("a"):
                return f"a{int(cell[1:]) + 1}"
            return None
        if ctype in ("r", "l") and cell.startswith("i"):
            idx = int(cell[1:])
            if ctype == "r":
                return f"i{idx + 1}"
            return f"i{idx - 1}" if idx > 0 else None
        return None

    def input_cell(self, i: int) -> str:
        return f"i{i}"

    def output_rank(self, cell: str) -> int | None:
        return 0 if cell == "out0" else None

    def initial_contents(self) -> dict[str, str]:
        return {"c1": "1"}


@cache
def thm72_memory() -> LimitMemory:
    """Probe-row memory over the stock pool: cell a_k links to the marker
    exactly when pool machine k+1 demonstrates a result within the
    dovetail allowance of the stock cycles.  Built once per process: it
    takes no parameters and nothing mutates a limit memory."""
    cycles: list[list[tuple[str, str, str]]] = [[] for _ in range(STOCK_MEMORY_CYCLES)]
    for k, machine in enumerate(acceptance_pool()):
        detected = first_result_cycle(machine, STOCK_MEMORY_CYCLES)
        if detected is not None:
            cycles[detected - 1].append((f"a{k}", "p", "c1"))
    return LimitMemory(_Thm72Base(), cycles, label=("builtin", "thm72"))


class _LimitListBase(MemoryGraph):
    """Hypercell chain h1, h2, ... walked by n-connections; m-connections
    point each position at the landmark cell of the machine currently
    listed there."""

    conn_types = ("n", "m", "r", "l", "i")
    start = "h1"

    def connection(self, cell: str, ctype: str) -> str | None:
        if ctype == "n" and cell.startswith("h"):
            return f"h{int(cell[1:]) + 1}"
        if ctype == "i":
            return "i0"
        if ctype in ("r", "l") and cell.startswith("i"):
            idx = int(cell[1:])
            if ctype == "r":
                return f"i{idx + 1}"
            return f"i{idx - 1}" if idx > 0 else None
        return None

    def input_cell(self, i: int) -> str:
        return f"i{i}"

    def output_rank(self, cell: str) -> int | None:
        return None


@cache
def limitlist_memory() -> LimitMemory:
    """List memory over the stock pool: in each cycle, position h_j links
    to the landmark cell d_k of the machine T_k the scheduler lists there.
    Built once per process, like :func:`thm72_memory`."""
    dov = _Dovetail(acceptance_pool())
    machine_no = {code: k for k, code in enumerate(dov.codes, start=1)}
    cycles = []
    for _ in range(STOCK_MEMORY_CYCLES):
        dov.run_cycle()
        cycles.append(
            [(f"h{j}", "m", f"d{machine_no[code]}") for j, code in enumerate(dov.state.order, start=1)]
        )
    return LimitMemory(_LimitListBase(), cycles, label=("builtin", "limitlist"))
