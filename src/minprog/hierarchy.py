"""Executable limit constructions: the list scheduler that corrals
non-total machines, budgeted halting/emptiness/totality demonstrators, the
output-change reduction, and the three-stage diagonal machine.

Every verdict these produce is labelled with the budget it was computed
under.  The tools report stabilization-so-far, never a limit fact; the only
exceptions are finite certificates such as a static proof that a machine
has no reachable way to stop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import islice

from .words import BINARY, sd, shortlex_index, shortlex_words
from .turing import MachineTM, RunOutcome, TmRun, run_fueled
from .inductive import (
    InductiveRun,
    ItmOutcome,
    LimitMemory,
    MachineITM,
    MemoryGraph,
    classify_run,
    start_if_fits,
)
from .codec import InvalidCodeError, decode_machine, encode_machine
from .universal import itm_outcome, itm_universal_apply, read_program
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
# the probe row that every dovetail reads, and the emptiness solver


class ProbeRow:
    """One machine's live runs on inputs x_1, x_2, ... over its own
    alphabet, read in turn from one :func:`shortlex_words`.  Round n starts
    the runs up to x_n and resumes each open run to n total steps (see
    :meth:`TmRun.run_to`).  A run closes once it is final, stuck or
    repeating: its answer can no longer change, so no later round resumes
    it; a run that stays in place closes at its first step."""

    def __init__(self, machine: MachineTM) -> None:
        self.machine = machine
        self.runs: list[TmRun] = []
        self._inputs = shortlex_words(machine.alphabet)
        self.finals = 0
        # the runs that stopped (final or stuck), and their steps, at least 1 each
        self.stopped = self.stopped_steps = 0
        self._open: list[int] = []

    def run_round(self, n: int) -> list[int]:
        """Play round n; return the inputs i (1-based, ascending) whose run
        reached a final state in it."""
        machine, runs = self.machine, self.runs
        while len(runs) < n:
            self._open.append(len(runs))
            # the inputs are words over the machine's own alphabet
            runs.append(TmRun(machine, next(self._inputs)))
        still, halted = [], []
        for i in self._open:
            run = runs[i].run_to(n)
            if run.in_final or run.stuck:
                self.stopped += 1
                self.stopped_steps += run.steps or 1
                if run.in_final:
                    halted.append(i + 1)
            elif not run.period:
                still.append(i)
        self._open = still
        self.finals += len(halted)
        return halted


def first_result_cycle(machine: MachineTM, cycles: int) -> int | None:
    """First cycle n <= cycles at which the machine reaches a final state
    when dovetailed over inputs x_1..x_n for n steps in cycle n."""
    row = ProbeRow(machine)
    for n in range(1, cycles + 1):
        if row.run_round(n):
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


class EnumerationList:
    """The cycle scheduler's list of machine codes, played one cycle at a
    time by :meth:`run_cycle`.

    Cycle n plays round n of the probe rows of machines 1..n.  List
    maintenance is the uniform rule: append the next code, then demote
    every machine that produced a result on all of its probed inputs this
    cycle, preserving relative order.  The construction's stated rules make
    one exception, in cycle 2 with exactly one mover and in cycle 3 when
    some but not all listed codes move: the movers are demoted and the
    fourth code goes just before the lowest-numbered mover, in place of the
    next code.  Insertions are idempotent so each code appears at most once.

    Machines that keep demonstrating results are thus repeatedly demoted to
    the back; machines with a diverging probe freeze in place.  The stable
    prefix estimate is the longest prefix whose codes have not been demoted
    for the trailing half of the run.
    """

    def __init__(self, pool: list[MachineTM]) -> None:
        if not pool:
            raise ValueError("the scheduler needs a non-empty machine pool")
        self.rows = [ProbeRow(m) for m in pool]
        self.pool_names = tuple(m.name for m in pool)
        self.codes = tuple(encode_machine(m) for m in pool)
        self.order: list[str] = []
        self.cycle = 0
        self.halted_pairs: set[tuple[int, int]] = set()
        self.last_moved: dict[str, int] = {}

    def _insert(self, k: int, position: int) -> None:
        """List the code of machine T_k (1-based), if the pool has it and it
        is not listed yet, at ``position``."""
        if 1 <= k <= len(self.codes) and self.codes[k - 1] not in self.order:
            self.order.insert(position, self.codes[k - 1])

    def _demote(self, movers: list[str], cycle: int) -> None:
        keep = [c for c in self.order if c not in movers]
        tail = [c for c in self.order if c in movers]
        self.order = keep + tail
        for c in tail:
            self.last_moved[c] = cycle

    def run_cycle(self) -> None:
        n = self.cycle + 1
        if n == 1:
            self._insert(1, 0)
        all_halted: list[int] = []
        for k, row in enumerate(self.rows[:n], start=1):
            self.halted_pairs.update((k, i) for i in row.run_round(n))
            # a machine moves exactly when all n of its pairs have halted
            if row.finals == n:
                all_halted.append(k)
        movers = [self.codes[k - 1] for k in all_halted]
        listed = [c for c in self.order if c in movers]
        if (n == 2 and len(movers) == 1) or (n == 3 and 0 < len(listed) < len(self.order)):
            self._demote(movers, n)
            self._insert(4, self.order.index(movers[0]))
        else:
            self._insert(n + 1, len(self.order))
            self._demote(movers, n)
        self.cycle = n

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


def dovetail_nontotal(pool: list[MachineTM], cycles: int) -> EnumerationList:
    state = EnumerationList(pool)
    for _ in range(cycles):
        state.run_cycle()
    return state


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
        row = ProbeRow(self.base)
        runs = row.runs

        def charged(k: int) -> int:
            # what fresh runs of round_no steps on the first k pairs would cost
            return sum(round_no if run.period else run.steps or 1 for run in runs[:k])

        spent = round_no = 0
        while spent < fuel:
            round_no += 1
            # a pair surfaces in the round its run halts, the first round
            # covering both its input index and its halting time
            surfacing = row.run_round(round_no)
            # a round charges each pair what a fresh run of round_no steps
            # would cost: the steps of a stopped run (at least 1), else
            # round_no, also for a repeating run, which is no longer resumed;
            # the pairs are charged in order, and the round ends at the fuel
            total = row.stopped_steps + round_no * (len(runs) - row.stopped)
            for i in surfacing:
                if spent + total >= fuel and spent + charged(i - 1) >= fuel:
                    break
                output = runs[i - 1].output_word()
                if output not in discovered:
                    discovered.append(output)
                    if len(discovered) >= n:
                        return RunOutcome.of_halt(output, min(spent + charged(i), fuel))
            spent += total
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
        for word in islice(shortlex_words(self.base.alphabet), n):
            remaining = fuel - spent
            if remaining <= 0:
                return RunOutcome.of_fuel(fuel)
            out = run_fueled(self.base, word, remaining)
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
        log = run.change_log
        return RunOutcome.of_halt(log[n - 1][1], log[n][0])


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

    name = f"decider-sim-{SIM_DECIDER_STEPS}"

    def start_run(self, input_word: str) -> "_SimDeciderRun":
        return _SimDeciderRun(input_word)


class _SimDeciderRun(InductiveRun):
    """The register is empty until step :data:`SIM_DECIDER_STEPS`, then holds
    the verdict; the run never stops, so each step past that is idle, a
    repeat of period 1."""

    def __init__(self, input_word: str) -> None:
        super().__init__()
        self._read = read_program(input_word, None)

    def run_to(self, horizon: int) -> "_SimDeciderRun":
        if self.steps < SIM_DECIDER_STEPS <= horizon:
            self.steps = SIM_DECIDER_STEPS
            read = self._read
            halts = read is not None and itm_universal_apply(read[1], read[0], SIM_DECIDER_STEPS).gives_result
            self._observe("1" if halts else "0")
            self.writes.repeat_from(SIM_DECIDER_STEPS, 1)
        self.steps = max(self.steps, horizon)
        return self


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

    def run_to(self, horizon: int) -> "_PipelineRun":
        """Step the three stages until ``horizon`` or until the decider's
        register can no longer change.  From then on the filter repeats:
        constant "1" on a claim of "0", else alternating, so its write log
        takes a periodic tail of period 1 or 2 and the run skips to the
        horizon."""
        log = self.writes
        while self.steps < horizon and not (self.stopped_stuck or log.repeat):
            self.steps += 1
            if self.steps < self._b_latency:
                pass  # checker still copying
            elif self.steps == self._b_latency:
                if not self._valid:
                    self.stopped_stuck = True
                    break
                self.b_events.append((self.steps, self._pair_word))
                # a decider that cannot hold the pair word has no run and so
                # never claims anything: the filter alternates
                self._d_run = start_if_fits(self.pipeline.decider, self._pair_word)
            elif self._d_run is not None:
                d_out = self._d_run.run_to(self.steps - self._b_latency).output_word()
                if self.d_events[-1][1] != d_out:
                    self.d_events.append((self.steps, d_out))
            d_out = self._d_run.output_word() if self._d_run is not None else ""
            if d_out == "0":
                self._observe("1")
            else:
                self._alt = not self._alt
                self._observe("1" if self._alt else "0")
            if self.steps >= self._b_latency and (self._d_run is None or self._d_run.settled()):
                if d_out == "0":
                    log.repeat_from(self.steps, 1)
                else:
                    value = log.events[-1][2]
                    other = "0" if value == "1" else "1"
                    log.events += [(self.steps + 1, 0, other), (self.steps + 2, 0, value)]
                    log.repeat_from(self.steps, 2)
        if log.repeat:
            self.steps = max(self.steps, horizon)
        return self


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
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    pipeline = build_diagonal(decider)
    code = encode_machine(pipeline)
    run = pipeline.start_run(code).run_to(horizon)
    own_run_outcome = classify_run(run, horizon)
    probe = sd(code) + code
    decider_outcome = itm_outcome(pipeline.decider, probe, horizon)
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


class _InputChain(MemoryGraph):
    """The stock memories' input chain i0, i1, ...: every cell's
    i-connection enters it, and r- and l-connections walk it."""

    def connection(self, cell: str, ctype: str) -> str | None:
        if ctype == "i":
            return "i0"
        if ctype in ("r", "l") and cell.startswith("i"):
            idx = int(cell[1:]) + (1 if ctype == "r" else -1)
            return f"i{idx}" if idx >= 0 else None
        return None

    def input_cell(self, i: int) -> str:
        return f"i{i}"


class _Thm72Base(_InputChain):
    """Start cell, a marker cell, an unbounded probe row, and an input
    chain.  The probe row is walked by t-connections; p-connections into
    the marker cell are asserted cycle by cycle (see :func:`thm72_memory`)."""

    conn_types = ("t", "p", "o", "r", "l", "i")
    start = "c0"

    def connection(self, cell: str, ctype: str) -> str | None:
        if ctype == "o":
            return "out0"
        if ctype == "t" and (cell == "c0" or cell.startswith("a")):
            return "a0" if cell == "c0" else f"a{int(cell[1:]) + 1}"
        return super().connection(cell, ctype)

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


class _LimitListBase(_InputChain):
    """Hypercell chain h1, h2, ... walked by n-connections, and an input
    chain; m-connections point each position at the landmark cell of the
    machine currently listed there."""

    conn_types = ("n", "m", "r", "l", "i")
    start = "h1"

    def connection(self, cell: str, ctype: str) -> str | None:
        if ctype == "n" and cell.startswith("h"):
            return f"h{int(cell[1:]) + 1}"
        return super().connection(cell, ctype)

    def output_rank(self, cell: str) -> int | None:
        return None


@cache
def limitlist_memory() -> LimitMemory:
    """List memory over the stock pool: in each cycle, position h_j links
    to the landmark cell d_k of the machine T_k the scheduler lists there.
    Built once per process, like :func:`thm72_memory`."""
    state = EnumerationList(acceptance_pool())
    machine_no = {code: k for k, code in enumerate(state.codes, start=1)}
    cycles = []
    for _ in range(STOCK_MEMORY_CYCLES):
        state.run_cycle()
        cycles.append(
            [(f"h{j}", "m", f"d{machine_no[code]}") for j, code in enumerate(state.order, start=1)]
        )
    return LimitMemory(_LimitListBase(), cycles, label=("builtin", "limitlist"))
