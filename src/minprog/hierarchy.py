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

from .words import BINARY, pair, shortlex_index, shortlex_words
from .turing import MachineTM, RunOutcome, TmRun, run_fueled
from .inductive import (
    InductiveRun,
    ItmOutcome,
    LimitMemory,
    LinearMemory,
    MachineITM,
    _splice,
    chain_cell,
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
    machine = _decode(code, MachineTM)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    run = machine.start_run(input_word).run_to(horizon)
    if run.in_final or run.stuck:
        return InductiveVerdict("1", stabilized_since=run.steps, budget=horizon)
    return InductiveVerdict("0", stabilized_since=0, budget=horizon)


# ---------------------------------------------------------------------------
# the emptiness solver


def first_result_cycle(machine: MachineTM, cycles: int) -> int | None:
    """First cycle n <= cycles at which the machine reaches a final state
    when dovetailed over inputs x_1..x_n for n steps in cycle n.  A run on
    x_i that halts at step t is seen in cycle max(i, t).  Horizons h from 1
    up to ``cycles``, each the ceiling of an eighth of the next, rerun x_1,
    x_2, ... from scratch, one at a time, to one step short of the best
    cycle found so far (at first h + 1), up to the first input whose index
    reaches it; the first horizon that finds a cycle has seen every pair
    with max(i, t) <= h.  So the work grows with the answer, and the lower
    horizons add about 1/63 to the steps of a search that finds nothing."""
    horizons = [cycles]
    while horizons[-1] > 1:
        horizons.append(-(-horizons[-1] // 8))
    for h in reversed(horizons):
        best = h + 1
        for i, word in enumerate(shortlex_words(machine.alphabet), start=1):
            if i >= best:
                break
            run = TmRun(machine, word).run_to(best - 1)
            if run.state in machine.finals:
                best = run.steps if run.steps > i else i
        if best <= h:
            return best
    return None


def emptiness_solver(code: str, cycles: int) -> InductiveVerdict:
    """The first observed result of the dovetail schedule flips the output
    to 0 and halts the solver; otherwise every completed cycle reasserts 1.
    No cycle, no information, as in :func:`totality_verdict`."""
    machine = _decode(code, MachineTM)
    if cycles < 0:
        raise ValueError(f"cycles must be at least 0, got {cycles}")
    if cycles == 0:
        return InductiveVerdict(None, stabilized_since=None, budget=0)
    n = first_result_cycle(machine, cycles)
    if n is None:
        return InductiveVerdict("1", stabilized_since=1, budget=cycles)
    return InductiveVerdict("0", stabilized_since=n, budget=n, halted=True)


# ---------------------------------------------------------------------------
# the non-total list scheduler


class EnumerationList:
    """The list scheduler's machine codes, built by :func:`dovetail_nontotal`.

    Cycle n probes machines 1..n on inputs x_1..x_n for n steps each.  List
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
        tail = [c for c in self.order if c in movers]
        if self.order[len(self.order) - len(tail) :] != tail:  # else the movers already end the list
            self.order[:] = [c for c in self.order if c not in movers] + tail
        for c in tail:
            self.last_moved[c] = cycle

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
    """The list after ``cycles`` cycles.  No round reads the list, and pair
    (k, i) halting at step t is seen in round max(k, i, t): so each pair runs
    once, to ``cycles`` steps, and machine k moves in cycle n >= k when its
    pairs 1..n all halt within n steps.  The list folds those moves."""
    if cycles < 0:
        raise ValueError(f"cycles must be at least 0, got {cycles}")
    state = EnumerationList(pool)
    movers: list[list[str]] = [[] for _ in range(cycles + 1)]  # by cycle, in machine order
    for k, (code, machine) in enumerate(zip(state.codes[:cycles], pool), start=1):
        seen = k  # max(k, t_1..t_i): round max(seen, i) sees pairs 1..i halted, if they all halt
        for i, word in enumerate(islice(shortlex_words(machine.alphabet), cycles), start=1):
            run = TmRun(machine, word).run_to(cycles)
            if run.state in machine.finals:
                state.halted_pairs.add((k, i))
                seen = run.steps if run.steps > seen else seen
            else:
                seen = cycles + 1
            if seen <= i:
                movers[i].append(code)
    order = state.order
    for n, moved in enumerate(movers[1:], start=1):
        if n == 1:
            state._insert(1, 0)
        if (n == 2 and len(moved) == 1) or (n == 3 and 0 < sum(c in moved for c in order) < len(order)):
            state._demote(moved, n)
            state._insert(4, order.index(moved[0]))
        else:
            state._insert(n + 1, len(order))
            if moved:
                state._demote(moved, n)
    state.cycle = cycles
    return state


def totality_verdict(pool: list[MachineTM], machine_index: int, cycles: int) -> InductiveVerdict:
    """Scan the stable region of the scheduler's list for the machine's
    code: found means certified non-total-so-far (0, scanner halts), not
    found means total-so-far (1)."""
    if not 0 <= machine_index < len(pool):
        raise IndexError(f"machine index {machine_index} out of range")
    if cycles == 0:
        return InductiveVerdict(None, stabilized_since=None, budget=0)
    state = dovetail_nontotal(pool, cycles)  # which rejects a negative count
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
    fewer than n values exist.  Round r starts the run on x_r and resumes
    each open run to r total steps (see :meth:`TmRun.run_to`); a run that is
    final, stuck or repeating is closed and never resumed, since its answer
    can no longer change, so a run that stays in place closes at its first
    step."""

    def __init__(self, base: MachineTM) -> None:
        self.base = base
        self.name = f"range-enum({base.name})"

    def run(self, input_word: str, fuel: int) -> RunOutcome:
        if fuel < 0:
            raise ValueError("fuel must be non-negative")
        n = shortlex_index(input_word) + 1
        machine, finals = self.base, self.base.finals
        words = shortlex_words(machine.alphabet)
        discovered: list[str] = []
        live: list[tuple[int, TmRun]] = []  # (input, run) of each open run
        # each stopped pair's input and charge, the steps of its run (at least 1)
        stops: list[tuple[int, int]] = []

        def charged(k: int) -> int:
            # what fresh runs of round_no steps on the first k pairs would cost
            return round_no * k + sum(c - round_no for i, c in stops if i <= k)

        spent = stopped_steps = round_no = 0
        while spent < fuel:
            round_no += 1
            live.append((round_no, TmRun(machine, next(words))))
            # a pair surfaces in the round its run halts, the first round
            # covering both its input index and its halting time
            surfacing, still = [], []
            for entry in live:
                run = entry[1].run_to(round_no)
                if run.state in finals:
                    surfacing.append(entry)
                elif not run.stuck:
                    if not run.period:
                        still.append(entry)
                    continue
                stops.append((entry[0], run.steps or 1))
                stopped_steps += run.steps or 1
            live = still
            # a round charges each of its round_no pairs what a fresh run of
            # round_no steps would cost: the charge of a stopped pair, else
            # round_no, also for a repeating run, which is no longer resumed;
            # the pairs are charged in order, and the round ends at the fuel
            total = stopped_steps + round_no * (round_no - len(stops))
            for i, run in surfacing:
                if spent + total >= fuel and spent + charged(i - 1) >= fuel:
                    break
                output = run.output_word()
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
        if fuel < 0:
            raise ValueError("fuel must be non-negative")
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

    On input x_n it runs M on x until the n-th change of the output
    register and halts at that change's step, emitting the register after
    the first n - 1 changes.  If fewer than n changes ever happen the
    run diverges.  T is total on the probe sequence exactly when M's output
    on x never settles, i.e. when M(x) is undefined by instability.
    """

    def __init__(self, machine, x: str) -> None:
        self.machine = machine
        self.x = x
        self.name = f"reduction({machine.name}@{x or 'ε'})"

    def run(self, input_word: str, fuel: int) -> RunOutcome:
        if fuel < 0:
            raise ValueError("fuel must be non-negative")
        n = shortlex_index(input_word) + 1
        run = self.machine.start_run(self.x)
        # resume in doubling chunks: the write log does not depend on how
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
        return RunOutcome.of_halt(run.register_after(n - 1), run.writes.locate(n - 1)[1])


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

    def __init__(self, decider: MachineITM | SimDecider) -> None:
        self.decider = decider
        self.name = f"diagonal({decider.name})"
        self.alphabet = BINARY

    def start_run(self, input_word: str) -> "_PipelineRun":
        return _PipelineRun(self, input_word)


class _PipelineRun(InductiveRun):
    """A run of the composed machine: ``b_events`` is the checker's history,
    ``d_events`` the decider's, read off its run, and ``writes`` the filter's."""

    def __init__(self, pipeline: DiagonalPipeline, input_word: str) -> None:
        BINARY.check_word(input_word)
        super().__init__()
        self._decider = pipeline.decider
        self._alt = False
        try:
            decode_machine(input_word)
            self._valid = True
        except InvalidCodeError:
            self._valid = False
        self._pair_word = pair(input_word, input_word)
        self._b_latency = (3 * len(input_word) + 2) if self._valid else (len(input_word) + 1)
        self._d_run = None
        self.b_events: list[tuple[int, str]] = []

    @property
    def d_events(self) -> list[tuple[int, str]]:
        """The decider run's change log, shifted by the checker's latency."""
        if self._d_run is None:
            return [(0, "")]
        log = self._d_run.change_log
        return log[:1] + [(self._b_latency + step, value) for step, value in log[1:]]

    def run_to(self, horizon: int) -> "_PipelineRun":
        """Step the three stages until ``horizon`` or until the decider's
        register can no longer change.  From then on the filter repeats:
        constant "1" on a claim of "0", else alternating, so its write log
        takes a periodic tail of period 1 or 2 and the run skips to the
        horizon."""
        log = self.writes
        seen, positions, claim = 0, [], ""  # the decider's register, spliced change by change
        while self.steps < horizon and not (self.stopped_stuck or log.repeat):
            self.steps += 1
            d_out = ""
            if self.steps < self._b_latency:
                pass  # checker still copying
            elif self.steps == self._b_latency:
                if not self._valid:
                    self.stopped_stuck = True
                    break
                self.b_events.append((self.steps, self._pair_word))
                # a decider that cannot hold the pair word has no run and so
                # never claims anything: the filter alternates
                self._d_run = start_if_fits(self._decider, self._pair_word)
            elif self._d_run is not None:
                count = self._d_run.run_to(self.steps - self._b_latency).change_count
                d_writes = self._d_run.writes
                while seen < count:
                    _, pos, sym = d_writes.events[d_writes.locate(seen)[0]]
                    claim = _splice(positions, claim, pos, sym)
                    seen += 1
                d_out = claim
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
    machine or the shipped :class:`SimDecider`."""
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
    probe = pair(code, code)
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

    RPI_n rows, n an ASCII numeral from 1 with no leading zero, are
    parameterized: the result problem for order-n inductive machines sits
    at level n+1.
    """
    name = problem_name.strip()
    if name in ORDER_TABLE:
        order, source = ORDER_TABLE[name]
        return OrderRow(name, order, source)
    if name.startswith("RPI_") and name[4:].isascii() and name[4:].isdigit() and name[4] != "0":
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


class _Thm72Base(LinearMemory):
    """Start cell, a marker cell, an unbounded probe row, and the linear
    memory's input chain.  The probe row is walked by t-connections;
    p-connections into the marker cell come from the limit (see
    :func:`thm72_memory`)."""

    conn_types = ("t", "p", "o", "r", "l", "i")
    start = "c0"
    builtin = None

    def connection(self, cell: str, ctype: str) -> str | None:
        if ctype == "o":
            return "out0"
        if ctype == "t" and cell == "c0":
            return "a0"
        if ctype == "t" and (chain := chain_cell(cell)) and chain[0] == "a":
            return f"a{chain[1] + 1}"
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
    limit = {(f"a{k}", "p"): "c1" for k, machine in enumerate(acceptance_pool())
             if first_result_cycle(machine, STOCK_MEMORY_CYCLES) is not None}
    return LimitMemory(_Thm72Base(), limit, builtin="thm72")


class _LimitListBase(LinearMemory):
    """Hypercell chain h1, h2, ... walked by n-connections, and the linear
    memory's input chain; m-connections point each position at the
    landmark cell of the machine currently listed there."""

    conn_types = ("n", "m", "r", "l", "i")
    start = "h1"
    builtin = None

    def connection(self, cell: str, ctype: str) -> str | None:
        if ctype == "n" and (chain := chain_cell(cell)) and chain[0] == "h":
            return f"h{chain[1] + 1}"
        return super().connection(cell, ctype)

    def output_rank(self, cell: str) -> int | None:
        return None


@cache
def limitlist_memory() -> LimitMemory:
    """List memory over the stock pool: position h_j links to the landmark
    cell d_k of the machine T_k the scheduler lists there at its last
    cycle; the list never shrinks, so no earlier cycle asserts a position
    past it.  Built once per process, like :func:`thm72_memory`."""
    state = dovetail_nontotal(acceptance_pool(), STOCK_MEMORY_CYCLES)
    machine_no = {code: k for k, code in enumerate(state.codes, start=1)}
    limit = {(f"h{j}", "m"): f"d{machine_no[code]}" for j, code in enumerate(state.order, start=1)}
    return LimitMemory(_LimitListBase(), limit, builtin="limitlist")
