"""Budgeted minimum-program searches and the experiments built on them.

The central operation scans every program word up to a length cap in
shortlex order, runs it under a machine class's universal interpreter with
a fuel or horizon bound, and returns the length of the first program whose
output satisfies the predicate.  Only the class's live words, those that
can give a result at all, are run: the machine of each of the tier's heads,
decoded once by the code walk, runs on every payload that fills the tier.
The rest of each tier is counted as scanned without running it.  A full
length tier is always finished before a verdict is fixed, so the reported
witness is the shortlex-least program of minimal length no matter how
candidates were scheduled.  One scan answers a whole list of predicates,
each stopping at its own first witness, so an invariance gap scans each
interpreter's programs once and a growth profile scans its class once.

Nothing here ever claims a true infinity: a failed search is reported as
no-witness-within-budget, and every verdict carries the budget it is
relative to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from heapq import merge
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .words import BINARY, InvalidWordError, words_of_length
from .turing import MachineTM, run_fueled
from .predicates import Predicate
from .universal import (
    U_STD,
    WRAP_HEADER,
    itm_outcome,
    itm_universal_apply,
    read_program,
    sd_heads,
    wrap_universal,
)


class _Budget(NamedTuple):
    max_len: int
    fuel: int
    horizon: int | None = None


class Budget(_Budget):
    """Search bounds: program length cap, per-run fuel, and, for inductive
    classes, the stabilization horizon."""

    __slots__ = ()

    def __new__(cls, max_len: int, fuel: int, horizon: int | None = None):
        if max_len < 0:
            raise ValueError("max_len must be non-negative")
        if fuel < 1:
            raise ValueError("fuel must be at least 1")
        if horizon is not None and horizon < 1:
            raise ValueError("horizon must be at least 1")
        return super().__new__(cls, max_len, fuel, horizon)


class ComplexityVerdict(NamedTuple):
    kind: str  # "finite" | "no-witness-within-budget"
    value: int | None = None
    witness: str | None = None
    programs_scanned: int = 0
    runs_halted: int = 0

    @property
    def finite(self) -> bool:
        return self.kind == "finite"


class _FunctionTable(NamedTuple):
    pairs: tuple[tuple[str, str], ...]


class FunctionTable(_FunctionTable):
    """A finite probe table (x_i, f(x_i)) standing in for a function."""

    __slots__ = ()

    def __new__(cls, pairs: tuple[tuple[str, str], ...]):
        if not pairs:
            raise ValueError("a function table needs at least one probe")
        seen: dict[str, str] = {}
        for x, fx in pairs:
            BINARY.check_word(x)
            BINARY.check_word(fx)
            if x in seen and seen[x] != fx:
                raise ValueError(f"contradictory table entries for {x!r}")
            seen[x] = fx
        return super().__new__(cls, pairs)


# ---------------------------------------------------------------------------
# machine classes

# itm1 runs a Turing-class program behind the wrap header, at this cost
K_EMBED = len(WRAP_HEADER)


# A head's result function: what its machine gives on a word within a budget.
Result = Callable[[str, Budget], str | None]


@dataclass(frozen=True)
class MachineClassHandle:
    """A class of machines reduced to what the searches need: run a program
    word (``produce``) or a two-input program on an argument (``produce2``)
    under the class's universal interpreter and report the produced word,
    or None when the class's run semantics give no result.

    ``live(n)`` lists tier n's heads in lex order, each with its result
    function.  Only head + w, for every w of n - |head| symbols, can give a
    result, and ``produce`` gives result(w) on it; of the two-input
    programs, only the heads of exactly n symbols, on which ``produce2``
    gives result(argument).
    """

    tag: str
    produce: Callable[[str, Budget], str | None] = field(compare=False)
    produce2: Callable[[str, str, Budget], str | None] = field(compare=False)
    live: Callable[[int], Iterable[tuple[str, Result]]] = field(compare=False)


def _run_tm(machine, word: str, budget: Budget) -> str | None:
    return run_fueled(machine, word, budget.fuel).result


def _run_itm(machine, word: str, budget: Budget) -> str | None:
    return itm_outcome(machine, word, budget.horizon or budget.fuel).result


def _results(run, heads) -> list[tuple[str, Result]]:
    """Each (head, machine) as (head, ``run`` of that machine)."""
    return [(head, partial(run, machine)) for head, machine in heads]


def tm_class(interp) -> MachineClassHandle:
    """Turing machines: a result is a halting run's output."""

    def produce(program: str, budget: Budget) -> str | None:
        return interp.apply(program, budget.fuel).result

    def produce2(program: str, argument: str, budget: Budget) -> str | None:
        return interp.apply2(program, argument, budget.fuel).result

    def live(length: int) -> list[tuple[str, Result]]:
        return _results(_run_tm, interp.live(length))

    return MachineClassHandle(f"tm[{interp.tag}]", produce, produce2, live)


def itm1_class(tm_interp=U_STD) -> MachineClassHandle:
    """First-order inductive machines.

    Program space: the programs of ``tm_interp`` behind the wrap header,
    run by :func:`wrap_universal` (the class contains the Turing machines,
    at a constant cost of exactly :data:`K_EMBED`), or a self-delimited
    machine code of any kind followed by its input, run under inductive
    semantics.  The two regions cannot collide because the header is never
    a valid start of a self-delimiting prefix.  A result is a halting-final
    or stabilized-at-horizon output.
    """
    wrapped = wrap_universal(tm_interp)

    def run(program: str, argument: str | None, budget: Budget) -> str | None:
        # the wrapped region goes through the public entries, which a traced run counts
        if program.startswith(WRAP_HEADER) and argument is None:
            return wrapped.apply(program, budget.fuel).result
        if program.startswith(WRAP_HEADER):
            return wrapped.apply2(program, argument, budget.fuel).result
        read = read_program(program, argument)
        if read is None:
            return None
        return itm_universal_apply(read[1], read[0], budget.horizon or budget.fuel).result

    def produce(program: str, budget: Budget) -> str | None:
        return run(program, None, budget)

    def produce2(program: str, argument: str, budget: Budget) -> str | None:
        return run(program, argument, budget)

    # sd(c) never starts with the header, so the two regions merge cleanly.
    def live(length: int) -> Iterable[tuple[str, Result]]:
        tms, codes = _results(_run_tm, wrapped.live(length)), _results(_run_itm, sd_heads(length))
        return merge(tms, codes, key=itemgetter(0))

    return MachineClassHandle(f"itm1[{tm_interp.tag}]", produce, produce2, live)


def compose_postprocess(base: MachineClassHandle, post: MachineTM) -> MachineClassHandle:
    """The class whose interpreter pipes every produced word through a
    post-processing machine; a post run that fails to halt within fuel
    makes the whole run divergent.  So does a word with a symbol outside
    the post-processor's alphabet: the post-processor has no run on it."""

    def piped(word: str | None, budget: Budget) -> str | None:
        try:
            return None if word is None else run_fueled(post, word, budget.fuel).result
        except InvalidWordError:
            return None

    def produce(program: str, budget: Budget) -> str | None:
        return piped(base.produce(program, budget), budget)

    def produce2(program: str, argument: str, budget: Budget) -> str | None:
        return piped(base.produce2(program, argument, budget), budget)

    def live(length: int) -> list[tuple[str, Result]]:
        return [(head, lambda w, budget, result=result: piped(result(w, budget), budget))
                for head, result in base.live(length)]

    return MachineClassHandle(f"{base.tag}+{post.name}", produce, produce2, live)


# ---------------------------------------------------------------------------
# searches


def _tier_scan(
    live: Callable[[int], Iterable[tuple[str, Result]]],
    results: Callable[[Result, str], object | None],
    accepts: Sequence[Callable[[object], bool]],
    max_len: int,
) -> list[ComplexityVerdict]:
    """Run the live words of each length tier in shortlex order: each head's
    result function on every payload that fills the tier.  A tier's other
    words give no result, so they count as scanned without a run.  Each
    acceptance test sees every result up to its first witness and gets the
    verdict a scan of its own would give; the scan ends once all have one."""
    verdicts: dict[int, ComplexityVerdict] = {}
    waiting = list(range(len(accepts)))
    scanned = halted = 0
    for length in range(max_len + 1):
        if not waiting:
            break
        found: dict[int, str] = {}
        for head, result_of in live(length):
            for payload in words_of_length(length - len(head)):
                result = results(result_of, payload)
                if result is None:
                    continue
                halted += 1
                for i in [i for i in waiting if accepts[i](result)]:
                    found[i] = head + payload
                    waiting.remove(i)
        scanned += 1 << length
        for i, witness in found.items():
            verdicts[i] = ComplexityVerdict("finite", length, witness, scanned, halted)
    none = ComplexityVerdict("no-witness-within-budget", None, None, scanned, halted)
    return [verdicts.get(i, none) for i in range(len(accepts))]


def _problem_scan(
    handle: MachineClassHandle, predicates: Sequence[Predicate], budget: Budget
) -> list[ComplexityVerdict]:
    """One scan of the class's programs for every predicate of a list."""
    return _tier_scan(handle.live, lambda result_of, w: result_of(w, budget), predicates, budget.max_len)


def bounded_problem_complexity(
    handle: MachineClassHandle, predicate: Predicate, budget: Budget
) -> ComplexityVerdict:
    """Minimum program length whose produced word satisfies the predicate."""
    return _problem_scan(handle, [predicate], budget)[0]


def bounded_kolmogorov(handle: MachineClassHandle, target: str, budget: Budget) -> ComplexityVerdict:
    """Minimum program length producing exactly the target word."""
    return _problem_scan(handle, [Predicate(f"equals:{target}", target.__eq__)], budget)[0]


def bounded_functional_complexity(
    handle: MachineClassHandle, table: FunctionTable, budget: Budget
) -> ComplexityVerdict:
    """Minimum program length computing the whole probe table.  A program
    counts as halted when any probe gives a result."""
    wanted = [fx for _, fx in table.pairs]

    def programs(length: int) -> list[tuple[str, Result]]:
        return [(head, result_of) for head, result_of in handle.live(length) if len(head) == length]

    def results(result_of: Result, _: str) -> list[str | None] | None:
        outs = [result_of(x, budget) for x, _ in table.pairs]
        return outs if any(r is not None for r in outs) else None

    return _tier_scan(programs, results, [wanted.__eq__], budget.max_len)[0]


# ---------------------------------------------------------------------------
# experiments


class GapRow(NamedTuple):
    predicate: str
    first: ComplexityVerdict
    second: ComplexityVerdict

    @property
    def comparable(self) -> bool:
        return self.first.finite and self.second.finite


class InvarianceResult(NamedTuple):
    """Least k with C_second <= C_first + k over the comparable rows."""

    gap: int
    rows: tuple[GapRow, ...]
    skipped: tuple[str, ...]  # predicates finite on at most one side


def invariance_gap(
    first_interp, second_interp, family: Sequence[Predicate], budget: Budget
) -> InvarianceResult:
    firsts = _problem_scan(tm_class(first_interp), family, budget)
    seconds = _problem_scan(tm_class(second_interp), family, budget)
    rows = tuple(GapRow(pred.name, v1, v2) for pred, v1, v2 in zip(family, firsts, seconds))
    gap = max([0] + [row.second.value - row.first.value for row in rows if row.comparable])
    skipped = tuple(row.predicate for row in rows
                    if not row.comparable and (row.first.finite or row.second.finite))
    return InvarianceResult(gap, rows, skipped)


def growth_profile(
    handle: MachineClassHandle,
    family: Callable[[int], Predicate],
    n_values: Iterable[int],
    budget: Budget,
) -> list[tuple[int, ComplexityVerdict]]:
    n_values = list(n_values)
    return list(zip(n_values, _problem_scan(handle, [family(n) for n in n_values], budget)))


# ---------------------------------------------------------------------------
# reports


def verdict_report(
    verdict: ComplexityVerdict,
    budget: Budget,
    class_tag: str,
    predicate_name: str,
) -> dict:
    """The stable JSON shape for one search result."""
    return {
        "kind": verdict.kind,
        "value": verdict.value,
        "witness": verdict.witness,
        "budget": budget._asdict(),
        "class": class_tag,
        "predicate": predicate_name,
        "programs_scanned": verdict.programs_scanned,
        "runs_halted": verdict.runs_halted,
    }
