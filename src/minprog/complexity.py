"""Budgeted minimum-program searches and the experiments built on them.

The central operation scans every program word up to a length cap in
shortlex order, runs it under a machine class's universal interpreter with
a fuel or horizon bound, and returns the length of the first program whose
output satisfies the predicate.  Only the class's live words, those that
can give a result at all, are run; the rest of each tier is counted as
scanned without running it.  A full length tier is always finished
before a verdict is fixed, so the reported witness is the shortlex-least
program of minimal length no matter how candidates were scheduled.

Nothing here ever claims a true infinity: a failed search is reported as
no-witness-within-budget, and every verdict carries the budget it is
relative to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import merge
from typing import Callable, Iterable, Iterator, Sequence

from .words import BINARY, MalformedPairError, pairs_of_length, sd_words_of_length, unpair
from .turing import MachineTM, run_fueled
from .predicates import Predicate, PredicateSet, eval_set
from .codec import codes_of_length
from .universal import U_STD, WRAP_HEADER, itm_universal_apply, wrap_universal


@dataclass(frozen=True)
class Budget:
    """Search bounds: program length cap, per-run fuel, and, for inductive
    classes, the stabilization horizon."""

    max_len: int
    fuel: int
    horizon: int | None = None

    def __post_init__(self) -> None:
        if self.max_len < 0:
            raise ValueError("max_len must be non-negative")
        if self.fuel < 1:
            raise ValueError("fuel must be at least 1")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be at least 1")

    def as_dict(self) -> dict:
        return {"max_len": self.max_len, "fuel": self.fuel, "horizon": self.horizon}


@dataclass(frozen=True)
class ComplexityVerdict:
    kind: str  # "finite" | "no-witness-within-budget"
    value: int | None = None
    witness: str | None = None
    programs_scanned: int = 0
    runs_halted: int = 0

    @property
    def finite(self) -> bool:
        return self.kind == "finite"


def verdict_le(a: ComplexityVerdict, b: ComplexityVerdict) -> bool:
    """Order with every finite value below no-witness."""
    if a.finite:
        return (not b.finite) or a.value <= b.value
    return not b.finite


@dataclass(frozen=True)
class FunctionTable:
    """A finite probe table (x_i, f(x_i)) standing in for a function."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("a function table needs at least one probe")
        seen: dict[str, str] = {}
        for x, fx in self.pairs:
            BINARY.check_word(x)
            BINARY.check_word(fx)
            if x in seen and seen[x] != fx:
                raise ValueError(f"contradictory table entries for {x!r}")
            seen[x] = fx


# ---------------------------------------------------------------------------
# machine classes

# itm1 runs a Turing-class program behind the wrap header, at this cost
K_EMBED = len(WRAP_HEADER)


@dataclass(frozen=True)
class MachineClassHandle:
    """A class of machines reduced to what the searches need: run a program
    word under the class's universal interpreter and report the produced
    word, or None when the class's run semantics give no result.

    ``live(n)`` and ``live2(n)`` list, in shortlex order, the only words of
    n symbols for which ``produce`` and ``produce2`` can give a result.
    """

    tag: str
    produce: Callable[[str, Budget], str | None] = field(compare=False)
    produce2: Callable[[str, str, Budget], str | None] = field(compare=False)
    live: Callable[[int], Iterable[str]] = field(compare=False)
    live2: Callable[[int], Iterable[str]] = field(compare=False)


def tm_class(interp) -> MachineClassHandle:
    """Turing machines: a result is a halting run's output."""

    def produce(program: str, budget: Budget) -> str | None:
        return interp.apply(program, budget.fuel).result

    def produce2(program: str, argument: str, budget: Budget) -> str | None:
        return interp.apply2(program, argument, budget.fuel).result

    return MachineClassHandle(f"tm[{interp.tag}]", produce, produce2, interp.live, interp.live2)


def itm1_class(tm_interp=U_STD) -> MachineClassHandle:
    """First-order inductive machines.

    Program space: the programs of ``tm_interp`` behind the wrap header,
    run by :func:`wrap_universal` (the class contains the Turing machines,
    at a constant cost of exactly :data:`K_EMBED`), or a self-delimited
    inductive machine code followed by its input.  The two regions cannot
    collide because the header is never a valid start of a self-delimiting
    prefix.  A result is a halting-final or stabilized-at-horizon output.
    """
    wrapped = wrap_universal(tm_interp)

    def run_region(program: str, argument: str | None, budget: Budget) -> str | None:
        try:
            payload, code = unpair(program)
        except MalformedPairError:
            return None
        if argument is not None:
            if payload != "":
                return None
            payload = argument
        horizon = budget.horizon or budget.fuel
        return itm_universal_apply(code, payload, horizon).result

    def produce(program: str, budget: Budget) -> str | None:
        if program.startswith(WRAP_HEADER):
            return wrapped.apply(program, budget.fuel).result
        return run_region(program, None, budget)

    def produce2(program: str, argument: str, budget: Budget) -> str | None:
        if program.startswith(WRAP_HEADER):
            return wrapped.apply2(program, argument, budget.fuel).result
        return run_region(program, argument, budget)

    # sd(c) never starts with the header, so the two regions merge cleanly.
    def live(length: int) -> Iterator[str]:
        return merge(wrapped.live(length), pairs_of_length(length, codes_of_length))

    def live2(length: int) -> Iterator[str]:
        return merge(wrapped.live2(length), sd_words_of_length(length, codes_of_length))

    return MachineClassHandle(f"itm1[{tm_interp.tag}]", produce, produce2, live, live2)


def compose_postprocess(base: MachineClassHandle, post: MachineTM) -> MachineClassHandle:
    """The class whose interpreter pipes every produced word through a
    post-processing machine; a post run that fails to halt within fuel
    makes the whole run divergent."""

    def produce(program: str, budget: Budget) -> str | None:
        word = base.produce(program, budget)
        if word is None:
            return None
        return run_fueled(post, word, budget.fuel).result

    def produce2(program: str, argument: str, budget: Budget) -> str | None:
        word = base.produce2(program, argument, budget)
        if word is None:
            return None
        return run_fueled(post, word, budget.fuel).result

    return MachineClassHandle(f"{base.tag}+{post.name}", produce, produce2, base.live, base.live2)


# ---------------------------------------------------------------------------
# searches


def _tier_scan(
    live: Callable[[int], Iterable[str]],
    results: Callable[[str], object | None],
    accept: Callable[[object], bool],
    budget: Budget,
) -> ComplexityVerdict:
    """Run the live words of each length tier in shortlex order; a tier's
    other words give no result, so they count as scanned without a run."""
    scanned = 0
    halted = 0
    for length in range(budget.max_len + 1):
        best: str | None = None
        for program in live(length):
            result = results(program)
            if result is None:
                continue
            halted += 1
            if best is None and accept(result):
                best = program
        scanned += 1 << length
        if best is not None:
            return ComplexityVerdict("finite", length, best, scanned, halted)
    return ComplexityVerdict("no-witness-within-budget", None, None, scanned, halted)


def bounded_problem_complexity(
    handle: MachineClassHandle, predicate: Predicate, budget: Budget
) -> ComplexityVerdict:
    """Minimum program length whose produced word satisfies the predicate."""
    return _tier_scan(handle.live, lambda p: handle.produce(p, budget), predicate, budget)


def bounded_set_problem_complexity(
    handle: MachineClassHandle, pset: PredicateSet, budget: Budget
) -> ComplexityVerdict:
    conj = Predicate(
        "all-of(" + ",".join(p.name for p in pset.members) + ")",
        lambda w: eval_set(pset, w),
    )
    return bounded_problem_complexity(handle, conj, budget)


def bounded_kolmogorov(handle: MachineClassHandle, target: str, budget: Budget) -> ComplexityVerdict:
    """Minimum program length producing exactly the target word."""
    return bounded_problem_complexity(handle, Predicate(f"equals:{target}", target.__eq__), budget)


def bounded_functional_complexity(
    handle: MachineClassHandle, table: FunctionTable, budget: Budget
) -> ComplexityVerdict:
    """Minimum program length computing the whole probe table.  A program
    counts as halted when any probe gives a result."""
    wanted = [fx for _, fx in table.pairs]

    def results(program: str) -> list[str | None] | None:
        outs = [handle.produce2(program, x, budget) for x, _ in table.pairs]
        return outs if any(r is not None for r in outs) else None

    return _tier_scan(handle.live2, results, wanted.__eq__, budget)


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class GapRow:
    predicate: str
    first: ComplexityVerdict
    second: ComplexityVerdict

    @property
    def comparable(self) -> bool:
        return self.first.finite and self.second.finite


@dataclass(frozen=True)
class InvarianceResult:
    """Least k with C_second <= C_first + k over the comparable rows."""

    gap: int
    rows: tuple[GapRow, ...]
    skipped: tuple[str, ...]  # predicates finite on at most one side


def invariance_gap(
    first_interp, second_interp, family: Sequence[Predicate], budget: Budget
) -> InvarianceResult:
    h1 = tm_class(first_interp)
    h2 = tm_class(second_interp)
    rows = []
    skipped = []
    gap = 0
    for pred in family:
        v1 = bounded_problem_complexity(h1, pred, budget)
        v2 = bounded_problem_complexity(h2, pred, budget)
        row = GapRow(pred.name, v1, v2)
        rows.append(row)
        if row.comparable:
            gap = max(gap, v2.value - v1.value)
        elif v1.finite or v2.finite:
            skipped.append(pred.name)
    return InvarianceResult(gap, tuple(rows), tuple(skipped))


def growth_profile(
    handle: MachineClassHandle,
    family: Callable[[int], Predicate],
    n_values: Iterable[int],
    budget: Budget,
) -> list[tuple[int, ComplexityVerdict]]:
    return [(n, bounded_problem_complexity(handle, family(n), budget)) for n in n_values]


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
        "budget": budget.as_dict(),
        "class": class_tag,
        "predicate": predicate_name,
        "programs_scanned": verdict.programs_scanned,
        "runs_halted": verdict.runs_halted,
    }
