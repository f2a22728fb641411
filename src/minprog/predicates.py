"""Total decidable predicates on words, and verified implications between them.

Every predicate here terminates on every word: predicates that quote a
machine or an interpreter carry an explicit budget as a parameter, which is
what makes them total.  Implications between predicates are registered only
after an exhaustive check on all words up to a stated length, so the
shipped registry is sound by verification, not by declaration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .words import BINARY, shortlex_le, shortlex_lt, words_up_to
from .turing import run_fueled


class PredicateConstructionError(ValueError):
    """Unknown builtin name or malformed parameters."""


class ImplicationViolation(ValueError):
    """A registered implication failed on a counterexample word."""


@dataclass(frozen=True)
class Predicate:
    """A named total check on words."""

    name: str
    fn: Callable[[str], bool] = field(compare=False)

    def __call__(self, word: str) -> bool:
        return bool(self.fn(word))


# ---------------------------------------------------------------------------
# builtin families


def any_word() -> Predicate:
    return Predicate("anyword", lambda w: True)


def non_empty() -> Predicate:
    return Predicate("nonempty", lambda w: w != "")


def equals(u: str) -> Predicate:
    BINARY.check_word(u)
    return Predicate(f"equals:{u}", lambda w: w == u)


def leq(z: str) -> Predicate:
    BINARY.check_word(z)
    return Predicate(f"leq:{z}", lambda w: shortlex_le(w, z))


def geq(z: str) -> Predicate:
    BINARY.check_word(z)
    return Predicate(f"geq:{z}", lambda w: shortlex_le(z, w))


def lt(z: str) -> Predicate:
    BINARY.check_word(z)
    return Predicate(f"lt:{z}", lambda w: shortlex_lt(w, z))


def contains_factor(z: str) -> Predicate:
    """The word contains z as a contiguous factor."""
    BINARY.check_word(z)
    return Predicate(f"factor:{z}", lambda w: z in w)


def is_factor_of(z: str) -> Predicate:
    """The word occurs inside the fixed word z."""
    BINARY.check_word(z)
    return Predicate(f"infactor:{z}", lambda w: w in z)


def length_equals(n: int) -> Predicate:
    if n < 0:
        raise PredicateConstructionError("length must be non-negative")
    return Predicate(f"len:{n}", lambda w: len(w) == n)


def computed_within(n: int, interp) -> Predicate:
    """Some program of length at most n yields the word within n steps.

    Decidable by finite search over the program space, of which only the
    interpreter's live words can halt: each head's machine runs on every
    payload that fills a length.  The interpreter is a parameter of the
    predicate, so different interpreters give different (still total)
    predicates.
    """
    if n < 0:
        raise PredicateConstructionError("step bound must be non-negative")
    from .complexity import _tier_scan

    def check(w: str) -> bool:
        return _tier_scan(interp.live, lambda machine, payload: run_fueled(machine, payload, n).result,
                          [w.__eq__], n)[0].finite

    return Predicate(f"within:{n}", check)


def bounded_complexity_equals(n: int, interp, budget) -> Predicate:
    """The budgeted minimum-program length of the word equals n.

    An executable stand-in for the exact-complexity predicate, which is not
    computable; every verdict is relative to the interpreter and budget
    carried in the parameters.
    """
    from .complexity import Budget, bounded_kolmogorov, tm_class

    handle = tm_class(interp)
    # a word of budgeted minimum n has its witness by tier n, so the scan stops there
    capped = Budget(n, budget.fuel, budget.horizon) if 0 <= n <= budget.max_len else None

    def check(w: str) -> bool:
        return capped is not None and bounded_kolmogorov(handle, w, capped).value == n

    return Predicate(f"bounded-c-equals:{n}", check)


def false_pred() -> Predicate:
    return Predicate("false", lambda w: False)


NO_ARGUMENT = {"anyword": any_word, "nonempty": non_empty, "false": false_pred}
WORD_ARGUMENT = {"equals": equals, "leq": leq, "geq": geq, "lt": lt,
                 "factor": contains_factor, "infactor": is_factor_of}


def builtin(name: str, *, interp=None, budget=None) -> Predicate:
    """Constructor keyed by the textual predicate syntax, e.g. ``equals:01``:
    a head of :data:`NO_ARGUMENT` takes no argument, one of
    :data:`WORD_ARGUMENT` a binary word, and ``len``, ``within`` and
    ``bounded-c-equals`` a number, the last two with an interpreter (and
    the last a budget) from the caller.  Every failure raises one
    :class:`PredicateConstructionError`.
    """
    head, colon, arg = name.partition(":")
    problem, cause = f"unknown predicate {name!r}", None
    try:
        if head in NO_ARGUMENT:
            if not colon:
                return NO_ARGUMENT[head]()
            problem = f"predicate {head!r} takes no argument, got {name!r}"
        elif head in WORD_ARGUMENT:
            return WORD_ARGUMENT[head](arg)
        elif head == "len":
            return length_equals(int(arg))
        elif head == "within":
            problem = "within:<n> needs an interpreter"
            if interp is not None:
                return computed_within(int(arg), interp)
        elif head == "bounded-c-equals":
            problem = "bounded-c-equals needs interpreter and budget"
            if interp is not None and budget is not None:
                return bounded_complexity_equals(int(arg), interp, budget)
    except PredicateConstructionError as exc:
        problem, cause = str(exc), exc
    except (ValueError, TypeError) as exc:
        problem, cause = f"malformed predicate {name!r}: {exc}", exc
    raise PredicateConstructionError(problem) from cause


# ---------------------------------------------------------------------------
# implications


# Registering an edge checks it on every word up to this length.
IMPLICATION_CHECK_LEN = 6


@dataclass
class ImplicationRegistry:
    """Append-only store of verified implication edges."""

    edges: list[tuple[Predicate, Predicate, str]] = field(default_factory=list)

    def register(self, p: Predicate, q: Predicate, justification: str = "") -> None:
        for w in words_up_to(IMPLICATION_CHECK_LEN):
            if p(w) and not q(w):
                raise ImplicationViolation(f"{p.name} does not imply {q.name}: counterexample {w!r}")
        self.edges.append((p, q, justification))

    def __len__(self) -> int:
        return len(self.edges)


def shipped_registry() -> ImplicationRegistry:
    """The stock edge set used by the monotonicity experiments.

    Interpreter-quoting predicates use the length-1 biased interpreter,
    whose tiny program space keeps the exhaustive registration checks fast.
    """
    from .universal import make_biased_universal

    interp = make_biased_universal(1)
    reg = ImplicationRegistry()
    strict_pairs = ["0", "1", "00", "01", "10", "11", "000"]
    for z in strict_pairs:
        reg.register(lt(z), leq(z), "strict order implies non-strict")
    for u in ["0", "1", "00", "01"]:
        reg.register(equals(u), leq(u), "a word is within its own bound")
    for u in ["0", "1", "00"]:
        reg.register(equals(u), geq(u), "a word is within its own bound")
    reg.register(equals("01"), contains_factor("0"), "factor of the fixed word")
    reg.register(equals("01"), contains_factor("1"), "factor of the fixed word")
    reg.register(equals("0101"), contains_factor("010"), "factor of the fixed word")
    reg.register(equals("00"), contains_factor("0"), "factor of the fixed word")
    for u in ["0", "01", "110"]:
        reg.register(equals(u), length_equals(len(u)), "equality fixes the length")
    for u in ["0", "1"]:
        reg.register(equals(u), non_empty(), "the fixed word is non-empty")
    for n in [1, 2, 3]:
        reg.register(length_equals(n), non_empty(), "positive length")
    reg.register(non_empty(), any_word(), "weakening to the trivial predicate")
    reg.register(length_equals(2), any_word(), "weakening to the trivial predicate")
    reg.register(lt("10"), any_word(), "weakening to the trivial predicate")
    reg.register(false_pred(), equals("0"), "ex falso")
    reg.register(false_pred(), non_empty(), "ex falso")
    reg.register(false_pred(), length_equals(5), "ex falso")
    reg.register(contains_factor("01"), non_empty(), "a factor needs a symbol")
    reg.register(contains_factor("00"), contains_factor("0"), "longer factor implies shorter")
    reg.register(contains_factor("11"), contains_factor("1"), "longer factor implies shorter")
    reg.register(is_factor_of("010"), leq("010"), "factors never exceed the host word")
    reg.register(geq("1"), non_empty(), "only the empty word precedes the first symbol")
    reg.register(computed_within(2, interp), computed_within(3, interp), "looser budget")
    reg.register(computed_within(3, interp), computed_within(5, interp), "looser budget")
    return reg


def small20_family(interp) -> list[Predicate]:
    """Twenty stock predicates for the invariance experiments.

    Most are satisfiable by the word "0" so that engineered interpreters
    give finite values on a common core; a few are deliberately not, to
    exercise the incomparable-predicate reporting path.
    """
    names = [
        "anyword",
        "nonempty",
        "leq:0",
        "leq:1",
        "leq:00",
        "leq:11",
        "geq:",
        "geq:0",
        "lt:1",
        "lt:00",
        "lt:10",
        "factor:0",
        "infactor:00",
        "infactor:010",
        "len:1",
        "equals:0",
        "equals:1",
        "equals:00",
        "leq:10",
        "within:4",
    ]
    return [builtin(n, interp=interp) for n in names]

