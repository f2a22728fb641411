"""Universal interpreters: host-level machines that run program words.

A one-input program for the standard interpreter is pair(w, c(T)): the
self-delimited code of a machine followed by its input.  Program words
outside the image of the codec never halt, whatever the fuel, so they can
never witness a complexity minimum.  The two-input form used for function
tables is the same pair with an empty payload, the argument taking its
place.  :func:`read_program` is the one reader of both forms, and each
interpreter runs both through one path, ``apply`` with no argument and
``apply2`` with one: the path of single programs.

The searches read no program word.  ``live(n)`` lists an interpreter's
heads for length n in lex order, each with the machine it runs.  The only
words of n symbols on which ``apply`` can halt are head + w, the machine
running on w of n - |head| symbols; the only ones on which ``apply2`` can
halt are the heads of exactly n symbols, the machine running on the
argument.  Heads are prefix-free, so a tier's words in head order are in
shortlex order.  Under the standard interpreter the heads are sd(c) for
the binary Turing machine codes c, each with the machine it decodes to,
as the code walk over lists of numbers (:func:`codes_up_to`) lists them.
The shortest code with a result is that of the machine that halts at
once, 26 bits long: its program sd(c) of 54 bits is the minimum for
``anyword``.  A scan of every word would need 2^55 runs to reach it;
the live words of all tiers up to there number 578.

Two constructions produce further interpreters from existing ones:

* wrapping prefixes every program with a fixed header, shifting all
  program lengths up by exactly the header length;
* biasing reserves the shortlex-least word of a chosen length as a
  shortcut that immediately outputs "0", diverges below that length, and
  otherwise strips its prefix and defers to the standard interpreter.

Both families stay universal, and their engineered short programs put
minima for most predicates within a few bits, where the standard
interpreter's start at 54.
"""

from __future__ import annotations

from functools import cache

from .words import BINARY, MalformedPairError, pair, sd, unpair, words_of_length
from .turing import MachineTM, RunOutcome, run_fueled
from .inductive import ItmOutcome, TmAsItm, classify_run, start_if_fits
from .codec import KIND_TM, InvalidCodeError, codes_up_to, decode_machine, encode_machine

WRAP_HEADER = "10"


def read_program(program: str, argument: str | None) -> tuple[str, str] | None:
    """The input and the machine code of the pair program sd(c) + w: the
    payload w, or else ``argument``, which a two-input program takes in
    place of an empty payload.  None for a malformed pair, or for a
    two-input program that still carries a payload."""
    try:
        payload, code = unpair(program)
    except MalformedPairError:
        return None
    if argument is None:
        return payload, code
    return (argument, code) if payload == "" else None


@cache
def sd_heads(length: int, kind: int | None = None) -> tuple[tuple[str, object], ...]:
    """(sd(c), machine) for every code c of ``kind``, every kind when None,
    with sd(c) of at most ``length`` bits, in lex order."""
    # |sd(c)| = 2|c| + 2, and every code has an even number of bits, so the
    # even budgets are all the walk needs; sd doubles each bit, so it keeps
    # the lex order of the codes, which are prefix-free
    return tuple((sd(code), machine) for code, machine in codes_up_to(2 * ((length - 2) // 4), kind).items())


class Shortcut:
    """The machine of a biased interpreter's shortcut: "0" at once, whatever
    its input."""

    @staticmethod
    def run(input_word: str, fuel: int) -> RunOutcome:
        return RunOutcome.of_halt("0", 0)


class StandardUniversal:
    tag = "std"

    def apply(self, program: str, fuel: int) -> RunOutcome:
        return self._apply(program, None, fuel)

    def apply2(self, program: str, argument: str, fuel: int) -> RunOutcome:
        return self._apply(program, argument, fuel)

    def _apply(self, program: str, argument: str | None, fuel: int) -> RunOutcome:
        read = read_program(program, argument)
        try:
            machine = None if read is None else decode_machine(read[1])
        except InvalidCodeError:
            machine = None
        if not isinstance(machine, MachineTM) or machine.alphabet is not BINARY:
            return RunOutcome.of_fuel(fuel)
        return run_fueled(machine, read[0], fuel)

    def live(self, length: int) -> list[tuple[str, MachineTM]]:
        return [head for head in sd_heads(length, KIND_TM) if head[1].alphabet is BINARY]


class WrappedUniversal:
    """Serves exactly the :data:`WRAP_HEADER`-prefixed copy of another
    interpreter."""

    def __init__(self, inner: Interpreter) -> None:
        self.inner = inner
        self.tag = f"wrap[{WRAP_HEADER}]({inner.tag})"

    def apply(self, program: str, fuel: int) -> RunOutcome:
        return self._apply(program, None, fuel)

    def apply2(self, program: str, argument: str, fuel: int) -> RunOutcome:
        return self._apply(program, argument, fuel)

    def _apply(self, program: str, argument: str | None, fuel: int) -> RunOutcome:
        if not program.startswith(WRAP_HEADER):
            return RunOutcome.of_fuel(fuel)
        return self.inner._apply(program[len(WRAP_HEADER) :], argument, fuel)

    def live(self, length: int) -> list[tuple[str, object]]:
        inner = self.inner.live(length - len(WRAP_HEADER))
        return [(WRAP_HEADER + head, machine) for head, machine in inner]


class BiasedUniversal:
    """Diverges below length n, shortcuts 0^n to the output "0", and strips
    an n-symbol prefix off everything else before deferring to std."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("bias length must be at least 1")
        self.n = n
        self.shortcut = "0" * n
        self.base = StandardUniversal()
        self.tag = f"biased[{n}]"

    def apply(self, program: str, fuel: int) -> RunOutcome:
        return self._apply(program, None, fuel)

    def apply2(self, program: str, argument: str, fuel: int) -> RunOutcome:
        return self._apply(program, argument, fuel)

    def _apply(self, program: str, argument: str | None, fuel: int) -> RunOutcome:
        if len(program) < self.n:
            return RunOutcome.of_fuel(fuel)
        if program == self.shortcut:
            return Shortcut.run(program, fuel)  # with an argument, the constant-"0" function
        return self.base._apply(program[self.n :], argument, fuel)

    def live(self, length: int) -> list[tuple[str, object]]:
        if length <= self.n:
            return [(self.shortcut, Shortcut)] if length == self.n else []
        base = self.base.live(length - self.n)
        if not base:  # no prefix to list
            return []
        return [(prefix + head, machine) for prefix in words_of_length(self.n) for head, machine in base]


Interpreter = StandardUniversal | WrappedUniversal | BiasedUniversal

U_STD = StandardUniversal()


def wrap_universal(inner: Interpreter) -> WrappedUniversal:
    return WrappedUniversal(inner)


def make_biased_universal(n: int) -> BiasedUniversal:
    return BiasedUniversal(n)


def tm_program(machine: MachineTM, payload: str) -> str:
    """The standard one-input program computing machine(payload)."""
    return pair(payload, encode_machine(machine))


def parse_interpreter_spec(spec: str) -> Interpreter:
    """Interpreter grammar: ``std`` | ``biased:<n>`` | ``wrap:<inner>``."""
    spec = spec.strip()
    if spec == "std":
        return U_STD
    if spec.startswith("biased:"):
        n = spec.split(":", 1)[1]
        if n.isascii() and n.isdigit():
            return make_biased_universal(int(n))
    elif spec.startswith("wrap:"):
        return wrap_universal(parse_interpreter_spec(spec.split(":", 1)[1]))
    raise ValueError(f"unknown interpreter spec {spec!r}")


def itm_outcome(machine, input_word: str, horizon: int) -> ItmOutcome:
    """The outcome at ``horizon`` of ``machine`` on ``input_word`` under
    inductive semantics, a Turing machine as its inductive embedding.

    A machine that the input does not fit has no run, which counts as
    divergent: unstable at every horizon.
    """
    if isinstance(machine, MachineTM):
        machine = TmAsItm(machine)
    run = start_if_fits(machine, input_word)
    if run is None:
        return ItmOutcome("unstable", horizon=horizon)
    return classify_run(run.run_to(horizon), horizon)


def itm_universal_apply(program: str, input_word: str, horizon: int) -> ItmOutcome:
    """Run the machine coded by ``program`` under inductive semantics, by
    :func:`itm_outcome`; a program that does not decode counts as divergent."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    try:
        machine = decode_machine(program)
    except InvalidCodeError:
        return ItmOutcome("unstable", horizon=horizon)
    return itm_outcome(machine, input_word, horizon)
