"""Universal interpreters: host-level machines that run program words.

A one-input program for the standard interpreter is pair(w, c(T)): the
self-delimited code of a machine followed by its input.  Program words
outside the image of the codec never halt, whatever the fuel, so they can
never witness a complexity minimum.  The two-input form used for function
tables carries the machine code alone and receives the argument separately.

Every interpreter lists, for a given length, its live words: the only
program words that can halt, in shortlex order.  The searches run just
those and count the rest.  Under the standard interpreter they are
sd(c) + w for the binary Turing machine codes c, and the shortest code with
a result is that of the machine that halts at once, 26 bits long: its
program sd(c) of 54 bits is the minimum for ``anyword``.  A scan of every
word would need 2^55 runs to reach it; the live words of all tiers up to
there number 578.

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
from typing import Iterable, Iterator

from .words import (
    BINARY,
    MalformedPairError,
    pairs_of_length,
    sd,
    sd_words_of_length,
    unpair,
    words_of_length,
)
from .turing import MachineTM, RunOutcome, run_fueled
from .inductive import InductiveRun, ItmOutcome, TmAsItm, classify_run, start_if_fits
from .codec import KIND_TM, InvalidCodeError, codes_of_length, decode_machine

WRAP_HEADER = "10"


class UniversalInterpreter:
    """Interface: one-input and two-input fueled application."""

    tag: str

    def apply(self, program: str, fuel: int) -> RunOutcome:
        raise NotImplementedError

    def apply2(self, program: str, argument: str, fuel: int) -> RunOutcome:
        raise NotImplementedError

    def live(self, length: int) -> Iterable[str]:
        """Every program word of ``length`` symbols on which ``apply`` can
        halt, in shortlex order; here every word of that length."""
        return words_of_length(length)

    def live2(self, length: int) -> Iterable[str]:
        """The same for ``apply2``."""
        return words_of_length(length)

    def _diverge(self, fuel: int) -> RunOutcome:
        return RunOutcome.of_fuel(fuel)

    def __repr__(self) -> str:
        return f"<interpreter {self.tag}>"


def _decode_tm_program(code: str) -> MachineTM | None:
    try:
        machine = decode_machine(code)
    except InvalidCodeError:
        return None
    if isinstance(machine, MachineTM) and machine.alphabet is BINARY:
        return machine
    return None


@cache
def _tm_codes(bits: int) -> tuple[str, ...]:
    """The codes of exactly ``bits`` bits that the standard interpreter runs."""
    return tuple(c for c in codes_of_length(bits, KIND_TM) if _decode_tm_program(c) is not None)


def _headed(heads: Iterable[str], tails: Iterable[str]) -> Iterator[str]:
    """Each head followed by each tail, in the order of the two lists."""
    tails = list(tails)
    for head in heads:
        for tail in tails:
            yield head + tail


class StandardUniversal(UniversalInterpreter):
    tag = "std"

    def apply(self, program: str, fuel: int) -> RunOutcome:
        try:
            payload, code = unpair(program)
        except MalformedPairError:
            return self._diverge(fuel)
        machine = _decode_tm_program(code)
        if machine is None:
            return self._diverge(fuel)
        return run_fueled(machine, payload, fuel)

    def apply2(self, program: str, argument: str, fuel: int) -> RunOutcome:
        try:
            payload, code = unpair(program)
        except MalformedPairError:
            return self._diverge(fuel)
        if payload != "":
            return self._diverge(fuel)
        machine = _decode_tm_program(code)
        if machine is None:
            return self._diverge(fuel)
        return run_fueled(machine, argument, fuel)

    def live(self, length: int) -> Iterator[str]:
        return pairs_of_length(length, _tm_codes)

    def live2(self, length: int) -> list[str]:
        return sd_words_of_length(length, _tm_codes)


class WrappedUniversal(UniversalInterpreter):
    """Serves exactly the :data:`WRAP_HEADER`-prefixed copy of another
    interpreter."""

    def __init__(self, inner: UniversalInterpreter) -> None:
        self.inner = inner
        self.tag = f"wrap[{WRAP_HEADER}]({inner.tag})"

    def apply(self, program: str, fuel: int) -> RunOutcome:
        if not program.startswith(WRAP_HEADER):
            return self._diverge(fuel)
        return self.inner.apply(program[len(WRAP_HEADER) :], fuel)

    def apply2(self, program: str, argument: str, fuel: int) -> RunOutcome:
        if not program.startswith(WRAP_HEADER):
            return self._diverge(fuel)
        return self.inner.apply2(program[len(WRAP_HEADER) :], argument, fuel)

    def live(self, length: int) -> Iterator[str]:
        return self._live(length, self.inner.live)

    def live2(self, length: int) -> Iterator[str]:
        return self._live(length, self.inner.live2)

    def _live(self, length: int, inner_live) -> Iterator[str]:
        if length < len(WRAP_HEADER):
            return iter(())
        return _headed([WRAP_HEADER], inner_live(length - len(WRAP_HEADER)))


class BiasedUniversal(UniversalInterpreter):
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
        if len(program) < self.n:
            return self._diverge(fuel)
        if program == self.shortcut:
            return RunOutcome.of_halt("0", 0)
        return self.base.apply(program[self.n :], fuel)

    def apply2(self, program: str, argument: str, fuel: int) -> RunOutcome:
        if len(program) < self.n:
            return self._diverge(fuel)
        if program == self.shortcut:
            return RunOutcome.of_halt("0", 0)  # the constant-"0" function
        return self.base.apply2(program[self.n :], argument, fuel)

    def live(self, length: int) -> Iterator[str]:
        return self._live(length, self.base.live)

    def live2(self, length: int) -> Iterator[str]:
        return self._live(length, self.base.live2)

    def _live(self, length: int, base_live) -> Iterator[str]:
        if length < self.n:
            return iter(())
        if length == self.n:
            return iter([self.shortcut])
        return _headed(words_of_length(self.n), base_live(length - self.n))


U_STD = StandardUniversal()


def wrap_universal(inner: UniversalInterpreter) -> WrappedUniversal:
    return WrappedUniversal(inner)


def make_biased_universal(n: int) -> BiasedUniversal:
    return BiasedUniversal(n)


def tm_program(machine: MachineTM, payload: str) -> str:
    """The standard one-input program computing machine(payload)."""
    from .codec import encode_machine

    return sd(encode_machine(machine)) + payload


def parse_interpreter_spec(spec: str) -> UniversalInterpreter:
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


def start_itm_run(code: str, input_word: str) -> InductiveRun | None:
    """Start the machine coded by ``code`` on ``input_word`` under inductive
    semantics, a Turing machine code as its inductive embedding (same
    table, inductive observation).

    None when the code does not decode or the input does not fit the
    machine: a symbol outside its alphabet, or more input than its register
    holds.  Either way there is no run and so no result.
    """
    try:
        machine = decode_machine(code)
    except InvalidCodeError:
        return None
    if isinstance(machine, MachineTM):
        machine = TmAsItm(machine)
    return start_if_fits(machine, input_word)


def itm_universal_apply(program: str, input_word: str, horizon: int) -> ItmOutcome:
    """Run the machine coded by ``program`` under inductive semantics.

    A program that :func:`start_itm_run` cannot start counts as divergent:
    unstable at every horizon.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    run = start_itm_run(program, input_word)
    if run is None:
        return ItmOutcome("unstable", horizon=horizon)
    return classify_run(run.run_to(horizon), horizon)
