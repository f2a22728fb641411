"""The package's records: their reprs and validation messages, and what
importing them costs a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from minprog import zoo
from minprog.codec import encode_machine
from minprog.complexity import (
    Budget,
    FunctionTable,
    bounded_functional_complexity,
    bounded_problem_complexity,
    tm_class,
)
from minprog.hierarchy import emptiness_solver, halting_itm
from minprog.inductive import Rule, itm_run
from minprog.predicates import builtin
from minprog.turing import MachineValidationError, run_fueled
from minprog.universal import make_biased_universal
from minprog.words import Alphabet, InvalidWordError

from helpers import shipped

SRC = Path(__file__).resolve().parent.parent / "src"
H1 = tm_class(make_biased_universal(1))


# each repr as the records printed it when they were dataclasses
@pytest.mark.parametrize("make, shown", [
    (lambda: run_fueled(zoo.identity(), "0110", 100), "RunOutcome(kind='halted', steps=5, output='0110')"),
    (lambda: run_fueled(zoo.identity(), "0110", 3), "RunOutcome(kind='out-of-fuel', steps=3, output=None)"),
    (lambda: itm_run(shipped("writer.itm"), "", 1000),
     "ItmOutcome(kind='stabilized', output='1', steps=None, last_change_step=3, horizon=1000, change_count=1)"),
    (lambda: itm_run(shipped("alternator.itm"), "", 1000),
     "ItmOutcome(kind='unstable', output=None, steps=None, last_change_step=None, horizon=1000, change_count=1000)"),
    (lambda: bounded_problem_complexity(H1, builtin("equals:0"), Budget(max_len=6, fuel=128)),
     "ComplexityVerdict(kind='finite', value=1, witness='0', programs_scanned=3, runs_halted=1)"),
    (lambda: bounded_functional_complexity(H1, FunctionTable((("0", "1"), ("1", "1"))), Budget(max_len=2, fuel=64)),
     "ComplexityVerdict(kind='no-witness-within-budget', value=None, witness=None, programs_scanned=7, runs_halted=1)"),
    (lambda: halting_itm(encode_machine(zoo.identity()), "01", 100),
     "InductiveVerdict(value='1', stabilized_since=3, budget=100, halted=False)"),
    (lambda: emptiness_solver(encode_machine(zoo.identity()), 64),
     "InductiveVerdict(value='0', stabilized_since=1, budget=1, halted=True)"),
    (lambda: Budget(3, 5), "Budget(max_len=3, fuel=5, horizon=None)"),
    (lambda: Rule("q0", "_", "q1", move="r"), "Rule(state='q0', read='_', next_state='q1', write=None, move='r')"),
    (lambda: FunctionTable((("0", "1"),)), "FunctionTable(pairs=(('0', '1'),))"),
], ids=["halted", "out-of-fuel", "stabilized", "unstable", "finite", "no witness", "halting", "emptiness",
        "budget", "rule", "table"])
def test_a_record_prints_as_it_did(make, shown):
    assert repr(make()) == shown


@pytest.mark.parametrize("make, error, message", [
    (lambda: Budget(-1, 1), ValueError, "max_len must be non-negative"),
    (lambda: Budget(max_len=0, fuel=0), ValueError, "fuel must be at least 1"),
    (lambda: Budget(0, 1, horizon=0), ValueError, "horizon must be at least 1"),
    (lambda: Rule("q", "0", "q"), MachineValidationError, "a rule must write, move, or both"),
    (lambda: FunctionTable(()), ValueError, "a function table needs at least one probe"),
    (lambda: FunctionTable((("0", "1"), ("0", "0"))), ValueError, "contradictory table entries for '0'"),
    (lambda: FunctionTable((("2", "1"),)), InvalidWordError, "symbol '2' is not in alphabet 01"),
    (lambda: Alphabet(()), ValueError, "alphabet must declare at least one symbol"),
    (lambda: Alphabet(("0", "0")), ValueError, "alphabet symbols must be distinct"),
    (lambda: Alphabet(("01",)), ValueError, "alphabet symbols must be single characters: '01'"),
    (lambda: Alphabet(("_",)), ValueError, "the blank symbol is reserved and cannot be declared"),
], ids=["max_len", "fuel", "horizon", "rule", "no probe", "contradiction", "foreign symbol", "no symbol",
        "repeated symbol", "long symbol", "blank"])
def test_a_record_rejects_what_it_rejected_with_the_same_message(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message


def test_importing_the_package_decorates_one_dataclass():
    # dataclass decoration generates and execs each class's methods at
    # import; MachineClassHandle stays one because the benchmark's tracer
    # replaces its fields with dataclasses.replace
    script = (
        "import dataclasses, inspect, sys, minprog, minprog.cli\n"
        "print(*sorted(f'{name}.{cls.__name__}' for name, module in list(sys.modules.items())"
        " if name.split('.')[0] == 'minprog'"
        " for cls in vars(module).values() if inspect.isclass(cls) and cls.__module__ == name"
        " and dataclasses.is_dataclass(cls)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["minprog.complexity.MachineClassHandle"]
