from pathlib import Path

import pytest

from minprog.codec import InvalidCodeError, encode_machine
from minprog.inductive import ExplicitMemory, LimitMemory, LinearMemory, MachineITM, Rule, itm_run
from minprog.machinefile import ParseError, parse_machine_file, serialize_machine
from minprog.turing import MachineTM, MachineValidationError, run_fueled
from minprog.words import BINARY, words_up_to

MACHINE_DIR = Path(__file__).resolve().parent.parent / "machines"

IDENTITY_FILE = """\
machine ident
kind tm
alphabet 01
states q0 qf
start q0
final qf
trans q0 0 _ _ -> q0 0 _ 0 R S R
trans q0 1 _ _ -> q0 1 _ 1 R S R
trans q0 _ _ _ -> qf _ _ _ S S S
"""


def test_parse_identity_machine_and_run_it():
    machine = parse_machine_file(IDENTITY_FILE)
    assert isinstance(machine, MachineTM)
    for w in words_up_to(4):
        assert run_fueled(machine, w, 100).output == w


def test_comments_and_blank_lines_are_ignored():
    noisy = "# header\n\n" + IDENTITY_FILE.replace(
        "start q0", "start q0   # head state"
    )
    machine = parse_machine_file(noisy)
    assert run_fueled(machine, "01", 100).output == "01"


def test_duplicate_transition_names_both_lines():
    text = IDENTITY_FILE + "trans q0 0 _ _ -> qf 0 _ _ S S S\n"
    with pytest.raises(ParseError) as err:
        parse_machine_file(text)
    assert "line 10" in str(err.value) and "line 7" in str(err.value)


def test_unknown_directive_rejected_with_line():
    with pytest.raises(ParseError, match="line 1: unknown directive"):
        parse_machine_file("wibble on\n" + IDENTITY_FILE)


def test_undeclared_connection_type_in_rule():
    text = """\
machine bad
kind itm
states q0
start q0
final
conn-types t
memory explicit
cell c work
rule q0 _ -> move zz q0
"""
    with pytest.raises(ParseError, match="'zz' not declared"):
        parse_machine_file(text)


def test_duplicate_rule_left_part_names_both_lines():
    text = """\
machine bad
kind itm
states q0
start q0
final
memory explicit
cell c work
rule q0 _ -> write 1 q0
rule q0 _ -> write 0 q0
"""
    with pytest.raises(ParseError) as err:
        parse_machine_file(text)
    assert "line 9" in str(err.value) and "line 8" in str(err.value)


def test_kind_mismatch_directives():
    with pytest.raises(ParseError, match="itm directives"):
        parse_machine_file(IDENTITY_FILE + "memory builtin:linear\n")
    itm_text = """\
machine bad
kind itm
states q0
start q0
final
memory builtin:linear
trans q0 0 _ _ -> q0 0 _ 0 R S R
"""
    with pytest.raises(ParseError, match="trans lines"):
        parse_machine_file(itm_text)


def test_write_to_input_tape_rejected():
    text = IDENTITY_FILE.replace("trans q0 0 _ _ -> q0 0 _ 0 R S R",
                                 "trans q0 0 _ _ -> q0 1 _ 0 R S R")
    with pytest.raises(ParseError, match="read-only"):
        parse_machine_file(text)


def test_builtin_memory_with_conn_type_subset_declaration():
    text = """\
machine probe
kind itm
states q0 q1
start q0
final
conn-types r o
memory builtin:linear
rule q0 _ -> move o q1
rule q1 _ -> write 1 q1
rule q1 1 -> write 1 q1
"""
    machine = parse_machine_file(text)
    out = itm_run(machine, "", 10)
    assert out.kind == "stabilized" and out.output == "1"


def test_builtin_memory_rejects_unknown_conn_types():
    text = """\
machine probe
kind itm
states q0
start q0
final
conn-types zz
memory builtin:linear
rule q0 _ -> write 1 q0
"""
    with pytest.raises(ParseError, match="not provided by linear"):
        parse_machine_file(text)


def test_every_shipped_machine_file_round_trips():
    files = sorted(MACHINE_DIR.glob("*.tm")) + sorted(MACHINE_DIR.glob("*.itm"))
    assert len(files) >= 6
    for path in files:
        machine = parse_machine_file(path.read_text())
        text = serialize_machine(machine)
        again = parse_machine_file(text)
        assert again.name == machine.name
        assert encode_machine(again) == encode_machine(machine), path.name
        assert serialize_machine(again) == text, path.name


def test_unlabelled_limit_memory_has_no_serialized_form():
    memory = LimitMemory(LinearMemory(), [[("i0", "r", "i5")]])
    machine = MachineITM("snap", ("q0",), "q0", (), BINARY, [Rule("q0", "_", "q0", move="r")], memory)
    message = "memory 'limit-snapshot' has no serialized form"
    for serialize in (serialize_machine, encode_machine):
        with pytest.raises(InvalidCodeError, match=message):
            serialize(machine)


def test_shipped_tm_files_equal_their_zoo_sources():
    from minprog import zoo

    machine = parse_machine_file((MACHINE_DIR / "identity.tm").read_text())
    assert machine == zoo.identity()


WRITER_FILE = """\
machine w
kind itm
states q0 qf
start q0
final qf
conn-types r
memory explicit
cell c output
rule q0 _ -> write 1 qf
"""


@pytest.mark.parametrize("text, line", [
    (IDENTITY_FILE.replace("states q0 qf", "states q0 q0 qf"), None),
    (WRITER_FILE.replace("states q0 qf", "states q0 q0 qf"), None),
    (WRITER_FILE.replace("conn-types r", "conn-types r r"), 7),
    (WRITER_FILE.replace("conn-types r\nmemory explicit\ncell c output", "conn-types r r\nmemory builtin:linear"), 7),
], ids=["tm states", "itm states", "conn-types", "builtin conn-types"])
def test_a_repeated_declaration_is_a_parse_error(text, line):
    assert parse_machine_file(WRITER_FILE).states == ("q0", "qf")  # valid when declared once
    with pytest.raises(ParseError, match="duplicate") as info:
        parse_machine_file(text)
    assert info.value.line == line


def test_machines_and_memories_reject_a_repeated_declaration():
    with pytest.raises(MachineValidationError, match="duplicate state declaration"):
        MachineTM("m", ("q0", "q0", "qf"), "q0", frozenset(), BINARY, ())
    with pytest.raises(MachineValidationError, match="duplicate state declaration"):
        MachineITM("m", ("q0", "q0"), "q0", (), BINARY, (), LinearMemory())
    with pytest.raises(MachineValidationError, match="duplicate connection type declaration"):
        ExplicitMemory([("c", "work")], [], ("r", "r"))


_TWO_CELLS = WRITER_FILE.replace("cell c output\n", "cell c output\ncell d work\n")
_RULE_FORMS = "rule right part is 'write <s> <q>', 'move <t> <q>' or 'write <s> move <t> <q>'"


@pytest.mark.parametrize("text, message, line", [
    (IDENTITY_FILE.replace("machine ident\n", ""), "missing 'machine <name>' directive", None),
    (IDENTITY_FILE.replace("kind tm\n", ""), "missing 'kind' directive", None),
    (IDENTITY_FILE.replace("states q0 qf\n", ""), "missing 'states' directive", None),
    (IDENTITY_FILE.replace("start q0\n", ""), "missing 'start' directive", None),
    (IDENTITY_FILE.replace("alphabet 01", "alphabet 00"), "bad alphabet: alphabet symbols must be distinct", None),
    (IDENTITY_FILE.replace("trans q0 1 _ _ -> q0 1 _ 1", "trans q0 2 _ _ -> q0 2 _ 2"),
     "line 8: symbol '2' is not in the alphabet", 8),
    (_TWO_CELLS.replace("rule", "link c r d\nlink c r c\nrule"),
     "line 11: a 'r' connection from 'c' already declared on line 10", 11),
    (WRITER_FILE.replace("cell c output", "cell c register"), "line 7: unknown cell kind 'register'", 7),
    (WRITER_FILE.replace("rule", "link c r e\nrule"), "line 7: link c-r->e uses an undeclared cell", 7),
    (WRITER_FILE.replace("write 1 qf", "write 1"), f"line 9: {_RULE_FORMS}", 9),
    (WRITER_FILE.replace("memory explicit\ncell c output\n", ""), "an itm description needs a 'memory' directive", None),
    (WRITER_FILE.replace("memory explicit", "memory implicit"),
     "line 7: memory must be builtin:<name> or explicit, not 'implicit'", 7),
], ids=["no machine", "no kind", "no states", "no start", "bad alphabet", "foreign symbol", "repeated link",
        "cell kind", "undeclared cell", "rule right part", "no memory", "memory form"])
def test_each_malformed_description_names_its_fault_and_line(text, message, line):
    with pytest.raises(ParseError) as info:
        parse_machine_file(text)
    assert (str(info.value), info.value.line) == (message, line)
