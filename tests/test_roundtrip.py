"""Round trips through the two ways in and out of a machine, the codec and
the machine file: each is a fixed point on its own output, and a machine
brought back runs exactly as the original does."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings

from minprog import codec
from minprog.codec import InvalidCodeError, _word, decode_machine, encode_machine
from minprog.complexity import Budget, itm1_class, tm_class
from minprog.inductive import ExplicitMemory, MachineITM, Rule, classify_run, start_if_fits
from minprog.machinefile import parse_machine_file, serialize_machine
from minprog.turing import MachineTM, run_fueled
from minprog.universal import U_STD, WRAP_HEADER, itm_outcome, parse_interpreter_spec, tm_program
from minprog.words import BINARY, sd, shortlex_words

from strategies import gap_writer, itm_zoo, random_itm, small_itms, small_tms, unary_tms, zoo_tms

FUEL = 200


def _short_inputs(machine, count):
    return list(itertools.islice(shortlex_words(machine.alphabet), count))


def _check_tm_round_trips(machine):
    code = encode_machine(machine)
    back = decode_machine(code)
    assert encode_machine(back) == code
    text = serialize_machine(machine)
    assert serialize_machine(parse_machine_file(text)) == text
    for x in _short_inputs(machine, 8):
        a = machine.start_run(x).run_to(FUEL)
        b = back.start_run(x).run_to(FUEL)
        assert (a.in_final, a.stuck, a.steps) == (b.in_final, b.stuck, b.steps), x
        assert a.output_word() == b.output_word(), x


def _check_itm_round_trips(machine):
    code = encode_machine(machine)
    text = serialize_machine(machine)
    back = decode_machine(code)
    parsed = parse_machine_file(text)
    assert encode_machine(back) == code
    assert encode_machine(parsed) == code
    assert serialize_machine(parsed) == text
    assert encode_machine(parse_machine_file(serialize_machine(back))) == code
    for x in _short_inputs(machine, 6):
        runs = [start_if_fits(m, x) for m in (machine, back, parsed)]
        if runs[0] is None:
            assert runs == [None, None, None], x
            continue
        a, b, c = (classify_run(run.run_to(FUEL), FUEL) for run in runs)
        assert a == b == c, x


@settings(max_examples=150, deadline=None)
@given(small_tms())
def test_random_tm_round_trips(machine):
    _check_tm_round_trips(machine)


@pytest.mark.parametrize("machine", zoo_tms() + unary_tms() + [gap_writer()], ids=lambda m: m.name)
def test_stock_tm_round_trips(machine):
    _check_tm_round_trips(machine)


def test_every_view_reads_an_output_blank_the_same_way():
    # the output tape reads 0_1: every view gives its non-blank cells in order
    machine, budget = gap_writer(), Budget(0, FUEL, FUEL)
    program = tm_program(machine, "")
    views = {
        "run_fueled": run_fueled(machine, "", FUEL).result,
        "std": U_STD.apply(program, FUEL).result,
        "wrap:std": parse_interpreter_spec("wrap:std").apply(WRAP_HEADER + program, FUEL).result,
        "biased:2": parse_interpreter_spec("biased:2").apply("01" + program, FUEL).result,
        "tm_class": tm_class(U_STD).produce(program, budget),
        "itm1 wrapped": itm1_class().produce(WRAP_HEADER + program, budget),
        "itm1 TmAsItm": itm1_class().produce(sd(encode_machine(machine)), budget),
        "itm_outcome": itm_outcome(machine, "", FUEL).result,
    }
    assert views == dict.fromkeys(views, "01")


@settings(max_examples=150, deadline=None)
@given(small_itms())
def test_random_itm_round_trips(machine):
    _check_itm_round_trips(machine)


@pytest.mark.parametrize("machine", itm_zoo(), ids=lambda m: m.name)
def test_stock_itm_round_trips(machine):
    _check_itm_round_trips(machine)


def test_cell_names_do_not_reach_the_code():
    # cells declared in1, w0, in0, ...: sorting links by cell name would put
    # the links of the second declared cell first
    machine = random_itm(random.Random(4))
    assert machine.memory.cells[0][0] == "in1"
    _check_itm_round_trips(machine)
    memory = machine.memory
    rename = {cell: f"c{i}" for i, (cell, _) in enumerate(reversed(memory.cells))}
    renamed = MachineITM(
        machine.name, machine.states, machine.start, machine.finals, machine.alphabet, machine.rules,
        ExplicitMemory(
            [(rename[cell], kind) for cell, kind in memory.cells],
            [(rename[frm], ctype, rename[to]) for (frm, ctype), to in memory.links.items()],
            memory.conn_types,
        ),
    )
    assert encode_machine(renamed) == encode_machine(machine)


def _explicit_itm_code(links):
    """A one-state ITM with no rules over an input cell and an output cell
    joined by ``links``, each (source, type, target) by index."""
    header = [1, 1, 2, 0, 1, 1, 2, 0, 2, len(links)]  # kind, header, one type, cells
    return _word([*header, *(n for link in links for n in link), 0])


def test_decoder_rejects_links_out_of_canonical_order():
    links = [(0, 0, 1), (1, 0, 0)]
    machine = decode_machine(_explicit_itm_code(links))
    assert machine.memory.connection("k0", "t0") == "k1"
    assert encode_machine(machine) == _explicit_itm_code(links)
    with pytest.raises(InvalidCodeError, match="link list is not in canonical order"):
        decode_machine(_explicit_itm_code(links[::-1]))



# Three states and finals [2], with one row, from s0 to s2: s2 is used
# first but numbered after the unreachable s1.  Its machine's code numbers
# the states s0, s2, s1 as 0, 1, 2 and is 90 bits long.
STATES_OUT_OF_ORDER = (
    "0010010110010010011001001001100010010010010010010010010010010010010010010010010010010010010010"
)


def test_decoder_rejects_states_out_of_first_use_order():
    with pytest.raises(InvalidCodeError, match="states are not numbered in first-use order"):
        decode_machine(STATES_OUT_OF_ORDER)


def _reachable(machine):
    rows = machine.transitions if isinstance(machine, MachineTM) else machine.rules
    seen, todo = {machine.start}, [machine.start]
    while todo:
        state = todo.pop()
        for row in rows:
            if row.state == state and row.next_state not in seen:
                seen.add(row.next_state)
                todo.append(row.next_state)
    return seen


def _check_renumbered_states(machine):
    """Numbering the states of a decoded machine in any other order that
    keeps the start first gives a word the decoder rejects exactly when a
    reachable state moved; only unreachable states may trade numbers."""
    machine = decode_machine(encode_machine(machine))
    states, reachable = machine.states, _reachable(machine)
    for rest in itertools.permutations(states[1:]):
        order = [states[0], *rest]
        with mock.patch.object(codec, "canonical_state_order", lambda m: order):
            word = encode_machine(machine)
        if any(s != t for s, t in zip(order, states) if t in reachable):
            with pytest.raises(InvalidCodeError, match="states are not numbered in first-use order"):
                decode_machine(word)
        else:
            assert encode_machine(decode_machine(word)) == word


@settings(max_examples=100, deadline=None)
@given(small_tms().filter(lambda m: len(m.states) == 3))
def test_tm_states_out_of_first_use_order_are_rejected(machine):
    _check_renumbered_states(machine)


@settings(max_examples=100, deadline=None)
@given(small_itms().filter(lambda m: len(m.states) == 3))
def test_itm_states_out_of_first_use_order_are_rejected(machine):
    _check_renumbered_states(machine)


@settings(max_examples=100, deadline=None)
@given(small_itms().filter(lambda m: isinstance(m.memory, ExplicitMemory)))
def test_connection_types_out_of_canonical_order_are_rejected(machine):
    code = encode_machine(machine)
    machine = decode_machine(code)
    for order in itertools.permutations(machine.memory.conn_types):
        with mock.patch.object(codec, "_conn_type_order", lambda memory, rules: list(order)):
            word = encode_machine(machine)
        if word != code:
            with pytest.raises(InvalidCodeError, match="connection types are not in canonical order"):
                decode_machine(word)


@pytest.mark.parametrize("rules", [(), (Rule("q0", "_", "q0", move="s"),)], ids=["no rule", "a move by s"])
def test_connection_type_declaration_order_does_not_reach_the_code(rules):
    def machine(conn_types):
        memory = ExplicitMemory([("a", "input"), ("b", "output")], [("a", "r", "b"), ("b", "s", "a")], conn_types)
        return MachineITM("m", ("q0",), "q0", (), BINARY, rules, memory)

    code = encode_machine(machine(("r", "s")))
    assert encode_machine(machine(("s", "r"))) == code
    assert encode_machine(decode_machine(code)) == code
