"""Round trips through the two ways in and out of a machine, the codec and
the machine file: each is a fixed point on its own output, and a machine
brought back runs exactly as the original does."""

import random

import pytest
from hypothesis import given, settings

from minprog.codec import InvalidCodeError, _emit_number, _tokens_to_word, decode_machine, encode_machine
from minprog.inductive import ExplicitMemory, MachineITM, classify_run, start_if_fits
from minprog.machinefile import parse_machine_file, serialize_machine
from minprog.words import nth_word

from strategies import gap_writer, itm_zoo, random_itm, small_itms, small_tms, unary_tms, zoo_tms

FUEL = 200


def _short_inputs(machine, count):
    return [nth_word(n, machine.alphabet) for n in range(1, count + 1)]


def _check_tm_round_trips(machine):
    code = encode_machine(machine)
    back = decode_machine(code)
    assert encode_machine(back) == code
    assert parse_machine_file(serialize_machine(machine)) == machine
    for x in _short_inputs(machine, 8):
        a = machine.start_run(x).run_to(FUEL)
        b = back.start_run(x).run_to(FUEL)
        assert (a.in_final, a.stuck, a.steps) == (b.in_final, b.stuck, b.steps), x
        assert a.output_cells() == b.output_cells(), x


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
            [(rename[frm], ctype, rename[to]) for (frm, ctype), to in memory.describe()[2]],
            memory.conn_types,
        ),
    )
    assert encode_machine(renamed) == encode_machine(machine)


def _explicit_itm_code(links):
    """A one-state ITM with no rules over an input cell and an output cell
    joined by ``links``, each (source, type, target) by index."""
    tokens = []
    for n in (1, 1, 2, 0, 1, 1, 2, 0, 2, len(links)):  # kind, header, one type, cells
        _emit_number(tokens, n)
    for link in links:
        for n in link:
            _emit_number(tokens, n)
    _emit_number(tokens, 0)
    return _tokens_to_word(tokens)


def test_decoder_rejects_links_out_of_canonical_order():
    links = [(0, 0, 1), (1, 0, 0)]
    machine = decode_machine(_explicit_itm_code(links))
    assert machine.memory.connection("k0", "t0") == "k1"
    assert encode_machine(machine) == _explicit_itm_code(links)
    with pytest.raises(InvalidCodeError, match="link list is not in canonical order"):
        decode_machine(_explicit_itm_code(links[::-1]))

