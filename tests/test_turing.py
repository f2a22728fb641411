import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from minprog.turing import (
    FIRST_SNAPSHOT,
    EventLog,
    MachineTM,
    MachineValidationError,
    Transition,
    run_fueled,
)
from minprog.inductive import InductiveRun, LinearMemory, MachineITM
from minprog.machinefile import serialize_machine
from minprog.words import BINARY, BLANK, InvalidWordError, words_up_to
from minprog import zoo

from helpers import configuration, never_halts_by_inspection, step
from oracles import PlainTm, stepper_repeat
from strategies import (
    gap_writer,
    random_stay_tm,
    random_sweep_tm,
    random_tm,
    small_tms,
    unary_tms,
    walking_tms,
    zoo_tms,
)


def test_identity_copies_input():
    out = run_fueled(zoo.identity(), "101", 100)
    assert out.kind == "halted"
    assert out.output == "101"
    assert out.steps <= 100


def test_looper_runs_out_of_fuel():
    out = run_fueled(zoo.looper(), "0", 50)
    assert out.kind == "out-of-fuel"
    assert out.steps == 50


def test_blocked_machine_gives_no_result_immediately():
    out = run_fueled(zoo.blocked(), "", 50)
    assert out.kind == "no-result"
    assert out.steps == 0


def test_halt_now_halts_with_empty_output():
    out = run_fueled(zoo.halt_now(), "11", 10)
    assert out.kind == "halted" and out.output == "" and out.steps == 0


def test_invalid_input_symbol_rejected():
    with pytest.raises(InvalidWordError):
        run_fueled(zoo.identity(), "10x", 10)


def test_determinism_bit_for_bit():
    for w in ["", "0", "10", "110"]:
        a = run_fueled(zoo.last_symbol(), w, 77)
        b = run_fueled(zoo.last_symbol(), w, 77)
        assert a == b


@pytest.mark.parametrize("machine", [zoo.identity(), zoo.const_zero(), zoo.last_symbol(), zoo.epsilon_only()])
def test_fuel_monotonicity(machine):
    for w in words_up_to(3):
        base = run_fueled(machine, w, 500)
        if base.kind != "halted":
            continue
        for extra in (0, 1, 17, 400):
            again = run_fueled(machine, w, base.steps + extra)
            assert again == base
        # one unit short of the halt step never reports halted
        if base.steps > 0:
            short = run_fueled(machine, w, base.steps - 1)
            assert short.kind == "out-of-fuel"


def test_zoo_behavior_tables():
    for w in words_up_to(3):
        assert run_fueled(zoo.const_zero(), w, 100).output == "0"
        expect_last = w[-1] if w else ""
        assert run_fueled(zoo.last_symbol(), w, 100).output == expect_last
        ne = run_fueled(zoo.nonempty_only(), w, 100)
        assert ne.halted == (w != "")
        eo = run_fueled(zoo.epsilon_only(), w, 100)
        assert eo.halted == (w == "")
        assert run_fueled(zoo.append_zero(), w, 100).output == w + "0"
        assert run_fueled(zoo.eraser(), w, 100).output == ""


def _tm(rows, finals=("qf",), states=("q0", "qf")):
    trans = tuple(Transition(q, r, nq, w, m) for q, r, nq, w, m in rows)
    return MachineTM("t", states, "q0", frozenset(finals), BINARY, trans)


def test_duplicate_left_part_rejected():
    row = ("q0", ("0", "_", "_"), "qf", ("0", "_", "_"), ("S", "S", "S"))
    with pytest.raises(MachineValidationError, match="share the left part"):
        _tm([row, row])


def test_input_tape_is_read_only():
    with pytest.raises(MachineValidationError, match="read-only"):
        _tm([("q0", ("0", "_", "_"), "qf", ("1", "_", "_"), ("S", "S", "S"))])


def test_output_tape_cannot_be_erased():
    with pytest.raises(MachineValidationError, match="erases"):
        _tm([("q0", ("0", "_", "1"), "qf", ("0", "_", "_"), ("S", "S", "S"))])


def test_undeclared_states_rejected():
    with pytest.raises(MachineValidationError):
        _tm([("qx", ("0", "_", "_"), "qf", ("0", "_", "_"), ("S", "S", "S"))])
    with pytest.raises(MachineValidationError):
        MachineTM("t", ("q0",), "q1", frozenset(), BINARY, ())


_MACHINE_KINDS = {
    "tm": lambda states, start, finals: MachineTM("t", states, start, frozenset(finals), BINARY, ()),
    "itm": lambda states, start, finals: MachineITM("i", states, start, finals, BINARY, (), LinearMemory()),
}


@pytest.mark.parametrize("kind", list(_MACHINE_KINDS))
@pytest.mark.parametrize("states, start, finals, message", [
    (("q0", "q0"), "qx", ("qy",), "duplicate state declaration"),
    (("q0",), "qx", ("qy",), "start state 'qx' is not declared"),
    (("q0",), "q0", ("qy",), "final state 'qy' is not declared"),
])
def test_both_machine_kinds_check_their_states_in_one_order(kind, states, start, finals, message):
    with pytest.raises(MachineValidationError) as info:
        _MACHINE_KINDS[kind](states, start, finals)
    assert str(info.value) == message


_OK = ("q0", ("0", "_", "_"), "qf", ("0", "_", "_"), ("S", "S", "S"))
_ARITY = "transition in state 'q0' does not read, write and move on three tapes"


@pytest.mark.parametrize("part", [1, 3, 4])
@pytest.mark.parametrize("size", [2, 4])
def test_transitions_read_write_and_move_on_three_tapes(part, size):
    row = list(_OK)
    row[part] = (row[part] * 2)[:size]
    with pytest.raises(MachineValidationError) as exc:
        _tm([row])
    assert str(exc.value) == _ARITY


# Two faults each, in one transition or in two: the first faulty transition
# wins, and within it the checks run in the order MachineTM's docstring lists.
@pytest.mark.parametrize("rows, error, message", [
    ([("qx", ("0", "_"), "qf", ("0", "_", "_"), ("S", "S", "S"))], MachineValidationError,
     "transition in state 'qx' does not read, write and move on three tapes"),
    ([("q0", ("2", "_", "_"), "qf", ("0", "_", "_"), ("S", "S"))], MachineValidationError, _ARITY),
    ([("qx", ("2", "_", "_"), "qf", ("0", "_", "_"), ("S", "S", "S"))], MachineValidationError,
     "transition qx->qf uses an undeclared state"),
    ([("q0", ("0", "_", "_"), "qx", ("0", "_", "_"), ("X", "S", "S"))], MachineValidationError,
     "transition q0->qx uses an undeclared state"),
    ([("q0", ("0", "_", "x"), "qf", ("0", "y", "_"), ("S", "S", "S"))], InvalidWordError,
     "symbol 'x' is not in alphabet 01"),
    ([("q0", ("0", "_", "_"), "qf", ("0", "y", "_"), ("S", "X", "S"))], InvalidWordError,
     "symbol 'y' is not in alphabet 01"),
    ([("q0", ("0", "_", "_"), "qf", ("1", "_", "_"), ("S", "X", "Y"))], MachineValidationError,
     "unknown move 'X'"),
    ([("q0", ("0", "_", "1"), "qf", ("1", "_", "_"), ("S", "S", "S"))], MachineValidationError,
     "transition in state 'q0' writes to the read-only input tape"),
    ([_OK, ("q0", ("0", "_", "_"), "qf", ("1", "_", "_"), ("S", "S", "S"))], MachineValidationError,
     "transition in state 'q0' writes to the read-only input tape"),
    ([("q0", ("0", "_", "1"), "qf", ("0", "_", "1"), ("S", "S", "S")),
      ("q0", ("0", "_", "1"), "qf", ("0", "_", "_"), ("S", "S", "S"))], MachineValidationError,
     "transition in state 'q0' erases the output tape"),
    ([("q0", ("0", "_", "1"), "qf", ("0", "_", "_"), ("S", "S", "S")),
      ("qx", ("1", "_", "_"), "qf", ("1", "_", "_"), ("S", "S", "S"))], MachineValidationError,
     "transition in state 'q0' erases the output tape"),
    ([_OK, _OK, ("q0", ("1", "_", "_"), "qf", ("1", "_", "_"), ("S", "S"))], MachineValidationError,
     "two transitions share the left part (q0, 0/_/_)"),
    ([_OK, ("q0", ("1", "_"), "qf", ("1", "_", "_"), ("S", "S", "S")), _OK], MachineValidationError, _ARITY),
], ids=["arity-state", "arity-move", "state-symbol", "state-move", "read-write", "write-move",
        "move-input", "input-output", "input-left-part", "output-left-part", "output-then-state",
        "left-part-then-arity", "arity-then-left-part"])
def test_the_first_fault_in_check_order_is_reported(rows, error, message):
    with pytest.raises(error) as exc:
        _tm(rows)
    assert str(exc.value) == message


def test_run_to_stops_at_fuel_final_state_or_stuck():
    run = zoo.looper().start_run("0").run_to(5)
    assert (run.steps, run.in_final, run.stuck) == (5, False, False)
    assert run.run_to(3).steps == 5
    run = zoo.halt_now().start_run("").run_to(5)
    assert (run.steps, run.in_final) == (0, True)
    run = zoo.blocked().start_run("").run_to(5)
    assert (run.steps, run.stuck) == (0, True)


@settings(max_examples=100, deadline=None)
@given(small_tms(), st.text("01", max_size=4), st.integers(0, 40), st.integers(0, 40))
def test_resumed_run_stands_where_a_fresh_run_stops(machine, word, first, second):
    resumed = machine.start_run(word).run_to(first).run_to(second)
    fresh = machine.start_run(word).run_to(max(first, second))
    assert configuration(resumed) == configuration(fresh)
    assert (resumed.steps, resumed.stuck) == (fresh.steps, fresh.stuck)


_TMS = st.one_of(st.sampled_from(zoo_tms() + unary_tms() + [gap_writer()]), small_tms())


@settings(max_examples=300, deadline=None)
@given(_TMS, st.data())
def test_run_to_equals_the_reference_stepper_at_every_chunk_boundary(machine, data):
    word = data.draw(st.text("".join(machine.alphabet.symbols), max_size=4))
    chunks = data.draw(st.lists(st.integers(0, 9), max_size=12))
    plain = PlainTm(machine, word)
    configs = [plain.configuration()]
    while len(configs) <= sum(chunks) and plain.step():
        configs.append(plain.configuration())
    repeat = None if plain.in_final or plain.stuck else stepper_repeat(configs, FIRST_SNAPSHOT)
    run, ref = machine.start_run(word), PlainTm(machine, word)
    run.write_log = EventLog()
    for chunk in chunks:
        target = run.steps + chunk
        if chunk == 1:
            assert step(run) == ref.step()
        else:
            run.run_to(target)
            while ref.steps < target and ref.step():
                pass
        assert configuration(run) == ref.configuration()
        assert (run.steps, run.write_log.count(run.steps), run.in_final, run.stuck) == (
            ref.steps, ref.output_changes, ref.in_final, ref.stuck)
        found = repeat is not None and run.steps >= sum(repeat)
        assert run.period == (repeat[1] if found else 0)


def left_walker():
    """Writes 1 on its work and output tapes and moves both heads left, one
    cell per input symbol, and halts at the input's end."""
    rows = [Transition("q0", (s, BLANK, BLANK), "q0", (s, "1", "1"), ("R", "L", "L")) for s in "01"]
    rows.append(Transition("q0", (BLANK, BLANK, BLANK), "qf", (BLANK, BLANK, BLANK), ("S", "S", "S")))
    return MachineTM("left-walker", ("q0", "qf"), "q0", frozenset({"qf"}), BINARY, tuple(rows))


def work_flipper():
    """Writes 1 on its work cell and erases it again, forever, moving no
    head: a repeat of period 2 that only an erase which restores the
    blank lets the snapshot at step 16 match at step 18."""
    rows = (
        Transition("q0", (BLANK, BLANK, BLANK), "q1", (BLANK, "1", BLANK), ("S", "S", "S")),
        Transition("q1", (BLANK, "1", BLANK), "q0", (BLANK, BLANK, BLANK), ("S", "S", "S")),
    )
    return MachineTM("work-flipper", ("q0", "q1"), "q0", frozenset(), BINARY, rows)


def plain_views(machine, word, reach):
    """What the reference stepper shows after t steps, for t up to
    ``reach``, as (steps, final, stuck, configuration, output), and the
    output-tape changes as (step, position, symbol)."""
    ref = PlainTm(machine, word)
    views, events = [], []
    while len(views) <= reach:
        views.append((ref.steps, ref.in_final, ref.stuck, ref.configuration(), ref.output_word()))
        pos = ref.heads[2]
        before = ref.tapes[2].get(pos)
        if ref.step() and ref.tapes[2].get(pos) != before:
            events.append((ref.steps, pos, ref.tapes[2][pos]))
    return views, events


# resumed chunks, one step long as often as not
_CHUNKS = st.lists(st.one_of(st.just(1), st.integers(0, 80)), max_size=16)


@settings(max_examples=200, deadline=None)
@given(walking_tms(), st.text("01", max_size=6), _CHUNKS)
# both heads walk left of cell 0 past two widenings, resumed a step at a time
@example(left_walker(), "01" * 20, [1] * 20 + [3, 1, 30])
@example(work_flipper(), "", [15, 1, 1, 1, 1, 40])
def test_walking_heads_equal_the_reference_stepper_at_every_chunk_boundary(machine, word, chunks):
    views, events = plain_views(machine, word, sum(chunks))
    stops = views[-1][1] or views[-1][2]
    repeat = None if stops else stepper_repeat([view[3] for view in views], FIRST_SNAPSHOT)
    run = machine.start_run(word)
    run.write_log = log = EventLog()
    for budget in itertools.accumulate(chunks):
        run.run_to(budget)
        steps, final, stuck, config, output = views[budget]
        assert (run.steps, run.in_final, run.stuck, run.output_word()) == (steps, final, stuck, output)
        assert configuration(run) == config
        logged = [(step, *log.events[at][1:]) for at, step in map(log.locate, range(log.count(run.steps)))]
        assert logged == [e for e in events if e[0] <= steps]
        found = repeat is not None and budget >= sum(repeat)
        assert run.period == (repeat[1] if found else 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 30), st.integers(1, 8), st.booleans(), st.data())
def test_count_and_locate_read_the_log_unrolled_lap_by_lap(start, period, repeats, data):
    # a log whose steps rise strictly, events up to ``start`` then one period's
    # events in (start, start + period]; each event carries its own index
    steps = sorted(data.draw(st.sets(st.integers(0, start), max_size=6)))
    tail = sorted(data.draw(st.sets(st.integers(start + 1, start + period), max_size=period)))
    log = EventLog()
    log.events = [(step, j) for j, step in enumerate(steps + tail)]
    run = InductiveRun()
    run.writes = log
    if not repeats:
        for n, event in enumerate(log.events):
            assert log.locate(n) == (n, event[0])
        assert log.count(start + period) == len(log.events)
        assert not run.settled()
        return
    log.repeat_from(start, period)
    laps = 3
    unrolled = log.events[: len(steps)] + [
        (step + lap * period, j) for lap in range(laps) for step, j in log.events[len(steps):]]
    for t in range(start, start + laps * period + 1):
        assert log.count(t) == sum(step <= t for step, _ in unrolled)
    for n, (step, j) in enumerate(unrolled):
        assert log.locate(n) == (j, step)
    # a period with no write leaves the register as it is for good
    assert run.settled() == (not tail)


def test_never_halts_by_inspection():
    assert never_halts_by_inspection(zoo.looper())
    assert not never_halts_by_inspection(zoo.identity())
    assert not never_halts_by_inspection(zoo.blocked())  # stuck counts as stopping
    assert not never_halts_by_inspection(zoo.epsilon_only())
    assert not never_halts_by_inspection(zoo.halt_now())


def _built(make):
    """Call ``make``; the machines it builds, each with the transitions
    handed to its constructor."""
    built = []
    init = MachineTM.__init__

    def recording(self, name, states, start, finals, alphabet, transitions):
        init(self, name, states, start, finals, alphabet, transitions)
        built.append((self, transitions))

    with mock.patch.object(MachineTM, "__init__", recording):
        make()
    assert built
    return built


def _assert_read_back(machine, given):
    """``transitions`` is read back from the table as given, in order, and
    rebuilds the machine with the same table."""
    assert machine.transitions == given
    again = MachineTM(machine.name, machine.states, machine.start, machine.finals,
                      machine.alphabet, machine.transitions)
    assert serialize_machine(again) == serialize_machine(machine)
    assert list(again.table.items()) == list(machine.table.items())


_RANDOM_TMS = {"full": random_tm, "sweep": random_sweep_tm, "stay": random_stay_tm}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_RANDOM_TMS)), st.integers(0, 2**32))
def test_transitions_are_read_back_from_the_table_in_order(kind, seed):
    for machine, given in _built(lambda: _RANDOM_TMS[kind](random.Random(seed))):
        _assert_read_back(machine, given)


_ZOO_TMS = (zoo.looper, zoo.nonempty_only, zoo.epsilon_only, zoo.identity, zoo.const_zero,
            zoo.last_symbol, zoo.halt_now, zoo.blocked, zoo.append_zero, zoo.eraser)


@pytest.mark.parametrize("make", [unary_tms, *(m.__wrapped__ for m in _ZOO_TMS)],
                         ids=lambda make: make.__name__)
def test_zoo_and_unary_transitions_are_read_back_from_the_table_in_order(make):
    for machine, given in _built(make):
        _assert_read_back(machine, given)
