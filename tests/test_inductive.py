import re
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from minprog.hierarchy import SimDecider, build_diagonal
from minprog.inductive import (
    ExplicitMemory,
    ItmOutcome,
    ItmRun,
    LimitMemory,
    MachineITM,
    Rule,
    TmAsItm,
    chain_cell,
    itm_run,
    start_if_fits,
)
from minprog.turing import MachineValidationError, run_fueled
from minprog.universal import itm_outcome, itm_universal_apply
from minprog.codec import decode_machine, encode_machine
from minprog.words import BINARY, BLANK, words_up_to
from minprog import zoo

from helpers import step
from oracles import PlainItm, scan_limit_connection, stepwise_change_log
from strategies import definite_sweep_runs, gap_writer, grower, itm_zoo, small_itms, small_tms, unary_tms, zoo_tms


def _single_cell_machine(rules, cells=None, conn_types=(), states=("q0", "q1", "q2")):
    memory = ExplicitMemory(
        cells or [("c", "work"), ("d", "work")],
        [("c", t, "d") for t in conn_types],
        conn_types,
    )
    return MachineITM("t", states, "q0", (), BINARY, rules, memory)


def test_write_rule_sets_cell_and_state_without_moving():
    m = _single_cell_machine([Rule("q0", BLANK, "q1", write="1")])
    run = m.start_run("")
    step(run)
    assert run.contents["c"] == "1"
    assert run.state == "q1"
    assert run.head == "c"


def test_move_rule_with_missing_connection_keeps_head_but_changes_state():
    m = _single_cell_machine([Rule("q0", BLANK, "q2", move="t")], conn_types=("t",))
    # remove the connection by using a type with no link from c
    memory = ExplicitMemory([("c", "work")], [], ("t",))
    m = MachineITM("t", ("q0", "q2"), "q0", (), BINARY, [Rule("q0", BLANK, "q2", move="t")], memory)
    run = m.start_run("")
    step(run)
    assert run.head == "c"
    assert run.state == "q2"


def test_write_then_move_rule_does_both():
    m = _single_cell_machine(
        [Rule("q0", BLANK, "q2", write="0", move="t")], conn_types=("t",)
    )
    run = m.start_run("")
    step(run)
    assert run.contents["c"] == "0"
    assert run.head == "d"
    assert run.state == "q2"


def test_stopping_without_rule_is_an_outcome_not_an_error():
    m = _single_cell_machine([Rule("q0", BLANK, "q1", write="1")])
    out = itm_run(m, "", 10)
    assert out.kind == "halted-nonfinal"
    assert out.steps == 1


def test_duplicate_rule_left_parts_rejected():
    with pytest.raises(MachineValidationError, match="share the left part"):
        _single_cell_machine(
            [Rule("q0", BLANK, "q1", write="1"), Rule("q0", BLANK, "q2", write="0")]
        )


def test_undeclared_connection_type_rejected():
    with pytest.raises(MachineValidationError, match="undeclared connection type"):
        _single_cell_machine([Rule("q0", BLANK, "q1", move="zz")])


def test_writer_stabilizes_at_step_three():
    for horizon in (4, 10, 1000):
        out = itm_run(zoo.writer(), "", horizon)
        assert out.kind == "stabilized"
        assert out.output == "1"
        assert out.last_change_step == 3
        assert out.horizon == horizon


def test_alternator_never_stabilizes():
    out = itm_run(zoo.alternator(), "", 101)
    assert out.kind == "unstable"
    assert out.change_count == 101


def test_silent_machine_counts_as_stabilized_on_empty_from_step_zero():
    out = itm_run(zoo.silent(), "", 64)
    assert out.kind == "stabilized"
    assert out.output == ""
    assert out.last_change_step == 0


def test_horizon_monotonicity_for_stabilized_outcomes():
    base = itm_run(zoo.writer(), "", 16)
    for h in (17, 64, 256):
        later = itm_run(zoo.writer(), "", h)
        assert later.kind == "stabilized"
        assert later.output == base.output
        assert later.last_change_step == base.last_change_step


def test_halting_outcomes_are_horizon_independent():
    probe = TmAsItm(zoo.identity())
    first = itm_run(probe, "01", 50)
    assert first.kind == "halted-final"
    for h in (first.steps + 1, 100, 5000):
        again = itm_run(probe, "01", h)
        assert again == first


def test_tm_embedding_fidelity_on_pool():
    for machine in zoo.acceptance_pool():
        embedded = TmAsItm(machine)
        for x in words_up_to(3):
            direct = run_fueled(machine, x, 400)
            inductive = itm_run(embedded, x, 400)
            if direct.kind == "halted":
                assert inductive.kind == "halted-final"
                assert inductive.output == direct.output
            elif direct.kind == "no-result":
                assert inductive.kind == "halted-nonfinal"
            else:
                assert inductive.kind in ("stabilized", "unstable")


def test_itm_universal_apply_matches_direct_run():
    code = encode_machine(zoo.writer())
    out = itm_universal_apply(code, "", 100)
    direct = itm_run(zoo.writer(), "", 100)
    assert (out.kind, out.output) == (direct.kind, direct.output)


def test_itm_universal_apply_invalid_code_diverges():
    for horizon in (1, 10, 1000):
        out = itm_universal_apply("11", "", horizon)
        assert out.kind == "unstable"


def test_itm_universal_apply_accepts_tm_codes_as_embeddings():
    code = encode_machine(zoo.identity())
    out = itm_universal_apply(code, "10", 400)
    assert out.kind == "halted-final"
    assert out.output == "10"


def test_itm_universal_apply_checks_the_horizon_before_decoding():
    for code in ("11", encode_machine(zoo.writer())):
        with pytest.raises(ValueError, match="horizon"):
            itm_universal_apply(code, "", 0)


UNARY_CODE = "00100110011000100010"  # a Turing machine over the alphabet {0}


def test_a_machine_that_cannot_hold_its_input_has_no_run():
    unary = decode_machine(UNARY_CODE)
    assert start_if_fits(TmAsItm(unary), "0") is not None
    assert start_if_fits(TmAsItm(unary), "1") is None
    assert itm_universal_apply(UNARY_CODE, "1", 10).kind == "unstable"
    assert itm_outcome(unary, "1", 10).kind == "unstable"
    # an explicit input register one cell too short
    assert start_if_fits(decode_machine(encode_machine(zoo.alternator())), "00") is None


def test_input_register_grows_lazily_on_linear_memory():
    long_word = "01" * 40
    run = ItmRun(zoo.decider_yes(), long_word)
    assert run.contents[run.memory.input_cell(79)] == "1"


@given(st.one_of(st.text(max_size=4), st.builds("{}{}".format, st.sampled_from("iwoah"), st.integers(0, 10**6))))
@example("o")
@example("o01")
@example("a12")
@example("out0")
@example("h")
@example("")
def test_chain_cell_reads_one_letter_and_a_decimal_index(cell):
    # the pattern the linear memories matched each cell name against
    m = re.fullmatch(r"(.)(\d+)", cell, re.DOTALL)
    assert chain_cell(cell) == (m and (m.group(1), int(m.group(2))))


def test_explicit_input_register_is_bounded():
    with pytest.raises(MachineValidationError, match="input register"):
        itm_run(zoo.alternator(), "00", 10)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.sampled_from(zoo_tms() + [gap_writer()]), small_tms()),
    st.text("01", max_size=4),
    st.integers(1, 200),
)
def test_tm_as_itm_equals_the_stepwise_oracle(machine, word, horizon):
    log, steps, final, stuck = stepwise_change_log(machine, word, horizon)
    run = TmAsItm(machine).start_run(word).run_to(horizon)
    assert (run.change_log, run.steps, run.stopped_final, run.stopped_stuck) == (log, steps, final, stuck)
    assert itm_run(TmAsItm(machine), word, horizon) == _oracle_outcome(log, steps, final, stuck, horizon)


def _oracle_outcome(log, steps, final, stuck, horizon):
    """The outcome at ``horizon`` of a run that :func:`stepwise_change_log` watched."""
    last_step, last_value = log[-1]
    if final:
        # halted-final outcomes report no change count (bench/digests.json pins 0)
        return ItmOutcome("halted-final", output=last_value, steps=steps)
    if stuck:
        return ItmOutcome("halted-nonfinal", steps=steps)
    if last_step < horizon:
        return ItmOutcome("stabilized", output=last_value, last_change_step=last_step,
                          horizon=horizon, change_count=len(log) - 1)
    return ItmOutcome("unstable", horizon=horizon, change_count=len(log) - 1)


@settings(max_examples=60, deadline=None)
@given(definite_sweep_runs(writes=("some", "all"), min_size=300), st.data())
def test_tm_as_itm_reads_the_write_log_a_definite_sweep_fills(case, data):
    # long sweeps log their writes in bulk: every step of a sweep on
    # "all", and only the steps of writing symbols on "some"
    machine, word = case
    n = len(word)
    for horizon in sorted({n // 2, n, n + 1, n + 3, 2 * n + 7, data.draw(st.integers(1, 3 * n))}):
        log, steps, final, stuck = stepwise_change_log(machine, word, horizon)
        run = TmAsItm(machine).start_run(word).run_to(horizon)
        assert (run.output_word(), run.change_count, run.last_change_step) == (
            log[-1][1], len(log) - 1, log[-1][0])
        assert itm_outcome(machine, word, horizon) == _oracle_outcome(log, steps, final, stuck, horizon)


_CHUNKS = st.lists(st.integers(0, 9), max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(itm_zoo()), small_itms()), st.text("01", max_size=3), _CHUNKS)
def test_itm_run_to_equals_the_reference_stepper_at_every_chunk_boundary(machine, word, chunks):
    run = start_if_fits(machine, word)
    assume(run is not None)
    ref = PlainItm(machine, word)
    for chunk in chunks:
        target = run.steps + chunk
        if chunk == 1:
            assert step(run) == ref.step()
        else:
            run.run_to(target)
            while ref.steps < target and ref.step():
                pass
        assert (run.contents, run.head, run.state, run.steps) == (ref.contents, ref.head, ref.state, ref.steps)
        assert (run.stopped_final, run.stopped_stuck) == (ref.final, ref.stuck)
        assert (run.output_word(), run.change_count, run.last_change_step) == (
            ref.change_log[-1][1], len(ref.change_log) - 1, ref.change_log[-1][0])
        assert run.change_log == ref.change_log


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(zoo_tms() + unary_tms() + [gap_writer()]), small_tms()), st.data())
def test_tm_as_itm_equals_the_stepwise_oracle_at_every_chunk_boundary(machine, data):
    word = data.draw(st.text("".join(machine.alphabet.symbols), max_size=4))
    run = TmAsItm(machine).start_run(word)
    horizon = 0
    for chunk in data.draw(_CHUNKS):
        horizon += chunk
        run.run_to(horizon)
        log, steps, final, stuck = stepwise_change_log(machine, word, horizon)
        assert (run.steps, run.stopped_final, run.stopped_stuck) == (steps, final, stuck)
        # read before the change log, which is built only on demand
        assert (run.output_word(), run.change_count, run.last_change_step) == (
            log[-1][1], len(log) - 1, log[-1][0])
        assert run.change_log == log


def test_a_change_log_read_is_a_copy_of_the_history():
    # before its first snapshot the writer has logged every change, so a
    # change log that handed out the run's own cache would show the edit
    run = zoo.writer().start_run("").run_to(10)
    log = run.change_log
    log[-1] = (3, "0")
    assert run.output_word() == "1"
    assert run.change_log == [(0, ""), (3, "1")]


def test_a_growing_register_is_read_without_a_copy_per_write():
    # a register that grows by one cell a step: a reader that kept one
    # value per logged write would hold 8,000 values, about 32 MB, here
    run = grower().start_run("").run_to(8000)
    tracemalloc.start()
    try:
        word = run.output_word()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert word == "1" * 7999
    assert peak < 4 * 2**20


def _sim_diagonal_on_its_own_code():
    pipeline = build_diagonal(SimDecider())
    return pipeline.start_run(encode_machine(pipeline))


_RUNS = {
    "writer": lambda: zoo.writer().start_run(""),
    "alternator": lambda: zoo.alternator().start_run(""),
    "silent": lambda: zoo.silent().start_run(""),
    "decider_yes": lambda: zoo.decider_yes().start_run("0110"),
    "sim-diagonal": _sim_diagonal_on_its_own_code,
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_RUNS)), st.integers(0, 400))
def test_run_to_equals_repeated_single_steps(name, horizon):
    resumed = _RUNS[name]().run_to(horizon)
    stepped = _RUNS[name]()
    for _ in range(horizon):
        step(stepped)
    for run in (resumed, stepped):
        assert run.output_word() == run.change_log[-1][1]
    assert (resumed.change_log, resumed.steps, resumed.stopped_final, resumed.stopped_stuck) == (
        stepped.change_log, stepped.steps, stepped.stopped_final, stepped.stopped_stuck)


# ---------------------------------------------------------------------------
# limit memory


def _base_memory():
    return ExplicitMemory(
        [("a_5", "work"), ("c_1", "work"), ("x", "work")],
        [("a_5", "t", "x")],
        ("t", "p"),
    )


def test_limit_memory_answers_at_its_last_cycle():
    # the limit: a_5 -p-> c_1, and a_5 -t-> c_1 over the base's a_5 -t-> x
    limit = LimitMemory(_base_memory(), {("a_5", "p"): "c_1", ("a_5", "t"): "c_1"})
    assert limit.oracle("a_5", "p") == limit.connection("a_5", "p") == "c_1"
    assert limit.oracle("a_5", "t") == "c_1"
    # base connections survive where the limit has none
    assert limit.oracle("c_1", "p") is None
    assert LimitMemory(_base_memory(), {("a_5", "p"): "c_1"}).oracle("a_5", "t") == "x"
    # a limit memory without a builtin name has no code form
    assert limit.builtin is None


def test_empty_assertion_table_is_the_base_graph():
    limit = LimitMemory(_base_memory(), {})
    assert limit.oracle("a_5", "t") == "x"
    assert limit.oracle("a_5", "p") is None


def test_limit_memory_answers_do_not_depend_on_query_order():
    table = {("a_5", "p"): "c_1", ("c_1", "t"): "a_5"}
    first = LimitMemory(_base_memory(), table)
    a = (first.oracle("a_5", "p"), first.oracle("c_1", "t"))
    second = LimitMemory(_base_memory(), table)
    b = (second.oracle("c_1", "t"), second.oracle("a_5", "p"))
    assert a == (b[1], b[0]) == ("c_1", "a_5")


_CELLS = ("a_5", "c_1", "x")
_assertion = st.tuples(st.sampled_from(_CELLS), st.sampled_from(("t", "p")), st.sampled_from(_CELLS))


@settings(max_examples=200, deadline=None)
@given(cycles=st.lists(st.lists(_assertion, max_size=4), max_size=10))
def test_limit_memory_equals_the_scan_of_its_assertions(cycles):
    # the limit of the cycles: each (cell, type) at its last assertion
    base = _base_memory()
    limit = LimitMemory(base, {(cell, ctype): to for cycle in cycles for cell, ctype, to in cycle})
    for cell in _CELLS:
        for ctype in ("t", "p"):
            expected = scan_limit_connection(base, cycles, cell, ctype, len(cycles))
            assert limit.oracle(cell, ctype) == expected, (cell, ctype)
            assert limit.connection(cell, ctype) == expected


def test_thm72_memory_tracks_pool_halting():
    from minprog.hierarchy import thm72_memory

    pool = zoo.acceptance_pool()
    memory = thm72_memory()
    for k, machine in enumerate(pool):
        connected = memory.connection(f"a{k}", "p") == "c1"
        demonstrates = any(
            run_fueled(machine, w, 64).halted for w in words_up_to(4)
        )
        assert connected == demonstrates, machine.name
