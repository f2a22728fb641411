import hashlib
import math
import random
import time
import tracemalloc
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from minprog.codec import KIND_ITM, InvalidCodeError, builtin_memory, codes_up_to, decode_machine, encode_machine
from minprog.complexity import Budget, itm1_class
from minprog.hierarchy import (
    DiagonalPipeline,
    ReductionTM,
    SimDecider,
    build_diagonal,
    build_range_enumerator,
    build_reduction_tm,
    build_totalizer,
    diagonal_experiment,
    dovetail_nontotal,
    emptiness_solver,
    halting_itm,
    limitlist_memory,
    order_lookup,
    order_rows,
    thm72_memory,
    totality_verdict,
)
from minprog.inductive import InductiveRun, MachineITM, TmAsItm, itm_run, start_if_fits
from minprog.turing import EventLog, MachineTM, RunOutcome, TmRun, Transition, run_fueled
from minprog.universal import itm_universal_apply
from minprog.words import BINARY, BLANK, nth_word, sd
from minprog import zoo

from helpers import assert_register_reads, never_halts_by_inspection
from oracles import (
    PlainItm,
    PlainSimDecider,
    rerun_dovetail_list,
    rerun_first_result_cycle,
    rerun_range_enumerate,
    stepwise_change_log,
)
from strategies import (
    any_input_grower,
    bouncer,
    full_tms,
    gap_writer,
    itm_zoo,
    random_tm,
    random_walking_tm,
    small_itms,
    small_tms,
    stuck_below_a_halt,
    unary_tms,
    walker_below_a_halt,
    walking_tms,
    zoo_tms,
)

POOL = zoo.acceptance_pool()
CODES = [encode_machine(m) for m in POOL]
NAMES = dict(zip(CODES, (m.name for m in POOL)))


# ---------------------------------------------------------------------------
# halting demonstrator


def test_halting_demonstrator_flips_at_the_observed_halt_step():
    direct = run_fueled(zoo.identity(), "0", 1000)
    v = halting_itm(encode_machine(zoo.identity()), "0", 1000)
    assert v.value == "1"
    assert v.stabilized_since == direct.steps


def test_halting_demonstrator_stays_zero_for_nonhalting_runs():
    v = halting_itm(encode_machine(zoo.looper()), "0", 1000)
    assert v.value == "0" and v.stabilized_since == 0
    assert run_fueled(zoo.epsilon_only(), "1", 1000).kind == "out-of-fuel"
    v = halting_itm(encode_machine(zoo.epsilon_only()), "1", 1000)
    assert v.value == "0"


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(zoo_tms()), st.integers(max_value=0))
@example(zoo.identity(), -5)
@example(zoo.identity(), 0)
def test_halting_itm_rejects_a_horizon_below_one(machine, horizon):
    # a verdict at a horizon below 1 would answer at a step that never ran
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        halting_itm(encode_machine(machine), "", horizon)
    # the code is decoded first
    with pytest.raises(InvalidCodeError, match="does not take a"):
        halting_itm(encode_machine(zoo.writer()), "", horizon)


# ---------------------------------------------------------------------------
# emptiness


def test_emptiness_of_never_halting_machine():
    v = emptiness_solver(encode_machine(zoo.looper()), 32)
    assert v.value == "1" and v.stabilized_since == 1 and not v.halted


def test_emptiness_detects_the_exact_cycle():
    # detection happens at the first cycle n covering both the input index
    # and the halting time of some halting pair
    steps_eps = run_fueled(zoo.identity(), nth_word(1), 100).steps
    v = emptiness_solver(encode_machine(zoo.identity()), 32)
    assert v.value == "0" and v.halted
    assert v.stabilized_since == max(1, steps_eps)

    steps_x2 = run_fueled(zoo.nonempty_only(), nth_word(2), 100).steps
    v = emptiness_solver(encode_machine(zoo.nonempty_only()), 32)
    assert v.value == "0"
    assert v.stabilized_since == max(2, steps_x2)


def test_a_run_that_stays_in_place_closes_in_the_round_it_starts(monkeypatch):
    # the looper's first step on every input is a stay step: each run of the
    # range enumerator is stepped once, found repeating, and never resumed;
    # round r charges r^2, so the fuel of 40 rounds is the sum of 1..40 squared
    runs, calls = [], {}
    init, run_to = TmRun.__init__, TmRun.run_to

    def started(run, *args):
        runs.append(run)
        init(run, *args)

    def counted(run, fuel):
        calls[run] = calls.get(run, 0) + 1
        return run_to(run, fuel)

    monkeypatch.setattr(TmRun, "__init__", started)
    monkeypatch.setattr(TmRun, "run_to", counted)
    fuel = sum(r * r for r in range(1, 41))
    out = build_range_enumerator(encode_machine(zoo.looper())).run("", fuel)
    assert (out.kind, out.steps) == ("out-of-fuel", fuel)
    assert [calls[run] for run in runs] == [1] * 40
    assert [(run.steps, run.period) for run in runs] == [(n, 1) for n in range(1, 41)]


def test_interior_output_blank_still_demonstrates_a_result():
    # halting means reaching a final state; the output tape is never read
    code = encode_machine(gap_writer())
    v = emptiness_solver(code, 16)
    assert (v.value, v.stabilized_since, v.budget, v.halted) == ("0", 3, 3, True)
    # the range enumerator lists the output's non-blank cells in tape order
    enumerator = build_range_enumerator(code)
    out = enumerator.run("", 100)
    assert (out.kind, out.output) == ("halted", "01")
    assert (out.kind, out.steps, out.output) == rerun_range_enumerate(enumerator.base, "", 100)


# the bouncer's state and heads recur on a longer tape before it halts: a
# dovetail that took that for a repeat would close its runs too early
_DOVETAIL_MACHINES = st.one_of(
    st.sampled_from(zoo_tms() + unary_tms() + [bouncer()]),
    small_tms(),
)

# decodable machines over the one-symbol alphabet 0 with one state s0 and
# no transitions: s0 is not final in the first and final in the second
UNARY_STUCK = "00100110011000100010"
UNARY_HALTING = "001001100110011000100010"


def test_limit_constructions_feed_a_unary_machine_its_own_words():
    v = emptiness_solver(UNARY_STUCK, 8)
    assert (v.value, v.stabilized_since, v.budget, v.halted) == ("1", 1, 8, False)
    out = build_range_enumerator(UNARY_STUCK).run("", 100)
    assert (out.kind, out.steps) == ("out-of-fuel", 100)
    state = dovetail_nontotal([decode_machine(UNARY_STUCK)], 4)
    assert state.halted_pairs == set()
    assert state.stable_prefix_estimate() == [UNARY_STUCK]
    out = build_totalizer(UNARY_HALTING).run("1", 100)
    assert (out.kind, out.output, out.steps) == ("halted", "", 0)


def test_unary_machines_see_unary_inputs():
    identity, two_or_more = unary_tms()
    # x_3 over the alphabet 0 is 00, the first input two_or_more halts on
    v = emptiness_solver(encode_machine(two_or_more), 8)
    assert (v.value, v.stabilized_since) == ("0", 3)
    # x_1, x_2, x_3 are ε, 0, 00: the identity lists them as its range
    enumerator = build_range_enumerator(encode_machine(identity))
    assert [enumerator.run(nth_word(n), 1000).output for n in (1, 2, 3)] == ["", "0", "00"]
    out = build_totalizer(encode_machine(identity)).run(nth_word(3), 1000)
    assert (out.kind, out.output) == ("halted", "00")


@settings(max_examples=150, deadline=None)
@given(_DOVETAIL_MACHINES, st.integers(0, 40))
@example(bouncer(), 40)
@example(zoo.halt_now(), 0)
@example(walker_below_a_halt(), 40)  # x_1 runs 40 steps, then x_2 halts at step 1: the answer is 2
def test_emptiness_solver_equals_the_rerun_schedule(machine, cycles):
    v = emptiness_solver(encode_machine(machine), cycles)
    n = rerun_first_result_cycle(machine, cycles)
    if cycles == 0:
        # no cycle has run, so the solver has no information yet
        assert (v.value, v.stabilized_since, v.budget, v.halted) == (None, None, 0, False)
    elif n is None:
        assert (v.value, v.stabilized_since, v.budget, v.halted) == ("1", 1, cycles, False)
    else:
        assert (v.value, v.stabilized_since, v.budget, v.halted) == ("0", n, n, True)


@settings(max_examples=20, deadline=None)
@given(_DOVETAIL_MACHINES, st.integers(max_value=-1))
@example(zoo.halt_now(), -1)
def test_emptiness_solver_rejects_a_negative_cycle_count(machine, cycles):
    # a verdict at a negative budget would claim a cycle that never ran
    with pytest.raises(ValueError, match="cycles must be at least 0"):
        emptiness_solver(encode_machine(machine), cycles)
    # the code is decoded first
    with pytest.raises(InvalidCodeError, match="does not take a"):
        emptiness_solver(encode_machine(zoo.writer()), cycles)


@pytest.mark.parametrize("build", [
    lambda: build_range_enumerator(encode_machine(zoo.identity())),
    lambda: build_totalizer(encode_machine(zoo.identity())),
    lambda: build_reduction_tm(encode_machine(zoo.writer()), ""),
], ids=["range-enumerator", "totalizer", "reduction"])
def test_host_machines_reject_a_negative_fuel(build):
    # an out-of-fuel outcome at a negative fuel would claim steps that never ran
    with pytest.raises(ValueError, match="fuel must be non-negative"):
        build().run("", -5)


@settings(max_examples=150, deadline=None)
@given(_DOVETAIL_MACHINES, st.text("01", max_size=4), st.integers(0, 2000))
@example(bouncer(), "", 20000)
@example(gap_writer(), "", 100)
@example(stuck_below_a_halt(), "", 3)  # x_1 closes stuck (charge 1) in the round x_2 surfaces in
@example(stuck_below_a_halt(), "", 2)  # the fuel runs out after x_1 in that round
def test_range_enumerator_equals_the_rerun_schedule(machine, word, fuel):
    enumerator = build_range_enumerator(encode_machine(machine))
    out = enumerator.run(word, fuel)
    assert (out.kind, out.steps, out.output) == rerun_range_enumerate(enumerator.base, word, fuel)


def test_the_range_enumerator_keeps_no_closed_run():
    # const-zero halts at step 1 on every input and has one value, so x_2
    # (the third value) plays about 4,470 rounds, each starting one run that
    # stops in it and leaves only its input and charge
    enumerator = build_range_enumerator(encode_machine(zoo.const_zero()))
    tracemalloc.start()
    try:
        out = enumerator.run(nth_word(2), 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.kind, out.steps) == ("out-of-fuel", 10**7)
    assert peak < 10**6


# ---------------------------------------------------------------------------
# the list scheduler


def test_singleton_nonhalting_pool_is_stable_at_position_zero():
    state = dovetail_nontotal([zoo.looper()], 20)
    assert state.order == [encode_machine(zoo.looper())]
    assert state.last_moved == {}


def test_total_machine_keeps_being_displaced_behind_a_frozen_one():
    pool = [zoo.identity(), zoo.looper()]
    state = dovetail_nontotal(pool, 24)
    c_id, c_loop = (encode_machine(m) for m in pool)
    assert state.order.index(c_loop) < state.order.index(c_id)
    assert state.last_moved[c_id] == 24
    assert c_loop not in state.last_moved


def test_literal_early_cycle_insertions_with_a_fast_halting_leader():
    # When the first machine halts on everything immediately, the written
    # placement rules of the second cycle insert the fourth code and skip
    # the third entirely; the third machine is still simulated.
    pool = [zoo.identity(), zoo.looper(), zoo.epsilon_only(), zoo.const_zero(), zoo.last_symbol()]
    state = dovetail_nontotal(pool, 10)
    codes = [encode_machine(m) for m in pool]
    assert codes[2] not in state.order
    assert codes[3] in state.order
    assert (3, 1) in state.halted_pairs  # epsilon-only halted on the empty word
    assert state.order[0] == codes[1]  # the non-halting machine froze in front


SCHEDULER_BRANCHES = {
    "1: T1 moved", "1: T1 still",
    "2: none moved", "2: T1 moved", "2: T2 moved", "2: both moved",
    "3: none moved", "3: all moved", "3: some moved",
    "uniform",
}
ZOO_TMS = {m.name: m for m in zoo_tms() + [bouncer()]}
# machine 1 halts on x_1..x_4 at steps 2, 3, 6 and 4, and machine 2 on x_1
# and x_2 at steps 7 and 8, so most of these pairs are seen halted after the
# round they start in; most runs of all six walk past the last cycle open
WALKING_POOL = [random_walking_tm(random.Random(seed)) for seed in (895, 2435, 0, 1, 2, 3)]


def _zoo(*names):
    return [ZOO_TMS[name] for name in names]


def test_scheduler_follows_the_literal_placement_rules():
    taken = set()
    machines = st.one_of(st.sampled_from(sorted(ZOO_TMS)).map(ZOO_TMS.get), full_tms(), walking_tms())

    @settings(max_examples=150, deadline=None)
    @given(st.lists(machines, min_size=1, max_size=6, unique_by=encode_machine), st.integers(0, 16))
    @example(_zoo("halt-now", "looper", "identity", "blocked"), 12)  # 1: T1 moved, 2: T1 moved, 3: some moved
    @example(_zoo("epsilon-only", "halt-now", "looper"), 12)  # 2: T2 moved
    @example(_zoo("halt-now", "eraser", "identity", "looper"), 12)  # 2: both moved, 3: all moved
    @example(_zoo("looper", "blocked", "nonempty-only", "eraser"), 12)  # 1: T1 still, 2 and 3: none moved
    @example(_zoo("bouncer", "identity", "looper"), 40)  # the bouncer's pairs halt from cycle 35
    @example(WALKING_POOL, 40)
    @example(_zoo("halt-now", "looper", "identity", "eraser"), 0)  # no cycle: no row plays
    @example(_zoo("identity", "looper", "halt-now", "eraser", "blocked", "bouncer"), 3)  # rows 4-6 never play
    # 2: T2 moved, so code 3 is never listed; in cycle 3 only machine 3 moves,
    # which no listed code does: 3: none moved
    @example([zoo.blocked(), random_tm(random.Random(10000)), zoo.append_zero()], 3)
    def check(pool, cycles):
        state = dovetail_nontotal(pool, cycles)
        order, halted, last_moved, branches = rerun_dovetail_list(pool, state.codes, cycles)
        assert (state.order, state.halted_pairs, state.last_moved) == (order, halted, last_moved)
        taken.update(branches)

    check()
    assert taken == SCHEDULER_BRANCHES


@pytest.mark.parametrize("pool, cycles", [
    (POOL, 160), (POOL, 4), (POOL, 0), ([bouncer(), zoo.looper(), zoo.identity()], 40),
    ([walker_below_a_halt()], 40),
])
def test_a_dovetail_starts_one_run_per_pair_and_resumes_no_closed_run(pool, cycles, monkeypatch):
    # machine k runs each of x_1..x_c once, to c steps, so a dovetail of
    # c cycles over p machines starts min(p, c) * c runs and resumes none
    started, calls, resumed_closed = [], [], []
    init, run_to = TmRun.__init__, TmRun.run_to

    def counted_init(run, machine, word):
        started.append((run, word))
        init(run, machine, word)

    def watched_run_to(run, fuel):
        calls.append(run)
        if run.in_final or run.stuck or run.period:
            resumed_closed.append(run)
        return run_to(run, fuel)

    monkeypatch.setattr(TmRun, "__init__", counted_init)
    monkeypatch.setattr(TmRun, "run_to", watched_run_to)
    dovetail_nontotal(pool, cycles)
    assert len(started) == min(len(pool), cycles) * cycles
    assert resumed_closed == []
    assert len(calls) == len(set(calls)) == len(started)
    # the emptiness solver reruns x_1, x_2, ... from scratch at each of at
    # most ceil(log8 c) + 1 horizons, one run at a time and by one run_to
    # call each, and its last horizon stops before an input past its
    # answer: the run on x_n itself starts only when no earlier run already
    # gave cycle n
    for machine in pool:
        started.clear()
        calls.clear()
        verdict = emptiness_solver(encode_machine(machine), cycles)
        words = [word for _, word in started]
        firsts = [k for k, word in enumerate(words) if word == ""] + [len(words)]
        horizons = [words[a:b] for a, b in zip(firsts, firsts[1:])]
        assert len(horizons) <= (1 + math.ceil(math.log(cycles, 8)) if cycles else 0)
        for run_words in horizons:
            assert run_words == [nth_word(i) for i in range(1, len(run_words) + 1)]
        if verdict.value == "0":
            assert verdict.stabilized_since - 1 <= len(horizons[-1]) <= verdict.stabilized_since
        elif cycles:
            assert len(horizons[-1]) == cycles
        assert resumed_closed == []
        assert calls == [run for run, _ in started]


def test_an_early_answer_past_an_input_that_never_halts_costs_a_few_steps(monkeypatch):
    # x_1 walks right for ever and x_2 halts at step 1, so the answer is 2
    # however many cycles x_1 could run: only the horizons up to the one
    # that reaches 2 run, and their runs ask for a few steps in all
    fuel, run_to = [], TmRun.run_to

    def counted_run_to(run, steps):
        fuel.append(steps)
        return run_to(run, steps)

    monkeypatch.setattr(TmRun, "run_to", counted_run_to)
    verdict = emptiness_solver(encode_machine(walker_below_a_halt()), 10**6)
    assert (verdict.value, verdict.stabilized_since) == ("0", 2)
    assert sum(fuel) < 100


def test_a_lone_unlisted_mover_in_cycle_3_is_not_placed():
    # T1 halts on x_1 and x_2 but never on x_3 = "1": cycle 2 takes the
    # one-mover exception, which does not list T3, and in cycle 3 only T3
    # moves.  Placing T4 before that unlisted mover used to raise.
    rows = [("q0", (s, BLANK, BLANK), "q0" if s == "1" else "qf", (s, BLANK, BLANK), ("S", "S", "S"))
            for s in ("0", "1", BLANK)]
    not_on_1 = MachineTM("not-on-1", ("q0", "qf"), "q0", frozenset({"qf"}), BINARY,
                         tuple(Transition(*row) for row in rows))
    pool = [not_on_1, zoo.looper(), zoo.halt_now()]
    state = dovetail_nontotal(pool, 6)
    assert state.order == [state.codes[1], state.codes[0]]
    assert state.last_moved == {state.codes[0]: 2}


def test_a_machine_listed_twice_counts_once_in_cycle_3():
    # identity is machines 1 and 2, so two of cycle 3's movers share one
    # listed code; the looper did not move, so not all listed codes did
    pool = [zoo.identity(), zoo.identity(), zoo.looper(), zoo.nonempty_only()]
    state = dovetail_nontotal(pool, 3)
    assert state.order == [state.codes[2], state.codes[3], state.codes[0]]


def test_a_schedule_of_no_cycles_reports_an_empty_list():
    report = dovetail_nontotal(POOL, 0).report()
    assert report == {"cycle": 0, "list": [], "halted_pairs": [], "stable_prefix_estimate": []}


@settings(max_examples=20, deadline=None)
@given(st.integers(max_value=-1))
@example(-1)
def test_the_scheduler_rejects_a_negative_cycle_count(cycles):
    # a report at a negative budget would name a cycle that never ran
    with pytest.raises(ValueError, match="cycles must be at least 0"):
        dovetail_nontotal(POOL, cycles)


def test_acceptance_pool_stable_prefix_is_exactly_the_non_total_codes():
    state = dovetail_nontotal(POOL, 64)
    prefix = state.stable_prefix_estimate()
    assert [NAMES[c] for c in prefix] == ["looper", "nonempty-only", "epsilon-only"]
    assert len(state.order) == 6


def test_machines_halting_on_all_probes_never_sit_in_the_stable_prefix():
    state = dovetail_nontotal(POOL, 48)
    prefix = set(state.stable_prefix_estimate())
    for name, code in zip(state.pool_names, state.codes):
        if zoo.pool_total(name):
            assert code not in prefix


def test_statically_nonhalting_machine_never_moves():
    assert never_halts_by_inspection(zoo.looper())
    looper_code = encode_machine(zoo.looper())
    for cycles in (8, 16, 64):
        state = dovetail_nontotal(POOL, cycles)
        assert state.order[0] == looper_code
        assert looper_code not in state.last_moved


def test_enumeration_report_schema():
    report = dovetail_nontotal(POOL, 8).report()
    assert list(report) == ["cycle", "list", "halted_pairs", "stable_prefix_estimate"]
    assert report["cycle"] == 8
    assert all(isinstance(pair, tuple) and len(pair) == 2 for pair in report["halted_pairs"])


# ---------------------------------------------------------------------------
# totality


def test_totality_matches_ground_truth_at_budget_64():
    for i, name in enumerate(m.name for m in POOL):
        v = totality_verdict(POOL, i, 64)
        expected = "1" if zoo.pool_total(name) else "0"
        assert v.value == expected, name
        if expected == "0":
            assert v.halted


def test_totality_converges_by_some_budget_per_machine():
    budgets = [16, 32, 48, 64]
    for i, name in enumerate(m.name for m in POOL):
        expected = "1" if zoo.pool_total(name) else "0"
        verdicts = [totality_verdict(POOL, i, b).value for b in budgets]
        settled = [b for b, v in zip(budgets, verdicts) if v == expected]
        assert settled and settled[-1] == 64
        first = settled[0]
        assert all(v == expected for b, v in zip(budgets, verdicts) if b >= first), name


def test_totality_with_zero_budget_reports_nothing():
    v = totality_verdict(POOL, 0, 0)
    assert v.value is None and v.stabilized_since is None


@settings(max_examples=20, deadline=None)
@given(st.integers(0, len(POOL) - 1), st.integers(max_value=-1))
@example(0, -1)
def test_totality_rejects_a_negative_cycle_count(machine_index, cycles):
    with pytest.raises(ValueError, match="cycles must be at least 0"):
        totality_verdict(POOL, machine_index, cycles)


def test_totality_index_out_of_range():
    with pytest.raises(IndexError):
        totality_verdict(POOL, 17, 8)


# ---------------------------------------------------------------------------
# range enumerator and totalizer


def test_totalizer_of_a_total_machine_halts_on_probes():
    m = build_totalizer(encode_machine(zoo.identity()))
    for n in range(1, 9):
        assert run_fueled(m, nth_word(n), 10_000).halted


def test_totalizer_diverges_past_the_first_diverging_input():
    m = build_totalizer(encode_machine(zoo.epsilon_only()))
    assert run_fueled(m, nth_word(1), 10_000).halted
    for n in (2, 3):
        assert run_fueled(m, nth_word(n), 10_000).kind == "out-of-fuel"


def test_totalizer_outputs_the_last_value():
    m = build_totalizer(encode_machine(zoo.identity()))
    out = run_fueled(m, nth_word(4), 10_000)
    assert out.halted and out.output == nth_word(4)


def test_totalizer_runs_out_of_fuel_when_earlier_inputs_spend_exactly_all_of_it():
    # identity halts on x_1 = ε after 1 step and on x_2 = 0 after 2
    m = build_totalizer(encode_machine(zoo.identity()))
    assert run_fueled(m, "0", 1) == RunOutcome.of_fuel(1)
    assert run_fueled(m, "0", 3) == RunOutcome.of_halt("0", 3)


def test_range_enumerator_of_empty_range_diverges():
    m = build_range_enumerator(encode_machine(zoo.looper()))
    for n in (1, 2):
        assert run_fueled(m, nth_word(n), 4000).kind == "out-of-fuel"


def test_range_enumerator_emits_distinct_range_elements():
    m = build_range_enumerator(encode_machine(zoo.identity()))
    seen = []
    for n in range(1, 5):
        out = run_fueled(m, nth_word(n), 200_000)
        assert out.halted
        seen.append(out.output)
    assert len(set(seen)) == 4


def test_range_enumerator_of_constant_machine_stops_after_one_value():
    m = build_range_enumerator(encode_machine(zoo.const_zero()))
    first = run_fueled(m, nth_word(1), 100_000)
    assert first.halted and first.output == "0"
    assert run_fueled(m, nth_word(2), 100_000).kind == "out-of-fuel"


def test_range_enumerator_charges_a_round_at_once():
    # about 14,000 rounds of up to 14,000 stopped pairs each: a charge per
    # pair would take over ten seconds, a charge per round about 0.2 s
    m = build_range_enumerator(encode_machine(zoo.const_zero()))
    start = time.perf_counter()
    out = m.run(nth_word(2), 10**8)
    assert (out.kind, out.steps) == ("out-of-fuel", 10**8)
    assert time.perf_counter() - start < 3.0


def test_pool_equivalence_totalizer_halts_iff_base_halts_on_prefix():
    for machine in POOL:
        m = build_totalizer(encode_machine(machine))
        for k in range(1, 6):
            base_all_halt = all(zoo.pool_halts(machine.name, nth_word(i)) for i in range(1, k + 1))
            assert run_fueled(m, nth_word(k), 20_000).halted == base_all_halt, machine.name


# ---------------------------------------------------------------------------
# the output-change reduction


def test_reduction_of_alternator_is_total_on_probes():
    t = build_reduction_tm(encode_machine(zoo.alternator()), "")
    for n in range(1, 9):
        assert run_fueled(t, nth_word(n), 10_000).halted


def test_reduction_of_writer_halts_only_on_the_first_probe():
    t = build_reduction_tm(encode_machine(zoo.writer()), "")
    first = run_fueled(t, nth_word(1), 10_000)
    assert first.halted and first.output == ""  # the value before the change
    for n in (2, 3, 8):
        assert run_fueled(t, nth_word(n), 10_000).kind == "out-of-fuel"


def test_reduction_of_silent_machine_diverges_everywhere():
    t = build_reduction_tm(encode_machine(zoo.silent()), "")
    for n in range(1, 9):
        assert run_fueled(t, nth_word(n), 10_000).kind == "out-of-fuel"


def test_reduction_totality_tracks_result_giving():
    horizon = 10_000
    for machine in [zoo.alternator(), zoo.writer(), zoo.silent()]:
        defined = itm_run(machine, "", horizon).gives_result
        t = build_reduction_tm(encode_machine(machine), "")
        total = all(run_fueled(t, nth_word(n), horizon).halted for n in range(1, 9))
        assert total == (not defined), machine.name


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.sampled_from(itm_zoo()), small_itms(),
              st.one_of(st.sampled_from(zoo_tms()), small_tms()).map(TmAsItm)),
    st.text("01", max_size=1),
    st.integers(1, 6),
    st.integers(0, 120),
)
def test_reduction_equals_a_per_step_replay(machine, x, n, fuel):
    if isinstance(machine, TmAsItm):
        log = stepwise_change_log(machine.tm, x, fuel)[0]
    else:
        assume(start_if_fits(machine, x) is not None)
        ref = PlainItm(machine, x)
        while len(ref.change_log) - 1 < n and ref.steps < fuel and ref.step():
            pass
        log = ref.change_log
    if len(log) - 1 < n:
        expected = RunOutcome.of_fuel(fuel)
    else:
        expected = RunOutcome.of_halt(log[n - 1][1], log[n][0])
    assert ReductionTM(machine, x).run(nth_word(n), fuel) == expected


TM_CODE = encode_machine(zoo.identity())
ITM_CODE = encode_machine(zoo.writer())
PIPELINE_CODE = encode_machine(build_diagonal(SimDecider()))


@pytest.mark.parametrize("construct, wrong_codes", [
    (lambda code: halting_itm(code, "", 100), [ITM_CODE, PIPELINE_CODE]),
    (lambda code: emptiness_solver(code, 4), [ITM_CODE, PIPELINE_CODE]),
    (build_range_enumerator, [ITM_CODE, PIPELINE_CODE]),
    (build_totalizer, [ITM_CODE, PIPELINE_CODE]),
    (lambda code: build_reduction_tm(code, ""), [TM_CODE]),
], ids=["halting_itm", "emptiness_solver", "build_range_enumerator", "build_totalizer",
        "build_reduction_tm"])
def test_constructions_reject_a_code_of_the_wrong_kind(construct, wrong_codes):
    for code in wrong_codes:
        with pytest.raises(InvalidCodeError, match="does not take a"):
            construct(code)


def test_reduction_takes_inductive_and_pipeline_codes():
    assert isinstance(build_reduction_tm(ITM_CODE, "").machine, MachineITM)
    reduction = build_reduction_tm(PIPELINE_CODE, TM_CODE)
    assert isinstance(reduction.machine, DiagonalPipeline)
    assert reduction.run(nth_word(3), 1000) == RunOutcome.of_halt("0", 3)


# ---------------------------------------------------------------------------
# diagonalization


@pytest.mark.parametrize(
    "decider", [zoo.decider_yes(), zoo.decider_no(), SimDecider()],
    ids=["yes", "no", "sim"],
)
def test_diagonal_contradicts_every_shipped_decider(decider):
    report = diagonal_experiment(decider, 4000)
    assert report.decider_verdict in ("0", "1")
    assert report.contradiction
    # the decider stage replays the decider's own run on the program pair,
    # one step per step once the checker has copied the code
    latency = 3 * len(report.code) + 2
    alone = decider.start_run(sd(report.code) + report.code).run_to(4000 - latency)
    assert report.stage_histories["decider"] == [(0, "")] + [
        (latency + s, v) for s, v in alone.change_log[1:]]


def test_diagonal_trace_reports_all_three_stages():
    report = diagonal_experiment(zoo.decider_no(), 2000)
    assert set(report.stage_histories) == {"checker", "decider", "filter"}
    assert report.stage_histories["checker"], "the checker must emit the program pair"


def test_diagonal_on_garbage_input_gives_no_result():
    pipeline = build_diagonal(zoo.decider_no())
    out = itm_run(pipeline, "11", 500)
    assert out.kind == "halted-nonfinal"


# sha256 of the report's repr, recorded from a pipeline that re-read its
# decider's whole register on every step; 458 is the checker's latency, the
# step the decider starts
_GROWER_REPORTS = {
    1: "c7f43079bf5c1ab9", 457: "9d5fbd26c2d55018", 458: "59b1eea602f27be9", 459: "f1eadf180d4ff938",
    460: "78b7f21115bf6b0e", 461: "0e3db76af63e7d89", 1000: "0f1598000caf9d5c", 2501: "5dc9aad9e2d71d9f",
}


@pytest.mark.parametrize("horizon", sorted(_GROWER_REPORTS))
def test_the_diagonal_report_of_a_growing_decider_is_pinned(horizon):
    report = diagonal_experiment(any_input_grower(), horizon)
    assert hashlib.sha256(repr(report).encode()).hexdigest()[:16] == _GROWER_REPORTS[horizon]


def test_the_pipeline_reads_each_change_of_its_decider_once(monkeypatch):
    # the decider changes its register on every step: a pipeline that read
    # the whole register on each step would cost time quadratic in the horizon
    reads, located = [], []
    register_after, locate = InductiveRun.register_after, EventLog.locate
    monkeypatch.setattr(InductiveRun, "register_after", lambda run, k: reads.append(k) or register_after(run, k))
    monkeypatch.setattr(EventLog, "locate", lambda log, n: located.append(n) or locate(log, n))
    pipeline = build_diagonal(any_input_grower())
    run = pipeline.start_run(encode_machine(pipeline)).run_to(3000)
    changes = run._d_run.change_count
    assert changes > 2000
    assert len(reads) <= changes + 1
    assert located == list(range(changes))


_SIM_WORDS = st.one_of(
    st.builds(lambda m, x: sd(encode_machine(m)) + x,
              st.sampled_from(zoo_tms() + itm_zoo()), st.text("01", max_size=4)),
    st.text("01", max_size=40),  # mostly malformed pairs or undecodable codes
)


@settings(max_examples=200, deadline=None)
@given(_SIM_WORDS, st.lists(st.integers(1, 200), min_size=1, max_size=6))
def test_sim_decider_run_to_equals_the_reference_at_every_chunk_boundary(word, horizons):
    run, ref = SimDecider().start_run(word), PlainSimDecider(word)
    for horizon in horizons:
        run.run_to(horizon)
        while ref.steps < horizon:
            ref.step()
        assert (run.change_log, run.steps) == (ref.change_log, ref.steps)


@settings(max_examples=200, deadline=None)
@given(_SIM_WORDS, st.integers(0, 300))
def test_sim_decider_register_after_every_change_equals_the_reference(word, horizon):
    # past step 64 the run repeats with no write, its verdict logged once
    ref = PlainSimDecider(word)
    while ref.steps < horizon:
        ref.step()
    assert_register_reads(SimDecider().start_run(word).run_to(horizon), ref.change_log)


# the alternator's explicit input register has one cell, too few for any
# program pair, so its diagonal machine starts a decider that cannot run
ALTERNATOR_DIAGONAL = encode_machine(build_diagonal(zoo.alternator()))


def test_a_decider_that_cannot_hold_the_program_pair_claims_nothing():
    x = encode_machine(zoo.halt_now())
    out = itm_universal_apply(ALTERNATOR_DIAGONAL, x, 500)
    assert out.kind == "unstable"
    budget = Budget(max_len=400, fuel=500, horizon=500)
    assert itm1_class().produce(sd(ALTERNATOR_DIAGONAL) + x, budget) is None
    run = build_diagonal(zoo.alternator()).start_run(x).run_to(500)
    assert run.d_events == [(0, "")]


def test_the_diagonal_experiment_takes_a_decider_that_cannot_hold_the_pair_as_claiming_nothing():
    # the experiment's standalone claim agrees with the pipeline's decider stage
    report = diagonal_experiment(zoo.alternator(), 500)
    assert report.decider_verdict is None
    assert not report.contradiction
    assert report.stage_histories["decider"] == [(0, "")]
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        diagonal_experiment(zoo.alternator(), 0)


_DECIDERS = [zoo.writer(), zoo.alternator(), zoo.silent(), zoo.decider_yes(), zoo.decider_no(),
             SimDecider()]
_INPUTS = [encode_machine(m) for m in zoo_tms() + [zoo.writer(), zoo.alternator()]] + [
    ALTERNATOR_DIAGONAL, "", "0", "11", "0110"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_DECIDERS), st.sampled_from(_INPUTS), st.integers(1, 1200))
def test_diagonal_machines_never_raise(decider, word, horizon):
    code = encode_machine(build_diagonal(decider))
    out = itm_universal_apply(code, word, horizon)
    assert out.kind in ("stabilized", "unstable", "halted-nonfinal")


# ---------------------------------------------------------------------------
# order table


def test_order_values():
    expected = {"HP": 1, "AP": 1, "TP": 2, "IfP": 2, "EmP": 1, "LEmP": 1}
    for name, order in expected.items():
        assert order_lookup(name).order == order
    assert order_lookup("RPI_1").order == 2
    assert order_lookup("RPI_3").order == 4


def test_order_rows_carry_sources():
    for row in order_rows():
        assert row.source


def test_order_lookup_unknown_name():
    with pytest.raises(KeyError):
        order_lookup("XYZ")
    with pytest.raises(KeyError):
        order_lookup("RPI_0")
    with pytest.raises(KeyError):
        order_lookup("RPI_x")
    # one numeral per row: no leading zero, no digit outside ASCII
    with pytest.raises(KeyError):
        order_lookup("RPI_01")
    with pytest.raises(KeyError):
        order_lookup("RPI_\u0661")


# ---------------------------------------------------------------------------
# limit-list memory


def test_limitlist_connections_follow_the_scheduler():
    # h_j points at d_k where the rerun schedule's final list has T_k
    memory = limitlist_memory()
    order = rerun_dovetail_list(POOL, CODES, 64)[0]
    for j, code in enumerate(order, start=1):
        assert memory.connection(f"h{j}", "m") == f"d{CODES.index(code) + 1}"
    assert memory.connection("h1", "n") == "h2"
    # past the list, the base: no m-connection, and the chain goes on
    past = f"h{len(order) + 1}"
    assert memory.connection(past, "m") is None
    assert memory.connection(past, "n") == f"h{len(order) + 2}"


def test_thm72_memory_equals_the_rerun_schedule():
    # a_k links to the marker exactly when the rerun schedule sees pool
    # machine k+1 give a result within the stock cycles
    memory = thm72_memory()
    for k, machine in enumerate(POOL):
        expected = "c1" if rerun_first_result_cycle(machine, 64) is not None else None
        assert memory.connection(f"a{k}", "p") == expected, machine.name
    assert memory.connection(f"a{len(POOL)}", "p") is None


def test_stock_memories_are_built_once_per_process():
    # walking the ITM code grammar to 30 bits decodes thm72 and limitlist
    # prefixes over a dozen times
    codes_up_to(30, KIND_ITM)
    assert builtin_memory("thm72") is builtin_memory("thm72") is thm72_memory()
    assert builtin_memory("limitlist") is limitlist_memory()
    assert thm72_memory.cache_info().misses <= 1
    assert limitlist_memory.cache_info().misses <= 1
