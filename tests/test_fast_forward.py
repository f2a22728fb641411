"""Runs that repeat their configuration skip whole periods; everything they
report must equal plain stepping, at budgets before, at and after the point
where the repetition starts, whether reached in one call or in resumed
chunks.

The references are the one-step-at-a-time steppers of ``oracles.py``.  The
cycle start and period they are checked around come from a dict of every
configuration the plain stepper went through, written here, so the
oracles stay plain steppers.
"""

from hypothesis import assume, example, given, settings, strategies as st

from minprog import zoo
from minprog.inductive import TmAsItm, start_if_fits
from minprog.turing import FIRST_SNAPSHOT, EventLog, MachineTM, Transition
from minprog.words import BINARY, BLANK

from helpers import assert_register_reads, configuration
from oracles import PlainItm, PlainTm, stepper_repeat, stepwise_change_log
from strategies import full_tms, grower, itm_zoo, small_itms, small_tms, zoo_tms

# plain steps checked per example: the snapshots at steps 16, 32, 64 and
# 128 catch the short cycles of the small machines well before it
REACH = 160


def flipper():
    """Flips its one output cell 0 -> 1 -> 0 ... forever, never moving."""
    rows = (
        Transition("q0", (BLANK, BLANK, BLANK), "q0", (BLANK, BLANK, "0"), ("S", "S", "S")),
        Transition("q0", (BLANK, BLANK, "0"), "q0", (BLANK, BLANK, "1"), ("S", "S", "S")),
        Transition("q0", (BLANK, BLANK, "1"), "q0", (BLANK, BLANK, "0"), ("S", "S", "S")),
    )
    return MachineTM("flipper", ("q0",), "q0", frozenset(), BINARY, rows)


def shuttle():
    """Skips the 1s its input starts with, then walks its work head along
    with its input head over the 0s after them and back, turning at the
    blank past the end and at the last 1, forever, writing nothing."""
    rows = [
        Transition("A", ("1", BLANK, BLANK), "A", ("1", BLANK, BLANK), ("R", "S", "S")),
        Transition("A", ("0", BLANK, BLANK), "R", ("0", BLANK, BLANK), ("R", "R", "S")),
        Transition("R", ("0", BLANK, BLANK), "R", ("0", BLANK, BLANK), ("R", "R", "S")),
        Transition("R", (BLANK, BLANK, BLANK), "L", (BLANK, BLANK, BLANK), ("L", "L", "S")),
        Transition("L", ("0", BLANK, BLANK), "L", ("0", BLANK, BLANK), ("L", "L", "S")),
        Transition("L", ("1", BLANK, BLANK), "R", ("1", BLANK, BLANK), ("R", "R", "S")),
    ]
    return MachineTM("shuttle", ("A", "R", "L"), "A", frozenset(), BINARY, tuple(rows))


def plain_tm_views(machine, word, reach):
    """Per step count t up to ``reach``: what the plain stepper shows after
    t steps, or where it stopped, and the cycle (start, period) of its
    configurations, if they repeat within ``reach`` steps."""
    ref = PlainTm(machine, word)
    views, seen, cycle = [], {}, None
    for t in range(reach + 1):
        if t:
            ref.step()
        config = ref.configuration()
        views.append((ref.steps, ref.in_final, ref.stuck, config, ref.output_changes))
        if cycle is None and not (ref.in_final or ref.stuck):
            if config in seen:
                cycle = (seen[config], ref.steps - seen[config])
            seen.setdefault(config, ref.steps)
    return views, cycle


def plain_itm_views(machine, word, reach):
    """As :func:`plain_tm_views`, for an inductive machine; the change log
    at step count t is the prefix of the last one up to t."""
    ref = PlainItm(machine, word)
    views, seen, cycle = [], {}, None
    for t in range(reach + 1):
        if t:
            ref.step()
        views.append((ref.steps, ref.final, ref.stuck, ref.head, ref.state, dict(ref.contents)))
        config = (ref.state, ref.head, frozenset(ref.contents.items()))
        if cycle is None and not (ref.final or ref.stuck):
            if config in seen:
                cycle = (seen[config], ref.steps - seen[config])
            seen.setdefault(config, ref.steps)
    return views, ref.change_log, cycle


def budgets_around(cycle, data, reach):
    """Budgets on both sides of the cycle's start and of its first repeat,
    and a few anywhere up to ``reach``."""
    drawn = data.draw(st.lists(st.integers(0, reach), min_size=1, max_size=4))
    if cycle is None:
        return drawn
    start, period = cycle
    near = [start + d for d in (-1, 0, 1)] + [start + period + d for d in (-1, 0, 1)]
    return [b for b in near if 0 <= b <= reach] + drawn


def chunks_to(reach, data):
    """Cumulative budgets of resumed chunks, some of one step, up to ``reach``."""
    total, budgets = 0, []
    for chunk in data.draw(st.lists(st.integers(0, 40), max_size=12)):
        total = min(reach, total + chunk)
        budgets.append(total)
    return budgets


def prefix(log, steps):
    return [entry for entry in log if entry[0] <= steps]


def assert_tm_matches(views, log, repeat, run, watched, budget):
    steps, final, stuck, config, changes = views[budget]
    assert (run.steps, run.in_final, run.stuck) == (steps, final, stuck)
    assert configuration(run) == config
    found = repeat is not None and budget >= sum(repeat)
    assert (run.period, run.write_log.repeat and run.write_log.repeat[:2]) == (
        (repeat[1], repeat) if found else (0, None))
    assert run.write_log.count(run.steps) == changes
    expected = prefix(log, steps)
    assert (watched.steps, watched.stopped_final, watched.stopped_stuck) == (steps, final, stuck)
    # read before the change log, which is built only on demand
    assert (watched.output_word(), watched.change_count, watched.last_change_step) == (
        expected[-1][1], len(expected) - 1, expected[-1][0])
    assert watched.change_log == expected


def check_tm(machine, word, data, reach=REACH):
    views, cycle = plain_tm_views(machine, word, reach)
    stops = views[-1][1] or views[-1][2]
    repeat = None if stops else stepper_repeat([view[3] for view in views], FIRST_SNAPSHOT)
    log = stepwise_change_log(machine, word, reach)[0]
    for budget in budgets_around(cycle, data, reach):
        run = machine.start_run(word)
        run.write_log = EventLog()
        run.run_to(budget)
        watched = TmAsItm(machine).start_run(word).run_to(budget)
        assert_tm_matches(views, log, repeat, run, watched, budget)
    run, watched = machine.start_run(word), TmAsItm(machine).start_run(word)
    run.write_log = EventLog()
    for budget in chunks_to(reach, data):
        run.run_to(budget)
        watched.run_to(budget)
        assert_tm_matches(views, log, repeat, run, watched, budget)
    return cycle


def assert_itm_matches(views, log, run, budget):
    steps, final, stuck, head, state, contents = views[budget]
    assert (run.steps, run.stopped_final, run.stopped_stuck) == (steps, final, stuck)
    assert (run.head, run.state, run.contents) == (head, state, contents)
    expected = prefix(log, steps)
    assert (run.output_word(), run.change_count, run.last_change_step) == (
        expected[-1][1], len(expected) - 1, expected[-1][0])
    assert run.change_log == expected


def check_itm(machine, word, data, reach=REACH):
    views, log, cycle = plain_itm_views(machine, word, reach)
    for budget in budgets_around(cycle, data, reach):
        assert_itm_matches(views, log, machine.start_run(word).run_to(budget), budget)
    run = machine.start_run(word)
    for budget in chunks_to(reach, data):
        assert_itm_matches(views, log, run.run_to(budget), budget)
    return cycle


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_tms(), full_tms()), st.text("01", max_size=4), st.data())
def test_tm_fast_forward_equals_plain_stepping(machine, word, data):
    check_tm(machine, word, data)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(itm_zoo()), small_itms()), st.text("01", max_size=2), st.data())
def test_itm_fast_forward_equals_plain_stepping(machine, word, data):
    assume(start_if_fits(machine, word) is not None)
    check_itm(machine, word, data)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_looper_and_flipper_skip_periods_exactly(data):
    assert check_tm(zoo.looper(), "01", data, reach=600) == (0, 1)
    assert check_tm(flipper(), "", data, reach=600) == (1, 2)
    # the flipper changes its output cell on every step
    watched = TmAsItm(flipper()).start_run("").run_to(10**6)
    assert (watched.change_count, watched.last_change_step, watched.output_word()) == (
        10**6, 10**6, "1")


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_zoo_itms_skip_periods_exactly(data):
    assert check_itm(zoo.alternator(), "", data, reach=600) == (1, 2)
    assert check_itm(zoo.writer(), "0110", data, reach=600) == (3, 1)
    assert check_itm(zoo.silent(), "1", data, reach=600) == (0, 1)
    # the alternator changes its register on every step, the writer once
    run = zoo.alternator().start_run("").run_to(10**6)
    assert (run.change_count, run.last_change_step, run.output_word()) == (10**6, 10**6, "0")
    assert zoo.alternator().start_run("").run_to(10**4).change_log == [(0, "")] + [
        (t, "1" if t % 2 else "0") for t in range(1, 10**4 + 1)]
    run = zoo.writer().start_run("").run_to(10**6)
    assert (run.change_count, run.last_change_step, run.output_word()) == (1, 3, "1")


# horizons up to 600 run past the snapshots at steps 16 to 512, so a
# repeating run's changes outrun its logged writes


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(itm_zoo()), small_itms()), st.text("01", max_size=2), st.integers(0, 600))
@example(zoo.alternator(), "", 10**4)
@example(grower(), "", 600)
def test_register_after_every_change_equals_the_reference_stepper(machine, word, horizon):
    run = start_if_fits(machine, word)
    assume(run is not None)
    ref = PlainItm(machine, word)
    while ref.steps < horizon and ref.step():
        pass
    assert_register_reads(run.run_to(horizon), ref.change_log)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(zoo_tms()), small_tms()), st.text("01", max_size=4), st.integers(0, 600))
@example(flipper(), "", 10**4)
def test_tm_as_itm_register_after_every_change_equals_the_stepwise_oracle(machine, word, horizon):
    log = stepwise_change_log(machine, word, horizon)[0]
    assert_register_reads(TmAsItm(machine).start_run(word).run_to(horizon), log)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_a_repeat_across_a_widening_is_found_at_its_step(data):
    # on 1 then seven 0s the work head first reads cell -1 at step 17, right
    # after the snapshot at step 16: the work tape and the snapshot's copy
    # widen between that snapshot and its repeat at step 32
    word = "1" + "0" * 7
    configs = plain_tm_views(shuttle(), word, 40)[0]
    assert stepper_repeat([view[3] for view in configs], FIRST_SNAPSHOT) == (16, 16)
    check_tm(shuttle(), word, data, reach=100)
    run = shuttle().start_run(word).run_to(16)
    cells = len(run.tapes[1])
    assert run.run_to(31).period == 0 and len(run.tapes[1]) > cells
    assert run.run_to(32).period == 16


def test_a_stay_step_closes_the_run_at_once():
    # the looper keeps its state and every cell and moves no head: its
    # first step repeats the start configuration
    run = zoo.looper().start_run("01")
    run.write_log = EventLog()
    assert run.run_to(1).period == 1 and run.write_log.repeat == (0, 1, 0)
    assert run.run_to(10**9).steps == 10**9
    # the flipper changes its output cell on every step: no stay step, and
    # the snapshot at step 16 finds its period-2 repeat at step 18
    run = flipper().start_run("").run_to(17)
    assert run.period == 0 and run.run_to(18).period == 2


def test_a_repeating_run_stops_stepping():
    run = zoo.alternator().start_run("")
    run.run_to(10**9)
    assert run.steps == 10**9
    looper = zoo.looper().start_run("0").run_to(10**9)
    assert (looper.steps, looper.period) == (10**9, 1)


def test_a_looping_tm_is_settled_as_its_inductive_twin():
    assert TmAsItm(zoo.looper()).start_run("").run_to(100).settled()
    assert zoo.silent().start_run("").run_to(100).settled()


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(zoo_tms()), small_tms()), st.data(), st.integers(0, 120))
def test_settled_is_a_stop_or_a_period_without_output_writes(machine, data, horizon):
    word = data.draw(st.text("".join(machine.alphabet.symbols), max_size=3))
    run = machine.start_run(word).run_to(horizon)
    log = stepwise_change_log(machine, word, 4 * horizon)[0]
    # a period is at most the steps run, so the log reaches past one more
    quiet = run.period and not any(horizon < t <= horizon + run.period for t, _ in log)
    settled = TmAsItm(machine).start_run(word).run_to(horizon).settled()
    assert settled == bool(run.in_final or run.stuck or quiet)
    if settled:
        assert not any(horizon < t for t, _ in log)


def read_history(run, log_first):
    """The change log, output, change count and last change of ``run``,
    with the full log read first or last."""
    if log_first:
        log = run.change_log
        return log, run.output_word(), run.change_count, run.last_change_step
    latest = run.output_word(), run.change_count, run.last_change_step
    return (run.change_log, *latest)


def test_the_alternator_outruns_its_logged_writes():
    run = zoo.alternator().start_run("").run_to(REACH)
    assert run.change_count > len(run.writes.events)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from([zoo.alternator(), zoo.writer()]), small_itms()),
       st.text("01", max_size=2), st.data())
def test_a_periodic_history_reads_alike_in_either_order(machine, word, data):
    assume(start_if_fits(machine, word) is not None)
    log = plain_itm_views(machine, word, REACH)[1]
    budgets = sorted(data.draw(st.lists(st.integers(REACH // 2, REACH), min_size=1, max_size=3)))
    resumed = machine.start_run(word)
    for i, budget in enumerate(budgets):
        expected = prefix(log, budget)
        history = (expected, expected[-1][1], len(expected) - 1, expected[-1][0])
        for log_first in (False, True):
            assert read_history(machine.start_run(word).run_to(budget), log_first) == history
        # a resumed run reads from what earlier reads cached
        assert read_history(resumed.run_to(budget), i % 2 == 1) == history
