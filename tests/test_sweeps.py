"""A run that takes a sweep over its input at once, or closes at a stay
step, must report what plain stepping reports: steps, state, heads, tapes,
the period of a repeat and the write log with its periodic tail, at every
fuel, whether reached in one call or in resumed chunks.

The reference is the one-step-at-a-time stepper of ``oracles.py``.  Where
the stepper's repeat checks must find a repeat follows from the plain
configurations, the stay rule and the snapshot steps 16, 32, 64, ..., as
``oracles.stepper_repeat`` writes them out, so the oracle stays a plain
stepper.
"""

import random
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from minprog import zoo
from minprog.turing import FIRST_SNAPSHOT, EventLog, MachineTM, TmRun, Transition, run_fueled
from minprog.words import BINARY, BLANK

from helpers import configuration
from oracles import PlainTm, stepper_repeat
from strategies import (TERNARY, append_zero, bouncer, definite_sweep_runs, definite_sweep_tms, stay_tms,
                        sweep_tms, unary_tms, zoo_tms)

# snapshot steps 16 ... 256, and room past the last one for a repeat of it
SNAPSHOTS = [FIRST_SNAPSHOT << k for k in range(5)]
REACH = 2 * SNAPSHOTS[-1] + 8
NEAR_SNAPSHOTS = [mark + d for mark in SNAPSHOTS for d in (-1, 0, 1)]


def ping_pong():
    """Sweeps its input right in state R and walks it back left in state L,
    turning on the blank past either end, forever.  Its input head passes
    the snapshot's cell inside a sweep, so only a sweep that starts past the
    snapshot's input head may skip the repeat check."""
    rows = []
    for s in "01":
        rows.append(Transition("R", (s, BLANK, BLANK), "R", (s, BLANK, BLANK), ("R", "S", "S")))
        rows.append(Transition("L", (s, BLANK, BLANK), "L", (s, BLANK, BLANK), ("L", "S", "S")))
    rows.append(Transition("R", (BLANK, BLANK, BLANK), "L", (BLANK, BLANK, BLANK), ("L", "S", "S")))
    rows.append(Transition("L", (BLANK, BLANK, BLANK), "R", (BLANK, BLANK, BLANK), ("R", "S", "S")))
    return MachineTM("ping-pong", ("R", "L"), "R", frozenset(), BINARY, tuple(rows))


def rewinder():
    """Copies its input to the output tape, walks both heads back to the
    blank left of the input, and copies again from one output cell further
    left, forever.  From the second pass on the output head writes one
    blank cell and then meets the cells it wrote before, which it passes
    without writing: only a sweep that finds every output cell ahead blank
    may copy at once."""
    rows = []
    for s in "01":
        rows.append(Transition("A", (s, BLANK, BLANK), "A", (s, BLANK, s), ("R", "S", "R")))
        for o in (*"01", BLANK):
            if o != BLANK:
                rows.append(Transition("A", (s, BLANK, o), "A", (s, BLANK, o), ("R", "S", "R")))
            rows.append(Transition("B", (s, BLANK, o), "B", (s, BLANK, o), ("L", "S", "L")))
    for o in (*"01", BLANK):
        rows.append(Transition("A", (BLANK, BLANK, o), "B", (BLANK, BLANK, o), ("L", "S", "L")))
        rows.append(Transition("B", (BLANK, BLANK, o), "A", (BLANK, BLANK, o), ("R", "S", "S")))
    return MachineTM("rewinder", ("A", "B"), "A", frozenset(), BINARY, tuple(rows))


def parity_copier():
    """Copies its input, then writes the parity of its 1s and halts.  Its
    sweep is not definite: 0 keeps each of its two states and 1 swaps them."""
    rows = []
    for q, other, parity in (("even", "odd", "0"), ("odd", "even", "1")):
        rows.append(Transition(q, ("0", BLANK, BLANK), q, ("0", BLANK, "0"), ("R", "S", "R")))
        rows.append(Transition(q, ("1", BLANK, BLANK), other, ("1", BLANK, "1"), ("R", "S", "R")))
        rows.append(Transition(q, (BLANK, BLANK, BLANK), "h", (BLANK, BLANK, parity), ("S", "S", "S")))
    return MachineTM("parity-copier", ("even", "odd", "h"), "even", frozenset({"h"}), BINARY, tuple(rows))


def zero_writer():
    """Over the alphabet 012, writes 0 for each 0 and nothing for each 1,
    and halts at a 2 or at the input's end: a definite sweep on S = 01
    that writes on some of its symbols."""
    rows = [
        Transition("q", ("0", BLANK, BLANK), "q", ("0", BLANK, "0"), ("R", "S", "R")),
        Transition("q", ("1", BLANK, BLANK), "q", ("1", BLANK, BLANK), ("R", "S", "S")),
        Transition("q", ("2", BLANK, BLANK), "h", ("2", BLANK, BLANK), ("S", "S", "S")),
        Transition("q", (BLANK, BLANK, BLANK), "h", (BLANK, BLANK, BLANK), ("S", "S", "S")),
    ]
    return MachineTM("zero-writer", ("q", "h"), "q", frozenset({"h"}), TERNARY, tuple(rows))


def fencer():
    """On 0^k 1^j: walks its output head right over one cell per 0 and
    writes a 1 there, at cell k, walks both heads back, then copies its 0s
    to the output and writes nothing for its 1s, a definite sweep, until
    its 1s meet the 1 at cell k, which no row reads: it is stuck there.  A
    sweep that reads only the cells it writes would run on past it."""
    rows = [
        Transition("W", ("0", BLANK, BLANK), "W", ("0", BLANK, BLANK), ("R", "S", "R")),
        Transition("W", ("1", BLANK, BLANK), "W", ("1", BLANK, BLANK), ("R", "S", "S")),
        Transition("W", (BLANK, BLANK, BLANK), "K", (BLANK, BLANK, "1"), ("L", "S", "S")),
        Transition("A", ("0", BLANK, BLANK), "A", ("0", BLANK, "0"), ("R", "S", "R")),
        Transition("A", ("1", BLANK, BLANK), "A", ("1", BLANK, BLANK), ("R", "S", "S")),
        Transition("A", (BLANK, BLANK, BLANK), "h", (BLANK, BLANK, BLANK), ("S", "S", "S")),
    ]
    for o in (BLANK, "1"):
        rows.append(Transition("K", ("0", BLANK, o), "K", ("0", BLANK, o), ("L", "S", "L")))
        rows.append(Transition("K", ("1", BLANK, o), "K", ("1", BLANK, o), ("L", "S", "S")))
        rows.append(Transition("K", (BLANK, BLANK, o), "A", (BLANK, BLANK, o), ("R", "S", "S")))
    return MachineTM("fencer", ("W", "K", "A", "h"), "W", frozenset({"h"}), BINARY, tuple(rows))


def backer():
    """Over the alphabet 012: moves its output head one cell left for each
    leading 2, then copies its 0s and 1s and halts at the input's end.  A
    long run of 2s widens the output tape to the left before any sweep."""
    rows = [Transition("P", ("2", BLANK, BLANK), "P", ("2", BLANK, BLANK), ("R", "S", "L"))]
    for q in "PC":
        for s in "01":
            rows.append(Transition(q, (s, BLANK, BLANK), "C", (s, BLANK, s), ("R", "S", "R")))
        rows.append(Transition(q, (BLANK, BLANK, BLANK), "h", (BLANK, BLANK, BLANK), ("S", "S", "S")))
    return MachineTM("backer", ("P", "C", "h"), "P", frozenset({"h"}), TERNARY, tuple(rows))


def plain_trace(machine, word, reach=REACH):
    """What plain stepping shows after t steps, for t up to ``reach``, as
    (steps, final, stuck, configuration); the output-tape changes as
    (step, position, symbol); and the (start, period) of the repeat the
    stepper's checks find (see ``oracles.stepper_repeat``)."""
    ref = PlainTm(machine, word)
    views, events, configs = [], [], []
    while len(views) <= reach:
        configs.append(ref.configuration())
        views.append((ref.steps, ref.in_final, ref.stuck, configs[-1]))
        pos = ref.heads[2]
        before = ref.tapes[2].get(pos)
        if ref.step() and ref.tapes[2].get(pos) != before:
            events.append((ref.steps, pos, ref.tapes[2][pos]))
    repeat = None if ref.in_final or ref.stuck else stepper_repeat(configs, FIRST_SNAPSHOT)
    return views, events, repeat


def assert_matches(trace, run, fuel, logged):
    views, events, repeat = trace
    steps, final, stuck, config = views[fuel]
    assert (run.steps, run.in_final, run.stuck) == (steps, final, stuck)
    assert configuration(run) == config
    found = repeat is not None and fuel >= sum(repeat)
    assert run.period == (repeat[1] if found else 0)
    if logged:
        until = sum(repeat) if found else fuel
        assert run.write_log.events == [e for e in events if e[0] <= until]
        first = found and sum(1 for e in events if e[0] <= repeat[0])
        assert run.write_log.repeat == ((*repeat, first) if found else None)


def fuels_at(word, drawn):
    """Fuels on both sides of each snapshot step and of the input's length,
    and the ``drawn`` ones, up to the reach."""
    near = NEAR_SNAPSHOTS + [len(word) + d for d in (-1, 0, 1, 2)]
    return sorted({f for f in near + drawn if 0 <= f <= REACH})


def check_sweeps(machine, word, data):
    fuels = fuels_at(word, data.draw(st.lists(st.integers(0, REACH), max_size=3)))
    return check_sweeps_at(machine, word, fuels, data.draw(st.lists(st.sampled_from(fuels), max_size=8)))


def check_sweeps_at(machine, word, fuels, chunks, reach=REACH):
    """Runs to each fuel, plain and logged, and one run resumed through the
    fuels ``chunks`` and one step past the first two of them, each
    matched against plain stepping up to ``reach`` steps."""
    trace = plain_trace(machine, word, reach)
    for logged in (False, True):
        for fuel in fuels:
            run = machine.start_run(word)
            if logged:
                run.write_log = EventLog()
            assert_matches(trace, run.run_to(fuel), fuel, logged)
        run = machine.start_run(word)
        if logged:
            run.write_log = EventLog()
        for fuel in sorted(chunks + [f + 1 for f in chunks[:2] if f < reach]):
            assert_matches(trace, run.run_to(fuel), fuel, logged)
    return trace


def words_for(machine, data):
    symbols = "".join(machine.alphabet.symbols)
    return data.draw(st.one_of(st.text(symbols, max_size=4), st.text(symbols, min_size=10, max_size=300)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(sweep_tms(), definite_sweep_tms()), st.data())
def test_sweeping_equals_plain_stepping(machine, data):
    check_sweeps(machine, words_for(machine, data), data)


# fuels on both sides of each snapshot step, or anywhere up to the reach
_CHUNK_FUELS = st.one_of(st.sampled_from(NEAR_SNAPSHOTS), st.integers(0, REACH))


def every_sweep_is_definite(machine):
    return all(definite is not None for by_state in machine.sweeps.values() for definite in by_state.values())


@settings(max_examples=150, deadline=None)
@given(definite_sweep_runs(), st.lists(st.integers(0, REACH), max_size=3), st.lists(_CHUNK_FUELS, max_size=8))
# the sweep from step 17 reads to the 2 at cell 32: it ends at the snapshot step 32
@example((zero_writer(), "01" * 16 + "2" + "0" * 12), [], [17, 32, 33])
# the sweep from step 33 reads to the input's end at step 50
@example((zero_writer(), "0110" * 12 + "01"), [], [33, 49, 50, 51])
# the sweep from step 33 stops at the 2 at cell 45, short of the snapshot step 64
@example((zero_writer(), "10" * 22 + "1" + "2" + "0" * 30), [], [40, 45, 46, 64])
# the sweeps from steps 17 and 33 write past the output tape's end
@example((zero_writer(), "0" * 60), [], [17, 20, 33, 40])
# the sweep from step 70 writes 24 cells, then its 1s read the 1 after them
@example((fencer(), "0" * 30 + "111"), [], [70, 100])
def test_definite_sweeping_equals_plain_stepping(case, drawn, chunks):
    machine, word = case
    assert every_sweep_is_definite(machine)
    check_sweeps_at(machine, word, fuels_at(word, drawn), chunks)


class Swept(NamedTuple):
    """A sweep a run took: the output tape's origin, where its writes end
    against the right sentinel's index (0: the output head ends on it, 1:
    the last write is one cell past it), the cells it writes and the steps
    it takes."""

    origin: int
    past: int
    writes: int
    taken: int


def sweeps_taken(machine, word, fuel):
    """Each sweep a run to ``fuel`` takes, as :class:`Swept`."""
    swept = []
    run = machine.start_run(word)
    sweep = run._sweep

    def record(state, work, h0, i2, steps, limit, writes):
        sentinel = len(run.tapes[2]) - 1
        after = sweep(state, work, h0, i2, steps, limit, writes)
        if after:
            swept.append(Swept(run.origins[1], after[2] - sentinel, after[2] - i2, after[3] - steps))
        return after

    run._sweep = record
    run.run_to(fuel)
    return swept


# (machine, word, reach, a sweep the run must take): writing sweeps at and
# past the output tape's right end; a last step that writes nothing makes
# the read check cover the cell after the writes
RIGHT_END = {
    "ends-on-the-sentinel": (zero_writer(), "0" * 48, REACH, lambda s: s.past == 0 and s.writes == s.taken),
    "reads-the-sentinel": (zero_writer(), "0" * 48 + "1" * 5, REACH, lambda s: s.past == 0 < s.writes < s.taken),
    "one-past-the-end": (zero_writer(), "0" * 49, REACH, lambda s: s.past == 1 and s.writes == s.taken),
    "one-past-then-reads": (zero_writer(), "0" * 49 + "1" * 5, REACH, lambda s: s.past == 1 and s.writes < s.taken),
    "hundreds-past-the-end": (zero_writer(), "0" * 1030, 2 * 512 + 8, lambda s: s.past >= 400),
    "reads-a-blank-inside": (zero_writer(), "0" * 36 + "1" * 5, REACH, lambda s: s.past < 0 < s.writes < s.taken),
    "after-a-left-widening": (backer(), "2" * 40 + "01" * 60, REACH, lambda s: s.origin > 1 and s.past > 0),
}


@pytest.mark.parametrize("case", RIGHT_END)
def test_sweeps_at_the_output_tapes_right_end_equal_plain_stepping(case):
    machine, word, reach, which = RIGHT_END[case]
    assert any(map(which, sweeps_taken(machine, word, reach))), case
    near = {f for mark in SNAPSHOTS + [512, 1024] for f in (mark - 1, mark, mark + 1)} | {len(word) + 1}
    fuels = sorted(f for f in near if f <= reach)
    check_sweeps_at(machine, word, fuels, [f for f in (17, 33, 65, 513) if f <= reach], reach)


@pytest.mark.parametrize("machine, word, fuel", [
    # the sweep writes 29 cells, then its 1s read the 1 written at cell 30
    (fencer(), "0" * 30 + "111", 69),
    # the output head is back on the cells the first pass wrote
    (rewinder(), "0011011101", 23),
])
def test_a_sweep_its_read_check_rejects_leaves_the_output_tape_as_it_was(machine, word, fuel):
    run = machine.start_run(word).run_to(fuel)
    assert run.steps == fuel and machine.sweeps[BLANK][run.state] is not None and word[run.heads[0]] != BLANK
    t2 = run.tapes[2]
    before = t2[:]
    i2 = run.heads[2] + run.origins[1]
    assert run._sweep(run.state, BLANK, run.heads[0], i2, fuel, fuel + 100, None) is None
    assert run.tapes[2] is t2 and t2 == before and len(t2) == len(before)


def test_a_long_copy_carries_no_widening_slack():
    x = "".join(random.Random(1).choice("01") for _ in range(10_000))
    run = TmRun(zoo.identity(), x).run_to(2 * len(x))
    ref = PlainTm(zoo.identity(), x)
    while ref.step():
        pass
    assert (run.in_final, run.steps, run.output_word()) == (True, len(x) + 1, x)
    assert configuration(run) == ref.configuration()
    # a doubling tape would hold 19,456 slots here
    assert len(run.tapes[2]) <= len(x) + 18


@settings(max_examples=150, deadline=None)
@given(stay_tms(), st.data())
def test_closing_at_a_stay_step_equals_plain_stepping(machine, data):
    check_sweeps(machine, words_for(machine, data), data)


STOCK_TMS = zoo_tms() + unary_tms() + [bouncer(), ping_pong(), rewinder()]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(STOCK_TMS), st.data())
def test_sweeping_stock_machines_equals_plain_stepping(machine, data):
    check_sweeps(machine, words_for(machine, data), data)


def thue_morse(alphabet, length):
    """The first ``length`` symbols of the Thue-Morse word, its digits taken
    modulo the alphabet's size: runs of one or two equal symbols, so a
    sweep rarely ends on the symbol it started on."""
    symbols = alphabet.symbols
    return "".join(symbols[bin(i).count("1") % 2 % len(symbols)] for i in range(length))


@pytest.mark.parametrize("machine", STOCK_TMS, ids=lambda m: m.name)
def test_sweeping_a_long_word_equals_plain_stepping(machine):
    # 45 symbols: a sweep from the input's start can run past the snapshot
    # steps 16 and 32, and one from step 33 reaches the input's end
    word = thue_morse(machine.alphabet, 45)
    check_sweeps_at(machine, word, fuels_at(word, []), [17, 32, 33, 64])


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_a_sweep_never_skips_the_check_it_passes(data):
    # the input head passes the snapshot's cell inside a sweep from the left
    # on its way to the repeat found at step 32 + 22
    _, _, repeat = check_sweeps(ping_pong(), "0110100111", data)
    assert repeat == (32, 22)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_a_sweep_never_writes_over_written_cells(data):
    # from its second pass on the rewinder writes one cell, left of the
    # cells it wrote before, which lie ahead of its output head
    _, events, repeat = check_sweeps(rewinder(), "0011011101", data)
    assert repeat is None and events[9:12] == [(10, 9, "1"), (23, -1, "0"), (45, -2, "0")]


def test_a_sweep_writes_the_output_and_the_log_in_bulk():
    word = "0110" * 2500
    run = zoo.identity().start_run(word)
    run.write_log = EventLog()
    run.run_to(10**6)
    assert (run.steps, run.in_final, run.output_word()) == (len(word) + 1, True, word)
    assert run.write_log.events == [(i + 1, i, s) for i, s in enumerate(word)]
    # so does a copy over the one-symbol alphabet
    assert unary_tms()[0].start_run("0" * 500).run_to(10**6).output_word() == "0" * 500


def test_the_sweep_rows_are_read_off_the_table():
    # every symbol sends each state to the state that remembers it, writing
    # nothing; the final state qf has no sweep step
    definite = ("", {"0": "c0", "1": "c1"}, {ord("0"): None, ord("1"): None})
    assert zoo.last_symbol().sweeps == {BLANK: {"q0": definite, "c0": definite, "c1": definite}}
    # const-zero writes and stays: no sweep step
    assert zoo.const_zero().sweeps == {}


def test_the_stock_sweeps_are_definite():
    for machine in (zoo.identity(), zoo.last_symbol(), append_zero(), ping_pong(), rewinder()):
        assert every_sweep_is_definite(machine), machine.name
    assert zoo.identity().sweeps[BLANK]["q0"] == ("", {"0": "q0", "1": "q0"}, {ord("0"): "0", ord("1"): "1"})
    assert zero_writer().sweeps[BLANK]["q"] == ("2", {"0": "q", "1": "q"}, {ord("0"): "0", ord("1"): None})


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_a_sweep_that_is_not_definite_equals_plain_stepping(data):
    machine = parity_copier()
    assert machine.sweeps == {BLANK: {"even": None, "odd": None}}
    word = data.draw(st.text("01", min_size=10, max_size=300))
    check_sweeps(machine, word, data)
    outcome = run_fueled(machine, word, 10**6)
    assert (outcome.output, outcome.steps) == (word + str(word.count("1") % 2), len(word) + 1)


def test_one_step_resumes_take_no_sweep():
    # a sweep needs SWEEP_MIN steps ahead of it before the fuel: a run
    # resumed one step at a time never reads the machine's sweeps
    m = zoo.identity()
    machine = MachineTM(m.name, m.states, m.start, m.finals, m.alphabet, m.transitions)
    run = machine.start_run("01" * 100)
    for fuel in range(1, 161):
        assert run.run_to(fuel).steps == fuel
    assert "sweeps" not in vars(machine)
    assert run.run_to(190).steps == 190 and "sweeps" in vars(machine)
