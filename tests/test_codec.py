import hashlib
import itertools
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from minprog.codec import (
    KIND_ITM,
    KIND_PIPELINE,
    KIND_TM,
    InvalidCodeError,
    TruncatedCodeError,
    canonical_state_order,
    codes_up_to,
    decode_machine,
    encode_machine,
)
from minprog.turing import MachineTM, Transition, TmRun, run_fueled
from minprog.inductive import ExplicitMemory, MachineITM, Rule, itm_run
from minprog.machinefile import serialize_machine
from minprog.words import BINARY, BLANK, InvalidWordError, words_up_to
from minprog import codec, zoo

from helpers import canonicalize_tm, configuration, shipped, step
from strategies import append_zero, blocked, full_tms, halt_now, itm_zoo, small_itms, small_tms, zoo_tms


def _behaviorally_equal(a, b, inputs, fuel=500):
    for w in inputs:
        ra, rb = TmRun(a, w), TmRun(b, w)
        while True:
            assert configuration(ra) == configuration(rb)
            if ra.in_final or ra.stuck or ra.steps >= fuel:
                assert (ra.in_final, ra.stuck) == (rb.in_final, rb.stuck)
                break
            step(ra), step(rb)
    return True


def test_roundtrip_preserves_step_by_step_behavior():
    for machine in zoo.acceptance_pool() + [blocked(), halt_now(), append_zero()]:
        back = decode_machine(encode_machine(machine))
        assert isinstance(back, MachineTM)
        assert _behaviorally_equal(canonicalize_tm(machine), back, list(words_up_to(4)))


def test_roundtrip_identity_on_short_inputs():
    back = decode_machine(encode_machine(zoo.identity()))
    for w in words_up_to(4):
        assert run_fueled(back, w, 100).output == w


def test_encode_is_stable_and_distinct():
    assert encode_machine(zoo.identity()) == encode_machine(zoo.identity())
    assert encode_machine(zoo.identity()) != encode_machine(zoo.looper())


def _variant_machines():
    """A generated family of distinct canonical machines."""
    out = []
    for write in ("0", "1", BLANK):
        for move in ("L", "R", "S"):
            for final in (True, False):
                trans = (
                    Transition("a", (BLANK, BLANK, BLANK), "b", (BLANK, BLANK, write), ("S", "S", move)),
                )
                out.append(
                    MachineTM(
                        f"v-{write}{move}{final}",
                        ("a", "b"),
                        "a",
                        frozenset(["b"] if final else []),
                        BINARY,
                        trans,
                    )
                )
    return out


def test_encode_injective_across_generated_set():
    machines = _variant_machines() + zoo.acceptance_pool()
    codes = [encode_machine(m) for m in machines]
    assert len(set(codes)) == len(codes)


def test_decode_rejects_off_image_words():
    # the spec of the parse: "11" is a reserved block, never emitted
    with pytest.raises(InvalidCodeError):
        decode_machine("11")
    for junk in ["", "0", "1", "10", "0101", "0000000000", "01" * 30]:
        with pytest.raises(InvalidCodeError):
            decode_machine(junk)


def test_decode_rejects_truncations_and_extensions():
    code = encode_machine(zoo.identity())
    with pytest.raises(InvalidCodeError):
        decode_machine(code[:-2])
    with pytest.raises(InvalidCodeError):
        decode_machine(code + "00")


def test_canonicalize_renames_in_first_use_order():
    # same machine written with scrambled state names encodes identically
    rows = [
        ("zz", ("0", BLANK, BLANK), "zz", ("0", BLANK, "0"), ("R", "S", "R")),
        ("zz", ("1", BLANK, BLANK), "zz", ("1", BLANK, "1"), ("R", "S", "R")),
        ("zz", (BLANK, BLANK, BLANK), "aa", (BLANK, BLANK, BLANK), ("S", "S", "S")),
    ]
    scrambled = MachineTM(
        "scrambled",
        ("aa", "zz"),
        "zz",
        frozenset(["aa"]),
        BINARY,
        tuple(Transition(*r) for r in rows),
    )
    assert encode_machine(scrambled) == encode_machine(zoo.identity())


def test_itm_codes_roundtrip():
    for machine in [shipped("writer.itm"), shipped("alternator.itm"), shipped("silent.itm"), zoo.decider_yes()]:
        back = decode_machine(encode_machine(machine))
        assert isinstance(back, MachineITM)
        a = itm_run(machine, "", 64)
        b = itm_run(back, "", 64)
        assert (a.kind, a.output, a.last_change_step) == (b.kind, b.output, b.last_change_step)
        assert encode_machine(back) == encode_machine(machine)


def test_pipeline_codes_roundtrip():
    from minprog.hierarchy import DiagonalPipeline, SimDecider, build_diagonal

    for decider in [zoo.decider_no(), SimDecider()]:
        pipeline = build_diagonal(decider)
        code = encode_machine(pipeline)
        back = decode_machine(code)
        assert isinstance(back, DiagonalPipeline)
        assert encode_machine(back) == code


SIM_DIAGONAL = "01001001100010"
DECIDER_NO_DIAGONAL = (
    "0100100010010110010010001001000110001000100100011000100010011001000010011000100110011001"
    "000010011000100100100110010000100110011001001000100010010010010010001000100010010010"
)


def test_pipeline_codes_are_pinned():
    from minprog.hierarchy import SimDecider, build_diagonal

    assert encode_machine(build_diagonal(SimDecider())) == SIM_DIAGONAL
    assert encode_machine(build_diagonal(zoo.decider_no())) == DECIDER_NO_DIAGONAL
    assert isinstance(decode_machine(SIM_DIAGONAL).decider, SimDecider)
    # slot form 1 with builtin 1: only builtin 0, the SimDecider, exists
    with pytest.raises(InvalidCodeError, match="unknown builtin decider 1"):
        decode_machine("01001001100110")


def test_tm_and_itm_codes_never_collide():
    tm_codes = {encode_machine(m) for m in zoo.acceptance_pool()}
    itm_codes = {encode_machine(shipped(name)) for name in ("writer.itm", "alternator.itm", "silent.itm")}
    assert not (tm_codes & itm_codes)


# ---------------------------------------------------------------------------
# the code grammar


def _assert_proper_prefixes_truncated(code):
    for cut in range(0, len(code), 2):
        with pytest.raises(TruncatedCodeError):
            decode_machine(code[:cut])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 128), st.integers(0, 1 << 12), st.integers(0, 1 << 70)), max_size=12))
@example([])
@example([0])
@example([0, 1, 2, 63, 64, 65, (1 << 10) - 1, 1 << 10, 1 << 64])
def test_the_word_of_numbers_is_its_digits_in_blocks(numbers):
    # each binary digit d of each number is the block 0d, and 10 ends it
    blocks = {"0": "00", "1": "01"}
    assert codec._word(numbers) == "".join(
        "".join(blocks[d] for d in bin(n)[2:]) + "10" for n in numbers)


def test_an_unended_number_no_ending_makes_valid_is_invalid_not_truncated():
    def word(digits):  # machine kind 0, then the unended state count
        return "0010" + digits.translate(str.maketrans({"0": "00", "1": "01"}))

    for digits in ("0", "1", "1" + "0" * 20):  # it may still end as 0, 1 or 2^20
        with pytest.raises(TruncatedCodeError):
            decode_machine(word(digits))
    for digits, message in (("01", "non-canonical state count"), ("00", "non-canonical state count"),
                            ("1" + "0" * 21, "state count out of range")):
        with pytest.raises(InvalidCodeError, match=message) as caught:
            decode_machine(word(digits))
        assert not isinstance(caught.value, TruncatedCodeError)


def test_malformed_words_are_named_in_numbers_and_blocks():
    code = encode_machine(zoo.looper())
    trailing = "trailing 2-bit blocks after the last number of the machine code"
    for word, message in ((code + "0", "odd-length word cannot be split into 2-bit blocks"),
                          ("0011", "2-bit block '11' is neither a digit nor the end of a number"),
                          (code + "0010", trailing),  # one more number, 0
                          (code + "00", trailing)):  # the first digit of one
        with pytest.raises(InvalidCodeError, match=message) as caught:
            decode_machine(word)
        assert not isinstance(caught.value, TruncatedCodeError)


def test_a_non_binary_word_is_an_invalid_word():
    """The decoder reads the blocks as numerals, which would take other
    digits, "_" or spaces, so it checks the symbols first."""
    for word, bad in (("20", "2"), ("0a10", "a"), ("00_1", "_"), ("0010 0", " ")):
        with pytest.raises(InvalidWordError, match=f"symbol {bad!r} is not in alphabet 01"):
            decode_machine(word)


def test_long_and_empty_codes():
    """A code of over 20,000 bits, far past the 4,300 digits CPython
    converts between int and a non-power-of-two base, and the empty word."""
    states = [f"q{i}" for i in range(160)] + ["qf"]
    rows = tuple(
        Transition(q, (r, BLANK, BLANK), nxt, (r, BLANK, r), ("R", "S", "R"))
        for q, nxt in zip(states, states[1:]) for r in ("0", "1")
    )
    machine = MachineTM("chain", tuple(states), "q0", frozenset({"qf"}), BINARY, rows)
    code = encode_machine(machine)
    assert len(code) > 20_000
    assert encode_machine(decode_machine(code)) == code
    for word, error, message in ((code[:-2], TruncatedCodeError, "truncated move"),
                                 (code + "10", InvalidCodeError, "trailing 2-bit blocks"),
                                 (code[:-4] + "010110", InvalidCodeError, "move index 3 out of range"),
                                 ("", TruncatedCodeError, "truncated machine kind")):
        with pytest.raises(error, match=message):
            decode_machine(word)



def test_a_huge_state_count_fails_fast():
    """A header may declare 2^20 states in a few bits; a word that stops or
    errs before its rows are whole reports so without naming each state."""
    from minprog.codec import _word

    cases = (([0, 1 << 20, 2, 0], "truncated transition count"),
             ([0, 1 << 20, 2, 1, 5], "truncated transition count"),
             ([0, 1 << 20, 2, 0, 1, 0], "truncated read"),
             ([1, 1 << 20, 2, 0], "truncated connection type count"),
             ([1, 1 << 20, 2, 0, 1, 1, 1, 0, 0], "truncated rule count"))
    start = time.perf_counter()
    for numbers, message in cases:
        with pytest.raises(TruncatedCodeError, match=message):
            decode_machine(_word(numbers))
    assert time.perf_counter() - start < 0.25

def _zoo_machines():
    from minprog.hierarchy import build_diagonal

    return zoo_tms() + itm_zoo() + [build_diagonal(zoo.decider_no())]


@pytest.mark.parametrize("machine", _zoo_machines(), ids=lambda m: getattr(m, "name", "pipeline"))
def test_proper_prefixes_of_zoo_codes_are_truncated(machine):
    _assert_proper_prefixes_truncated(encode_machine(machine))


@settings(max_examples=150, deadline=None)
@given(small_tms())
def test_proper_prefixes_of_random_codes_are_truncated(machine):
    code = encode_machine(machine)
    _assert_proper_prefixes_truncated(code)
    if len(code) <= 26:  # the code lists grow about 2.3x per token
        assert code in codes_up_to(len(code), KIND_TM)


def _of_length(codes, bits):
    return {code: machine for code, machine in codes.items() if len(code) == bits}


def test_codes_of_length_match_trial_decoding_of_every_token_word():
    for ntokens in range(11):
        found = []
        for tokens in itertools.product(("00", "01", "10"), repeat=ntokens):
            word = "".join(tokens)
            try:
                decode_machine(word)
            except InvalidCodeError:
                continue
            found.append(word)
        codes = _of_length(codes_up_to(2 * ntokens), 2 * ntokens)
        assert list(codes) == found, ntokens
        # the walk keeps each code's machine; MachineITM has no __eq__, so compare codes
        assert all(encode_machine(machine) == code for code, machine in codes.items()), ntokens
    assert _of_length(codes_up_to(13), 13) == {}


# every code of at most 32 bits, over all kinds, as the block-by-block walk
# listed them: their number and the SHA-256 of their comma-joined lex list
_CODES_32 = (664, "c96aa7e8226e0e57c5b808069defc1739108eb7fff171af0e184d53ac4d71917")


def _pin(codes):
    return len(codes), hashlib.sha256(",".join(codes).encode()).hexdigest()


def test_the_code_walk_to_32_bits_is_pinned():
    codes = codes_up_to(32)
    assert _pin(codes) == _CODES_32
    for kind in (KIND_TM, KIND_ITM, KIND_PIPELINE):
        head = codec._word([kind])
        assert list(codes_up_to(32, kind)) == [code for code in codes if code.startswith(head)], kind
    for code, machine in codes.items():
        assert encode_machine(decode_machine(code)) == encode_machine(machine) == code


@pytest.fixture
def fresh_code_walk():
    codes_up_to.cache_clear()
    yield
    codes_up_to.cache_clear()


def test_the_code_walk_lists_no_number_out_of_the_decoders_range(fresh_code_walk, monkeypatch):
    codes = codes_up_to(32)
    assert _pin(codes) == _CODES_32
    short = [code for code in codes if len(code) <= 28]
    small = [code for code in short if max(codec._Numbers.of_word(code).values) <= 5]
    assert len(small) < len(short)  # some short code needs a number past 5
    monkeypatch.setattr(codec, "_MAX_COUNT", 5)
    codes_up_to.cache_clear()
    assert list(codes_up_to(28)) == small


def _renumbered(machine, order):
    """The code of ``machine`` with its states numbered in ``order`` (the
    encoder's numbering replaced), and the machine that code reads as:
    states s0, s1, ... in that order, s0 the start."""
    rename = {s: f"s{i}" for i, s in enumerate(order)}
    with mock.patch.object(codec, "canonical_state_order", lambda m: order):
        word = encode_machine(machine)
    states = tuple(rename[s] for s in order)
    finals = frozenset(rename[s] for s in machine.finals)
    if isinstance(machine, MachineTM):
        rows = tuple(Transition(rename[t.state], t.reads, rename[t.next_state], t.writes, t.moves)
                     for t in machine.transitions)
        return word, MachineTM(machine.name, states, "s0", finals, machine.alphabet, rows)
    rules = tuple(Rule(rename[r.state], r.read, rename[r.next_state], write=r.write, move=r.move)
                  for r in machine.rules)
    return word, MachineITM(machine.name, states, "s0", finals, machine.alphabet, rules, machine.memory)


def _check_first_use(machine, order):
    """The decoder rejects a numbering exactly when the encoder's
    canonical_state_order would change it, and decodes it otherwise."""
    word, named = _renumbered(machine, order)
    if canonical_state_order(named) == list(named.states):
        assert encode_machine(decode_machine(word)) == word
    else:
        with pytest.raises(InvalidCodeError) as exc:
            decode_machine(word)
        assert str(exc.value) == "states are not numbered in first-use order"


_NUMBERED_MACHINES = st.one_of(
    small_tms(), full_tms(), small_itms(),
    small_itms().filter(lambda m: isinstance(m.memory, ExplicitMemory)),
)


@settings(max_examples=300, deadline=None)
@given(_NUMBERED_MACHINES, st.data())
def test_decoder_first_use_check_agrees_with_canonical_state_order(machine, data):
    _check_first_use(machine, data.draw(st.permutations(machine.states)))


@pytest.mark.parametrize("declared", [("q0", "a", "b"), ("q0", "b", "a")])
def test_unreachable_states_decode_in_either_declaration_order(declared):
    """q0 loops on itself, so a and b, whose rows differ, are unreachable;
    both declaration orders give a code, and each numbering of the three
    states is checked like any other."""
    rows = (
        Transition("q0", (BLANK,) * 3, "q0", (BLANK,) * 3, ("S",) * 3),
        Transition("a", ("0", BLANK, BLANK), "a", ("0", BLANK, BLANK), ("R", "S", "S")),
        Transition("b", ("1", BLANK, BLANK), "b", ("1", BLANK, "1"), ("S", "S", "S")),
    )
    machine = MachineTM("unreachable", declared, "q0", frozenset(), BINARY, rows)
    word = encode_machine(machine)
    assert encode_machine(decode_machine(word)) == word
    for order in itertools.permutations(declared):
        _check_first_use(machine, list(order))



@settings(max_examples=150, deadline=None)
@given(st.one_of(small_tms(), full_tms()))
def test_a_decoded_machine_reads_its_transitions_from_its_table_on_first_use(machine):
    code = encode_machine(machine)
    decode_machine.cache_clear()  # a fresh decode, not a machine an earlier example left in the memo
    back = decode_machine(code)
    assert encode_machine(back) == code and "transitions" not in vars(back)
    rows = back.transitions
    assert "transitions" in vars(back)
    again = MachineTM(back.name, back.states, back.start, back.finals, back.alphabet, rows)
    assert serialize_machine(again) == serialize_machine(back) and encode_machine(again) == code


def test_a_word_decodes_to_the_same_machine_every_time():
    code = encode_machine(append_zero())
    assert decode_machine(code) is decode_machine(code)


@pytest.mark.parametrize("word, error", [
    ("0111", InvalidCodeError),  # the block 11 is off the image
    (encode_machine(zoo.identity())[:-2], TruncatedCodeError),
], ids=["off-image", "truncated"])
def test_a_rejected_word_raises_the_same_error_every_time_and_is_not_kept(word, error):
    decode_machine.cache_clear()
    decode_machine(encode_machine(zoo.identity()))
    raised = []
    for _ in range(2):
        with pytest.raises(InvalidCodeError) as info:
            decode_machine(word)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1] and raised[0][0] is error
    assert decode_machine.cache_info().currsize == 1


def test_the_memo_keeps_the_last_32_words():
    decode_machine.cache_clear()
    codes = list(codes_up_to(32))[:42]
    assert len(codes) == 42
    for code in codes:
        decode_machine(code)
    assert decode_machine.cache_info().currsize == 32
    hits = decode_machine.cache_info().hits
    decode_machine(codes[-32])
    assert decode_machine.cache_info().hits == hits + 1


@settings(max_examples=150, deadline=None)
@given(small_tms(), st.lists(st.text("01", max_size=6), min_size=2, max_size=2, unique=True),
       st.lists(st.integers(0, 12), min_size=2, max_size=8))
def test_a_shared_machine_carries_nothing_from_one_run_to_the_next(machine, inputs, chunks):
    # two runs of the memoized machine, the second started a chunk later and
    # both resumed in turn, against runs each on a machine decoded afresh
    code = encode_machine(machine)
    shared = decode_machine(code)
    runs, alone = [], []
    for horizon in itertools.accumulate(chunks):
        if len(runs) < len(inputs):
            runs.append(shared.start_run(inputs[len(runs)]))
            alone.append(codec._decode(codec._Numbers.of_word(code)).start_run(inputs[len(alone)]))
        for run, other in zip(runs, alone):
            run.run_to(horizon), other.run_to(horizon)
            assert configuration(run) == configuration(other)
            assert (run.steps, run.in_final, run.stuck, run.period, run.output_word()) == (
                other.steps, other.in_final, other.stuck, other.period, other.output_word())
    assert decode_machine(code) is shared


# Binary TM codes with two faults each.  A header of two states, s1 final,
# or of three with s2 final; symbol codes 0, 1 and 2 for blank; move code 2
# for S.  Each case lists the code, the code without the winning fault, and
# the two messages: the faults rank as an index out of range (the first in
# reading order), rows out of canonical order, a fault of a row, trailing
# blocks, then first-use numbering.
_HEAD2, _HEAD3 = [0, 2, 2, 1, 1], [0, 3, 2, 1, 2]
_STAY = [2, 2, 2]
_TRAILING = "trailing 2-bit blocks after the last number of the machine code"


@pytest.mark.parametrize("code, without, first, second", [
    pytest.param(
        [*_HEAD2, 2, 0, 0, 2, 2, 1, 1, 2, 2, *_STAY, 0, 1, 3, 2, 1, 1, 3, 2, *_STAY],
        [*_HEAD2, 2, 0, 0, 2, 2, 1, 1, 2, 2, *_STAY, 0, 1, 1, 2, 1, 1, 1, 2, *_STAY],
        "read symbol index 3 out of range",
        "transition in state 's0' writes to the read-only input tape",
        id="range-before-read-only"),
    pytest.param(
        [*_HEAD2, 2, 0, 1, 2, 0, 1, 1, 2, 2, *_STAY, 0, 0, 2, 2, 1, 0, 2, 2, *_STAY],
        [*_HEAD2, 2, 0, 0, 2, 2, 1, 0, 2, 2, *_STAY, 0, 1, 2, 0, 1, 1, 2, 2, *_STAY],
        "transition table is not in canonical order",
        "transition in state 's0' erases the output tape",
        id="order-before-erase"),
    pytest.param(
        [*_HEAD2, 2, *[0, 0, 2, 2, 1, 0, 2, 2, *_STAY] * 2, 0],
        [*_HEAD2, 2, 0, 0, 2, 2, 1, 0, 2, 2, *_STAY, 0, 1, 2, 2, 1, 1, 2, 2, *_STAY, 0],
        "two transitions share the left part (s0, 0/_/_)",
        _TRAILING,
        id="shared-left-part-before-trailing"),
    pytest.param(
        [*_HEAD3, 1, 0, 0, 2, 2, 2, 0, 2, 2, *_STAY, 0],
        [*_HEAD3, 1, 0, 0, 2, 2, 2, 0, 2, 2, *_STAY],
        _TRAILING,
        "states are not numbered in first-use order",
        id="trailing-before-first-use"),
])
def test_the_first_fault_in_decode_precedence_is_reported(code, without, first, second):
    from minprog.codec import _word

    for numbers, message in ((code, first), (without, second)):
        with pytest.raises(InvalidCodeError) as exc:
            decode_machine(_word(numbers))
        assert str(exc.value) == message


def test_a_decoded_explicit_memory_with_two_links_of_one_source_and_type_is_invalid():
    from minprog.codec import _word

    # an ITM of one state over {0, 1} with one connection type, cells k0
    # (output) and k1 (work), its links and no rules
    head = [KIND_ITM, 1, 2, 0, 1, 1, 2, 2, 1]
    assert isinstance(decode_machine(_word([*head, 1, 0, 0, 1, 0])), MachineITM)
    with pytest.raises(InvalidCodeError) as exc:
        decode_machine(_word([*head, 2, 0, 0, 0, 0, 0, 1, 0]))
    assert str(exc.value) == "two connections of type 't0' leave cell 'k0'"
