import pytest
from hypothesis import given, settings, strategies as st

from minprog.codec import KIND_ITM, KIND_TM, codes_up_to, decode_machine, encode_machine
from minprog.complexity import Budget, itm1_class
from minprog.turing import MachineTM, RunOutcome, run_fueled
from minprog.universal import (
    U_STD,
    WRAP_HEADER,
    make_biased_universal,
    parse_interpreter_spec,
    sd_heads,
    tm_program,
    wrap_universal,
)
from minprog.words import BINARY, pair, sd, unpair, words_up_to
from minprog import zoo

from helpers import tier_words, tm_program2
from oracles import binary_words_of_len, brute_force_search
from strategies import small_tms, zoo_tms


def test_universality_against_direct_simulation():
    fuel = 5000
    for machine in zoo.acceptance_pool():
        code = encode_machine(machine)
        for x in words_up_to(3):
            direct = run_fueled(machine, x, fuel)
            via_u = U_STD.apply(pair(x, code), fuel)
            assert via_u.kind == direct.kind
            assert via_u.output == direct.output


def test_invalid_programs_diverge_at_any_fuel():
    for fuel in (1, 57, 4096):
        assert U_STD.apply("11", fuel).kind == "out-of-fuel"
        assert U_STD.apply("", fuel).kind == "out-of-fuel"
        # valid pair prefix but garbage machine code
        assert U_STD.apply(pair("0", "0101"), fuel).kind == "out-of-fuel"


def test_nonhalting_program_runs_out_of_fuel():
    p = pair("", encode_machine(zoo.looper()))
    out = U_STD.apply(p, 100)
    assert out.kind == "out-of-fuel" and out.steps == 100


def test_two_input_application():
    p2 = tm_program2(zoo.identity())
    assert p2 == sd(encode_machine(zoo.identity()))
    out = U_STD.apply2(p2, "01", 10_000)
    assert out.halted and out.output == "01"
    assert U_STD.apply2(sd(encode_machine(zoo.looper())), "", 100).kind == "out-of-fuel"
    assert U_STD.apply2("10", "0", 100).kind == "out-of-fuel"
    # a one-input program word carries a payload: rejected in two-input form
    assert U_STD.apply2(tm_program(zoo.identity(), "1"), "0", 100).kind == "out-of-fuel"


def test_wrapping_serves_exactly_the_prefixed_copy():
    inner = make_biased_universal(1)
    outer = wrap_universal(inner)
    assert len(WRAP_HEADER) == 2
    for p in words_up_to(4):
        inner_out = inner.apply(p, 64)
        outer_out = outer.apply(WRAP_HEADER + p, 64)
        assert (inner_out.kind, inner_out.output) == (outer_out.kind, outer_out.output)
    assert outer.apply("0110", 64).kind == "out-of-fuel"  # no header, not served


def test_wrapping_shifts_minima_by_exactly_the_header_cost():
    inner = make_biased_universal(1)
    outer = wrap_universal(inner)

    def scan(interp, target, max_len):
        def produce(p):
            out = interp.apply(p, 128)
            return out.output if out.halted else None

        return brute_force_search(produce, lambda w: w == target, max_len)

    for target in words_up_to(3):
        v_in, _ = scan(inner, target, 4)
        v_out, _ = scan(outer, target, 6)
        if v_in is None:
            assert v_out is None
        else:
            assert v_out == v_in + len(WRAP_HEADER)


def test_wrapping_a_real_pair_program():
    outer = wrap_universal(U_STD)
    program = WRAP_HEADER + tm_program(zoo.identity(), "1")
    out = outer.apply(program, 5000)
    assert out.halted and out.output == "1"


def test_length_one_program_pins_strict_bound_complexity_at_one():
    from minprog.complexity import Budget, bounded_problem_complexity, tm_class
    from minprog.predicates import lt

    handle = tm_class(make_biased_universal(1))
    for z in ["1", "00", "01", "111"]:
        v = bounded_problem_complexity(handle, lt(z), Budget(4, 32))
        assert v.finite and v.value == 1, z


def test_biased_universal_shape():
    u1 = make_biased_universal(1)
    out = u1.apply("0", 10)
    assert out.halted and out.output == "0" and out.steps == 0
    u3 = make_biased_universal(3)
    assert u3.apply("0", 10).kind == "out-of-fuel"
    assert u3.apply("00", 10).kind == "out-of-fuel"
    out = u3.apply("000", 10)
    assert out.halted and out.output == "0"
    # any other word defers to the standard interpreter on its suffix
    real = tm_program(zoo.identity(), "1")
    assert u3.apply("111" + real, 5000).output == "1"


def test_biased_universal_is_universal():
    u3 = make_biased_universal(3)
    code = encode_machine(zoo.const_zero())
    assert u3.apply("010" + pair("11", code), 5000).output == "0"


def test_min_program_under_biased_3_for_strict_bound():
    u3 = make_biased_universal(3)

    def produce(p):
        out = u3.apply(p, 64)
        return out.output if out.halted else None

    value, witnesses = brute_force_search(produce, lambda w: (len(w), w) < (1, "1"), 4)
    assert value == 3
    assert witnesses == ["000"]


def test_parse_interpreter_spec():
    assert parse_interpreter_spec("std") is U_STD
    assert parse_interpreter_spec("biased:3").n == 3
    nested = parse_interpreter_spec("wrap:biased:1")
    assert nested.inner.n == 1
    with pytest.raises(ValueError):
        parse_interpreter_spec("magic")


# ---------------------------------------------------------------------------
# heads and the live words built from them


@pytest.mark.parametrize("spec", ["std", "wrap:std", "biased:1", "biased:2", "biased:3", "wrap:biased:2"])
def test_words_outside_live_never_halt(spec):
    interp = parse_interpreter_spec(spec)
    for n in range(15):
        heads = interp.live(n)
        words = tier_words(heads, n)
        assert [w for w, *_ in words] == sorted({w for w, *_ in words})
        live = {w: (payload, machine) for w, _, payload, machine in words}
        live2 = {head: machine for head, machine in heads if len(head) == n}
        for w in binary_words_of_len(n):
            if w in live:
                payload, machine = live[w]
                assert interp.apply(w, 64) == run_fueled(machine, payload, 64), w
            else:
                assert not interp.apply(w, 64).halted, w
            if w in live2:
                assert interp.apply2(w, "01", 64) == run_fueled(live2[w], "01", 64), w
            else:
                assert not interp.apply2(w, "01", 64).halted, w


def test_std_live_words_are_binary_tm_pair_programs():
    assert U_STD.live(45) == []
    assert sd(encode_machine(zoo.halt_now())) in [head for head, _ in U_STD.live(54)]
    for n in range(46, 55):
        heads = [head for head, _ in U_STD.live(n)]
        codes = list(codes_up_to(n // 2 - 1, KIND_TM))
        binary = [c for c in codes if decode_machine(c).alphabet is BINARY]
        assert heads and heads == sorted(sd(c) for c in binary if len(sd(c)) <= n)
        for head, machine in U_STD.live(n):
            payload, code = unpair(head)
            assert payload == "" and len(head) <= n
            assert isinstance(machine, MachineTM) and machine.alphabet is BINARY
            assert encode_machine(machine) == code


def test_biased_and_wrapped_live_words_extend_std():
    u2 = make_biased_universal(2)
    assert u2.live(1) == []
    (shortcut, runs), = u2.live(2)
    assert shortcut == "00" and run_fueled(runs, "", 1) == run_fueled(runs, "1", 1) == RunOutcome.of_halt("0", 0)
    assert u2.live(47) == []  # no std head, so no prefix is listed
    assert u2.live(48) == [(h + head, m) for h in ("00", "01", "10", "11") for head, m in U_STD.live(46)]
    wrapped = wrap_universal(U_STD)
    assert wrapped.live(1) == []
    assert wrapped.live(48) == [(WRAP_HEADER + head, m) for head, m in U_STD.live(46)]
    assert wrapped.live(56) == [(WRAP_HEADER + head, m) for head, m in U_STD.live(54)]


# ---------------------------------------------------------------------------
# the two-input form is the one-input form with the argument as payload

_FUEL = 300
_words = st.text("01", max_size=5)
_codes = st.one_of(st.sampled_from(zoo_tms()), small_tms()).map(encode_machine)


@settings(max_examples=150, deadline=None)
@given(spec=st.sampled_from(["std", "wrap:std"]), code=_codes, argument=_words, word=_words)
def test_two_input_application_is_one_input_with_the_argument_as_payload(spec, code, argument, word):
    interp = parse_interpreter_spec(spec)
    head = WRAP_HEADER if spec.startswith("wrap:") else ""
    program = head + sd(code)
    assert interp.apply2(program, argument, _FUEL) == interp.apply(program + argument, _FUEL)
    if word:  # a program that still carries a payload takes no argument
        assert interp.apply2(program + word, argument, _FUEL).kind == "out-of-fuel"
    # an arbitrary word either diverges or reads as the pair program
    out = interp.apply2(word, argument, _FUEL)
    assert out.kind == "out-of-fuel" or out == interp.apply(word + argument, _FUEL)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3), code=_codes, argument=_words, word=st.text("01", max_size=8))
def test_biased_application_strips_its_prefix_or_shortcuts(n, code, argument, word):
    biased = make_biased_universal(n)
    assert biased.apply2("0" * n, argument, _FUEL) == biased.apply("0" * n, _FUEL)
    assert biased.apply2("0" * n, argument, _FUEL).output == "0"
    for program in (word, word[:n].ljust(n, "1") + sd(code)):
        if len(program) < n:
            assert biased.apply2(program, argument, _FUEL).kind == "out-of-fuel"
        elif program != "0" * n:
            assert biased.apply(program, _FUEL) == U_STD.apply(program[n:], _FUEL)
            assert biased.apply2(program, argument, _FUEL) == U_STD.apply2(program[n:], argument, _FUEL)


@settings(max_examples=100, deadline=None)
@given(wrapped=st.booleans(), code=_codes, argument=_words, word=_words)
def test_itm1_two_input_form_is_the_one_input_form(wrapped, code, argument, word):
    handle = itm1_class()
    budget = Budget(0, _FUEL, 64)
    program = (WRAP_HEADER if wrapped else "") + sd(code)
    assert handle.produce2(program, argument, budget) == handle.produce(program + argument, budget)
    if word:
        assert handle.produce2(program + word, argument, budget) is None
    got = handle.produce2(word, argument, budget)
    assert got is None or got == handle.produce(word + argument, budget)


@pytest.mark.parametrize("kind", [None, KIND_TM, KIND_ITM], ids=["any", "tm", "itm"])
def test_sd_heads_lists_every_code_whose_sd_fits(kind):
    # |sd(c)| = 2|c| + 2, so tier 44 takes the codes of up to 21 bits
    codes = codes_up_to(21, kind)
    for length in range(45):
        heads = sd_heads(length, kind)
        assert [head for head, _ in heads] == [sd(c) for c in codes if 2 * len(c) + 2 <= length], length
        assert all(encode_machine(machine) == unpair(head)[1] for head, machine in heads)
