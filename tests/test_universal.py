import pytest

from minprog.codec import decode_machine, encode_machine
from minprog.turing import MachineTM, run_fueled
from minprog.universal import (
    U_STD,
    WRAP_HEADER,
    make_biased_universal,
    parse_interpreter_spec,
    tm_program,
    wrap_universal,
)
from minprog.words import BINARY, pair, sd, unpair, words_up_to
from minprog import zoo

from helpers import tm_program2
from oracles import binary_words_of_len, brute_force_search


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
# live words


@pytest.mark.parametrize("spec", ["std", "wrap:std", "biased:1", "biased:2", "biased:3", "wrap:biased:2"])
def test_words_outside_live_never_halt(spec):
    interp = parse_interpreter_spec(spec)
    for n in range(15):
        live, live2 = list(interp.live(n)), list(interp.live2(n))
        assert live == sorted(set(live)) and live2 == sorted(set(live2))
        live, live2 = set(live), set(live2)
        for w in binary_words_of_len(n):
            if w not in live:
                assert not interp.apply(w, 64).halted, w
            if w not in live2:
                assert not interp.apply2(w, "01", 64).halted, w


def test_std_live_words_are_binary_tm_pair_programs():
    assert list(U_STD.live(45)) == [] and list(U_STD.live2(45)) == []
    assert sd(encode_machine(zoo.halt_now())) in U_STD.live2(54)
    for n in range(46, 55):
        live = list(U_STD.live(n))
        assert live and live == sorted(set(live))
        assert set(U_STD.live2(n)) == {p for p in live if unpair(p)[0] == ""}
        for p in live:
            machine = decode_machine(unpair(p)[1])
            assert len(p) == n and isinstance(machine, MachineTM) and machine.alphabet is BINARY


def test_biased_and_wrapped_live_words_extend_std():
    u2 = make_biased_universal(2)
    assert list(u2.live(1)) == [] and list(u2.live(2)) == ["00"]
    assert list(u2.live(48)) == [h + p for h in ("00", "01", "10", "11") for p in U_STD.live(46)]
    wrapped = wrap_universal(U_STD)
    assert list(wrapped.live(48)) == [WRAP_HEADER + p for p in U_STD.live(46)]
    assert list(wrapped.live2(56)) == [WRAP_HEADER + p for p in U_STD.live2(54)]
