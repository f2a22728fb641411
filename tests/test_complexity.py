import functools

import pytest

from minprog.complexity import (
    Budget,
    FunctionTable,
    K_EMBED,
    MachineClassHandle,
    bounded_functional_complexity,
    bounded_kolmogorov,
    bounded_problem_complexity,
    compose_postprocess,
    growth_profile,
    invariance_gap,
    itm1_class,
    tm_class,
    verdict_report,
)
from minprog.predicates import (
    Predicate,
    any_word,
    builtin,
    computed_within,
    equals,
    false_pred,
    geq,
    length_equals,
    leq,
    lt,
    non_empty,
    shipped_registry,
    small20_family,
)
from minprog.universal import (
    U_STD,
    WRAP_HEADER,
    make_biased_universal,
    parse_interpreter_spec,
    wrap_universal,
)
from minprog.codec import codes_up_to, decode_machine, encode_machine
from minprog.turing import MachineTM, Transition
from minprog.words import BLANK, Alphabet, sd, words_up_to
from minprog import codec, complexity, universal, zoo

from helpers import all_of, shipped, tier_words, tm_program2, verdict_le
from oracles import binary_words, binary_words_of_len, brute_force_halts, brute_force_search
from strategies import append_zero, eraser, halt_now

U1 = make_biased_universal(1)
H1 = tm_class(U1)
HSTD = tm_class(U_STD)
SMALL = Budget(max_len=6, fuel=128)


def _oracle(handle, predicate, budget):
    def produce(p):
        return handle.produce(p, budget)

    return brute_force_search(produce, predicate, budget.max_len)


def _agrees(verdict, oracle_result):
    value, witnesses = oracle_result
    if value is None:
        return verdict.kind == "no-witness-within-budget"
    return verdict.finite and verdict.value == value and verdict.witness == min(witnesses)


@pytest.mark.parametrize("handle", [H1, HSTD], ids=["biased1", "std"])
def test_equals_matches_oracle_with_witness_identity(handle):
    for u in words_up_to(2):
        verdict = bounded_problem_complexity(handle, equals(u), SMALL)
        assert _agrees(verdict, _oracle(handle, equals(u), SMALL)), u


def test_false_predicate_never_has_a_witness():
    for budget in [Budget(2, 8), Budget(6, 128), Budget(10, 2000)]:
        v = bounded_problem_complexity(H1, false_pred(), budget)
        assert v.kind == "no-witness-within-budget"


def test_leq_complexity_is_min_over_reachable_words():
    for z in words_up_to(2):
        lhs = bounded_problem_complexity(H1, leq(z), SMALL)
        candidates = [w for w in words_up_to(SMALL.max_len) if leq(z)(w)]
        best = None
        for y in candidates:
            k = bounded_kolmogorov(H1, y, SMALL)
            if k.finite and (best is None or k.value < best):
                best = k.value
        if best is None:
            assert not lhs.finite
        else:
            assert lhs.finite and lhs.value == best


def test_bounded_kolmogorov_scans_without_passing_through_the_problem_complexity(monkeypatch):
    # each of the two is one traced scan: a call of one through the other
    # would count its scan twice
    budget = Budget(4, 64)
    expected = bounded_problem_complexity(H1, equals("0"), budget)

    def passed_through(*args):
        raise AssertionError("bounded_kolmogorov went through bounded_problem_complexity")

    monkeypatch.setattr(complexity, "bounded_problem_complexity", passed_through)
    verdict = bounded_kolmogorov(H1, "0", budget)
    assert (verdict.value, verdict.witness, verdict.programs_scanned) == (
        expected.value, expected.witness, expected.programs_scanned)
    assert verdict.programs_scanned == 3


def test_set_complexity_of_singleton_equals_plain_complexity():
    for p in [any_word(), equals("0"), non_empty()]:
        a = bounded_problem_complexity(H1, all_of(p), SMALL)
        b = bounded_problem_complexity(H1, p, SMALL)
        assert (a.kind, a.value, a.witness) == (b.kind, b.value, b.witness)


def test_set_complexity_weaker_than_equality_member():
    weaker = bounded_problem_complexity(H1, all_of(non_empty(), leq("11")), SMALL)
    stronger = bounded_problem_complexity(H1, equals("0"), SMALL)
    assert verdict_le(weaker, stronger)


def test_set_with_false_member_has_no_witness():
    v = bounded_problem_complexity(H1, all_of(any_word(), false_pred()), SMALL)
    assert v.kind == "no-witness-within-budget"


def test_budget_monotonicity():
    preds = [equals("0"), any_word(), non_empty(), leq("1")]
    budgets = [Budget(2, 16), Budget(4, 16), Budget(4, 64), Budget(8, 64), Budget(8, 512)]
    for p in preds:
        verdicts = [bounded_problem_complexity(H1, p, b) for b in budgets]
        for small, big in zip(verdicts, verdicts[1:]):
            assert verdict_le(big, small)
            if small.finite:
                assert big.finite and big.value <= small.value


def test_witness_is_shortlex_least_of_minimal_length():
    v = bounded_problem_complexity(H1, any_word(), SMALL)
    value, witnesses = _oracle(H1, any_word(), SMALL)
    assert v.value == value
    assert v.witness == sorted(witnesses)[0]


def test_monotonicity_across_shipped_registry_at_two_budgets():
    reg = shipped_registry()
    for handle, budget in [(H1, Budget(6, 128)), (HSTD, Budget(4, 64))]:
        cache = {}
        for p, q, _ in reg.edges:
            for pred in (p, q):
                if pred.name not in cache:
                    cache[pred.name] = bounded_problem_complexity(handle, pred, budget)
            assert verdict_le(cache[q.name], cache[p.name]), (p.name, q.name)


# ---------------------------------------------------------------------------
# functional complexity


def test_constant_function_table_under_biased_interpreter():
    table = FunctionTable((("", "0"), ("0", "0"), ("1", "0")))
    v = bounded_functional_complexity(H1, table, SMALL)
    assert v.finite and v.value == 1 and v.witness == "0"


def test_contradictory_table_rejected_at_construction():
    with pytest.raises(ValueError, match="contradictory"):
        FunctionTable((("0", "1"), ("0", "0")))


def test_identity_table_program_exists_but_is_far_beyond_scan_budgets():
    probes = ["", "0", "1", "00"]
    program = tm_program2(zoo.identity())
    for x in probes:
        out = U_STD.apply2(program, x, 10_000)
        assert out.halted and out.output == x
    table = FunctionTable(tuple((x, x) for x in probes))
    v = bounded_functional_complexity(HSTD, table, Budget(max_len=10, fuel=2000))
    assert v.kind == "no-witness-within-budget"
    assert len(program) > 10


def test_constant_empty_machine_has_shorter_two_input_program_than_identity():
    p_const = sd(encode_machine(halt_now()))
    p_ident = tm_program2(zoo.identity())
    assert len(p_const) < len(p_ident)
    for x in ["", "0", "10"]:
        out = U_STD.apply2(p_const, x, 10_000)
        assert out.halted and out.output == ""


def test_functional_verdict_matches_oracle():
    table = FunctionTable((("", "0"), ("1", "0")))

    def produce(p):
        outs = [H1.produce2(p, x, SMALL) for x, _ in table.pairs]
        if all(o == fx for o, (_, fx) in zip(outs, table.pairs)):
            return "ok"
        return None

    value, witnesses = brute_force_search(produce, lambda w: True, SMALL.max_len)
    v = bounded_functional_complexity(H1, table, SMALL)
    assert v.value == value and v.witness == min(witnesses)


def test_bounded_complexity_level_set_sits_at_its_own_level():
    # the words of budgeted complexity exactly 1 are reachable by a
    # length-1 program, so the level-set predicate itself has value 1
    from minprog.predicates import bounded_complexity_equals

    pred = bounded_complexity_equals(1, U1, Budget(4, 64))
    v = bounded_problem_complexity(H1, pred, Budget(4, 64))
    assert v.finite and v.value == 1


def test_functional_complexity_monotone_under_table_weakening():
    full = FunctionTable((("", "0"), ("0", "0"), ("1", "0")))
    sub = FunctionTable((("0", "0"),))
    v_full = bounded_functional_complexity(H1, full, SMALL)
    v_sub = bounded_functional_complexity(H1, sub, SMALL)
    assert verdict_le(v_sub, v_full)


# ---------------------------------------------------------------------------
# invariance


def test_identical_interpreters_have_zero_gap():
    fam = [equals("0"), any_word(), non_empty()]
    res = invariance_gap(U1, U1, fam, SMALL)
    assert res.gap == 0


def test_wrapped_interpreter_gap_is_bounded_by_header_cost():
    outer = wrap_universal(U1)
    fam = small20_family(U1)
    res = invariance_gap(U1, outer, fam, Budget(8, 256))
    assert res.gap <= len(WRAP_HEADER)
    assert any(r.comparable for r in res.rows)


def test_biased_interpreter_shows_a_gap_of_at_least_two():
    fam = [equals(u) for u in words_up_to(2)]
    res = invariance_gap(U1, make_biased_universal(3), fam, Budget(8, 256))
    assert res.gap >= 2


def test_one_sided_predicates_are_reported_not_compared():
    # under biased:3 the only reachable output is "0" via the shortcut;
    # nothing is reachable under std at this budget
    fam = [equals("0")]
    res = invariance_gap(U_STD, make_biased_universal(3), fam, Budget(6, 64))
    assert res.gap == 0
    assert res.skipped == ("equals:0",)


# ---------------------------------------------------------------------------
# composition with a post-processor


def test_identity_postprocessor_changes_nothing():
    composed = compose_postprocess(H1, zoo.identity())
    for p in [equals("0"), any_word(), non_empty(), equals("11")]:
        a = bounded_problem_complexity(H1, p, SMALL)
        b = bounded_problem_complexity(composed, p, SMALL)
        assert (a.kind, a.value, a.witness) == (b.kind, b.value, b.witness)


def test_append_postprocessor_reduction_constant():
    composed = compose_postprocess(H1, append_zero())
    needed = 0
    for u in words_up_to(2):
        lhs = bounded_problem_complexity(composed, equals(u + "0"), SMALL)
        rhs = bounded_problem_complexity(H1, equals(u), SMALL)
        if rhs.finite:
            assert lhs.finite, u
            needed = max(needed, lhs.value - rhs.value)
        # an infinite right side bounds nothing
    assert needed == 0


def test_erasing_postprocessor():
    composed = compose_postprocess(H1, eraser())
    lhs = bounded_problem_complexity(composed, equals(""), SMALL)
    assert lhs.finite and lhs.value == 1
    for p in [equals("0"), any_word()]:
        rhs = bounded_problem_complexity(H1, p, SMALL)
        if rhs.finite:
            assert lhs.value <= rhs.value


def test_nonhalting_postprocessor_makes_runs_divergent():
    composed = compose_postprocess(H1, zoo.looper())
    v = bounded_problem_complexity(composed, any_word(), Budget(4, 64))
    assert v.kind == "no-witness-within-budget"


def _writes_two() -> MachineTM:
    """A machine over the alphabet 0, 1, 2 that writes 2 and halts on every input."""
    rows = tuple(Transition("q0", (s, BLANK, BLANK), "qf", (s, BLANK, "2"), ("S", "S", "S"))
                 for s in ("0", "1", "2", BLANK))
    return MachineTM("two", ("q0", "qf"), "q0", frozenset({"qf"}), Alphabet(("0", "1", "2")), rows)


def test_order_predicates_answer_on_a_produced_word_outside_binary():
    composed, budget = compose_postprocess(H1, _writes_two()), Budget(3, 64)
    assert bounded_problem_complexity(composed, non_empty(), budget).value == 1
    # "2" is a one-symbol word after "1": above leq:0, below lt:00, at least geq:1
    assert bounded_problem_complexity(composed, leq("0"), budget).kind == "no-witness-within-budget"
    for p in (lt("00"), geq("1")):
        assert bounded_problem_complexity(composed, p, budget).value == 1, p.name


def test_a_postprocessor_gives_no_result_on_a_word_outside_its_alphabet():
    composed = compose_postprocess(compose_postprocess(H1, _writes_two()), append_zero())
    v = bounded_problem_complexity(composed, non_empty(), Budget(3, 64))
    assert v.kind == "no-witness-within-budget"


# ---------------------------------------------------------------------------
# growth and the class hierarchy


def test_growth_profile_matches_oracle_on_small_lengths():
    profile = growth_profile(H1, length_equals, range(0, 7), SMALL)
    for n, verdict in profile:
        assert _agrees(verdict, _oracle(H1, length_equals(n), SMALL)), n


def test_growth_profile_hits_the_budget_wall():
    budget = Budget(max_len=4, fuel=64)
    profile = growth_profile(H1, length_equals, range(0, 41), budget)
    assert any(v.kind == "no-witness-within-budget" for _, v in profile)


def test_computed_within_profile_is_nonincreasing():
    fam = lambda n: computed_within(n, U1)
    profile = growth_profile(H1, fam, range(1, 6), Budget(4, 32))
    for (_, a), (_, b) in zip(profile, profile[1:]):
        assert verdict_le(b, a)


def test_itm_class_dominates_tm_class_up_to_embedding_header():
    hi = itm1_class(U1)
    bi = Budget(max_len=8, fuel=256, horizon=128)
    for p in small20_family(U1):
        tm_v = bounded_problem_complexity(H1, p, bi)
        itm_v = bounded_problem_complexity(hi, p, bi)
        if tm_v.finite:
            assert itm_v.finite and itm_v.value <= tm_v.value + K_EMBED, p.name


def test_itm_class_runs_inductive_programs_in_their_own_region():
    from minprog.words import pair

    hi = itm1_class(U1)
    program = pair("", encode_machine(shipped("writer.itm")))
    out = hi.produce(program, Budget(4, 64, horizon=64))
    assert out == "1"


def test_itm1_class_never_raises_on_short_codes():
    # includes 00100110011000100010, a Turing machine over the alphabet {0}
    # that cannot read the payload "1"
    handle = itm1_class()
    budget = Budget(max_len=64, fuel=64, horizon=64)
    codes = list(codes_up_to(22))
    assert "00100110011000100010" in codes
    for code in codes:
        for x in binary_words(3):
            handle.produce(sd(code) + x, budget)
            handle.produce2(sd(code), x, budget)


def test_verdict_report_field_names():
    v = bounded_problem_complexity(H1, equals("0"), SMALL)
    report = verdict_report(v, SMALL, H1.tag, "equals:0")
    assert list(report) == [
        "kind", "value", "witness", "budget", "class", "predicate",
        "programs_scanned", "runs_halted",
    ]
    assert list(report["budget"]) == ["max_len", "fuel", "horizon"]


# ---------------------------------------------------------------------------
# long std scans reach the Turing machine heads

# README "Why biased:1": sd(c) for the code of strategies.halt_now
README_WITNESS = "000011000011110000110000110000111100000011000000110001"


def test_long_std_scans_run_the_heads_machines_without_decoding(monkeypatch):
    verdict = bounded_problem_complexity(HSTD, any_word(), Budget(54, 64))
    assert (verdict.value, verdict.witness, verdict.runs_halted) == (54, README_WITNESS, 1)
    budget = Budget(58, 64)
    verdict = bounded_problem_complexity(HSTD, equals("0"), budget)
    # the reference runs every head + payload word through the single-program path
    words = [w for n in range(budget.max_len + 1) for w, *_ in tier_words(U_STD.live(n), n)]
    halted = sum(HSTD.produce(w, budget) is not None for w in words)
    assert verdict.kind == "no-witness-within-budget" and verdict.runs_halted == halted == 33
    decodes = []

    def counting(word):
        decodes.append(word)
        return decode_machine(word)

    monkeypatch.setattr(codec, "decode_machine", counting)
    monkeypatch.setattr(universal, "decode_machine", counting)
    assert bounded_problem_complexity(HSTD, equals("0"), budget) == verdict
    assert decodes == []


# ---------------------------------------------------------------------------
# the pruned scan against the naive one

ORACLE_BUDGET = Budget(max_len=12, fuel=64, horizon=32)
PRUNED_CLASSES = {
    **{spec: tm_class(parse_interpreter_spec(spec))
       for spec in ("std", "wrap:std", "biased:1", "biased:2", "biased:3", "wrap:biased:2")},
    "itm1[std]": itm1_class(U_STD),
    "itm1[biased:1]": itm1_class(make_biased_universal(1)),
    "tm[biased:1]+append_zero": compose_postprocess(tm_class(make_biased_universal(1)), append_zero()),
}


def _naive_table(handle, budget, argument=None):
    """Every program's result, computed by running every word."""
    if argument is None:
        return {p: handle.produce(p, budget) for p in binary_words(budget.max_len)}
    return {p: handle.produce2(p, argument, budget) for p in binary_words(budget.max_len)}


def _expected_verdict(results, accept, max_len):
    value, witnesses = brute_force_search(results.__getitem__, accept, max_len)
    last = max_len if value is None else value
    return (
        "no-witness-within-budget" if value is None else "finite",
        value,
        min(witnesses) if witnesses else None,
        2 ** (last + 1) - 1,
        brute_force_halts(results.__getitem__, last),
    )


def _fields(verdict):
    return (verdict.kind, verdict.value, verdict.witness, verdict.programs_scanned, verdict.runs_halted)


@pytest.mark.parametrize("name", PRUNED_CLASSES)
def test_pruned_scan_equals_naive_scan(name):
    handle = PRUNED_CLASSES[name]
    results = _naive_table(handle, ORACLE_BUDGET)
    for pred in (any_word(), equals("0"), equals("00"), non_empty(), false_pred()):
        verdict = bounded_problem_complexity(handle, pred, ORACLE_BUDGET)
        assert _fields(verdict) == _expected_verdict(results, pred, ORACLE_BUDGET.max_len), pred.name


@pytest.mark.parametrize("name", PRUNED_CLASSES)
def test_pruned_functional_scan_equals_naive_scan(name):
    handle = PRUNED_CLASSES[name]
    table = FunctionTable((("", "0"), ("1", "0")))
    per_probe = [_naive_table(handle, ORACLE_BUDGET, x) for x, _ in table.pairs]
    results = {}
    for p in binary_words(ORACLE_BUDGET.max_len):
        outs = tuple(r[p] for r in per_probe)
        results[p] = None if all(o is None for o in outs) else outs
    wanted = tuple(fx for _, fx in table.pairs)
    verdict = bounded_functional_complexity(handle, table, ORACLE_BUDGET)
    assert _fields(verdict) == _expected_verdict(results, wanted.__eq__, ORACLE_BUDGET.max_len)


@pytest.mark.parametrize("name", ["itm1[std]", "itm1[biased:1]"])
def test_class_words_outside_live_give_no_result(name):
    handle = PRUNED_CLASSES[name]
    for n in range(15):
        heads = list(handle.live(n))
        words = tier_words(heads, n)
        assert [w for w, *_ in words] == sorted({w for w, *_ in words})
        live = {w: (payload, result_of) for w, _, payload, result_of in words}
        live2 = {head: result_of for head, result_of in heads if len(head) == n}
        for w in binary_words_of_len(n):
            if w in live:
                payload, result_of = live[w]
                assert handle.produce(w, ORACLE_BUDGET) == result_of(payload, ORACLE_BUDGET), w
            else:
                assert handle.produce(w, ORACLE_BUDGET) is None, w
            if w in live2:
                assert handle.produce2(w, "01", ORACLE_BUDGET) == live2[w]("01", ORACLE_BUDGET), w
            else:
                assert handle.produce2(w, "01", ORACLE_BUDGET) is None, w


# ---------------------------------------------------------------------------
# one scan for a whole predicate family

FAMILY_SPECS = ("std", "wrap:std", "biased:1", "biased:2", "biased:3")


@functools.cache
def _family_table(spec):
    """Every program's result under ``spec`` at the family budgets' fuel."""
    return _naive_table(tm_class(parse_interpreter_spec(spec)), Budget(12, 256))


def _family(interp):
    return [*small20_family(interp), false_pred()]


@pytest.mark.parametrize("max_len", [10, 11, 12])
@pytest.mark.parametrize("index", range(len(FAMILY_SPECS)))
def test_invariance_rows_equal_single_scans_and_the_oracle(index, max_len):
    specs = FAMILY_SPECS[index], FAMILY_SPECS[(index + 1) % len(FAMILY_SPECS)]
    first, second = map(parse_interpreter_spec, specs)
    budget = Budget(max_len, 256)
    family = _family(first)
    res = invariance_gap(first, second, family, budget)
    assert [row.predicate for row in res.rows] == [pred.name for pred in family]
    for row, pred in zip(res.rows, family):
        for spec, interp, verdict in zip(specs, (first, second), (row.first, row.second)):
            assert verdict == bounded_problem_complexity(tm_class(interp), pred, budget), (spec, pred.name)
            value, witnesses = brute_force_search(_family_table(spec).__getitem__, pred, max_len)
            assert (verdict.value, verdict.witness) == (value, min(witnesses, default=None)), (spec, pred.name)


def _recording(pred, seen):
    return Predicate(pred.name, lambda w: seen.append(w) or pred(w))


# biased:n has one program with a result below 54 bits; std and wrap:std at
# 58 bits have 33 and 7, all with output ε, which every finite row accepts first
@pytest.mark.parametrize("specs, budget", [
    (("biased:1", "biased:2"), Budget(10, 256)),
    (("std", "wrap:std"), Budget(58, 64)),
])
def test_family_predicates_see_the_results_of_their_own_scans(specs, budget):
    first, second = map(parse_interpreter_spec, specs)
    in_family = {pred.name: [] for pred in _family(first)}
    invariance_gap(first, second, [_recording(p, in_family[p.name]) for p in _family(first)], budget)
    for pred in _family(first):
        alone = []
        for interp in (first, second):
            bounded_problem_complexity(tm_class(interp), _recording(pred, alone), budget)
        assert in_family[pred.name] == alone, pred.name


class _CountingLive:
    """An interpreter that counts the calls to its ``live``."""

    def __init__(self, interp):
        self.interp = interp
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.interp, name)

    def live(self, length):
        self.calls += 1
        return self.interp.live(length)


@pytest.mark.parametrize("specs", [("biased:1", "wrap:biased:1"), ("std", "wrap:std")])
def test_invariance_lists_each_tier_once_per_interpreter(specs):
    first, second = (_CountingLive(parse_interpreter_spec(spec)) for spec in specs)
    budget = Budget(12, 256)
    res = invariance_gap(first, second, _family(first.interp), budget)
    assert res == invariance_gap(first.interp, second.interp, _family(first.interp), budget)
    assert first.calls + second.calls <= 2 * (budget.max_len + 1)


def _even_ones(word, budget):
    """A word with an even number of 1s is its own result; the others have none."""
    return word if word.count("1") % 2 == 0 else None


# a class whose every word is live, so a tier holds many results and a
# witness can come before the tier's last one
EVEN_ONES = MachineClassHandle("even-ones", _even_ones, lambda p, x, budget: None, lambda n: [("", _even_ones)])


def test_one_scan_gives_every_predicate_its_oracle_verdict():
    budget = Budget(10, 1)
    family = [builtin(name) for name in ("anyword", "nonempty", "leq:0", "geq:0", "lt:10", "factor:11",
                                         "infactor:0110", "equals:0110", "equals:1", "false")]
    family += [length_equals(n) for n in range(12)]
    profile = growth_profile(EVEN_ONES, family.__getitem__, range(len(family)), budget)
    table = _naive_table(EVEN_ONES, budget)
    for pred, (_, verdict) in zip(family, profile):
        assert _fields(verdict) == _expected_verdict(table, pred, budget.max_len), pred.name
        assert verdict == bounded_problem_complexity(EVEN_ONES, pred, budget), pred.name


def test_growth_profile_equals_its_per_n_scans():
    budget = Budget(max_len=10, fuel=256)
    profile = growth_profile(H1, length_equals, range(0, 41), budget)
    assert profile == [(n, bounded_problem_complexity(H1, length_equals(n), budget)) for n in range(0, 41)]
