import time

import pytest
from hypothesis import given, strategies as st

from minprog.complexity import Budget
from minprog.predicates import (
    WORD_ARGUMENT,
    ImplicationRegistry,
    ImplicationViolation,
    PredicateConstructionError,
    any_word,
    bounded_complexity_equals,
    builtin,
    computed_within,
    contains_factor,
    equals,
    false_pred,
    geq,
    is_factor_of,
    length_equals,
    leq,
    lt,
    non_empty,
    shipped_registry,
    small20_family,
)
from minprog.universal import make_biased_universal
from minprog.words import shortlex_index, words_up_to


def test_factor_checks():
    assert contains_factor("01")("101")
    assert not contains_factor("01")("110")
    assert is_factor_of("010")("01")
    assert not is_factor_of("010")("11")


def test_order_predicates_follow_shortlex():
    assert leq("10")("1")  # shorter words come first
    assert leq("10")("10")
    assert not leq("10")("11")
    assert lt("1")("0") and not lt("1")("1")
    assert builtin("geq:")("")  # everything is at least the empty word


def test_false_predicate_is_identically_false():
    f = false_pred()
    assert not any(f(w) for w in words_up_to(6))


def test_builtin_constructor_and_errors():
    assert builtin("equals:01")("01")
    assert builtin("len:2")("10")
    assert builtin("factor:1")("01")
    with pytest.raises(PredicateConstructionError):
        builtin("nosuch:1")
    with pytest.raises(PredicateConstructionError):
        builtin("len:notanumber")
    with pytest.raises(PredicateConstructionError):
        builtin("within:3")  # needs an interpreter
    for name in ("anyword:junk", "nonempty:", "false:0"):
        with pytest.raises(PredicateConstructionError, match="takes no argument"):
            builtin(name)  # a predicate without an argument takes no colon
    assert builtin("geq:").name == "geq:" and builtin("geq:")("")  # an empty argument is the empty word


U1 = make_biased_universal(1)
BUILTIN_NAMES = st.one_of(
    st.sampled_from([p.name for p in small20_family(U1)]),
    st.builds("{}:{}".format, st.sampled_from(sorted(WORD_ARGUMENT)), st.text("01", max_size=3)),
    st.builds("{}:{}".format, st.sampled_from(["len", "within", "bounded-c-equals"]), st.integers(0, 3)),
)


@given(BUILTIN_NAMES, st.text("0123456789", max_size=5))
def test_every_builtin_answers_a_bool_on_any_digit_word(name, word):
    # a program may output symbols outside {0, 1}; no predicate may raise on them
    assert isinstance(builtin(name, interp=U1, budget=Budget(3, 64))(word), bool)


@given(st.text("01", max_size=6), st.text("01", max_size=6))
def test_order_predicates_agree_with_the_shortlex_index(z, w):
    i, j = shortlex_index(w), shortlex_index(z)
    assert (leq(z)(w), geq(z)(w), lt(z)(w)) == (i <= j, i >= j, i < j)


def test_computed_within_is_total_and_sound():
    u1 = make_biased_universal(1)
    p = computed_within(3, u1)
    assert p("0")  # the shortcut program emits it instantly
    assert not p("1")
    assert not p("")


def test_bounded_complexity_equals_predicate():
    from minprog.complexity import Budget

    u1 = make_biased_universal(1)
    p = bounded_complexity_equals(1, u1, Budget(max_len=4, fuel=64))
    assert p("0")
    assert not p("1") and not p("")


@pytest.mark.parametrize("n", range(1, 4))
def test_bounded_complexity_equals_scans_only_to_its_tier(n):
    from minprog.complexity import Budget, bounded_kolmogorov, tm_class

    interp, budget = make_biased_universal(n), Budget(max_len=10, fuel=64)
    words = ["", "0", "1", "00", "01", "10", "11"]
    uncapped = {w: bounded_kolmogorov(tm_class(interp), w, budget).value for w in words}
    for c in range(-1, 13):
        p = bounded_complexity_equals(c, interp, budget)
        assert [p(w) for w in words] == [uncapped[w] == c for w in words], c


def test_one_bounded_complexity_check_lists_at_most_its_tiers():
    from minprog.complexity import Budget

    interp = make_biased_universal(1)
    tiers = []
    live = interp.live
    interp.live = lambda length: tiers.append(length) or live(length)
    for n in range(-1, 8):
        tiers.clear()
        bounded_complexity_equals(n, interp, Budget(max_len=6, fuel=64))("1")
        assert len(tiers) <= max(n + 1, 0), (n, tiers)


def test_predicates_total_on_long_words():
    u1 = make_biased_universal(1)
    preds = [
        any_word(), non_empty(), equals("0110"), leq("101"), lt("11"),
        contains_factor("010"), is_factor_of("0101010101"), length_equals(12),
        computed_within(3, u1), false_pred(),
    ]
    start = time.monotonic()
    for p in preds:
        for w in ["0" * 12, "01" * 6, "1" * 12]:
            p(w)
    assert time.monotonic() - start < 5.0


def test_check_implication_examples():
    reg = ImplicationRegistry()
    reg.register(equals("01"), contains_factor("0"))
    reg.register(lt("010"), leq("010"))
    assert len(reg) == 2
    # "1" is the shortlex-least non-empty word that is not "0"
    with pytest.raises(ImplicationViolation, match="counterexample '1'"):
        reg.register(non_empty(), equals("0"))
    assert len(reg) == 2


def test_registration_of_bad_edge_names_a_counterexample():
    reg = shipped_registry()
    with pytest.raises(ImplicationViolation, match="counterexample '1'"):
        reg.register(non_empty(), equals("0"))


def test_shipped_registry_size_and_soundness_at_larger_length():
    reg = shipped_registry()
    assert len(reg) >= 30
    for p, q, _ in reg.edges:
        assert not any(p(w) and not q(w) for w in words_up_to(7)), (p.name, q.name)


def test_small20_family_has_twenty_distinct_predicates():
    fam = small20_family(make_biased_universal(1))
    assert len(fam) == 20
    assert len({p.name for p in fam}) == 20


@pytest.mark.parametrize("spec", ["std", "wrap:std", "biased:1", "biased:2", "biased:3"])
def test_computed_within_agrees_with_the_all_words_definition(spec):
    from minprog.universal import parse_interpreter_spec

    interp = parse_interpreter_spec(spec)
    for n in range(7):
        p = computed_within(n, interp)
        for w in words_up_to(4):
            assert p(w) == any(interp.apply(q, n).result == w for q in words_up_to(n)), (n, w)
