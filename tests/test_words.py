from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from minprog.words import (
    BINARY,
    Alphabet,
    InvalidWordError,
    MalformedPairError,
    nth_word,
    pair,
    sd,
    shortlex_index,
    shortlex_le,
    shortlex_lt,
    shortlex_words,
    unpair,
    word_at,
    words_up_to,
)

from oracles import _nth_word, _plain_unpair, binary_words

binary = st.text(alphabet="01", max_size=12)


def test_shortlex_first_values():
    assert shortlex_index("") == 0
    assert shortlex_index("0") == 1
    assert shortlex_index("1") == 2
    assert shortlex_index("00") == 3
    assert word_at(3) == "00"


def test_shortlex_enumeration_matches_exhaustive_order():
    listed = list(words_up_to(4))
    brute = sorted(binary_words(4), key=lambda w: (len(w), w))
    assert listed == brute
    for i, w in enumerate(listed):
        assert shortlex_index(w) == i
        assert word_at(i) == w


def test_word_at_roundtrip_up_to_len_10():
    for w in words_up_to(10):
        assert word_at(shortlex_index(w)) == w


def test_word_at_equals_the_oracle_below_2_to_the_14():
    for n in range(1 << 14):
        assert word_at(n) == _nth_word(n + 1, "01")
    with pytest.raises(ValueError, match="non-negative"):
        word_at(-1)


def test_nth_word_is_one_based():
    assert nth_word(1) == ""
    assert nth_word(2) == "0"
    assert nth_word(3) == "1"
    assert nth_word(4) == "00"


@pytest.mark.parametrize("alphabet", [BINARY, Alphabet(("1", "0")), Alphabet(("a", "b", "c")), Alphabet(("0",))],
                         ids=["binary", "reversed", "three", "unary"])
def test_shortlex_words_are_the_nth_words_in_turn(alphabet):
    count = 400
    assert list(islice(shortlex_words(alphabet), count)) == [
        _nth_word(i, alphabet.symbols) for i in range(1, count + 1)]


def test_invalid_symbol_rejected():
    with pytest.raises(InvalidWordError):
        shortlex_index("102")
    with pytest.raises(InvalidWordError):
        shortlex_index("_")


def test_pair_fixed_values():
    assert pair("", "") == "01"
    assert pair("1", "0") == "00011"


def test_unpair_by_hand_decoding():
    # prefix 0001 encodes "0", remainder is the payload
    assert unpair("000101") == ("01", "0")
    # prefix 001101 consumes the whole word: chunks 00, 11, then the stop
    assert unpair("001101") == ("", "01")


def test_unpair_malformed():
    for bad in ["", "1", "11", "10", "0010", "000"]:
        with pytest.raises(MalformedPairError):
            unpair(bad)
    for bad in ["", "000"]:
        with pytest.raises(MalformedPairError) as caught:
            unpair(bad)
        assert str(caught.value) == f"word {bad!r} ends inside its self-delimiting prefix"
    for bad, offset in [("10", 0), ("0010", 2)]:
        with pytest.raises(MalformedPairError) as caught:
            unpair(bad)
        assert str(caught.value) == f"word {bad!r} has no valid self-delimiting prefix at offset {offset}"
    with pytest.raises(InvalidWordError) as caught:
        unpair("00a1b")
    assert str(caught.value) == "symbol 'a' is not in alphabet 01"


def test_unpair_long_words():
    """Far past the 4,300 digits CPython converts between int and a
    non-power-of-two base: the offsets stay exact."""
    u, w = "01" * 5_000, "1" * 1_001
    p = pair(w, u)
    assert len(p) > 20_000
    assert unpair(p) == (w, u)
    head = sd(u)[:-2]
    with pytest.raises(MalformedPairError, match=f"at offset {len(head)}$"):
        unpair(head + "10" + w)
    with pytest.raises(MalformedPairError, match="ends inside its self-delimiting prefix$"):
        unpair(head + "0")


@st.composite
def unpair_inputs(draw):
    """Pairs, their truncations and 1-bit edits, and arbitrary words, odd
    lengths included."""
    word = draw(st.text(alphabet="01", max_size=40))
    p = pair(draw(binary), draw(binary))
    form = draw(st.sampled_from(["pair", "truncated", "edited", "any"]))
    if form == "truncated":
        return p[: draw(st.integers(0, len(p)))]
    if form == "edited":
        i = draw(st.integers(0, len(p) - 1))
        return p[:i] + "10"[int(p[i])] + p[i + 1 :]
    return p if form == "pair" else word


@settings(max_examples=500)
@given(unpair_inputs())
def test_unpair_matches_the_plain_reader(p):
    want = _plain_unpair(p)
    if want is None:
        with pytest.raises(MalformedPairError):
            unpair(p)
    else:
        assert unpair(p) == want


def test_additive_length_law_exact():
    sample_u = list(words_up_to(3))[:10]
    assert len(sample_u) == 10
    for u in sample_u:
        k_u = 2 * len(u) + 2
        for w in words_up_to(8):
            assert len(pair(w, u)) - len(w) == k_u


def test_pair_injective_on_large_sample():
    words = list(words_up_to(6))[:100]
    seen = {}
    for w in words:
        for u in words:
            p = pair(w, u)
            assert p not in seen, (seen[p], (w, u))
            seen[p] = (w, u)
    assert len(seen) == 10_000


@given(binary, binary)
def test_unpair_inverts_pair(w, u):
    assert unpair(pair(w, u)) == (w, u)


@given(binary)
def test_sd_length_law(u):
    assert len(sd(u)) == 2 * len(u) + 2


@given(st.integers(min_value=0, max_value=100_000))
def test_index_word_bijection(n):
    assert shortlex_index(word_at(n)) == n


def test_shortlex_le_total_order():
    ws = list(words_up_to(3))
    for i, a in enumerate(ws):
        for j, b in enumerate(ws):
            assert shortlex_le(a, b) == (i <= j)


@given(st.text(max_size=4), st.text(max_size=4), st.text(max_size=4))
def test_shortlex_order_is_total_on_any_strings(a, b, c):
    # words outside {0, 1} are ordered too, by length and then code point, and raise nothing
    assert shortlex_le(a, b) or shortlex_le(b, a)
    assert (shortlex_le(a, b) and shortlex_le(b, a)) == (a == b)
    assert shortlex_lt(a, b) == (shortlex_le(a, b) and a != b)
    if shortlex_le(a, b) and shortlex_le(b, c):
        assert shortlex_le(a, c)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("0", "0"))
    with pytest.raises(ValueError):
        Alphabet(("0", "_"))
    tern = Alphabet(("a", "b", "c"))
    assert list(islice(shortlex_words(tern), 5)) == ["", "a", "b", "c", "aa"]
