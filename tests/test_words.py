import pytest
from hypothesis import given, strategies as st

from minprog.words import (
    Alphabet,
    InvalidWordError,
    MalformedPairError,
    nth_word,
    pair,
    sd,
    shortlex_index,
    shortlex_le,
    unpair,
    word_at,
    words_of_length,
    words_up_to,
)

from oracles import binary_words

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


def test_nth_word_is_one_based():
    assert nth_word(1) == ""
    assert nth_word(2) == "0"
    assert nth_word(3) == "1"
    assert nth_word(4) == "00"


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


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("0", "0"))
    with pytest.raises(ValueError):
        Alphabet(("0", "_"))
    tern = Alphabet(("a", "b", "c"))
    assert [w for w in words_of_length(1, tern)] == ["a", "b", "c"]
    assert word_at(4, tern) == "aa"  # after eps, a, b, c
