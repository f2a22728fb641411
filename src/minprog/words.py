"""Alphabets, shortlex-ordered words, and the binary self-delimiting pairing code.

Words are plain Python strings over a declared alphabet of single-character
symbols.  The reserved blank ``_`` never occurs inside a word.  All word
order used anywhere in the toolkit is *shortlex*: shorter words first, ties
broken by symbol order.  Shortlex gives the word universe order type omega,
so every word has a finite index and the enumeration x_1, x_2, ... used by
the schedulers is well defined.
"""

from __future__ import annotations

from itertools import count, product
from typing import Iterator

BLANK = "_"


class InvalidWordError(ValueError):
    """A word contains a symbol outside its alphabet."""


class MalformedPairError(ValueError):
    """A word has no valid self-delimiting prefix."""


class Alphabet:
    """An ordered set of distinct single-character symbols, blank excluded."""

    __slots__ = ("symbols", "index", "_drop")

    def __init__(self, symbols: tuple[str, ...] = ("0", "1")) -> None:
        if not symbols:
            raise ValueError("alphabet must declare at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        for s in symbols:
            if len(s) != 1:
                raise ValueError(f"alphabet symbols must be single characters: {s!r}")
            if s == BLANK:
                raise ValueError("the blank symbol is reserved and cannot be declared")
        self.symbols = symbols
        self.index: dict[str, int] = {s: i for i, s in enumerate(symbols)}
        self._drop: dict[int, None] = str.maketrans("", "", "".join(symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    def check_word(self, w: str) -> str:
        """``w`` itself, or InvalidWordError naming its first symbol outside
        the alphabet: what is left once one translate deletes every
        alphabet symbol."""
        if bad := w.translate(self._drop):
            raise InvalidWordError(f"symbol {bad[0]!r} is not in alphabet {''.join(self.symbols)}")
        return w

    def check_symbol(self, s: str) -> str:
        if s == BLANK:
            return s
        if s not in self.index:
            raise InvalidWordError(f"symbol {s!r} is not in alphabet {''.join(self.symbols)}")
        return s


BINARY = Alphabet()


def shortlex_index(w: str) -> int:
    """Index of the binary word ``w`` in the shortlex enumeration; the empty
    word is 0."""
    BINARY.check_word(w)
    # 2^len(w) - 1 shorter words, then w's rank among words of its own
    # length read as a binary numeral
    return (1 << len(w)) - 1 + (int(w, 2) if w else 0)


def word_at(n: int) -> str:
    """Inverse of :func:`shortlex_index`: n + 1 in binary, its leading 1
    dropped."""
    if n < 0:
        raise ValueError("word index must be non-negative")
    return format(n + 1, "b")[1:]


def nth_word(n: int) -> str:
    """x_n in the 1-based enumeration: x_1 = empty word, x_2 = "0", ..."""
    if n < 1:
        raise ValueError("word enumeration is 1-based")
    return word_at(n - 1)


def shortlex_words(alphabet: Alphabet) -> Iterator[str]:
    """x_1, x_2, ... over ``alphabet`` without end: shorter words first,
    ties broken by symbol order."""
    for length in count():
        for letters in product(alphabet.symbols, repeat=length):
            yield "".join(letters)


def shortlex_le(a: str, b: str) -> bool:
    """Shortlex order: by length, then as strings.  On binary words that is
    the enumeration order, since "0" sorts before "1"; on any other strings
    it is still a total order, by length and then by code point, so it
    checks no symbol and raises on none."""
    return (len(a), a) <= (len(b), b)


def shortlex_lt(a: str, b: str) -> bool:
    return (len(a), a) < (len(b), b)


def words_of_length(length: int) -> Iterator[str]:
    """All binary words of exactly ``length`` symbols, in shortlex (= lex) order."""
    if length == 0:
        yield ""
        return
    for rank in range(1 << length):
        yield format(rank, f"0{length}b")


def words_up_to(max_len: int) -> Iterator[str]:
    """All binary words of at most ``max_len`` symbols, in shortlex order."""
    for length in range(max_len + 1):
        yield from words_of_length(length)


def sd(u: str) -> str:
    """Self-delimiting form of the binary word ``u``: each symbol doubled,
    then the terminator "01".

    sd("0") = "0001", sd(eps) = "01".  l(sd(u)) = 2*l(u) + 2.
    """
    BINARY.check_word(u)
    return "".join(ch + ch for ch in u) + "01"


def pair(w: str, u: str) -> str:
    """Encode the binary pair (w, u) as sd(u) followed by w verbatim.

    The right component is the self-delimited one, so the payload w rides
    at the end and the cost of carrying u is the constant 2*l(u) + 2.
    """
    BINARY.check_word(w)
    return sd(u) + w


def unpair(p: str) -> tuple[str, str]:
    """Total inverse of :func:`pair` on its image.

    Reads the word in 2-bit blocks: a doubled symbol contributes one symbol
    of u, the terminator "01" ends the prefix, anything else is malformed.
    The first block whose two bits differ is the top set bit of the xor of
    the blocks' first bits and their second bits, each read as a binary
    numeral, so no Python loop runs per block.
    """
    BINARY.check_word(p)
    n = len(p) // 2
    firsts = p[0 : 2 * n : 2]
    differ = int("0" + firsts, 2) ^ int("0" + p[1 : 2 * n : 2], 2)
    if not differ:
        raise MalformedPairError(f"word {p!r} ends inside its self-delimiting prefix")
    i = n - differ.bit_length()  # the first block whose bits differ
    if firsts[i] == "1":
        raise MalformedPairError(f"word {p!r} has no valid self-delimiting prefix at offset {2 * i}")
    return p[2 * i + 2 :], firsts[:i]
