"""Alphabets, shortlex-ordered words, and the binary self-delimiting pairing code.

Words are plain Python strings over a declared alphabet of single-character
symbols.  The reserved blank ``_`` never occurs inside a word.  All word
order used anywhere in the toolkit is *shortlex*: shorter words first, ties
broken by symbol order.  Shortlex gives the word universe order type omega,
so every word has a finite index and the enumeration x_1, x_2, ... used by
the schedulers is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

BLANK = "_"


class InvalidWordError(ValueError):
    """A word contains a symbol outside its alphabet."""


class MalformedPairError(ValueError):
    """A word has no valid self-delimiting prefix."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of distinct single-character symbols, blank excluded."""

    symbols: tuple[str, ...] = ("0", "1")
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("alphabet must declare at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        for s in self.symbols:
            if len(s) != 1:
                raise ValueError(f"alphabet symbols must be single characters: {s!r}")
            if s == BLANK:
                raise ValueError("the blank symbol is reserved and cannot be declared")
        object.__setattr__(self, "index", {s: i for i, s in enumerate(self.symbols)})

    def __len__(self) -> int:
        return len(self.symbols)

    def check_word(self, w: str) -> str:
        for ch in w:
            if ch not in self.index:
                raise InvalidWordError(f"symbol {ch!r} is not in alphabet {''.join(self.symbols)}")
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


def word_at(n: int, alphabet: Alphabet = BINARY) -> str:
    """Inverse of :func:`shortlex_index`."""
    if n < 0:
        raise ValueError("word index must be non-negative")
    k = len(alphabet)
    length = 0
    tier = 1  # number of words of the current length
    while n >= tier:
        n -= tier
        length += 1
        tier *= k
    digits = []
    for _ in range(length):
        digits.append(alphabet.symbols[n % k])
        n //= k
    return "".join(reversed(digits))


def nth_word(n: int, alphabet: Alphabet = BINARY) -> str:
    """x_n in the 1-based enumeration: x_1 = empty word, x_2 = first symbol, ..."""
    if n < 1:
        raise ValueError("word enumeration is 1-based")
    return word_at(n - 1, alphabet)


def shortlex_le(a: str, b: str) -> bool:
    """Shortlex order on binary words: by length, then as strings, since
    "0" sorts before "1"."""
    if len(a) != len(b):
        return len(a) < len(b)
    return BINARY.check_word(a) <= BINARY.check_word(b)


def shortlex_lt(a: str, b: str) -> bool:
    return a != b and shortlex_le(a, b)


def words_of_length(length: int, alphabet: Alphabet = BINARY) -> Iterator[str]:
    """All words of exactly ``length`` symbols, in shortlex (= lex) order."""
    if length == 0:
        yield ""
        return
    k = len(alphabet)
    for rank in range(k ** length):
        digits = []
        r = rank
        for _ in range(length):
            digits.append(alphabet.symbols[r % k])
            r //= k
        yield "".join(reversed(digits))


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


def sd_words_of_length(length: int, rights: Callable[[int], Iterable[str]]) -> list[str]:
    """Every binary sd(u) of exactly ``length`` symbols with u one of
    ``rights(len(u))``, in the order ``rights`` lists them."""
    n, odd = divmod(length - 2, 2)
    return [] if odd or n < 0 else [sd(u) for u in rights(n)]


def pairs_of_length(length: int, rights: Callable[[int], Iterable[str]]) -> Iterator[str]:
    """Every binary pair(w, u) of exactly ``length`` symbols whose right part
    is one of ``rights(len(u))``, in lex order.

    The sd prefixes are prefix-free, so two pairs with different right
    parts compare as their sd prefixes do.
    """
    heads = sorted(h for m in range(length + 1) for h in sd_words_of_length(m, rights))
    for head in heads:
        for w in words_of_length(length - len(head)):
            yield head + w


def unpair(p: str) -> tuple[str, str]:
    """Total inverse of :func:`pair` on its image.

    Scans two symbols at a time: a doubled symbol contributes one symbol of
    u, the terminator "01" ends the prefix, anything else is malformed.
    """
    BINARY.check_word(p)
    u_syms: list[str] = []
    i = 0
    while True:
        chunk = p[i : i + 2]
        if len(chunk) < 2:
            raise MalformedPairError(f"word {p!r} ends inside its self-delimiting prefix")
        if chunk == "01":
            return p[i + 2 :], "".join(u_syms)
        if chunk[0] == chunk[1]:
            u_syms.append(chunk[0])
            i += 2
            continue
        raise MalformedPairError(f"word {p!r} has no valid self-delimiting prefix at offset {i}")
