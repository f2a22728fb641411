"""Injective, decodable codification of machines as binary words.

A machine serializes to a token stream over {0, 1, SEP}; each token maps to
a fixed 2-bit block, leaving the fourth block ("11") unused so that many
words fall outside the image.  Numbers are canonical binary terminated by
SEP; every list is count-prefixed, so the stream is prefix-decodable.

States are renamed into first-use order before encoding (start state
first, then breadth-first through the transition table in sorted read
order), and an explicit memory's cells and connection types are numbered
in declaration order, its links listed by those numbers.  Neither state
names nor cell names reach the code: it is independent of the names a
machine was built with.  Decoding checks the full structural contract and rejects
anything else, so interpreters can treat undecodable program words as
divergent.
"""

from __future__ import annotations

from functools import cache

from .words import BLANK, Alphabet, BINARY
from .turing import MOVES, MachineTM, MachineValidationError, Transition
from .inductive import ExplicitMemory, LinearMemory, MachineITM, MemoryGraph, Rule

SEP = 2
_TOKEN_BITS = {0: "00", 1: "01", SEP: "10"}
_BITS_TOKEN = {v: k for k, v in _TOKEN_BITS.items()}

KIND_TM = 0
KIND_ITM = 1
KIND_PIPELINE = 2

BUILTIN_MEMORIES = ("linear", "thm72", "limitlist")

_MAX_COUNT = 1 << 20  # decode sanity bound


class InvalidCodeError(ValueError):
    """The word is not the code of any machine."""


class TruncatedCodeError(InvalidCodeError):
    """The token stream ended inside a code: some extension may decode."""


# ---------------------------------------------------------------------------
# token stream helpers


def _emit_number(tokens: list[int], n: int) -> None:
    if n < 0:
        raise ValueError("cannot encode a negative number")
    for ch in format(n, "b"):
        tokens.append(int(ch))
    tokens.append(SEP)


class _TokenReader:
    def __init__(self, tokens: list[int]) -> None:
        self.tokens = tokens
        self.pos = 0

    def number(self, what: str = "number") -> int:
        digits: list[int] = []
        while True:
            if self.pos >= len(self.tokens):
                raise TruncatedCodeError(f"truncated {what}")
            tok = self.tokens[self.pos]
            self.pos += 1
            if tok == SEP:
                break
            digits.append(tok)
        if not digits:
            raise InvalidCodeError(f"empty {what}")
        if digits[0] == 0 and len(digits) > 1:
            raise InvalidCodeError(f"non-canonical {what}")
        n = 0
        for d in digits:
            n = n * 2 + d
        if n > _MAX_COUNT:
            raise InvalidCodeError(f"{what} out of range")
        return n

    def done(self) -> bool:
        return self.pos == len(self.tokens)


def _tokens_to_word(tokens: list[int]) -> str:
    return "".join(_TOKEN_BITS[t] for t in tokens)


def _word_to_tokens(word: str) -> list[int]:
    if len(word) % 2 != 0:
        raise InvalidCodeError("odd-length word cannot be a token stream")
    tokens = []
    for i in range(0, len(word), 2):
        chunk = word[i : i + 2]
        tok = _BITS_TOKEN.get(chunk)
        if tok is None:
            raise InvalidCodeError(f"chunk {chunk!r} is not a token")
        tokens.append(tok)
    return tokens


# ---------------------------------------------------------------------------
# symbol and alphabet helpers

def _symbol_code(alphabet: Alphabet, sym: str) -> int:
    return len(alphabet) if sym == BLANK else alphabet.index[sym]


def _symbol_from_code(alphabet: Alphabet, code: int, what: str) -> str:
    if code == len(alphabet):
        return BLANK
    if 0 <= code < len(alphabet):
        return alphabet.symbols[code]
    raise InvalidCodeError(f"{what} symbol index {code} out of range")


def _alphabet_of_size(k: int) -> Alphabet:
    if k == 2:
        return BINARY
    if not 1 <= k <= 10:
        raise InvalidCodeError(f"unsupported alphabet size {k}")
    return Alphabet(tuple(str(d) for d in range(k)))


# ---------------------------------------------------------------------------
# canonical state order


def canonical_state_order(machine: MachineTM | MachineITM) -> list[str]:
    """States in first-use order: start, then targets of transitions taken
    in sorted read order, breadth first; unreachable states keep their
    declaration order at the end.

    Both machine kinds key their table by (state, *reads) and put the next
    state first in each entry."""
    by_state: dict[str, list[tuple[tuple[int, ...], str]]] = {}
    for (state, *reads), entry in machine.table.items():
        key = tuple(_symbol_code(machine.alphabet, s) for s in reads)
        by_state.setdefault(state, []).append((key, entry[0]))
    order = [machine.start]
    seen = {machine.start}
    queue = [machine.start]
    while queue:
        state = queue.pop(0)
        for _, nxt in sorted(by_state.get(state, []), key=lambda e: e[0]):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    for s in machine.states:
        if s not in seen:
            seen.add(s)
            order.append(s)
    return order


# ---------------------------------------------------------------------------
# encoding


def _encode_header(machine: MachineTM | MachineITM, tokens: list[int]) -> dict[str, int]:
    """Emit the state count, the alphabet size and the canonical finals;
    returns each state's canonical index."""
    order = canonical_state_order(machine)
    index = {s: i for i, s in enumerate(order)}
    _emit_number(tokens, len(order))
    _emit_number(tokens, len(machine.alphabet))
    finals = sorted(index[s] for s in machine.finals)
    _emit_number(tokens, len(finals))
    for f in finals:
        _emit_number(tokens, f)
    return index


def _encode_tm_tokens(machine: MachineTM, tokens: list[int]) -> None:
    index = _encode_header(machine, tokens)
    alpha = machine.alphabet
    rows = []
    for t in machine.transitions:
        rows.append(
            (
                index[t.state],
                tuple(_symbol_code(alpha, s) for s in t.reads),
                index[t.next_state],
                tuple(_symbol_code(alpha, s) for s in t.writes),
                tuple(MOVES.index(m) for m in t.moves),
            )
        )
    rows.sort(key=lambda r: (r[0], r[1]))
    _emit_number(tokens, len(rows))
    for q, reads, nq, writes, moves in rows:
        _emit_number(tokens, q)
        for r in reads:
            _emit_number(tokens, r)
        _emit_number(tokens, nq)
        for w in writes:
            _emit_number(tokens, w)
        for m in moves:
            _emit_number(tokens, m)


def _encode_memory_tokens(memory: MemoryGraph, tokens: list[int]) -> None:
    """Emit the memory description: a builtin's id, or an explicit memory's
    cell kinds and links, the links sorted by (source, type) index."""
    desc = memory.describe()  # type: ignore[attr-defined]
    if desc[0] == "builtin":
        _emit_number(tokens, 0)
        _emit_number(tokens, BUILTIN_MEMORIES.index(desc[1]))
        return
    if desc[0] != "explicit":
        raise InvalidCodeError(f"memory {desc[0]!r} has no serialized form")
    _, cells, links = desc
    kinds = {"input": 0, "work": 1, "output": 2}
    index = {c: i for i, (c, _) in enumerate(cells)}
    _emit_number(tokens, 1)
    _emit_number(tokens, len(cells))
    for _, kind in cells:
        _emit_number(tokens, kinds[kind])
    rows = sorted((index[frm], memory.conn_types.index(ctype), index[to]) for (frm, ctype), to in links)
    _emit_number(tokens, len(rows))
    for row in rows:
        for n in row:
            _emit_number(tokens, n)


def _encode_itm_tokens(machine: MachineITM, tokens: list[int]) -> None:
    index = _encode_header(machine, tokens)
    alpha = machine.alphabet
    _emit_number(tokens, len(machine.memory.conn_types))
    _encode_memory_tokens(machine.memory, tokens)
    rows = []
    for r in machine.rules:
        form = 2 if (r.write is not None and r.move is not None) else (0 if r.move is None else 1)
        rows.append(
            (
                index[r.state],
                _symbol_code(alpha, r.read),
                form,
                None if r.write is None else _symbol_code(alpha, r.write),
                None if r.move is None else machine.memory.conn_types.index(r.move),
                index[r.next_state],
            )
        )
    rows.sort(key=lambda r: (r[0], r[1]))
    _emit_number(tokens, len(rows))
    for q, read, form, write, move, nq in rows:
        _emit_number(tokens, q)
        _emit_number(tokens, read)
        _emit_number(tokens, form)
        if form in (0, 2):
            _emit_number(tokens, write)  # type: ignore[arg-type]
        if form in (1, 2):
            _emit_number(tokens, move)  # type: ignore[arg-type]
        _emit_number(tokens, nq)


def encode_machine(machine) -> str:
    """The binary code word of a machine.  Injective on canonical forms."""
    tokens: list[int] = []
    kind = getattr(machine, "kind", None)
    if isinstance(machine, MachineTM):
        _emit_number(tokens, KIND_TM)
        _encode_tm_tokens(machine, tokens)
    elif isinstance(machine, MachineITM):
        _emit_number(tokens, KIND_ITM)
        _encode_itm_tokens(machine, tokens)
    elif kind == "diagonal-pipeline":
        _emit_number(tokens, KIND_PIPELINE)
        if isinstance(machine.decider, MachineITM):
            _emit_number(tokens, 0)
            _encode_itm_tokens(machine.decider, tokens)
        else:
            # slot form 1, builtin decider 0: the shipped SimDecider
            _emit_number(tokens, 1)
            _emit_number(tokens, 0)
    else:
        raise TypeError(f"{machine!r} has no code")
    return _tokens_to_word(tokens)


# ---------------------------------------------------------------------------
# decoding


def _decode_header(reader: _TokenReader) -> tuple[tuple[str, ...], Alphabet, frozenset[str]]:
    """The states s0, s1, ..., the alphabet and the finals of a header."""
    nstates = reader.number("state count")
    if nstates < 1:
        raise InvalidCodeError("a machine needs at least one state")
    alpha = _alphabet_of_size(reader.number("alphabet size"))
    nfinals = reader.number("final count")
    finals = [reader.number("final state") for _ in range(nfinals)]
    if finals != sorted(set(finals)) or any(f >= nstates for f in finals):
        raise InvalidCodeError("final state list is not canonical")
    states = tuple(f"s{i}" for i in range(nstates))
    return states, alpha, frozenset(states[f] for f in finals)


def _decode_tm(reader: _TokenReader) -> MachineTM:
    states, alpha, finals = _decode_header(reader)
    ntrans = reader.number("transition count")
    rows = []
    for _ in range(ntrans):
        q = reader.number("state")
        reads = tuple(_symbol_from_code(alpha, reader.number("read"), "read") for _ in range(3))
        nq = reader.number("next state")
        writes = tuple(_symbol_from_code(alpha, reader.number("write"), "write") for _ in range(3))
        moves = []
        for _ in range(3):
            m = reader.number("move")
            if m >= len(MOVES):
                raise InvalidCodeError(f"move index {m} out of range")
            moves.append(MOVES[m])
        if q >= len(states) or nq >= len(states):
            raise InvalidCodeError("transition state index out of range")
        rows.append((q, reads, nq, writes, tuple(moves)))
    keys = [(q, tuple(_symbol_code(alpha, s) for s in reads)) for q, reads, *_ in rows]
    if keys != sorted(keys):
        raise InvalidCodeError("transition table is not in canonical order")
    trans = tuple(
        Transition(states[q], reads, states[nq], writes, moves)
        for q, reads, nq, writes, moves in rows
    )
    return MachineTM("decoded", states, states[0], finals, alpha, trans)


def _decode_itm(reader: _TokenReader) -> MachineITM:
    states, alpha, finals = _decode_header(reader)
    nconn = reader.number("connection type count")
    mem_form = reader.number("memory form")
    if mem_form == 0:
        builtin = reader.number("builtin memory id")
        if builtin >= len(BUILTIN_MEMORIES):
            raise InvalidCodeError(f"unknown builtin memory id {builtin}")
        memory = builtin_memory(BUILTIN_MEMORIES[builtin])
        if nconn != len(memory.conn_types):
            raise InvalidCodeError("connection type count does not match builtin memory")
    elif mem_form == 1:
        conn_types = tuple(f"t{i}" for i in range(nconn))
        ncells = reader.number("cell count")
        kinds = ("input", "work", "output")
        cells = []
        for i in range(ncells):
            k = reader.number("cell kind")
            if k >= len(kinds):
                raise InvalidCodeError(f"cell kind {k} out of range")
            cells.append((f"k{i}", kinds[k]))
        nlinks = reader.number("link count")
        links = []
        for _ in range(nlinks):
            frm = reader.number("link source")
            ct = reader.number("link type")
            to = reader.number("link target")
            if frm >= ncells or to >= ncells or ct >= nconn:
                raise InvalidCodeError("link index out of range")
            links.append((frm, ct, to))
        if links != sorted(links):
            raise InvalidCodeError("link list is not in canonical order")
        memory = ExplicitMemory(cells, [(f"k{f}", conn_types[c], f"k{t}") for f, c, t in links], conn_types)
    else:
        raise InvalidCodeError(f"unknown memory form {mem_form}")
    nrules = reader.number("rule count")
    rows = []
    for _ in range(nrules):
        q = reader.number("state")
        read = reader.number("read")
        form = reader.number("rule form")
        if form > 2:
            raise InvalidCodeError(f"rule form {form} out of range")
        write = reader.number("write") if form in (0, 2) else None
        move = reader.number("move type") if form in (1, 2) else None
        nq = reader.number("next state")
        if q >= len(states) or nq >= len(states):
            raise InvalidCodeError("rule state index out of range")
        if move is not None and move >= len(memory.conn_types):
            raise InvalidCodeError("rule connection type out of range")
        rows.append((q, read, write, move, nq))
    keys = [(q, read) for q, read, *_ in rows]
    if keys != sorted(keys):
        raise InvalidCodeError("rule table is not in canonical order")
    rules = tuple(
        Rule(
            state=states[q],
            read=_symbol_from_code(alpha, read, "read"),
            next_state=states[nq],
            write=None if write is None else _symbol_from_code(alpha, write, "write"),
            move=None if move is None else memory.conn_types[move],
        )
        for q, read, write, move, nq in rows
    )
    return MachineITM("decoded", states, states[0], finals, alpha, rules, memory)


def decode_machine(word: str):
    """Inverse of :func:`encode_machine`; raises InvalidCodeError off-image."""
    reader = _TokenReader(_word_to_tokens(word))
    try:
        kind = reader.number("machine kind")
        if kind == KIND_TM:
            machine = _decode_tm(reader)
        elif kind == KIND_ITM:
            machine = _decode_itm(reader)
        elif kind == KIND_PIPELINE:
            from .hierarchy import DiagonalPipeline, SimDecider  # cycle broken on purpose

            slot = reader.number("decider slot form")
            if slot == 1:
                builtin = reader.number("builtin decider")
                if builtin != 0:
                    raise InvalidCodeError(f"unknown builtin decider {builtin}")
                machine = DiagonalPipeline(SimDecider())
            elif slot == 0:
                machine = DiagonalPipeline(_decode_itm(reader))
            else:
                raise InvalidCodeError(f"unknown decider slot form {slot}")
        else:
            raise InvalidCodeError(f"unknown machine kind {kind}")
    except MachineValidationError as exc:
        raise InvalidCodeError(str(exc)) from exc
    if not reader.done():
        raise InvalidCodeError("trailing tokens after machine code")
    return machine


# ---------------------------------------------------------------------------
# enumerating the code grammar


def _kind_head(kind: int) -> str:
    tokens: list[int] = []
    _emit_number(tokens, kind)
    return _tokens_to_word(tokens)


# Every code starts with its kind number.  The heads are prefix-disjoint, so
# each kind's codes form one subtree, and listing the kinds in head order
# lists all codes in lex order.
_KIND_HEADS = {kind: _kind_head(kind) for kind in (KIND_TM, KIND_ITM, KIND_PIPELINE)}


class _CodeTree:
    """The codes under one kind head, grown a token level at a time.

    The decoder is the grammar: a prefix that runs out of tokens is extended
    by each token, a prefix that decodes is a code (its extensions carry
    trailing tokens), and any other rejection prunes the prefix's subtree.
    Only the deepest frontier is kept, so each prefix is decoded once.
    """

    def __init__(self, head: str) -> None:
        self.frontier = [head]
        self.bits = len(head)
        self.codes: dict[int, list[str]] = {}

    def of_length(self, bits: int) -> list[str]:
        while self.bits < bits and self.frontier:
            frontier = []
            for prefix in self.frontier:
                for token in ("00", "01", "10"):
                    word = prefix + token
                    try:
                        decode_machine(word)
                    except TruncatedCodeError:
                        frontier.append(word)
                    except InvalidCodeError:
                        continue
                    else:
                        self.codes.setdefault(len(word), []).append(word)
            self.frontier = frontier
            self.bits += 2
        return self.codes.get(bits, [])


@cache
def _code_tree(kind: int) -> _CodeTree:
    return _CodeTree(_KIND_HEADS[kind])


def codes_of_length(bits: int, kind: int | None = None) -> list[str]:
    """Every decodable code of exactly ``bits`` bits, in lex order; only
    the codes of one machine kind when ``kind`` is given.

    Results are cached for the life of the process.
    """
    if bits % 2:
        return []  # codes are whole 2-bit tokens; do not grow the walk for none
    kinds = sorted(_KIND_HEADS, key=_KIND_HEADS.get) if kind is None else [kind]
    return [code for k in kinds for code in _code_tree(k).of_length(bits)]


def builtin_memory(name: str) -> MemoryGraph:
    """Instantiate a named builtin memory generator."""
    from . import hierarchy  # imports this module, so not at the top

    if name == "linear":
        return LinearMemory()
    if name == "thm72":
        return hierarchy.thm72_memory()
    if name == "limitlist":
        return hierarchy.limitlist_memory()
    raise ValueError(f"unknown builtin memory {name!r}")
