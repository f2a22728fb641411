"""Injective, decodable codification of machines as binary words.

A machine's code is a list of numbers: the machine kind, the header, then
the table row by row, every list prefixed by its count.  In the word, each
binary digit d of a number is the block ``0d`` and the block ``10`` ends
the number; the fourth block, ``11``, is never used, so many words fall
outside the image.  Numbers are canonical binary, without leading zeros.

States are renamed into first-use order before encoding (start state
first, then breadth-first through the transition table in sorted read
order).  An explicit memory's cells are numbered in declaration order and
its links listed by (source, type) number.  Its connection types are
numbered by first use over the rule rows, and the types no rule moves by
follow, ordered by their (source, target) links.  Neither state names nor
cell or type names reach the code: it is independent of the names a
machine was built with.  Decoding checks the full structural contract,
these numberings included, and rejects anything else, so every decodable
word is the code of the machine it decodes to, and interpreters can treat
undecodable program words as divergent.  The encoder numbers states with
:func:`canonical_state_order`; the decoder checks the numbering on the
state indices of the rows it read, without naming the states.  A Turing
machine's rows are compiled as they are read, as numbers, straight into
its table (:meth:`MachineTM.numbered`), and the encoder numbers the rows
of a machine's table: neither builds a :class:`Transition`.

The decoder reads numbers, not bits: a word is split into its numbers
first, and :func:`codes_up_to` walks the code grammar over lists of
numbers, a number of d binary digits costing 2d + 2 bits of the word, with
the same decoder as the judge of every list.  :func:`decode_machine` keeps
the machine of each of the last 32 words it accepted; it keeps no error.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cache, lru_cache
from operator import itemgetter
from typing import NoReturn

from .words import BLANK, Alphabet, BINARY
from .turing import MOVE_DELTAS, MOVES, MachineTM, MachineValidationError
from .inductive import ExplicitMemory, LinearMemory, MachineITM, MemoryGraph, Rule

KIND_TM = 0
KIND_ITM = 1
KIND_PIPELINE = 2

BUILTIN_MEMORIES = ("linear", "thm72", "limitlist")

_MAX_COUNT = 1 << 20  # decode sanity bound
DECODE_MEMO_SIZE = 32  # accepted words whose machine decode_machine keeps


class InvalidCodeError(ValueError):
    """The word is not the code of any machine."""


class TruncatedCodeError(InvalidCodeError):
    """The code ended early: its word ran out inside a number, or its
    numbers ran out before one the code still needs, so some extension may
    decode.  The code walk extends exactly these number lists."""


# ---------------------------------------------------------------------------
# numbers and bits

_DIGIT_BLOCKS = str.maketrans({"0": "00", "1": "01"})
_BITS = [f"{n:b}".translate(_DIGIT_BLOCKS) + "10" for n in range(64)]  # of each number below 64


def _word(numbers: list[int]) -> str:
    """The bit word of a list of numbers, in one join: each binary digit d
    becomes the block ``0d``, and the block ``10`` ends the number."""
    return "".join([_BITS[n] if n < 64 else f"{n:b}".translate(_DIGIT_BLOCKS) + "10" for n in numbers])


# every canonical number below 2^10, by its digits
_SMALL = {f"{n:b}": n for n in range(1 << 10)}


class _Numbers:
    """The numbers of a code, read in order.

    ``values`` are the numbers the reader holds.  Reading past them raises
    ``fault``, the error of the number after them, or else a truncation;
    ``unended`` are digits after the last ended number, which a finished
    code may not carry.  A number list on its own, as the code walk reads
    it, has neither: its values alone decide whether it is a code, a
    truncated one or no code."""

    def __init__(self, values: list[int], fault: str = "", unended: str = "") -> None:
        self.values = values
        self.pos = 0
        self.fault = fault
        self.unended = unended

    @classmethod
    def of_word(cls, word: str) -> _Numbers:
        """The numbers of a word, split and converted in one pass: the
        values before its first empty, non-canonical or out-of-range number,
        that number's error (or, after the last ended number, the error of
        unended digits no ending can make valid), and the unended digits."""
        if len(word) % 2 != 0:
            raise InvalidCodeError("odd-length word cannot be split into 2-bit blocks")
        BINARY.check_word(word)  # int() would take hex digits, "_" and spaces
        # As hex numerals, twice the blocks' first bits plus their second bits
        # adds without carries: each block becomes its binary digit, or 2 for
        # the end block 10 (3 for 11); the leading 1 keeps leading 00 blocks.
        blocks = format(int("1" + word[0::2], 16) * 2 + int("0" + word[1::2], 16), "x")[1:]
        if "3" in blocks:
            raise InvalidCodeError("2-bit block '11' is neither a digit nor the end of a number")
        *fields, unended = blocks.split("2")
        values = list(map(_SMALL.get, fields))
        fault = unended and _fault(unended)
        while None in values:  # a number past the small ones, or a fault
            i = values.index(None)
            if field_fault := _fault(fields[i]):
                del values[i:]
                fault = field_fault
                break
            values[i] = int(fields[i], 2)
        return cls(values, fault, unended)

    def number(self, what: str) -> int:
        if self.pos == len(self.values):
            self.fail(what)
        self.pos += 1
        return self.values[self.pos - 1]

    def take(self, count: int) -> list[int]:
        """The next ``count`` numbers, or as many as there are values."""
        row = self.values[self.pos : self.pos + count]
        self.pos += len(row)
        return row

    def fail(self, what: str) -> NoReturn:
        """Raise the error of reading the number after the values as ``what``."""
        if self.fault:
            raise InvalidCodeError(self.fault.format(what))
        raise TruncatedCodeError(f"truncated {what}")

    def done(self) -> bool:
        return self.pos == len(self.values) and not (self.fault or self.unended)


def _fault(digits: str) -> str:
    """The error template for ``digits`` as a number, "" if canonical and in range."""
    if not digits:
        return "empty {}"
    if digits[0] == "0" and len(digits) > 1:
        return "non-canonical {}"
    return "{} out of range" if int(digits, 2) > _MAX_COUNT else ""


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


# the alphabet of each size a code may declare: the digits 0, 1, ..., k-1
_ALPHABETS = {k: BINARY if k == 2 else Alphabet(tuple(str(d) for d in range(k))) for k in range(1, 11)}


# ---------------------------------------------------------------------------
# canonical numbering


def canonical_state_order(machine: MachineTM | MachineITM) -> list[str]:
    """States in first-use order: start, then targets of transitions taken
    in sorted read order, breadth first; unreachable states keep their
    declaration order at the end.  The encoder's numbering; the decoder
    checks it on the rows it read with :func:`_first_use`.

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


def _first_use(pairs: Iterable[tuple[int, int]]) -> bool:
    """Whether states numbered by index are in first-use order, given the
    (state, next state) indices of a table's rows in canonical row order.

    While the numbering holds, the breadth-first walk from state 0 takes the
    states in index order, each with its rows in read order: it is the walk
    over the rows in row order.  Each state a row reaches first must then be
    the next index.  The walk ends at a row of a state not reached: the
    states from there on are unreachable, and they keep index order."""
    reached = 1  # states 0 .. reached-1 are reached
    for state, nxt in pairs:
        if state >= reached:
            break
        if nxt >= reached:
            if nxt > reached:
                return False
            reached += 1
    return True


def _conn_type_order(memory: ExplicitMemory, rules: list[Rule]) -> list[str]:
    """An explicit memory's connection types in code order: the types the
    rules (in row order) move by, in first use, then the others by their
    (source, target) links, numbered by cell.  Types that tie have the same
    links and no rule, so either order gives the same code."""
    used = list(dict.fromkeys(r.move for r in rules if r.move is not None))
    cell = {c: i for i, (c, _) in enumerate(memory.cells)}
    links: dict[str, list[tuple[int, int]]] = {t: [] for t in memory.conn_types}
    for (frm, ctype), to in memory.links.items():
        links[ctype].append((cell[frm], cell[to]))
    rest = [t for t in memory.conn_types if t not in used]
    return used + sorted(rest, key=lambda t: sorted(links[t]))


def _require_canonical(machine: MachineTM | MachineITM, first_use: bool) -> None:
    """Reject a decoded machine whose numbering the encoder would change;
    ``first_use`` is :func:`_first_use` on its rows."""
    memory = getattr(machine, "memory", None)
    if isinstance(memory, ExplicitMemory) and _conn_type_order(memory, machine.rules) != list(memory.conn_types):
        raise InvalidCodeError("connection types are not in canonical order")
    if not first_use:
        raise InvalidCodeError("states are not numbered in first-use order")


# ---------------------------------------------------------------------------
# encoding


def _encode_header(machine: MachineTM | MachineITM, numbers: list[int]) -> dict[str, int]:
    """Append the state count, the alphabet size and the canonical finals;
    returns each state's canonical index."""
    order = canonical_state_order(machine)
    index = {s: i for i, s in enumerate(order)}
    finals = sorted(index[s] for s in machine.finals)
    numbers += (len(order), len(machine.alphabet), len(finals), *finals)
    return index


def _encode_tm(machine: MachineTM, numbers: list[int]) -> None:
    """Append the header and the rows, numbered from the machine's table."""
    index = _encode_header(machine, numbers)
    code = {**machine.alphabet.index, BLANK: len(machine.alphabet)}
    move = {d: i for i, d in enumerate(MOVE_DELTAS)}
    rows = sorted(
        (index[q], code[r0], code[r1], code[r2], index[nxt], code[r0],
         code[r1 if w1 is None else w1], code[r2 if w2 is None else w2], move[d0], move[d1], move[d2])
        for (q, r0, r1, r2), (nxt, w1, w2, d0, d1, d2, *_) in machine.table.items()
    )
    numbers.append(len(rows))
    for row in rows:
        numbers += row


def _encode_itm(machine: MachineITM, numbers: list[int]) -> None:
    """Append the header, the memory description (a builtin's id, or an
    explicit memory's cell kinds and links) and the rule rows."""
    index = _encode_header(machine, numbers)
    alpha = machine.alphabet
    memory = machine.memory
    rules = sorted(machine.rules, key=lambda r: (index[r.state], _symbol_code(alpha, r.read)))
    if memory.builtin is not None:
        types = list(memory.conn_types)
        numbers += (len(types), 0, BUILTIN_MEMORIES.index(memory.builtin))
    elif isinstance(memory, ExplicitMemory):
        types = _conn_type_order(memory, rules)
        kinds = ("input", "work", "output")
        cell = {c: i for i, (c, _) in enumerate(memory.cells)}
        rows = sorted((cell[frm], types.index(ctype), cell[to]) for (frm, ctype), to in memory.links.items())
        numbers += (len(types), 1, len(cell), *(kinds.index(k) for _, k in memory.cells), len(rows))
        for row in rows:
            numbers += row
    else:
        raise InvalidCodeError(f"memory {type(memory).__name__} has no serialized form")
    numbers.append(len(rules))
    for r in rules:
        row = (index[r.state], _symbol_code(alpha, r.read))
        if r.move is None:
            row += (0, _symbol_code(alpha, r.write))  # type: ignore[arg-type]
        elif r.write is None:
            row += (1, types.index(r.move))
        else:
            row += (2, _symbol_code(alpha, r.write), types.index(r.move))
        numbers += (*row, index[r.next_state])


def encode_machine(machine) -> str:
    """The binary code word of a machine.  Injective on canonical forms."""
    if isinstance(machine, MachineTM):
        numbers = [KIND_TM]
        _encode_tm(machine, numbers)
    elif isinstance(machine, MachineITM):
        numbers = [KIND_ITM]
        _encode_itm(machine, numbers)
    else:
        from .hierarchy import DiagonalPipeline  # cycle broken on purpose

        if not isinstance(machine, DiagonalPipeline):
            raise TypeError(f"{machine!r} has no code")
        if isinstance(machine.decider, MachineITM):
            numbers = [KIND_PIPELINE, 0]
            _encode_itm(machine.decider, numbers)
        else:
            # slot form 1, builtin decider 0: the shipped SimDecider
            numbers = [KIND_PIPELINE, 1, 0]
    return _word(numbers)


# ---------------------------------------------------------------------------
# decoding


def _decode_header(reader: _Numbers) -> tuple[int, Alphabet, list[int]]:
    """The state count, the alphabet and the final state indices of a
    header; the states are named only once the rows are read and checked."""
    nstates = reader.number("state count")
    if nstates < 1:
        raise InvalidCodeError("a machine needs at least one state")
    if (k := reader.number("alphabet size")) not in _ALPHABETS:
        raise InvalidCodeError(f"unsupported alphabet size {k}")
    alpha = _ALPHABETS[k]
    nfinals = reader.number("final count")
    finals = [reader.number("final state") for _ in range(nfinals)]
    if finals != sorted(set(finals)) or any(f >= nstates for f in finals):
        raise InvalidCodeError("final state list is not canonical")
    return nstates, alpha, finals


_TM_ROW = ("state", *["read"] * 3, "next state", *["write"] * 3, *["move"] * 3)


def _decode_tm(reader: _Numbers) -> tuple[MachineTM, bool]:
    """The machine, and whether its rows number the states in first-use order.

    The rows are compiled as read, straight into the machine's table.  The
    errors keep one precedence: an index out of range (the first in reading
    order), then rows out of canonical order, then a fault of a row."""
    nstates, alpha, final_ids = _decode_header(reader)
    ntrans = reader.number("transition count")
    width, nsyms = len(_TM_ROW), len(alpha) + 1
    flat = reader.take(width * ntrans)
    pairs = flat[0::width], flat[4::width]  # the state and next-state indices
    # a short row or a state index out of range stops before the states are named
    if len(flat) < width * ntrans or max(pairs[0] + pairs[1], default=0) >= nstates:
        _raise_row_error(reader, flat, nstates, nsyms)
    rows = list(zip(*[iter(flat)] * width))
    states = tuple(f"s{i}" for i in range(nstates))
    try:
        machine = MachineTM.numbered(
            "decoded", states, states[0], frozenset(states[f] for f in final_ids), alpha, rows
        )
    except IndexError:  # a symbol or move index out of range
        _raise_row_error(reader, flat, nstates, nsyms)
    except MachineValidationError:  # a fault of a row, which ranks last
        _check_indices(flat, nstates, nsyms)
        _check_order([row[:4] for row in rows])
        raise
    # the compile found no shared left part, so the rows are in order when their keys are
    _check_order(rows)
    return machine, _first_use(zip(*pairs))


def _check_order(rows: list) -> None:
    if rows != sorted(rows):
        raise InvalidCodeError("transition table is not in canonical order")


def _raise_row_error(reader: _Numbers, flat: list[int], nstates: int, nsyms: int) -> NoReturn:
    """Raise the first error of the transition rows ``flat`` in reading
    order; the last row may stop short at the reader's values."""
    _check_indices(flat, nstates, nsyms)
    reader.fail(_TM_ROW[len(flat) % len(_TM_ROW)])


def _check_indices(flat: list[int], nstates: int, nsyms: int) -> None:
    """Raise the first index out of range in the rows ``flat``, in reading
    order; a row's states are checked once the row is whole."""
    width = len(_TM_ROW)
    for i, value in enumerate(flat):
        what = _TM_ROW[i % width]
        if what in ("read", "write") and value >= nsyms:
            raise InvalidCodeError(f"{what} symbol index {value} out of range")
        if what == "move" and value >= len(MOVES):
            raise InvalidCodeError(f"move index {value} out of range")
        if i % width == width - 1 and max(flat[i - width + 1], flat[i - width + 5]) >= nstates:
            raise InvalidCodeError("transition state index out of range")


def _decode_itm(reader: _Numbers) -> tuple[MachineITM, bool]:
    """The machine, and whether its rows number the states in first-use order."""
    nstates, alpha, final_ids = _decode_header(reader)
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
        if q >= nstates or nq >= nstates:
            raise InvalidCodeError("rule state index out of range")
        if move is not None and move >= len(memory.conn_types):
            raise InvalidCodeError("rule connection type out of range")
        rows.append((q, read, write, move, nq))
    keys = [(q, read) for q, read, *_ in rows]
    if keys != sorted(keys):
        raise InvalidCodeError("rule table is not in canonical order")
    states = tuple(f"s{i}" for i in range(nstates))
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
    finals = frozenset(states[f] for f in final_ids)
    machine = MachineITM("decoded", states, states[0], finals, alpha, rules, memory)
    return machine, _first_use((q, nq) for q, *_, nq in rows)


@lru_cache(maxsize=DECODE_MEMO_SIZE)
def decode_machine(word: str):
    """Inverse of :func:`encode_machine`; raises InvalidCodeError off-image.
    A word among the last 32 accepted returns the same machine at once, which
    is safe to share: its attributes are set by its constructor, its cached
    ``transitions`` and ``sweeps`` follow from its table, and each run keeps
    its state in its own run object.  Errors are not cached."""
    return _decode(_Numbers.of_word(word))


def _decode(reader: _Numbers):
    """The machine whose code is the reader's numbers: the one judge of the
    code grammar, for words and for the code walk's number lists."""
    table = None  # the decoded machine with a table, whose numbering is checked last
    first_use = True  # whether its rows number its states in first-use order
    try:
        kind = reader.number("machine kind")
        if kind in (KIND_TM, KIND_ITM):
            table, first_use = (_decode_tm if kind == KIND_TM else _decode_itm)(reader)
            machine = table
        elif kind == KIND_PIPELINE:
            from .hierarchy import DiagonalPipeline, SimDecider  # cycle broken on purpose

            slot = reader.number("decider slot form")
            if slot == 1:
                builtin = reader.number("builtin decider")
                if builtin != 0:
                    raise InvalidCodeError(f"unknown builtin decider {builtin}")
                machine = DiagonalPipeline(SimDecider())
            elif slot == 0:
                table, first_use = _decode_itm(reader)
                machine = DiagonalPipeline(table)
            else:
                raise InvalidCodeError(f"unknown decider slot form {slot}")
        else:
            raise InvalidCodeError(f"unknown machine kind {kind}")
    except MachineValidationError as exc:
        raise InvalidCodeError(str(exc)) from exc
    if not reader.done():
        raise InvalidCodeError("trailing 2-bit blocks after the last number of the machine code")
    if table is not None:
        _require_canonical(table, first_use)
    return machine


# ---------------------------------------------------------------------------
# walking the code grammar


def _codes(numbers: list[int], spare: int) -> Iterator[tuple[str, object]]:
    """(code, machine) for every code that extends the number list
    ``numbers`` by at most ``spare`` bits.

    The decoder is the grammar: a list that runs out of numbers is extended
    by each number that still fits, a list that decodes is a code (its
    extensions carry trailing numbers), and any other rejection prunes the
    list's extensions.  No number above the decoder's range is listed, so
    every code listed is a word :func:`decode_machine` accepts."""
    try:
        machine = _decode(_Numbers(numbers))
    except TruncatedCodeError:
        for digits in range(1, spare // 2):  # a number of d binary digits costs 2d + 2 bits
            for n in range(1 << digits - 1 if digits > 1 else 0, min(1 << digits, _MAX_COUNT + 1)):
                yield from _codes([*numbers, n], spare - 2 * digits - 2)
    except InvalidCodeError:
        pass
    else:
        yield _word(numbers), machine


@cache
def codes_up_to(bits: int, kind: int | None = None) -> dict[str, object]:
    """Every code of at most ``bits`` bits, in lex order, mapped to the
    machine it decodes to; only the codes of one machine kind when ``kind``
    is given.  Cached for the life of the process."""
    start = [] if kind is None else [kind]
    return dict(sorted(_codes(start, bits - len(_word(start))), key=itemgetter(0)))


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
