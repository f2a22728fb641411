"""Line-oriented machine description format.

Shared by both machine families.  ``#`` starts a comment, ``_`` is the
blank symbol literal, and an error in one line names that line.  Errors
that only the whole description shows name no line: a missing directive,
a bad alphabet, a directive of the other family, and an undeclared start,
final or next state or a write to the input tape, which the machine's own
checks find.  The same module serializes machines back to text; a parsed
file serializes and re-parses to an identical machine.

    machine <name>
    kind tm|itm
    alphabet <symbols>            # e.g. 01
    states <list>
    start <state>
    final <list>                  # may be empty
    trans <q> <r1> <r2> <r3> -> <q'> <w1> <w2> <w3> <m1> <m2> <m3>
    conn-types <list>             # itm
    memory builtin:<name>|explicit
    cell <id> <input|work|output>
    link <from> <type> <to>
    rule <q> <sym> -> write <sym> <q'>
    rule <q> <sym> -> move <type> <q'>
    rule <q> <sym> -> write <sym> move <type> <q'>
"""

from __future__ import annotations

from functools import lru_cache

from .words import BLANK, Alphabet
from .turing import MOVES, MachineTM, MachineValidationError, Transition
from .inductive import ExplicitMemory, MachineITM, MemoryGraph, Rule
from .codec import BUILTIN_MEMORIES, InvalidCodeError, builtin_memory


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _require(cond: bool, message: str, line: int) -> None:
    if not cond:
        raise ParseError(message, line)


@lru_cache(maxsize=32)
def parse_machine_file(text: str):
    """Parse one machine description; returns a MachineTM or MachineITM.
    A text among the last 32 parsed returns the same machine at once, which
    is safe to share: its attributes are set by its constructor, its cached
    ``transitions`` and ``sweeps`` follow from its table, and each run keeps
    its state in its own run object.  Errors are not cached."""
    name = None
    kind = None
    alphabet_syms = None
    states: list[str] | None = None
    start = None
    finals: list[str] | None = None
    conn_types: list[str] | None = None
    memory_decl: tuple[str, int] | None = None  # (spec, line)
    cells: list[tuple[str, str, int]] = []
    links: list[tuple[str, str, str, int]] = []
    trans_rows: list[tuple[list[str], int]] = []
    rule_rows: list[tuple[list[str], int]] = []
    declared: dict[str, int] = {}  # directive -> its line, for those that may appear once

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head, args = tokens[0], tokens[1:]
        if head not in ("trans", "cell", "link", "rule") and declared.setdefault(head, lineno) != lineno:
            raise ParseError(f"{head} already declared on line {declared[head]}", lineno)
        if head == "machine":
            _require(len(args) == 1, "machine takes exactly one name", lineno)
            name = args[0]
        elif head == "kind":
            _require(len(args) == 1 and args[0] in ("tm", "itm"), "kind must be tm or itm", lineno)
            kind = args[0]
        elif head == "alphabet":
            _require(len(args) == 1, "alphabet takes one symbol string", lineno)
            alphabet_syms = tuple(args[0])
        elif head == "states":
            _require(len(args) >= 1, "states needs at least one state", lineno)
            _require(len(set(args)) == len(args), "duplicate state declaration", lineno)
            states = args
        elif head == "start":
            _require(len(args) == 1, "start takes exactly one state", lineno)
            start = args[0]
        elif head == "final":
            _require(len(set(args)) == len(args), "final lists a state twice", lineno)
            finals = args
        elif head == "trans":
            _require("->" in args, "trans needs '->'", lineno)
            trans_rows.append((args, lineno))
        elif head == "conn-types":
            _require(len(set(args)) == len(args), "duplicate connection type declaration", lineno)
            conn_types = args
        elif head == "memory":
            _require(len(args) == 1, "memory takes one form", lineno)
            memory_decl = (args[0], lineno)
        elif head == "cell":
            _require(len(args) == 2, "cell takes an id and a register kind", lineno)
            cells.append((args[0], args[1], lineno))
        elif head == "link":
            _require(len(args) == 3, "link takes from, type, to", lineno)
            links.append((args[0], args[1], args[2], lineno))
        elif head == "rule":
            _require("->" in args, "rule needs '->'", lineno)
            rule_rows.append((args, lineno))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)

    if name is None:
        raise ParseError("missing 'machine <name>' directive")
    if kind is None:
        raise ParseError("missing 'kind' directive")
    if alphabet_syms is None:
        alphabet_syms = ("0", "1")
    try:
        alphabet = Alphabet(alphabet_syms)
    except ValueError as exc:
        raise ParseError(f"bad alphabet: {exc}") from exc
    if states is None:
        raise ParseError("missing 'states' directive")
    if start is None:
        raise ParseError("missing 'start' directive")
    finals = finals or []

    try:
        if kind == "tm":
            if rule_rows or cells or links or memory_decl or conn_types:
                raise ParseError("itm directives are not allowed in a tm description")
            return _build_tm(name, alphabet, states, start, finals, trans_rows)
        if trans_rows:
            raise ParseError("trans lines are not allowed in an itm description")
        return _build_itm(
            name, alphabet, states, start, finals, conn_types, memory_decl, cells, links, rule_rows
        )
    except MachineValidationError as exc:
        raise ParseError(str(exc)) from exc


def _check_symbol(alphabet: Alphabet, sym: str, line: int) -> str:
    if sym == BLANK:
        return sym
    if len(sym) != 1 or sym not in alphabet.index:
        raise ParseError(f"symbol {sym!r} is not in the alphabet", line)
    return sym


def _build_tm(name, alphabet, states, start, finals, trans_rows) -> MachineTM:
    transitions = []
    seen: dict[tuple, int] = {}
    for args, line in trans_rows:
        arrow = args.index("->")
        left, right = args[:arrow], args[arrow + 1 :]
        _require(len(left) == 4, "trans left part is <q> <r1> <r2> <r3>", line)
        _require(len(right) == 7, "trans right part is <q'> <w1> <w2> <w3> <m1> <m2> <m3>", line)
        q, *reads = left
        nq, w1, w2, w3, m1, m2, m3 = right
        for sym in (*reads, w1, w2, w3):
            _check_symbol(alphabet, sym, line)
        for mv in (m1, m2, m3):
            _require(mv in MOVES, f"move {mv!r} must be one of L R S", line)
        key = (q, tuple(reads))
        if key in seen:
            raise ParseError(
                f"transition left part ({q} {' '.join(reads)}) already declared on line {seen[key]}",
                line,
            )
        seen[key] = line
        transitions.append(Transition(q, tuple(reads), nq, (w1, w2, w3), (m1, m2, m3)))
    return MachineTM(name, tuple(states), start, frozenset(finals), alphabet, tuple(transitions))


def _build_itm(
    name, alphabet, states, start, finals, conn_types, memory_decl, cells, links, rule_rows
) -> MachineITM:
    if memory_decl is None:
        raise ParseError("an itm description needs a 'memory' directive")
    spec, decl_line = memory_decl
    if spec.startswith("builtin:"):
        mem_name = spec.split(":", 1)[1]
        _require(mem_name in BUILTIN_MEMORIES, f"unknown builtin memory {mem_name!r}", decl_line)
        _require(not cells and not links, "builtin memories take no cell/link lines", decl_line)
        memory: MemoryGraph = builtin_memory(mem_name)
        if conn_types is not None:
            unknown = [t for t in conn_types if t not in memory.conn_types]
            _require(not unknown, f"connection types {unknown} not provided by {mem_name}", decl_line)
    elif spec == "explicit":
        if conn_types is None:
            conn_types = []
        _require(bool(cells), "explicit memory declares no cells", decl_line)
        names: set[str] = set()
        for cell, kind, line in cells:
            _require(cell not in names, "duplicate cell declaration", line)
            _require(kind in ("input", "work", "output"), f"unknown cell kind {kind!r}", line)
            names.add(cell)
        seen_links: dict[tuple[str, str], int] = {}
        for frm, ctype, to, line in links:
            _require(frm in names and to in names, f"link {frm}-{ctype}->{to} uses an undeclared cell", line)
            _require(ctype in conn_types, f"connection type {ctype!r} not declared", line)
            key = (frm, ctype)
            if key in seen_links:
                raise ParseError(
                    f"a {ctype!r} connection from {frm!r} already declared on line {seen_links[key]}",
                    line,
                )
            seen_links[key] = line
        memory = ExplicitMemory(
            [(c, k) for c, k, _ in cells], [(f, t, d) for f, t, d, _ in links], tuple(conn_types)
        )
    else:
        raise ParseError(f"memory must be builtin:<name> or explicit, not {spec!r}", decl_line)

    rules = []
    seen_rules: dict[tuple[str, str], int] = {}
    for args, line in rule_rows:
        arrow = args.index("->")
        left, right = args[:arrow], args[arrow + 1 :]
        _require(len(left) == 2, "rule left part is <q> <sym>", line)
        q, sym = left
        _check_symbol(alphabet, sym, line)
        write = move = None
        if len(right) == 3 and right[0] == "write":
            write, nq = _check_symbol(alphabet, right[1], line), right[2]
        elif len(right) == 3 and right[0] == "move":
            move, nq = right[1], right[2]
        elif len(right) == 5 and right[0] == "write" and right[2] == "move":
            write = _check_symbol(alphabet, right[1], line)
            move, nq = right[3], right[4]
        else:
            raise ParseError("rule right part is 'write <s> <q>', 'move <t> <q>' or 'write <s> move <t> <q>'", line)
        if move is not None and move not in memory.conn_types:
            raise ParseError(f"connection type {move!r} not declared", line)
        key = (q, sym)
        if key in seen_rules:
            raise ParseError(
                f"rule left part ({q} {sym}) already declared on line {seen_rules[key]}", line
            )
        seen_rules[key] = line
        rules.append(Rule(q, sym, nq, write=write, move=move))
    return MachineITM(name, tuple(states), start, frozenset(finals), alphabet, tuple(rules), memory)


# ---------------------------------------------------------------------------
# serialization


def serialize_machine(machine) -> str:
    if not isinstance(machine, (MachineTM, MachineITM)):
        raise TypeError(f"cannot serialize {machine!r}")
    tm = isinstance(machine, MachineTM)
    lines = [
        f"machine {machine.name}",
        f"kind {'tm' if tm else 'itm'}",
        f"alphabet {''.join(machine.alphabet.symbols)}",
        f"states {' '.join(machine.states)}",
        f"start {machine.start}",
        f"final {' '.join(sorted(machine.finals))}".rstrip(),
    ]
    if tm:
        lines += (
            f"trans {t.state} {' '.join(t.reads)} -> "
            f"{t.next_state} {' '.join(t.writes)} {' '.join(t.moves)}"
            for t in machine.transitions
        )
        return "\n".join(lines) + "\n"
    memory = machine.memory
    if memory.builtin is not None:
        lines.append(f"memory builtin:{memory.builtin}")
    elif isinstance(memory, ExplicitMemory):
        lines.append(f"conn-types {' '.join(memory.conn_types)}".rstrip())
        lines.append("memory explicit")
        lines += (f"cell {cell} {kindname}" for cell, kindname in memory.cells)
        lines += (f"link {frm} {ctype} {to}" for (frm, ctype), to in sorted(memory.links.items()))
    else:
        raise InvalidCodeError(f"memory {type(memory).__name__} has no serialized form")
    for r in machine.rules:
        if r.write is not None and r.move is not None:
            rhs = f"write {r.write} move {r.move} {r.next_state}"
        elif r.write is not None:
            rhs = f"write {r.write} {r.next_state}"
        else:
            rhs = f"move {r.move} {r.next_state}"
        lines.append(f"rule {r.state} {r.read} -> {rhs}")
    return "\n".join(lines) + "\n"
