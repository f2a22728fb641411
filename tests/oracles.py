"""Independent brute-force oracles.

Deliberately written as plain loops over itertools.product, sharing no
code with the package's search machinery: where a test compares a library
verdict against an oracle, the two sides must disagree if either scan is
wrong.  The reference steppers read a machine's ``transitions`` or
``rules`` and its memory graph, and nothing else of the package; the
dovetail oracles are built on the TM one, and ``stepper_repeat`` states
where the TM stepper must find a repeat, from the plain configurations
alone.  The limit-memory oracle reads nothing of the package but the base
graph's ``connection``.  The stock decider's reference decodes its program
pair with the codec and runs it on the reference steppers.
"""

import itertools

from minprog.codec import InvalidCodeError, decode_machine
from minprog.inductive import MachineITM
from minprog.turing import MachineTM, MachineValidationError

BLANK = "_"  # the blank symbol of every machine
DELTA = {"L": -1, "R": 1, "S": 0}


# ---------------------------------------------------------------------------
# reference steppers: one transition or rule per call, looked up afresh


class PlainTm:
    """A Turing machine run stepped one transition at a time, straight from
    ``machine.transitions``, with the package stepper's observables."""

    def __init__(self, machine, word):
        self.rows = {(t.state, t.reads): t for t in machine.transitions}
        self.finals = machine.finals
        self.tapes = [dict(enumerate(word)), {}, {}]
        self.heads = [0, 0, 0]
        self.state = machine.start
        self.steps = 0
        self.stuck = False
        self.output_changes = 0

    @property
    def in_final(self):
        return self.state in self.finals

    def step(self):
        if self.in_final or self.stuck:
            return False
        reads = tuple(self.tapes[t].get(self.heads[t], BLANK) for t in range(3))
        tr = self.rows.get((self.state, reads))
        if tr is None:
            self.stuck = True
            return False
        if tr.writes[2] != reads[2]:
            self.output_changes += 1
        for t in range(3):
            if tr.writes[t] == BLANK:
                self.tapes[t].pop(self.heads[t], None)
            else:
                self.tapes[t][self.heads[t]] = tr.writes[t]
            self.heads[t] += DELTA[tr.moves[t]]
        self.state = tr.next_state
        self.steps += 1
        return True

    def output_word(self):
        """The non-blank cells of the output tape, in tape order."""
        return "".join(sym for _, sym in sorted(self.tapes[2].items()))

    def configuration(self):
        frozen = tuple(tuple(sorted(t.items())) for t in self.tapes)
        return (self.state, tuple(self.heads), frozen)


def stepper_repeat(configs, first_snapshot):
    """The (start, period) of the repeat the package's TM stepper must find
    on a run that does not stop, from its plain configurations ``configs``
    after 0, 1, ... steps, or None if it finds none among them.  Of two
    rules the earlier step wins: a step s whose configuration equals the
    one at s - 1 (a stay step) gives (s - 1, 1), and a step t past
    ``first_snapshot`` whose configuration equals that of the last snapshot
    step before t (``first_snapshot`` and its doublings) gives
    (mark, t - mark)."""
    for t in range(1, len(configs)):
        if configs[t] == configs[t - 1]:
            return (t - 1, 1)
        if t > first_snapshot:
            mark = first_snapshot
            while 2 * mark < t:
                mark *= 2
            if configs[t] == configs[mark]:
                return (mark, t - mark)
    return None


class PlainItm:
    """An inductive machine run stepped one rule at a time, straight from
    ``machine.rules`` and the memory graph; the register is re-read from
    every cell after every step."""

    def __init__(self, machine, word):
        self.rules = {(r.state, r.read): r for r in machine.rules}
        self.finals = machine.finals
        self.memory = machine.memory
        self.contents = {}
        for cell, sym in self.memory.initial_contents().items():
            self._put(cell, sym)
        for i, ch in enumerate(word):
            self._put(self.memory.input_cell(i), ch)
        self.head = self.memory.start
        self.state = machine.start
        self.steps = 0
        self.final = machine.start in machine.finals
        self.stuck = False
        self.change_log = [(0, self.register())]

    def _put(self, cell, sym):
        if sym == BLANK:
            self.contents.pop(cell, None)
        else:
            self.contents[cell] = sym

    def register(self):
        ranked = []
        for cell, sym in self.contents.items():
            rank = self.memory.output_rank(cell)
            if rank is not None:
                ranked.append((rank, sym))
        return "".join(sym for _, sym in sorted(ranked))

    def step(self):
        if self.final or self.stuck:
            return False
        rule = self.rules.get((self.state, self.contents.get(self.head, BLANK)))
        if rule is None:
            self.stuck = True
            return False
        if rule.write is not None:
            self._put(self.head, rule.write)
        if rule.move is not None:
            target = self.memory.connection(self.head, rule.move)
            if target is not None:
                self.head = target
        self.state = rule.next_state
        self.steps += 1
        value = self.register()
        if value != self.change_log[-1][1]:
            self.change_log.append((self.steps, value))
        self.final = self.state in self.finals
        return True


def binary_words(max_len):
    for n in range(max_len + 1):
        for tup in itertools.product("01", repeat=n):
            yield "".join(tup)


def binary_words_of_len(n):
    for tup in itertools.product("01", repeat=n):
        yield "".join(tup)


def brute_force_search(produce, accept, max_len):
    """Scan every program up to max_len; return (value, all minimal witnesses).

    ``produce`` maps a program to an output word or None, ``accept`` judges
    the output.  Returns (None, []) when no tier contains a witness.
    """
    for n in range(max_len + 1):
        witnesses = []
        for program in binary_words_of_len(n):
            out = produce(program)
            if out is not None and accept(out):
                witnesses.append(program)
        if witnesses:
            return n, witnesses
    return None, []


def brute_force_halts(produce, max_len):
    """How many programs up to max_len produce any output at all."""
    return sum(produce(program) is not None for program in binary_words(max_len))


def brute_force_outputs(produce, max_len):
    """Every output any program up to max_len can produce."""
    outputs = set()
    for program in binary_words(max_len):
        out = produce(program)
        if out is not None:
            outputs.add(out)
    return outputs


# ---------------------------------------------------------------------------
# dovetail schedules by reruns: every pair starts from scratch in every cycle


def _nth_word(i, symbols):
    """x_i of the 1-based shortlex enumeration of words over ``symbols``:
    i - 1 written in bijective base len(symbols)."""
    n, k, digits = i - 1, len(symbols), []
    while n:
        n -= 1
        digits.append(symbols[n % k])
        n //= k
    return "".join(reversed(digits))


def _fresh_run(machine, word, fuel):
    run = PlainTm(machine, word)
    while not run.in_final and run.steps < fuel:
        if not run.step():
            break
    return run


def rerun_first_result_cycle(machine, cycles):
    """First cycle n <= cycles in which some input x_1..x_n over the
    machine's alphabet, run from scratch for n steps, reaches a final state;
    None if no cycle does."""
    symbols = machine.alphabet.symbols
    for n in range(1, cycles + 1):
        for i in range(1, n + 1):
            if _fresh_run(machine, _nth_word(i, symbols), n).in_final:
                return n
    return None


def rerun_range_enumerate(machine, input_word, fuel):
    """(kind, steps, output) of the range enumerator on ``input_word``.

    Round r reruns x_1..x_r (over the machine's alphabet) from scratch for
    r steps each and charges each run its steps (at least 1); a pair's
    output counts in the first round covering both its input index and its
    halting time.  ``input_word`` is binary: it is x_n for the n-th value.
    """
    symbols = machine.alphabet.symbols
    n = int("1" + input_word, 2)
    discovered = []
    spent = 0
    r = 0
    while spent < fuel:
        r += 1
        for i in range(1, r + 1):
            run = _fresh_run(machine, _nth_word(i, symbols), r)
            spent += run.steps if run.steps else 1
            if run.in_final and r == max(i, run.steps):
                out = run.output_word()
                if out not in discovered:
                    discovered.append(out)
                    if len(discovered) >= n:
                        return "halted", min(spent, fuel), discovered[n - 1]
            if spent >= fuel:
                break
    return "out-of-fuel", fuel, None


def rerun_dovetail_list(pool, codes, cycles):
    """(order, halted_pairs, last_moved, branches) of the list scheduler
    after ``cycles`` cycles, by the construction's literal placement rules.

    Cycle n reruns machines 1..n on x_1..x_n from scratch for n steps each;
    a machine moves when all of its n runs reach a final state.  Machine k
    is listed as ``codes[k - 1]``, and ``branches`` names the placement
    rule each cycle took.
    """
    order, halted, last_moved, branches = [], set(), {}, []

    def code(k):
        return codes[k - 1] if 1 <= k <= len(codes) else None

    def insert(c, position=None):
        if c is not None and c not in order:
            order.insert(len(order) if position is None else position, c)

    def demote(movers, n):
        tail = [c for c in order if c in movers]
        order[:] = [c for c in order if c not in movers] + tail
        for c in tail:
            last_moved[c] = n

    for n in range(1, cycles + 1):
        if n == 1:
            insert(code(1))
        moved = []
        for k, machine in enumerate(pool[:n], start=1):
            symbols = machine.alphabet.symbols
            ends = [_fresh_run(machine, _nth_word(i, symbols), n).in_final for i in range(1, n + 1)]
            halted |= {(k, i) for i, end in enumerate(ends, start=1) if end}
            if all(ends):
                moved.append(k)
        movers = [code(k) for k in moved]
        if n == 1:
            branch = "1: T1 moved" if movers else "1: T1 still"
            insert(code(2), 0 if movers else None)
            demote(movers, n)
        elif n == 2:
            first, second = 1 in moved, 2 in moved
            if not first and not second:
                branch = "2: none moved"
                insert(code(3))
            elif first and second:
                branch = "2: both moved"
                insert(code(3), 0)
                demote(movers, n)
            else:
                branch = "2: T1 moved" if first else "2: T2 moved"
                mover = code(1 if first else 2)
                insert(code(2 if first else 1), 0)
                demote([mover], n)
                insert(code(4), order.index(mover))
        elif n == 3:
            # the rule counts listed codes: a code that cycle 2 never listed
            # may move here, and the list takes no notice of it
            listed = [c for c in movers if c in order]
            if not listed:
                branch = "3: none moved"
                insert(code(4))
            elif len(listed) == len(order):
                branch = "3: all moved"
                insert(code(4), 0)
                demote(listed, n)
            else:
                branch = "3: some moved"
                demote(listed, n)
                insert(code(4), order.index(listed[0]))
        else:
            branch = "uniform"
            insert(code(n + 1))
            demote(movers, n)
        branches.append(branch)
    return order, halted, last_moved, branches


# ---------------------------------------------------------------------------
# a Turing machine watched as an inductive machine, one step at a time


def stepwise_change_log(machine, word, horizon):
    """(change_log, steps, final, stuck) of ``machine`` on ``word`` up to
    ``horizon`` steps, watched as an inductive machine.

    The log starts as [(0, "")]; after every step the non-blank output
    cells in tape order are appended with the step number whenever they
    differ from the last logged value.
    """
    run = PlainTm(machine, word)
    log = [(0, "")]
    while run.steps < horizon and run.step():
        out = run.output_word()
        if out != log[-1][1]:
            log.append((run.steps, out))
    return log, run.steps, run.in_final, run.stuck


# ---------------------------------------------------------------------------
# a limit memory by a from-scratch scan of its assertion table


def scan_limit_connection(base, cycles, cell, ctype, budget):
    """The target of the latest (cell, ctype) assertion within the first
    ``budget`` cycles of ``cycles``, or else the base graph's connection."""
    answer = base.connection(cell, ctype)
    for cycle in cycles[:budget]:
        for frm, typ, to in cycle:
            if frm == cell and typ == ctype:
                answer = to
    return answer


# ---------------------------------------------------------------------------
# the diagonal machine's stock decider, one step per call

SIM_STEPS = 64  # the stock decider's simulation budget


def _plain_unpair(word):
    """(payload, code) of the pair word sd(code) + payload, or None when
    ``word`` has no self-delimiting prefix."""
    code = []
    for i in range(0, len(word) - 1, 2):
        a, b = word[i], word[i + 1]
        if a + b == "01":
            return word[i + 2 :], "".join(code)
        if a != b:
            return None
        code.append(a)
    return None


def plain_gives_result(word, horizon):
    """Whether the machine coded in the pair word ``word``, watched as an
    inductive machine on the pair's payload, gives a result at ``horizon``:
    it stopped in a final state, or it has not stopped and its register
    last changed before ``horizon``.  No pair, no decodable code, or a
    payload that does not fit the machine: no run, so no result."""
    parts = _plain_unpair(word)
    if parts is None:
        return False
    payload, code = parts
    try:
        machine = decode_machine(code)
    except InvalidCodeError:
        return False
    if not set(payload) <= set(machine.alphabet.symbols):
        return False
    if isinstance(machine, MachineTM):
        log, _, final, stuck = stepwise_change_log(machine, payload, horizon)
    elif isinstance(machine, MachineITM):
        try:
            run = PlainItm(machine, payload)
        except MachineValidationError:
            return False  # more input than the register holds
        while run.steps < horizon and run.step():
            pass
        log, final, stuck = run.change_log, run.final, run.stuck
    else:
        raise TypeError(f"no reference stepper for {machine!r}")
    return final or (not stuck and log[-1][0] < horizon)


class PlainSimDecider:
    """The stock decider on one input word, stepped once per call: its
    register is empty until step SIM_STEPS, then holds "1" if the pair
    word's machine gives a result at horizon SIM_STEPS and "0" otherwise.
    The run never stops."""

    def __init__(self, word):
        self.word = word
        self.steps = 0
        self.change_log = [(0, "")]

    def step(self):
        self.steps += 1
        if self.steps == SIM_STEPS:
            verdict = "1" if plain_gives_result(self.word, SIM_STEPS) else "0"
            self.change_log.append((self.steps, verdict))
        return True
