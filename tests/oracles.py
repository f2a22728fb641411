"""Independent brute-force oracles.

Deliberately written as plain loops over itertools.product, sharing no
code with the package's search machinery: where a test compares a library
verdict against an oracle, the two sides must disagree if either scan is
wrong.  The dovetail oracles use nothing of the package but the one-step
machine stepper ``TmRun.step``.  The limit-memory oracle reads nothing of
the package but the base graph's ``connection``.
"""

import itertools

from minprog.turing import TmRun


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
    run = TmRun(machine, word)
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


# ---------------------------------------------------------------------------
# a Turing machine watched as an inductive machine, one step at a time


def stepwise_change_log(machine, word, horizon):
    """(change_log, steps, final, stuck) of ``machine`` on ``word`` up to
    ``horizon`` steps, watched as an inductive machine.

    The log starts as [(0, "")]; after every step the non-blank output
    cells in tape order are appended with the step number whenever they
    differ from the last logged value.
    """
    run = TmRun(machine, word)
    log = [(0, "")]
    stuck = False
    while run.steps < horizon and run.state not in machine.finals:
        if not run.step():
            stuck = True
            break
        out = "".join(sym for _, sym in sorted(run.tapes[2].items()))
        if out != log[-1][1]:
            log.append((run.steps, out))
    return log, run.steps, run.state in machine.finals, stuck


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
