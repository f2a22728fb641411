"""Independent brute-force oracles.

Deliberately written as plain loops over itertools.product, sharing no
code with the package's search machinery: where a test compares a library
verdict against an oracle, the two sides must disagree if either scan is
wrong.
"""

import itertools


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
