"""The host's speed, read from a fixed pure-Python loop.

The shared host this benchmark was built on changes speed by up to 1.8x
within seconds (a fixed loop took 38 to 71 ms over a minute), for every
process alike.  So each timed call is bracketed by samples of a fixed
workload that does not depend on minprog: ``reference_run``, a
dictionary-driven Turing machine simulator much like the steppers under
test, which the output checks of ``workloads.py`` also use.  A time ``t``
measured where a sample takes ``a`` is reported as ``t * NOMINAL_S / a``:
seconds on a host where one sample takes ``NOMINAL_S``.  Host-clock times are kept beside the scaled ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter


def reference_run(rows, x: str, fuel: int):
    """Independent three-tape simulator over raw table rows.

    Returns (kind, output, gapped, last_change) where kind is halted / stuck /
    out-of-fuel, output is the output tape's non-blank cells in order, gapped
    tells whether an interior blank separates them, and last_change is the
    last step that changed an output cell.
    """
    table = {(q, reads): (nq, writes, moves) for q, reads, nq, writes, moves in rows}
    tapes = [dict(enumerate(x)), {}, {}]
    heads = [0, 0, 0]
    state, steps, last_change = "q0", 0, 0
    while True:
        if state == "qf":
            kind = "halted"
            break
        if steps >= fuel:
            kind = "out-of-fuel"
            break
        rule = table.get((state, tuple(tapes[t].get(heads[t], "_") for t in range(3))))
        if rule is None:
            kind = "stuck"
            break
        nq, writes, moves = rule
        steps += 1
        for t in range(3):
            if t == 2 and tapes[2].get(heads[2], "_") != writes[2]:
                last_change = steps
            if writes[t] == "_":
                tapes[t].pop(heads[t], None)
            else:
                tapes[t][heads[t]] = writes[t]
            heads[t] += {"L": -1, "R": 1, "S": 0}[moves[t]]
        state = nq
    cells = tapes[2]
    gapped = bool(cells) and len(cells) != max(cells) - min(cells) + 1
    return kind, "".join(cells[p] for p in sorted(cells)), gapped, last_change


NOMINAL_S = 1.5e-3  # about one sample on the 2-core host the baseline was taken on
WINDOW = 6  # samples that set the host speed for one timed call

# One working state that copies each input symbol to the output tape and
# moves right on both; it runs once over the whole input.
_ROWS = [("q0", (a, "_", c), "q0", (a, "_", a if a != "_" else c), ("R", "S", "R"))
         for a in "01_" for c in "01_"]
_INPUT = "0110" * 150
_FUEL = 400


def sample() -> float:
    """Host seconds for one run of the fixed workload."""
    t0 = perf_counter()
    reference_run(_ROWS, _INPUT, _FUEL)
    return perf_counter() - t0


def scale(seconds: float, sample_s: float) -> float:
    """``seconds`` measured where one sample took ``sample_s``, at nominal
    host speed."""
    return seconds * NOMINAL_S / sample_s


def scale_all(times: list[float], samples: list[float]) -> list[float]:
    """Scale ``times[i]``, measured between ``samples[i]`` and
    ``samples[i + 1]``, by the median of the WINDOW samples around it: single
    samples jitter by about 7% and now and then by 3x (an interrupt), while
    the host's speed holds for a second or more."""
    half = WINDOW // 2
    return [scale(t, statistics.median(samples[max(0, i + 1 - half):i + 1 + half]))
            for i, t in enumerate(times)]
