"""Seeded job lists for the three benchmark workloads, with output checks.

A job calls into minprog once, either through ``minprog.cli.main(["--json",
...])`` or through the public API, and returns the raw result.  Its check
judges that result against an expectation worked out here, independently of
the package's search code: arithmetic facts about the program spaces, the
ground truth the zoo states by construction (``pool_halts``, ``pool_total``,
``pool_empty``), and the reference Turing machine simulator of
``calibrate.py``.

The seed chooses what the jobs contain (predicate words, input words, pool
index order, random machines) and never their sizes, so a pass does the same
amount of work under every seed.  Within a pass no job repeats an earlier
job's argv or API call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import minprog
import minprog.cli
from minprog import zoo
from minprog.turing import MachineTM, MachineValidationError, Transition
from minprog.universal import tm_program

from calibrate import reference_run

WORKLOADS = ("search", "vm", "limit")

# A check returns (status, detail).  "defect" marks the known cross-view
# defect (an interior blank on a halted machine's output tape): it counts as
# a failed job but not as a wrong result of the benchmark itself.
OK = ("ok", "")


@dataclass
class Job:
    id: str  # a name; build_jobs prefixes the job's position in the pass
    kind: str  # jobs of one kind are spread evenly over the pass
    key: str  # the argv or API call, unique within a pass
    run: Callable[[], object]
    report: Callable[[object], object]  # JSON-able view of the result, digested
    check: Callable[[object], tuple[str, str]]


def _fail(detail: str) -> tuple[str, str]:
    return ("fail", detail)


def _word(rng: random.Random, length: int) -> str:
    return format(rng.getrandbits(length), f"0{length}b") if length else ""


def _word_at(n: int) -> str:
    """x_(n+1) of the shortlex enumeration of binary words (n = 0 is ε)."""
    length = 0
    while n >= 1 << length:
        n -= 1 << length
        length += 1
    return format(n, "b").zfill(length) if length else ""


# ---------------------------------------------------------------------------
# CLI jobs


def _run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = minprog.cli.main(["--json", *argv])
    return rc, out.getvalue(), err.getvalue()


def _cli_report(raw) -> object:
    rc, out, err = raw
    if rc != 0:
        return {"exit": rc, "stderr": err.strip()}
    report = json.loads(out)
    report.pop("elapsed_ms", None)
    return report


def _cli_job(name: str, kind: str, argv: list[str], expect: Callable[[dict], str | None]) -> Job:
    def check(raw) -> tuple[str, str]:
        rc, out, err = raw
        if rc != 0:
            return _fail(f"exit {rc}: {err.strip()[:160]}")
        problem = expect(_cli_report(raw))
        return _fail(problem) if problem else OK

    return Job(name, kind, json.dumps(argv), lambda: _run_cli(argv), _cli_report, check)


def _mismatch(got: dict, want: dict) -> str | None:
    for k, v in want.items():
        if got.get(k) != v:
            return f"{k}: got {str(got.get(k))[:80]!r}, expected {str(v)[:80]!r}"
    return None


# ---------------------------------------------------------------------------
# API jobs


def _api_job(name: str, kind: str, key: str, call: Callable[[], object], report, expect) -> Job:
    def run():
        try:
            return ("ok", call())
        except Exception as exc:  # the job records any failure of the program
            return ("raise", f"{type(exc).__name__}: {exc}")

    def rep(raw):
        return report(raw[1]) if raw[0] == "ok" else {"raise": raw[1].split(":")[0]}

    def check(raw):
        if raw[0] != "ok":
            return _fail(raw[1][:160])
        problem = expect(raw[1])
        return _fail(problem) if problem else OK

    return Job(name, kind, key, run, rep, check)


def _outcome(o) -> dict:
    return {"kind": o.kind, "steps": o.steps, "output": o.output}


# ---------------------------------------------------------------------------
# search


# The shortest program of the standard interpreter that gives a result is 54
# bits long (README), and an itm1 inductive code needs at least eight 2-bit
# tokens before self-delimiting doubles it, so every scan below stays a full
# scan: no witness, no halted run, 2^(L+1) - 1 programs, whatever predicate
# the seed picks.
def _full_scan(max_len: int) -> dict:
    return {
        "kind": "no-witness-within-budget",
        "value": None,
        "witness": None,
        "programs_scanned": (1 << (max_len + 1)) - 1,
        "runs_halted": 0,
    }


def _predicate(rng: random.Random, used: set) -> str:
    while True:
        head = rng.choice(("equals", "factor", "leq", "geq", "infactor", "len"))
        if head == "len":
            name = f"len:{rng.randint(1, 9)}"
        else:
            name = f"{head}:{_word(rng, rng.randint(3, 8))}"
        if name not in used:
            used.add(name)
            return name


# small20 as the invariance experiment ships it, for the expectation only.
SMALL20 = (
    "anyword", "nonempty", "leq:0", "leq:1", "leq:00", "leq:11", "geq:", "geq:0",
    "lt:1", "lt:00", "lt:10", "factor:0", "infactor:00", "infactor:010", "len:1",
    "equals:0", "equals:1", "equals:00", "leq:10", "within:4",
)


def _holds_on_zero(name: str, bias: int) -> bool:
    """Does predicate ``name`` accept the word "0"?  (within:k under biased:n:
    the shortcut 0^n prints "0" in zero steps, so it holds iff n <= k.)"""
    head, _, arg = name.partition(":")
    key = (1, 0)  # shortlex key of "0"
    if head in ("anyword", "nonempty"):
        return True
    if head in ("leq", "geq", "lt"):
        other = (len(arg), int(arg, 2) if arg else 0)
        return {"leq": key <= other, "geq": key >= other, "lt": key < other}[head]
    if head == "factor":
        return arg in "0"
    if head == "infactor":
        return "0" in arg
    if head == "len":
        return int(arg) == 1
    if head == "equals":
        return arg == "0"
    if head == "within":
        return bias <= int(arg)
    raise KeyError(name)


def _invariance_expect(bias: int):
    # Under biased:n only 0^n halts below n + 54 bits, printing "0"; the
    # wrapped copy pays its 2-symbol header on top.
    rows = []
    for name in SMALL20:
        if _holds_on_zero(name, bias):
            first = {"kind": "finite", "value": bias}
            second = {"kind": "finite", "value": bias + 2}
        else:
            first = second = {"kind": "no-witness-within-budget", "value": None}
        rows.append({"predicate": name, "first": first, "second": second})
    want = {"u1": f"biased[{bias}]", "u2": f"wrap[10](biased[{bias}])", "gap": 2,
            "rows": rows, "skipped": []}
    return lambda got: _mismatch(got, want)


def _random_tm(rng: random.Random) -> tuple[MachineTM, list[tuple]]:
    """A random binary TM: two working states plus a final state, a full table
    over (input, output) reads, the work tape unused."""
    rows = []
    for q in ("q0", "q1"):
        for r0 in "01_":
            for r2 in "_01":
                nq = rng.choice(("q0", "q1", "q0", "q1", "qf"))
                w2 = rng.choice("01_" if r2 == "_" else "01")  # never erase output
                moves = (rng.choice("LRS"), "S", rng.choice("LRS"))
                rows.append((q, (r0, "_", r2), nq, (r0, "_", w2), moves))
    machine = MachineTM(
        "random", ("q0", "q1", "qf"), "q0", frozenset({"qf"}), minprog.BINARY,
        tuple(Transition(*row) for row in rows),
    )
    return machine, rows


DECODABLE_FUEL = 64
DECODABLE_BATCH = 128
DECODABLE_INPUT = 8  # bits in every decodable job's input word


def _decodable_job(machine: MachineTM, rows, x: str) -> Job:
    program = tm_program(machine, x)
    budget = minprog.Budget(max_len=0, fuel=DECODABLE_FUEL, horizon=DECODABLE_FUEL)

    def views():
        out = {}
        calls = {
            "run_fueled": lambda: minprog.run_fueled(machine, x, DECODABLE_FUEL),
            "tm_class": lambda: minprog.tm_class(minprog.U_STD).produce(program, budget),
            "itm1_header": lambda: minprog.itm1_class().produce("10" + program, budget),
            "tm_as_itm": lambda: minprog.itm1_class().produce(program, budget),
        }
        for name, call in calls.items():
            try:
                got = call()
            except Exception as exc:  # a raising view is the observation
                out[name] = ("raise", type(exc).__name__)
                continue
            if name == "run_fueled":
                got = got.output if got.halted else None
            out[name] = ("ok", got)
        return out

    def check(out) -> tuple[str, str]:
        kind, word, gapped, last_change = reference_run(rows, x, DECODABLE_FUEL)
        tm_want = ("ok", word if kind == "halted" else None)
        if kind == "out-of-fuel":  # the inductive view sees a stabilized tape
            inductive_want = ("ok", word if last_change < DECODABLE_FUEL else None)
        else:
            inductive_want = tm_want
        want = {"run_fueled": tm_want, "tm_class": tm_want, "itm1_header": tm_want,
                "tm_as_itm": inductive_want}
        if out == want:
            return OK
        # The known defect, and only its exact pattern: a halted machine whose
        # output cells are split by a blank makes every TM view raise, while
        # TmAsItm returns the cells in order.
        rejected = ("raise", MachineValidationError.__name__)
        if gapped and kind == "halted" and out == dict(
                want, run_fueled=rejected, tm_class=rejected, itm1_header=rejected):
            return ("defect", f"interior blank: TM views raise, tm_as_itm gives {word!r}")
        return _fail(f"views {out}, reference {kind} {word!r}{' with a gap' if gapped else ''}")

    def report(out):
        return {name: list(v) for name, v in out.items()}

    return Job("decodable", "decodable", f"decodable {program}", views, report, check)


def search_jobs(rng: random.Random) -> list[Job]:
    jobs: list[Job] = []

    def scan(tag: str, args: list[str], max_len: int):
        argv = [*args, "--max-len", str(max_len)]
        jobs.append(_cli_job(f"{tag}-{max_len}", "scan", argv,
                             lambda got: _mismatch(got, _full_scan(max_len))))

    # Seven scans of about 12 bits cost about the same, so the tail latency
    # (the 11th-slowest job) is an order statistic over several jobs run at
    # different moments of the pass rather than one job's latency.
    used: set = set()
    for interp, lengths in (("std", (15, 13, 12, 12, 12)), ("wrap:std", (15, 13, 12, 12))):
        for max_len in lengths:
            scan(interp.replace(":", "-"), ["complexity", "--predicate", _predicate(rng, used),
                                             "--interpreter", interp], max_len)
    for max_len in (14, 12, 12):
        scan("itm1", ["complexity", "--class", "itm1", "--predicate", _predicate(rng, used),
                      "--interpreter", "std", "--horizon", "64"], max_len)
    for max_len, npairs in ((13, 2), (12, 3)):
        inputs = rng.sample([_word_at(n) for n in range(15)], npairs)  # distinct words up to 3 bits
        pairs = []
        for x in inputs:
            pairs += ["--pair", f"{x}={_word(rng, rng.randint(0, 3))}"]
        scan("func-std", ["func-complexity", *pairs, "--interpreter", "std"], max_len)
    for max_len in (12, 11):
        bias = rng.randint(1, 4)
        argv = ["invariance", "--u1", f"biased:{bias}", "--u2", f"wrap:biased:{bias}",
                "--max-len", str(max_len)]
        jobs.append(_cli_job(f"invariance-{max_len}", "scan", argv,
                             _invariance_expect(bias)))

    seen = set()
    scans = len(jobs)
    while len(jobs) < scans + DECODABLE_BATCH:
        machine, rows = _random_tm(rng)
        x = _word(rng, DECODABLE_INPUT)
        key = (tuple(rows), x)
        if key in seen:
            continue
        seen.add(key)
        jobs.append(_decodable_job(machine, rows, x))
    return jobs


# ---------------------------------------------------------------------------
# vm


def vm_jobs(rng: random.Random) -> list[Job]:
    # 26 short jobs (about 30 ms), a cluster of 7 halting-itm runs of the
    # looper that cost the same (about 70 ms), and 7 long jobs (100 ms and
    # more).  The tail latency (rank 29 of 40) then falls in the middle of the
    # cluster, an order statistic over same-cost jobs run at different moments
    # of the pass rather than the latency of one job of a mixed group.
    jobs: list[Job] = []

    def cli(tag, argv, want):
        jobs.append(_cli_job(tag, tag, argv, lambda got: _mismatch(got, want)))

    for _ in range(11):
        x = _word(rng, 10_000)
        cli("identity", ["run-tm", "--machine", "machines/identity.tm", "--input", x, "--fuel", "20000"],
            {"outcome": {"kind": "halted", "output": x, "steps": len(x) + 1}})
        y = _word(rng, 10_000)
        cli("last-symbol", ["run-tm", "--machine", "machines/last_symbol.tm", "--input", y, "--fuel", "20000"],
            {"outcome": {"kind": "halted", "output": y[-1], "steps": len(y) + 1}})
    for horizon in (20_000, 20_001):
        y = _word(rng, 10_000)
        cli("halting-identity", ["halting-itm", "--machine", "machines/identity.tm", "--input", y,
                                 "--horizon", str(horizon)],
            {"verdict": {"value": "1", "stabilized_since": len(y) + 1, "budget": horizon}})
    for horizon in (40_000, 40_001):
        cli("diagonal", ["diagonal", "--decider", "sim", "--horizon", str(horizon)],
            {"contradiction": True})
    for horizon in range(30_000, 30_007):
        cli("halting-looper", ["halting-itm", "--machine", "machines/looper.tm", "--input",
                               _word(rng, 8), "--horizon", str(horizon)],
            {"verdict": {"value": "0", "stabilized_since": 0, "budget": horizon}})
    for horizon in (100_000, 100_003):
        # alternator rewrites its one output cell every step; writer writes "1"
        # at step 3 and never changes it again (zoo docstrings)
        cli("alternator", ["run-itm", "--machine", "machines/alternator.itm",
                           "--input", rng.choice(("", "0", "1")), "--horizon", str(horizon)],
            {"outcome": {"kind": "unstable", "output": None, "steps": None, "last_change_step": None,
                         "horizon": horizon, "change_count": horizon}})
        cli("writer", ["run-itm", "--machine", "machines/writer.itm", "--input", _word(rng, 8),
                       "--horizon", str(horizon)],
            {"outcome": {"kind": "stabilized", "output": "1", "steps": None, "last_change_step": 3,
                         "horizon": horizon, "change_count": 1}})
    for length in (1536, 2048):
        x = _word(rng, length)
        horizon = 4096

        def call(x=x, horizon=horizon):
            return minprog.itm_universal_apply(minprog.encode_machine(zoo.identity()), x, horizon)

        want = {"kind": "halted-final", "output": x, "steps": len(x) + 1}
        jobs.append(_api_job("tm-as-itm", "tm-as-itm", f"itm_universal_apply identity {x} {horizon}",
                             call, _outcome, lambda o, want=want: _mismatch(_outcome(o), want)))
    fuel = 12_000
    # writer changes its output once, so probe 1 halts on the value before
    # that change and every later probe diverges
    probes = [{"input": _word_at(n - 1), "kind": "halted" if n == 1 else "out-of-fuel",
               "output": "" if n == 1 else None, "steps": 3 if n == 1 else fuel}
              for n in range(1, 7)]
    cli("reduce", ["reduce", "--machine", "machines/writer.itm", "--input", _word(rng, 6),
                   "--probes", "6", "--fuel", str(fuel)],
        {"probes": probes, "total_on_probes": False})
    return jobs


# ---------------------------------------------------------------------------
# limit

# What the total pool machines compute, from their construction in the zoo.
_POOL_FN = {"identity": lambda x: x, "const-zero": lambda x: "0", "last-symbol": lambda x: x[-1:]}


def limit_jobs(rng: random.Random) -> list[Job]:
    pool = zoo.acceptance_pool()
    names = [m.name for m in pool]
    codes = {minprog.encode_machine(m): m.name for m in pool}
    jobs: list[Job] = []

    def cli(tag, argv, expect):
        jobs.append(_cli_job(tag, tag, argv, expect))

    def nontotal_expect(cycles):
        # every pair (k, i) the schedule probes is simulated for at least
        # cycles - max(k, i) + 1 steps, far above the pool's halting times
        pairs = sorted([k, i] for k in range(1, len(names) + 1) for i in range(1, cycles + 1)
                       if zoo.pool_halts(names[k - 1], _word_at(i - 1)))
        nontotal = [n for n in names if not zoo.pool_total(n)]

        def expect(got):
            if got.get("cycle") != cycles or got.get("halted_pairs") != pairs:
                return "halted pairs differ from the pool's ground truth"
            prefix = [codes.get(c) for c in got.get("stable_prefix_estimate", [])]
            if prefix != nontotal:
                return f"stable prefix {prefix}, non-total machines {nontotal}"
            return None

        return expect

    for cycles in (80, 96, 112, 128, 144, 160):
        cli("nontotal", ["enumerate-nontotal", "--cycles", str(cycles)], nontotal_expect(cycles))
    order = list(range(6))
    rng.shuffle(order)
    for index, cycles in zip(order, (64, 72, 80, 88, 96, 104)):
        value = "1" if zoo.pool_total(names[index]) else "0"
        cli("totality", ["totality", "--index", str(index), "--cycles", str(cycles)],
            lambda got, value=value: _mismatch(got.get("verdict", {}), {"value": value}))
    empt = [(index, cycles) for index in range(6) for cycles in (40, 48)]
    rng.shuffle(empt)
    for index, cycles in empt:
        value = "1" if zoo.pool_empty(names[index]) else "0"
        cli("emptiness", ["emptiness", "--pool-index", str(index), "--cycles", str(cycles)],
            lambda got, value=value: _mismatch(got.get("verdict", {}), {"value": value}))
    # halt_probe walks the thm72 probe row to the first pool machine that
    # demonstrates a result; the pool has one, so it prints 1 and halts
    probe_want = "1" if not all(zoo.pool_empty(n) for n in names) else None
    for horizon in (200, 210, 220, 230):
        cli("halt-probe", ["run-itm", "--machine", "machines/halt_probe.itm",
                           "--input", _word(rng, 6), "--horizon", str(horizon)],
            lambda got: _mismatch(got.get("outcome", {}), {"kind": "halted-final", "output": probe_want}))
    fuel = 8000
    for builder, tag in ((minprog.build_range_enumerator, "range"), (minprog.build_totalizer, "totalizer")):
        machines = list(pool)
        rng.shuffle(machines)
        for machine in machines:
            x = _word(rng, 3)
            name = machine.name
            if tag == "range":
                # |x| = 3 makes n >= 8, beyond every finite pool range (at most
                # ε, 0, 1); identity's n-th distinct output in the dovetail
                # order is x_n itself
                want = ({"kind": "halted", "output": x} if name == "identity"
                        else {"kind": "out-of-fuel", "steps": fuel})
            else:
                want = ({"kind": "halted", "output": _POOL_FN[name](x)} if zoo.pool_total(name)
                        else {"kind": "out-of-fuel", "steps": fuel})

            def call(builder=builder, machine=machine, x=x):
                return builder(minprog.encode_machine(machine)).run(x, fuel)

            jobs.append(_api_job(f"{tag}-{name}", tag, f"{tag} {name} {x} {fuel}", call,
                                 _outcome, lambda o, want=want: _mismatch(_outcome(o), want)))
    return jobs


def _spread(jobs: list[Job]) -> list[Job]:
    """Order jobs so that each kind is spread evenly over the pass.  Short
    jobs then sample the machine at many moments of the pass instead of in
    one burst, which keeps the latency percentiles steady on a noisy host."""
    kinds: dict[str, list[Job]] = {}
    for job in jobs:
        kinds.setdefault(job.kind, []).append(job)
    slots = []
    for rank, group in enumerate(kinds.values()):
        slots += [((k + 0.5) / len(group), rank, k, job) for k, job in enumerate(group)]
    return [job for *_, job in sorted(slots, key=lambda s: s[:3])]


def build_jobs(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    jobs = _spread({"search": search_jobs, "vm": vm_jobs, "limit": limit_jobs}[workload](rng))
    for position, job in enumerate(jobs):
        job.id = f"{workload[0]}{position:02d}-{job.id}"
    keys = [j.key for j in jobs]
    if len(set(keys)) != len(keys):
        raise RuntimeError(f"{workload}: a job repeats an earlier job's call")
    return jobs
