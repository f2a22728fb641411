"""Command-line driver: parse machine files, dispatch experiments, report.

Every subcommand is a bounded batch job.  Reports are deterministic:
repeated identical invocations print byte-identical JSON once the
``elapsed_ms`` field is removed.  Exit codes: 0 success, 1 runtime error,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .turing import MachineTM, run_fueled
from .inductive import MachineITM, itm_run
from .codec import encode_machine
from .machinefile import ParseError, parse_machine_file
from .predicates import PredicateConstructionError, builtin, small20_family
from .universal import parse_interpreter_spec
from .complexity import (
    Budget,
    FunctionTable,
    bounded_functional_complexity,
    bounded_problem_complexity,
    invariance_gap,
    itm1_class,
    tm_class,
    verdict_report,
)
from .hierarchy import (
    SimDecider,
    build_reduction_tm,
    diagonal_experiment,
    dovetail_nontotal,
    emptiness_solver,
    halting_itm,
    order_lookup,
    order_rows,
    totality_verdict,
)
from . import zoo

# every package error subclasses ValueError
_ERRORS = (ValueError, KeyError, IndexError, OSError)


def _load(path: str, kind: type):
    """The machine described in ``path``, which must be a ``kind``."""
    m = parse_machine_file(Path(path).read_text(encoding="utf-8"))
    if not isinstance(m, kind):
        raise ParseError(f"{path} does not describe {'a tm' if kind is MachineTM else 'an itm'} machine")
    return m


def _class_handle(args):
    interp = parse_interpreter_spec(args.interpreter)
    if args.klass == "tm":
        return tm_class(interp)
    return itm1_class(interp)


def _coded_input(machine, word: str) -> str:
    """``word`` checked against the alphabet of ``machine``, its i-th symbol
    written as the digit i: a machine's code keeps only the alphabet's size."""
    symbols = "".join(machine.alphabet.symbols)
    digits = "".join(map(str, range(len(symbols))))
    return machine.alphabet.check_word(word).translate(str.maketrans(symbols, digits))


def _budget(args) -> Budget:
    horizon = getattr(args, "horizon", None)
    return Budget(max_len=args.max_len, fuel=args.fuel, horizon=horizon)


def _verdict_lines(payload: dict) -> list[str]:
    if payload["kind"] == "finite":
        head = f"value {payload['value']}  witness {payload['witness'] or 'ε'}"
    else:
        head = "no witness within budget"
    return [
        f"{payload['predicate']} under {payload['class']}: {head}",
        f"scanned {payload['programs_scanned']} programs, {payload['runs_halted']} produced results",
    ]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, human_lines)


def _cmd_run_tm(args):
    machine = _load(args.machine, MachineTM)
    out = run_fueled(machine, args.input, args.fuel)
    payload = {
        "machine": machine.name,
        "input": args.input,
        "outcome": {"kind": out.kind, "output": out.output, "steps": out.steps},
    }
    shown = out.output if out.output is not None else "-"
    return payload, [f"{machine.name}({args.input or 'ε'}) -> {out.kind} {shown} after {out.steps} steps"]


def _cmd_run_itm(args):
    machine = _load(args.machine, MachineITM)
    out = itm_run(machine, args.input, args.horizon)
    payload = {
        "machine": machine.name,
        "input": args.input,
        "outcome": {
            "kind": out.kind,
            "output": out.output,
            "steps": out.steps,
            "last_change_step": out.last_change_step,
            "horizon": out.horizon,
            "change_count": out.change_count,
        },
    }
    return payload, [f"{machine.name}({args.input or 'ε'}) -> {out.kind} output={out.output or 'ε'}"]


def _cmd_complexity(args):
    handle = _class_handle(args)
    budget = _budget(args)
    interp = parse_interpreter_spec(args.interpreter)
    pred = builtin(args.predicate, interp=interp, budget=budget)
    verdict = bounded_problem_complexity(handle, pred, budget)
    payload = verdict_report(verdict, budget, handle.tag, pred.name)
    return payload, _verdict_lines(payload)


def _cmd_func_complexity(args):
    handle = _class_handle(args)
    budget = _budget(args)
    pairs = []
    for item in args.pair:
        if "=" not in item:
            raise PredicateConstructionError(f"table entry {item!r} must look like IN=OUT")
        x, fx = item.split("=", 1)
        pairs.append((x, fx))
    table = FunctionTable(tuple(pairs))
    verdict = bounded_functional_complexity(handle, table, budget)
    name = "table(" + ",".join(f"{x or 'ε'}={fx or 'ε'}" for x, fx in table.pairs) + ")"
    payload = verdict_report(verdict, budget, handle.tag, name)
    return payload, _verdict_lines(payload)


def _cmd_invariance(args):
    u1 = parse_interpreter_spec(args.u1)
    u2 = parse_interpreter_spec(args.u2)
    budget = _budget(args)
    if args.family == "small20":
        family = small20_family(u1)
    else:
        family = [builtin(n, interp=u1, budget=budget) for n in args.family.split(",") if n]
    result = invariance_gap(u1, u2, family, budget)
    rows = [
        {
            "predicate": row.predicate,
            "first": {"kind": row.first.kind, "value": row.first.value},
            "second": {"kind": row.second.kind, "value": row.second.value},
        }
        for row in result.rows
    ]
    payload = {
        "u1": u1.tag,
        "u2": u2.tag,
        "budget": budget.as_dict(),
        "gap": result.gap,
        "rows": rows,
        "skipped": list(result.skipped),
    }
    lines = [f"invariance gap k = {result.gap} over {len(rows)} predicates ({len(result.skipped)} one-sided)"]
    return payload, lines


def _pool_from_args(args) -> list[MachineTM]:
    if getattr(args, "machines", None):
        return [_load(p, MachineTM) for p in args.machines]
    return zoo.acceptance_pool()


def _cmd_enumerate_nontotal(args):
    pool = _pool_from_args(args)
    state = dovetail_nontotal(pool, args.cycles)
    payload = state.report()
    prefix = payload["stable_prefix_estimate"]
    names = {code: name for code, name in zip(state.codes, state.pool_names)}
    lines = [
        f"after {args.cycles} cycles the list holds {len(payload['list'])} codes",
        "stable prefix: " + (", ".join(names.get(c, "?") for c in prefix) or "(empty)"),
    ]
    return payload, lines


def _cmd_emptiness(args):
    if args.machine:
        machine = _load(args.machine, MachineTM)
    else:
        pool = zoo.acceptance_pool()
        if args.pool_index >= len(pool):
            raise IndexError(f"pool index {args.pool_index} out of range: the pool has {len(pool)} machines")
        machine = pool[args.pool_index]
    verdict = emptiness_solver(encode_machine(machine), args.cycles)
    payload = {
        "machine": machine.name,
        "verdict": {
            "value": verdict.value,
            "stabilized_since": verdict.stabilized_since,
            "budget": verdict.budget,
            "halted": verdict.halted,
        },
    }
    meaning = "gives no result anywhere (so far)" if verdict.value == "1" else "demonstrated a result"
    return payload, [f"{machine.name}: {verdict.value} ({meaning})"]


def _cmd_totality(args):
    pool = _pool_from_args(args)
    verdict = totality_verdict(pool, args.index, args.cycles)
    payload = {
        "machine": pool[args.index].name,
        "verdict": {
            "value": verdict.value,
            "stabilized_since": verdict.stabilized_since,
            "budget": verdict.budget,
            "halted": verdict.halted,
        },
    }
    meaning = {
        "1": "total so far",
        "0": "certified non-total within budget",
        None: "no information",
    }[verdict.value]
    return payload, [f"{pool[args.index].name}: {verdict.value} ({meaning})"]


def _cmd_halting_itm(args):
    machine = _load(args.machine, MachineTM)
    verdict = halting_itm(encode_machine(machine), _coded_input(machine, args.input), args.horizon)
    payload = {
        "machine": machine.name,
        "input": args.input,
        "verdict": {
            "value": verdict.value,
            "stabilized_since": verdict.stabilized_since,
            "budget": verdict.budget,
        },
    }
    meaning = "halted" if verdict.value == "1" else "no halt observed yet"
    return payload, [f"{machine.name}({args.input or 'ε'}): {verdict.value} ({meaning})"]


def _cmd_diagonal(args):
    decider = {"yes": zoo.decider_yes, "no": zoo.decider_no, "sim": SimDecider}[args.decider]()
    report = diagonal_experiment(decider, args.horizon)
    payload = {
        "decider": report.decider_name,
        "code_length": len(report.code),
        "decider_verdict": report.decider_verdict,
        "machine_outcome": report.machine_outcome.kind,
        "machine_gives_result": report.machine_gives_result,
        "contradiction": report.contradiction,
        "stages": report.stage_histories,
    }
    lines = [
        f"decider claims {report.decider_verdict!r}, composed machine "
        f"{'gives' if report.machine_gives_result else 'gives no'} result",
        f"contradiction: {report.contradiction}",
    ]
    return payload, lines


def _cmd_reduce(args):
    machine = _load(args.machine, MachineITM)
    reduction = build_reduction_tm(encode_machine(machine), _coded_input(machine, args.input))
    from .words import nth_word

    probes = []
    all_halt = True
    for n in range(1, args.probes + 1):
        out = run_fueled(reduction, nth_word(n), args.fuel)
        probes.append(
            {"input": nth_word(n), "kind": out.kind, "output": out.output, "steps": out.steps}
        )
        all_halt = all_halt and out.halted
    payload = {
        "machine": machine.name,
        "x": args.input,
        "probes": probes,
        "total_on_probes": all_halt,
    }
    return payload, [f"{reduction.name}: total on first {args.probes} probes: {all_halt}"]


def _cmd_orders(args):
    if args.problem:
        rows = [order_lookup(args.problem)]
    else:
        rows = order_rows()
    payload = {"rows": [{"problem": r.problem, "order": r.order, "source": r.source} for r in rows]}
    lines = [f"{r.problem} -> {r.order} ({r.source})" for r in rows]
    return payload, lines


# ---------------------------------------------------------------------------
# parser


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``, so a bad
    budget is a usage error (exit 2) before any work starts."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


_NON_NEGATIVE = _int_at_least(0)
_POSITIVE = _int_at_least(1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="minprog", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, configure):
        p = sub.add_parser(name)
        configure(p)
        p.set_defaults(handler=handler)
        return p

    def budget_args(p, horizon=False):
        p.add_argument("--max-len", dest="max_len", type=_NON_NEGATIVE, default=8)
        p.add_argument("--fuel", type=_POSITIVE, default=256)
        if horizon:
            p.add_argument("--horizon", type=_POSITIVE, default=None)

    add("run-tm", _cmd_run_tm, lambda p: (
        p.add_argument("--machine", required=True),
        p.add_argument("--input", default=""),
        p.add_argument("--fuel", type=_NON_NEGATIVE, default=1000),
    ))
    add("run-itm", _cmd_run_itm, lambda p: (
        p.add_argument("--machine", required=True),
        p.add_argument("--input", default=""),
        p.add_argument("--horizon", type=_POSITIVE, default=1000),
    ))
    add("complexity", _cmd_complexity, lambda p: (
        p.add_argument("--class", dest="klass", choices=("tm", "itm1"), default="tm"),
        p.add_argument("--predicate", required=True),
        p.add_argument("--interpreter", default="std"),
        budget_args(p, horizon=True),
    ))
    add("func-complexity", _cmd_func_complexity, lambda p: (
        p.add_argument("--class", dest="klass", choices=("tm", "itm1"), default="tm"),
        p.add_argument("--pair", action="append", required=True, metavar="IN=OUT"),
        p.add_argument("--interpreter", default="std"),
        budget_args(p, horizon=True),
    ))
    add("invariance", _cmd_invariance, lambda p: (
        p.add_argument("--u1", required=True),
        p.add_argument("--u2", required=True),
        p.add_argument("--family", default="small20"),
        budget_args(p),
    ))
    add("enumerate-nontotal", _cmd_enumerate_nontotal, lambda p: (
        p.add_argument("--cycles", type=_POSITIVE, default=64),
        p.add_argument("--machines", nargs="*", help="machine files (default: builtin pool)"),
    ))
    add("emptiness", _cmd_emptiness, lambda p: (
        p.add_argument("--machine"),
        p.add_argument("--pool-index", dest="pool_index", type=_NON_NEGATIVE, default=0),
        p.add_argument("--cycles", type=_POSITIVE, default=32),
    ))
    add("totality", _cmd_totality, lambda p: (
        p.add_argument("--index", type=_NON_NEGATIVE, required=True),
        p.add_argument("--cycles", type=_POSITIVE, default=64),
        p.add_argument("--machines", nargs="*"),
    ))
    add("halting-itm", _cmd_halting_itm, lambda p: (
        p.add_argument("--machine", required=True),
        p.add_argument("--input", default=""),
        p.add_argument("--horizon", type=_POSITIVE, default=1000),
    ))
    add("diagonal", _cmd_diagonal, lambda p: (
        p.add_argument("--decider", choices=("yes", "no", "sim"), required=True),
        p.add_argument("--horizon", type=_POSITIVE, default=10000),
    ))
    add("reduce", _cmd_reduce, lambda p: (
        p.add_argument("--machine", required=True),
        p.add_argument("--input", default=""),
        p.add_argument("--probes", type=_POSITIVE, default=8),
        p.add_argument("--fuel", type=_NON_NEGATIVE, default=10000),
    ))
    add("orders", _cmd_orders, lambda p: p.add_argument("problem", nargs="?"))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        payload, lines = args.handler(args)
    except _ERRORS as exc:
        # a KeyError's str is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    elapsed_ms = int((time.monotonic() - started) * 1000)
    if args.json:
        report = {"tool_version": __version__, "command": args.command, "elapsed_ms": elapsed_ms}
        report.update(payload)
        print(json.dumps(report))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
