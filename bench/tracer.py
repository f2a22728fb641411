"""Spans and counters at the boundaries of minprog's modules.

The tracer rebinds module functions and class methods at runtime, including
the copies that ``from .x import y`` left in importing modules, so every call
into a layer opens a span: name, start, end, parent span and job id.  Spans
stay in memory in flat arrays and are written out when the pass ends.  Step
counts come from the returned ``RunOutcome``/``ItmOutcome``; no per-step
method is wrapped.
"""

from __future__ import annotations

import dataclasses
import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self._stack: list[int] = []
        self.job_id = -1
        self.counts: Counter[str] = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(result, args)``
        runs on normal return to update counters."""
        nid = self._id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            self.end.append(0)
            stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def counted(self, counter: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_gen(self, counter: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[counter] += 1
                yield item

        return wrapper

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, and the
        inclusive seconds of the spans that have no ancestor of their name."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "outer_s": 0.0} for name in self.names}
        for i in range(n):
            nid = self.name_id[i]
            row = out[self.names[nid]]
            row["calls"] += 1
            row["incl_s"] += dur[i] / 1e9
            row["self_s"] += (dur[i] - child[i]) / 1e9
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != nid:
                p = self.parent[p]
            if p < 0:
                row["outer_s"] += dur[i] / 1e9
        return out

    def write(self, path) -> None:
        """Spans as tab-separated name, start_ns, end_ns, parent, job."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart_ns\tend_ns\tparent\tjob\n")
            for i in range(len(self.start)):
                f.write(f"{self.names[self.name_id[i]]}\t{self.start[i]}\t{self.end[i]}"
                        f"\t{self.parent[i]}\t{self.job[i]}\n")


def _rebind(fn, wrapper) -> None:
    """Replace ``fn`` by ``wrapper`` wherever a minprog module binds it."""
    for modname, module in list(sys.modules.items()):
        if modname == "minprog" or modname.startswith("minprog."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Trace the public functions of every minprog layer."""
    import minprog.cli
    from minprog import codec, complexity, hierarchy, inductive, machinefile, predicates
    from minprog import turing, universal, words

    t = tracer
    counts = t.counts

    def fn(name, func, after=None):
        _rebind(func, t.span(name, func, after))

    def method(name, cls, attr, after=None):
        setattr(cls, attr, t.span(name, cls.__dict__[attr], after))

    fn("words.unpair", words.unpair)
    _rebind(words.words_of_length, t.counted_gen("words.words_of_length.yielded", words.words_of_length))

    def decoded(result, args):
        counts["codec.decode_machine.accepted"] += 1

    fn("codec.decode_machine", codec.decode_machine, decoded)
    fn("codec.encode_machine", codec.encode_machine)
    fn("codec.builtin_memory", codec.builtin_memory)

    def applied(result, args):
        counts["universal.apply.halted"] += result.halted

    for cls in (universal.StandardUniversal, universal.WrappedUniversal, universal.BiasedUniversal):
        method("universal.apply", cls, "apply", applied)
        method("universal.apply", cls, "apply2", applied)
    fn("universal.itm_universal_apply", universal.itm_universal_apply)

    def ran_tm(result, args):
        if isinstance(args[0], turing.MachineTM):
            counts["turing.run_fueled.steps"] += result.steps

    fn("turing.run_fueled", turing.run_fueled, ran_tm)
    turing.TmRun.__init__ = t.counted("turing.runs_started", turing.TmRun.__init__)

    def ran_itm(result, args):
        counts["inductive.itm_run.steps"] += result.steps if result.steps is not None else result.horizon

    fn("inductive.itm_run", inductive.itm_run, ran_itm)
    inductive.TmAsItm.start_run = t.counted("inductive.tm_as_itm.runs", inductive.TmAsItm.start_run)
    method("inductive.limit_oracle", inductive.LimitMemory, "oracle")

    method("predicates.call", predicates.Predicate, "__call__")

    def scanned(result, args):
        counts["complexity.scan.programs_scanned"] += result.programs_scanned
        counts["complexity.scan.runs_halted"] += result.runs_halted

    for scan in (complexity.bounded_problem_complexity, complexity.bounded_functional_complexity,
                 complexity.bounded_kolmogorov):
        fn("complexity.scan", scan, scanned)

    def handles(make):
        def traced_make(*args, **kwargs):
            handle = make(*args, **kwargs)
            return dataclasses.replace(
                handle,
                produce=t.counted("complexity.produce.calls", handle.produce),
                produce2=t.counted("complexity.produce.calls", handle.produce2),
            )

        return traced_make

    for make in (complexity.tm_class, complexity.itm1_class, complexity.compose_postprocess):
        _rebind(make, handles(make))

    def cycled(result, args):
        counts["hierarchy.dovetail_nontotal.cycles"] += result.cycle

    fn("hierarchy.dovetail_nontotal", hierarchy.dovetail_nontotal, cycled)
    for name in ("emptiness_solver", "totality_verdict", "thm72_memory", "limitlist_memory",
                 "diagonal_experiment", "halting_itm"):
        fn(f"hierarchy.{name}", getattr(hierarchy, name))
    for cls in (hierarchy.RangeEnumerator, hierarchy.Totalizer, hierarchy.ReductionTM):
        method("hierarchy.host_run", cls, "run")

    fn("machinefile.parse", machinefile.parse_machine_file)
    fn("cli.main", minprog.cli.main)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# Per-layer metric name -> unit.  Every traced run reports all of them, 0
# where a workload does not use the layer.
UNITS = {
    "words.unpair.calls": "count",
    "words.unpair.self_s": "s",
    "words.words_of_length.yielded": "count",
    "codec.decode_machine.calls": "count",
    "codec.decode_machine.self_s": "s",
    "codec.decode_machine.accept_ratio": "ratio",
    "codec.encode_machine.calls": "count",
    "codec.encode_machine.self_s": "s",
    "codec.builtin_memory.calls": "count",
    "codec.builtin_memory.self_s": "s",
    "universal.apply.calls": "count",
    "universal.apply.self_s": "s",
    "universal.apply.halted_ratio": "ratio",
    "universal.itm_universal_apply.calls": "count",
    "universal.itm_universal_apply.self_s": "s",
    "turing.run_fueled.calls": "count",
    "turing.run_fueled.self_s": "s",
    "turing.run_fueled.steps": "count",
    "turing.run_fueled.steps_per_s": "1/s",
    "turing.runs_started": "count",
    "inductive.itm_run.calls": "count",
    "inductive.itm_run.self_s": "s",
    "inductive.itm_run.steps": "count",
    "inductive.itm_run.steps_per_s": "1/s",
    "inductive.tm_as_itm.runs": "count",
    "inductive.limit_oracle.calls": "count",
    "inductive.limit_oracle.self_s": "s",
    "inductive.limit_oracle.us_per_query": "us",
    "predicates.call.calls": "count",
    "predicates.call.self_s": "s",
    "complexity.scan.calls": "count",
    "complexity.scan.self_s": "s",
    "complexity.scan.programs_scanned": "count",
    "complexity.scan.us_per_program": "us",
    "complexity.scan.halted_ratio": "ratio",
    "complexity.produce.calls": "count",
    "hierarchy.dovetail_nontotal.self_s": "s",
    "hierarchy.dovetail_nontotal.us_per_cycle": "us",
    "hierarchy.emptiness_solver.self_s": "s",
    "hierarchy.totality_verdict.self_s": "s",
    "hierarchy.thm72_memory.calls": "count",
    "hierarchy.thm72_memory.self_s": "s",
    "hierarchy.limitlist_memory.calls": "count",
    "hierarchy.limitlist_memory.self_s": "s",
    "hierarchy.host_run.self_s": "s",
    "hierarchy.diagonal_experiment.self_s": "s",
    "hierarchy.halting_itm.self_s": "s",
    "machinefile.parse.calls": "count",
    "machinefile.parse.self_s": "s",
    "cli.main.self_s": "s",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    totals = tracer.totals()
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "outer_s": 0.0}

    def get(name):
        return totals.get(name, empty)

    c = tracer.counts
    m: dict[str, float] = {}
    for name in ("words.unpair", "codec.decode_machine", "codec.encode_machine",
                 "codec.builtin_memory", "universal.apply", "universal.itm_universal_apply",
                 "turing.run_fueled", "inductive.itm_run", "inductive.limit_oracle",
                 "predicates.call", "complexity.scan", "hierarchy.thm72_memory",
                 "hierarchy.limitlist_memory", "machinefile.parse"):
        m[f"{name}.calls"] = get(name)["calls"]
    for name in ("words.unpair", "codec.decode_machine", "codec.encode_machine",
                 "codec.builtin_memory", "universal.apply", "universal.itm_universal_apply",
                 "turing.run_fueled", "inductive.itm_run", "inductive.limit_oracle",
                 "predicates.call", "complexity.scan", "hierarchy.dovetail_nontotal",
                 "hierarchy.emptiness_solver", "hierarchy.totality_verdict",
                 "hierarchy.thm72_memory", "hierarchy.limitlist_memory", "hierarchy.host_run",
                 "hierarchy.diagonal_experiment", "hierarchy.halting_itm", "machinefile.parse",
                 "cli.main"):
        m[f"{name}.self_s"] = get(name)["self_s"]
    m["words.words_of_length.yielded"] = c["words.words_of_length.yielded"]
    m["codec.decode_machine.accept_ratio"] = _ratio(c["codec.decode_machine.accepted"],
                                                    get("codec.decode_machine")["calls"])
    m["universal.apply.halted_ratio"] = _ratio(c["universal.apply.halted"], get("universal.apply")["calls"])
    m["turing.run_fueled.steps"] = c["turing.run_fueled.steps"]
    m["turing.run_fueled.steps_per_s"] = _ratio(c["turing.run_fueled.steps"], get("turing.run_fueled")["self_s"])
    m["turing.runs_started"] = c["turing.runs_started"]
    m["inductive.itm_run.steps"] = c["inductive.itm_run.steps"]
    m["inductive.itm_run.steps_per_s"] = _ratio(c["inductive.itm_run.steps"], get("inductive.itm_run")["self_s"])
    m["inductive.tm_as_itm.runs"] = c["inductive.tm_as_itm.runs"]
    m["inductive.limit_oracle.us_per_query"] = 1e6 * _ratio(get("inductive.limit_oracle")["incl_s"],
                                                           get("inductive.limit_oracle")["calls"])
    scanned = c["complexity.scan.programs_scanned"]
    m["complexity.scan.programs_scanned"] = scanned
    m["complexity.scan.us_per_program"] = 1e6 * _ratio(get("complexity.scan")["outer_s"], scanned)
    m["complexity.scan.halted_ratio"] = _ratio(c["complexity.scan.runs_halted"], scanned)
    m["complexity.produce.calls"] = c["complexity.produce.calls"]
    m["hierarchy.dovetail_nontotal.us_per_cycle"] = 1e6 * _ratio(
        get("hierarchy.dovetail_nontotal")["outer_s"], c["hierarchy.dovetail_nontotal.cycles"])
    if set(m) != set(UNITS):
        raise RuntimeError(f"layer metrics out of step with UNITS: {sorted(set(m) ^ set(UNITS))}")
    return m
