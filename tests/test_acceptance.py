"""The acceptance suite: one test per shipped criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Exact-complexity quantities are not computable, so every criterion here is
a property checked at desk scale under pinned budgets.  Where the standard
interpreter's program minima sit beyond any exhaustive scan (its shortest
valid program is dozens of symbols long), the positive instances run under
the engineered interpreters whose program spaces were built to be small;
the standard interpreter's runs are still asserted exactly, with the
searches and the oracle agreeing that nothing is reachable.
"""

import functools
import time

from minprog.codec import encode_machine
from minprog.complexity import (
    Budget,
    K_EMBED,
    bounded_kolmogorov,
    bounded_problem_complexity,
    compose_postprocess,
    growth_profile,
    invariance_gap,
    itm1_class,
    tm_class,
    verdict_le,
)
from minprog.hierarchy import (
    SimDecider,
    diagonal_experiment,
    dovetail_nontotal,
    emptiness_solver,
    halting_itm,
    order_lookup,
    totality_verdict,
)
from minprog.inductive import itm_run
from minprog.predicates import equals, geq, length_equals, leq, shipped_registry, small20_family
from minprog.turing import run_fueled
from minprog.universal import U_STD, WRAP_HEADER, make_biased_universal, wrap_universal
from minprog.words import nth_word, words_up_to
from minprog import zoo

from oracles import brute_force_outputs, brute_force_search

U1 = make_biased_universal(1)
H_BIASED = tm_class(U1)
H_STD = tm_class(U_STD)
POOL = zoo.acceptance_pool()
POOL_CODES = [encode_machine(m) for m in POOL]


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {num:02d} {name}: PASS")

        return wrapper

    return deco


def _oracle(handle, accept, budget):
    return brute_force_search(lambda p: handle.produce(p, budget), accept, budget.max_len)


def _matches_oracle(verdict, oracle_result):
    value, witnesses = oracle_result
    if value is None:
        return verdict.kind == "no-witness-within-budget"
    return verdict.finite and verdict.value == value and verdict.witness == min(witnesses)


@criterion(1, "oracle equivalence")
def test_01_oracle_equivalence():
    started = time.monotonic()
    budget = Budget(max_len=10, fuel=5000)
    for handle in (H_BIASED, H_STD):
        for u in words_up_to(3):
            verdict = bounded_problem_complexity(handle, equals(u), budget)
            assert _matches_oracle(verdict, _oracle(handle, lambda w: w == u, budget)), (
                handle.tag,
                u,
            )
    assert time.monotonic() - started < 60.0


@criterion(2, "minimum-program identity for single-word predicates")
def test_02_kolmogorov_identity():
    budget = Budget(max_len=10, fuel=5000)
    for handle in (H_BIASED, H_STD):
        for z in words_up_to(3):
            prob = bounded_problem_complexity(handle, equals(z), budget)
            kolm = bounded_kolmogorov(handle, z, budget)
            assert (prob.kind, prob.value, prob.witness) == (kolm.kind, kolm.value, kolm.witness)


@criterion(3, "order predicates reduce to minima over reachable words")
def test_03_min_form():
    budget = Budget(max_len=8, fuel=1000)
    for handle in (H_BIASED, H_STD):
        emitted = brute_force_outputs(lambda p: handle.produce(p, budget), budget.max_len)

        def best_c_over(words):
            best = None
            for y in words:
                value, _ = _oracle(handle, lambda w, y=y: w == y, budget)
                if value is not None and (best is None or value < best):
                    best = value
            return best

        for z in words_up_to(3):
            lhs = bounded_problem_complexity(handle, leq(z), budget)
            rhs = best_c_over([y for y in words_up_to(budget.max_len) if leq(z)(y)])
            assert (lhs.value if lhs.finite else None) == rhs, ("leq", handle.tag, z)

            lhs = bounded_problem_complexity(handle, geq(z), budget)
            rhs = best_c_over([y for y in emitted if geq(z)(y)])
            assert (lhs.value if lhs.finite else None) == rhs, ("geq", handle.tag, z)


@criterion(4, "implication monotonicity across the shipped registry")
def test_04_monotonicity():
    registry = shipped_registry(U1)
    assert len(registry) >= 30
    settings = [(H_BIASED, Budget(6, 128)), (H_STD, Budget(4, 64))]
    violations = []
    for handle, budget in settings:
        cache = {}
        for p, q, _ in registry.edges:
            for pred in (p, q):
                if pred.name not in cache:
                    cache[pred.name] = bounded_problem_complexity(handle, pred, budget)
            if not verdict_le(cache[q.name], cache[p.name]):
                violations.append((handle.tag, p.name, q.name))
    assert violations == []


@criterion(5, "invariance gaps: wrapped above, engineered below")
def test_05_invariance():
    budget = Budget(max_len=8, fuel=256)
    outer = wrap_universal(U1)
    family = small20_family(U1)
    res = invariance_gap(U1, outer, family, budget)
    assert sum(r.comparable for r in res.rows) >= 10
    assert res.gap <= len(WRAP_HEADER)

    res = invariance_gap(U1, make_biased_universal(3), [equals(u) for u in words_up_to(2)], budget)
    assert res.gap >= 2


@criterion(6, "a single constant covers the append post-processing reduction")
def test_06_reduction_constant():
    budget = Budget(max_len=8, fuel=256)
    for base in (H_BIASED, H_STD):
        composed = compose_postprocess(base, zoo.append_zero())
        needed = []
        for u in words_up_to(2):
            lhs = bounded_problem_complexity(composed, equals(u + "0"), budget)
            rhs = bounded_problem_complexity(base, equals(u), budget)
            if rhs.finite:
                assert lhs.finite, (base.tag, u)
                needed.append(lhs.value - rhs.value)
        k = max(needed, default=0)
        assert k == 0  # one constant works for every u


@criterion(7, "length-family growth exhausts a small budget")
def test_07_growth():
    budget = Budget(max_len=4, fuel=64)
    for handle in (H_BIASED, H_STD):
        profile = growth_profile(handle, length_equals, range(0, 41), budget)
        walls = []
        for n, verdict in profile:
            oracle_value, _ = _oracle(handle, lambda w, n=n: len(w) == n, budget)
            assert _matches_oracle(verdict, _oracle(handle, lambda w, n=n: len(w) == n, budget))
            if verdict.kind == "no-witness-within-budget":
                assert oracle_value is None
                walls.append(n)
        assert walls, handle.tag


@criterion(8, "inductive class dominates the machine class up to the header")
def test_08_class_hierarchy():
    budget = Budget(max_len=8, fuel=256, horizon=128)
    h_itm = itm1_class(U1)
    family = small20_family(U1) + [equals(u) for u in words_up_to(2)]
    for pred in family:
        tm_v = bounded_problem_complexity(H_BIASED, pred, budget)
        itm_v = bounded_problem_complexity(h_itm, pred, budget)
        if tm_v.finite:
            assert itm_v.finite and itm_v.value <= tm_v.value + K_EMBED, pred.name
        # an infinite machine-class verdict bounds nothing


@criterion(9, "diagonal machine contradicts every shipped decider on its own code")
def test_09_diagonalization():
    started = time.monotonic()
    deciders = [zoo.decider_yes(), zoo.decider_no(), SimDecider()]
    for decider in deciders:
        report = diagonal_experiment(decider, 10_000)
        assert report.decider_verdict in ("0", "1"), report.decider_name
        assert report.contradiction, report.decider_name
    assert time.monotonic() - started < 30.0


@criterion(10, "scheduler's stable prefix is exactly the non-total machines")
def test_10_dovetail_enumeration():
    state = dovetail_nontotal(POOL, 64)
    prefix = state.stable_prefix_estimate()
    expected = [code for code, m in zip(POOL_CODES, POOL) if not zoo.pool_total(m.name)]
    assert prefix == expected
    for index, machine in enumerate(POOL):
        verdict = totality_verdict(POOL, index, 64)
        assert verdict.value == ("1" if zoo.pool_total(machine.name) else "0"), machine.name


@criterion(11, "emptiness verdicts match ground truth with the stated shapes")
def test_11_emptiness():
    for machine in POOL:
        verdict = emptiness_solver(encode_machine(machine), 32)
        if zoo.pool_empty(machine.name):
            assert verdict.value == "1", machine.name
            assert not verdict.halted
            assert verdict.stabilized_since == 1
        else:
            assert verdict.value == "0", machine.name
            assert verdict.halted


@criterion(12, "output-change reduction tracks result-giving exactly")
def test_12_reduction():
    fuel = 10_000
    machines = [zoo.alternator(), zoo.writer(), zoo.silent()]
    for machine in machines:
        from minprog.hierarchy import build_reduction_tm

        transform = build_reduction_tm(encode_machine(machine), "")
        total = all(run_fueled(transform, nth_word(n), fuel).halted for n in range(1, 9))
        defined = itm_run(machine, "", fuel).gives_result
        assert total == (not defined), machine.name


@criterion(13, "halting demonstrator matches ground truth on the pool")
def test_13_inductive_halting():
    horizon = 1000
    for machine in POOL:
        code = encode_machine(machine)
        for x in words_up_to(2):
            verdict = halting_itm(code, x, horizon)
            expected = "1" if zoo.pool_halts(machine.name, x) else "0"
            assert verdict.value == expected, (machine.name, x)


@criterion(14, "static order table carries the expected values and sources")
def test_14_order_table():
    expected = {
        "HP": (1, "Thm 8.1"),
        "AP": (1, "Cor 8.1"),
        "TP": (2, "Thm 8.6"),
        "IfP": (2, "Thm 8.7"),
        "EmP": (1, "Thm 8.8"),
        "LEmP": (1, "Cor 8.3"),
    }
    for name, (order, source) in expected.items():
        row = order_lookup(name)
        assert (row.order, row.source) == (order, source), name
    for n in range(1, 5):
        row = order_lookup(f"RPI_{n}")
        assert row.order == n + 1
        assert row.source == "Thm 8.2"
