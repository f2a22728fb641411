import json
import subprocess
import sys
from pathlib import Path

import pytest

from minprog.cli import main
from minprog.universal import parse_interpreter_spec

ROOT = Path(__file__).resolve().parent.parent
IDENTITY = str(ROOT / "machines" / "identity.tm")
WRITER = str(ROOT / "machines" / "writer.itm")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--json", *argv)
    assert code == 0, err
    return json.loads(out)


def test_run_tm_identity(capsys):
    code, out, _ = run_cli(capsys, "run-tm", "--machine", IDENTITY, "--input", "101", "--fuel", "100")
    assert code == 0
    assert "halted 101" in out


def test_run_tm_json_report_envelope(capsys):
    report = run_json(capsys, "run-tm", "--machine", IDENTITY, "--input", "101", "--fuel", "100")
    assert report["tool_version"]
    assert report["command"] == "run-tm"
    assert "elapsed_ms" in report
    assert report["outcome"] == {"kind": "halted", "output": "101", "steps": 4}


def test_run_itm_writer(capsys):
    report = run_json(capsys, "run-itm", "--machine", WRITER, "--horizon", "50")
    assert report["outcome"]["kind"] == "stabilized"
    assert report["outcome"]["output"] == "1"
    assert report["outcome"]["last_change_step"] == 3


def test_complexity_reports_match_direct_computation(capsys):
    report = run_json(
        capsys, "complexity", "--class", "tm", "--predicate", "equals:0",
        "--interpreter", "biased:1", "--max-len", "10", "--fuel", "5000",
    )
    assert report["kind"] == "finite"
    assert report["value"] == 1
    assert report["witness"] == "0"
    assert report["budget"] == {"max_len": 10, "fuel": 5000, "horizon": None}
    assert report["predicate"] == "equals:0"


def test_complexity_parses_its_interpreter_once(capsys, monkeypatch):
    # the class and the within: predicate share one interpreter object
    import minprog.cli

    specs = []

    def parse(spec):
        specs.append(spec)
        return parse_interpreter_spec(spec)

    monkeypatch.setattr(minprog.cli, "parse_interpreter_spec", parse)
    run_json(capsys, "complexity", "--interpreter", "biased:1", "--predicate", "within:4")
    assert specs == ["biased:1"]


def test_complexity_std_interpreter_has_no_witness(capsys):
    report = run_json(
        capsys, "complexity", "--predicate", "equals:01", "--max-len", "10", "--fuel", "5000",
    )
    assert report["kind"] == "no-witness-within-budget"
    assert report["programs_scanned"] == 2047
    assert report["runs_halted"] == 0


def test_complexity_itm1_class(capsys):
    report = run_json(
        capsys, "complexity", "--class", "itm1", "--predicate", "equals:0",
        "--interpreter", "biased:1", "--max-len", "6", "--fuel", "64", "--horizon", "64",
    )
    assert report["kind"] == "finite"
    assert report["value"] == 3 and report["witness"] == "100"
    assert report["budget"]["horizon"] == 64


def test_itm1_search_past_a_machine_that_cannot_hold_its_input(capsys):
    # the scan reaches sd(c) + "1" for a 20-bit code c of a Turing machine
    # over the alphabet {0}: no run, so no result, not a crash
    report = run_json(
        capsys, "complexity", "--class", "itm1", "--interpreter", "std", "--predicate", "equals:1",
        "--max-len", "43", "--horizon", "64",
    )
    assert report["kind"] == "no-witness-within-budget"


def test_func_complexity(capsys):
    report = run_json(
        capsys, "func-complexity", "--pair", "=0", "--pair", "0=0", "--pair", "1=0",
        "--interpreter", "biased:1", "--max-len", "6", "--fuel", "64",
    )
    assert report["kind"] == "finite" and report["value"] == 1


def test_invariance(capsys):
    report = run_json(
        capsys, "invariance", "--u1", "biased:1", "--u2", "wrap:biased:1",
        "--max-len", "8", "--fuel", "128",
    )
    assert report["gap"] == 2
    assert len(report["rows"]) == 20


def test_invariance_family_takes_the_budget_bounded_c_equals_needs(capsys):
    report = run_json(
        capsys, "invariance", "--u1", "biased:1", "--u2", "wrap:biased:1",
        "--family", "bounded-c-equals:1,equals:0", "--max-len", "4",
    )
    assert [(row["predicate"], row["first"]["value"], row["second"]["value"]) for row in report["rows"]] == [
        ("bounded-c-equals:1", 1, 3), ("equals:0", 1, 3),
    ]
    assert report["gap"] == 2


def test_enumerate_nontotal_schema_and_prefix(capsys):
    report = run_json(capsys, "enumerate-nontotal", "--cycles", "32")
    assert set(report) >= {"cycle", "list", "halted_pairs", "stable_prefix_estimate"}
    assert report["cycle"] == 32
    assert len(report["stable_prefix_estimate"]) == 3


def test_emptiness_and_totality(capsys):
    report = run_json(capsys, "emptiness", "--pool-index", "0", "--cycles", "16")
    assert report["machine"] == "looper"
    assert report["verdict"]["value"] == "1"
    report = run_json(capsys, "totality", "--index", "3", "--cycles", "64")
    assert report["machine"] == "identity"
    assert report["verdict"]["value"] == "1"


UNARY_TWO_OR_MORE = """machine unary-two-or-more
kind tm
alphabet 0
states q0 q1 qf
start q0
final qf
trans q0 0 _ _ -> q1 0 _ _ R S S
trans q1 0 _ _ -> qf 0 _ _ S S S
"""


def test_limit_commands_run_a_unary_machine_file(capsys, tmp_path):
    # the dovetails feed x_1, x_2, x_3 = ε, 0, 00: the machine halts on x_3
    path = tmp_path / "unary.tm"
    path.write_text(UNARY_TWO_OR_MORE, encoding="utf-8")
    report = run_json(capsys, "emptiness", "--machine", str(path), "--cycles", "8")
    assert report["verdict"] == {"value": "0", "stabilized_since": 3, "budget": 3, "halted": True}
    report = run_json(capsys, "enumerate-nontotal", "--machines", str(path), "--cycles", "4")
    assert report["halted_pairs"] == [[1, 3], [1, 4]]
    report = run_json(capsys, "totality", "--machines", str(path), "--index", "0", "--cycles", "4")
    assert report["verdict"]["value"] == "0"


def test_emptiness_pool_index_out_of_range_names_the_pool_size(capsys):
    code, out, err = run_cli(capsys, "emptiness", "--pool-index", "6")
    assert code == 1 and out == ""
    assert err.strip() == "error: pool index 6 out of range: the pool has 6 machines"


@pytest.mark.parametrize("index", ["0", "9"])
def test_emptiness_takes_a_machine_file_or_a_pool_index_not_both(capsys, index):
    code, out, err = run_cli(capsys, "emptiness", "--machine", IDENTITY, "--pool-index", index)
    assert code == 2 and out == ""
    assert "argument --pool-index: not allowed with argument --machine" in err


@pytest.mark.parametrize("argv", [["enumerate-nontotal", "--cycles", "8"], ["totality", "--index", "0", "--cycles", "8"]])
def test_machines_given_no_file_is_a_usage_error_not_the_builtin_pool(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--machines")
    assert code == 2 and out == ""
    assert "argument --machines: expected at least one argument" in err


def test_halting_itm(capsys):
    report = run_json(capsys, "halting-itm", "--machine", IDENTITY, "--input", "0", "--horizon", "1000")
    assert report["verdict"]["value"] == "1"


def test_diagonal(capsys):
    report = run_json(capsys, "diagonal", "--decider", "no", "--horizon", "2000")
    assert report["contradiction"] is True
    assert set(report["stages"]) == {"checker", "decider", "filter"}


def test_reduce(capsys):
    report = run_json(capsys, "reduce", "--machine", WRITER, "--probes", "3", "--fuel", "4000")
    assert report["total_on_probes"] is False
    assert report["probes"][0]["kind"] == "halted"


def _over_ab(path, tmp_path):
    """A copy of the machine file at ``path`` over the alphabet ab, a for 0
    and b for 1."""
    lines = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.split()[0] in ("trans", "rule"):
            line = " ".join({"0": "a", "1": "b"}.get(t, t) for t in line.split())
        lines.append("alphabet ab" if line == "alphabet 01" else line)
    copy = tmp_path / Path(path).name
    copy.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(copy)


def test_halting_itm_takes_an_input_over_the_machine_files_alphabet(capsys, tmp_path):
    identity = _over_ab(IDENTITY, tmp_path)
    assert run_json(capsys, "run-tm", "--machine", identity, "--input", "ab")["outcome"]["output"] == "ab"
    report = run_json(capsys, "halting-itm", "--machine", identity, "--input", "ab")
    assert report["input"] == "ab"
    assert report["verdict"] == run_json(capsys, "halting-itm", "--machine", IDENTITY, "--input", "01")["verdict"]
    assert report["verdict"]["value"] == "1"
    assert report["verdict"]["stabilized_since"] == 3
    code, out, err = run_cli(capsys, "halting-itm", "--machine", identity, "--input", "a0")
    assert code == 1 and out == ""
    assert err.strip() == "error: symbol '0' is not in alphabet ab"


def test_reduce_takes_an_input_over_the_machine_files_alphabet(capsys, tmp_path):
    writer = _over_ab(WRITER, tmp_path)
    report = run_json(capsys, "reduce", "--machine", writer, "--input", "ba", "--probes", "3", "--fuel", "400")
    assert report["x"] == "ba"
    binary = run_json(capsys, "reduce", "--machine", WRITER, "--input", "10", "--probes", "3", "--fuel", "400")
    assert report["probes"] == binary["probes"]
    code, out, err = run_cli(capsys, "reduce", "--machine", writer, "--input", "1")
    assert code == 1 and out == ""
    assert err.strip() == "error: symbol '1' is not in alphabet ab"


def test_orders_single_and_table(capsys):
    code, out, _ = run_cli(capsys, "orders", "HP")
    assert code == 0 and "HP -> 1 (Thm 8.1)" in out
    report = run_json(capsys, "orders")
    rows = {r["problem"]: (r["order"], r["source"]) for r in report["rows"]}
    assert rows["TP"] == (2, "Thm 8.6")
    assert rows["RPI_3"] == (4, "Thm 8.2")


@pytest.mark.parametrize("name", ["XYZ", "RPI_0", "RPI_x", "RPI_01", "RPI_\u0661"])
def test_orders_names_an_unknown_problem(capsys, name):
    code, out, err = run_cli(capsys, "orders", name)
    assert code == 1 and out == ""
    assert err.strip() == f"error: unknown problem '{name}'"


@pytest.mark.parametrize("spec", ["biased:x", "biased:", "wrap:biased:-1"])
def test_complexity_names_a_bad_interpreter_spec(capsys, spec):
    code, out, err = run_cli(capsys, "complexity", "--predicate", "equals:0", "--interpreter", spec)
    assert code == 1 and out == ""
    assert err.strip() == f"error: unknown interpreter spec '{spec.removeprefix('wrap:')}'"


def test_reports_are_deterministic_modulo_elapsed(capsys):
    argv = ["--json", "complexity", "--predicate", "leq:1", "--interpreter", "biased:1",
            "--max-len", "6", "--fuel", "64"]
    first = json.loads(run_cli(capsys, *argv)[1])
    second = json.loads(run_cli(capsys, *argv)[1])
    first.pop("elapsed_ms"), second.pop("elapsed_ms")
    assert json.dumps(first) == json.dumps(second)


def test_exit_code_matrix(capsys):
    cases = [
        (["orders", "HP"], 0),
        (["no-such-command"], 2),
        ([], 2),
        (["run-tm", "--machine", "/does/not/exist", "--fuel", "5"], 1),
        (["complexity", "--predicate", "nosuch:x"], 1),
        (["complexity", "--predicate", "anyword:junk"], 1),
        (["complexity", "--predicate", "nonempty:1"], 1),
        (["complexity", "--predicate", "false:"], 1),
        (["orders", "XYZ"], 1),
        (["totality", "--index", "99", "--cycles", "4"], 1),
        (["run-tm", "--machine", IDENTITY, "--input", "abc"], 1),
    ]
    for argv, expected in cases:
        code = main(argv)
        capsys.readouterr()
        assert code == expected, argv


@pytest.mark.parametrize("argv", [
    ["emptiness", "--cycles", "-5"],
    ["emptiness", "--pool-index", "-1"],
    ["totality", "--index", "0", "--cycles", "-3"],
    ["totality", "--index", "-1"],
    ["enumerate-nontotal", "--cycles", "0"],
    ["complexity", "--predicate", "anyword", "--fuel", "-1"],
    ["complexity", "--predicate", "anyword", "--fuel", "0"],
    ["complexity", "--predicate", "anyword", "--max-len", "-1"],
    ["complexity", "--predicate", "anyword", "--horizon", "0"],
    ["func-complexity", "--pair", "0=0", "--fuel", "0"],
    ["invariance", "--u1", "std", "--u2", "std", "--max-len", "-2"],
    ["run-tm", "--machine", IDENTITY, "--fuel", "-1"],
    ["run-tm", "--machine", IDENTITY, "--fuel", "ten"],
    ["run-itm", "--machine", WRITER, "--horizon", "0"],
    ["halting-itm", "--machine", IDENTITY, "--horizon", "0"],
    ["diagonal", "--decider", "no", "--horizon", "-1"],
    ["reduce", "--machine", WRITER, "--probes", "0"],
    ["reduce", "--machine", WRITER, "--fuel", "-1"],
], ids=lambda argv: " ".join(Path(a).name for a in argv))
def test_bad_budgets_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "must be at least" in err or "invalid int value" in err


def test_smallest_budgets_are_accepted(capsys):
    assert run_json(capsys, "run-tm", "--machine", IDENTITY, "--fuel", "0")["outcome"]["kind"] == "out-of-fuel"
    assert run_json(capsys, "complexity", "--predicate", "anyword", "--max-len", "0", "--fuel", "1")[
        "programs_scanned"] == 1
    assert run_json(capsys, "totality", "--index", "0", "--cycles", "1")["verdict"]["budget"] == 1


def test_std_minimum_for_anyword_is_the_54_bit_halt_now_program(capsys):
    from minprog.codec import encode_machine
    from minprog.words import sd
    from strategies import halt_now

    report = run_json(
        capsys, "complexity", "--interpreter", "std", "--predicate", "anyword",
        "--max-len", "54", "--fuel", "64",
    )
    assert (report["kind"], report["value"]) == ("finite", 54)
    assert report["witness"] == "000011000011110000110000110000111100000011000000110001"
    assert report["witness"] == sd(encode_machine(halt_now()))
    assert report["programs_scanned"] == 2**55 - 1 == 36028797018963967
    assert report["runs_halted"] == 1


def test_console_entry_point_runs():
    out = subprocess.run(
        [sys.executable, "-m", "minprog.cli", "orders", "EmP"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "EmP -> 1 (Thm 8.8)" in out.stdout
