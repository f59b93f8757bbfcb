"""End-to-end command line behaviour and exit codes."""

import ast
import sys
from pathlib import Path

import pytest

from apc.bench import (
    COST_HI,
    COST_LO,
    HEURISTIC_RESTARTS,
    KNOWN_METHODS,
    run_benchmark,
)
from apc.cli import main
from apc.heuristic import LSConfig, run_heuristic
from apc.instance import generate_instance, parse_instance, write_instance
from apc.model import export_lp

DIAG_DOC = """\
APC 1
n 2
costs
1 10
10 1
conflicts 1
0 0 1 1
"""

BLOCKED_DOC = """\
APC 1
n 2
costs
1 10
10 1
conflicts 2
0 0 1 1
0 1 1 0
"""


@pytest.fixture
def diag_file(tmp_path):
    path = tmp_path / "diag.apc"
    path.write_text(DIAG_DOC)
    return path


def test_generate_writes_parseable_file(tmp_path, capsys):
    out = tmp_path / "g.apc"
    code = main([
        "generate", "--n", "6", "--conflicts", "30",
        "--seed", "11", "--out", str(out),
    ])
    assert code == 0
    inst = parse_instance(out.read_text())
    assert inst.n == 6 and len(inst.conflicts) == 30
    assert all(1 <= c <= 100 for row in inst.costs for c in row)


def test_generate_to_stdout(capsys):
    assert main(["generate", "--n", "2", "--conflicts", "0", "--seed", "3"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("APC 1\n")
    assert parse_instance(text).n == 2


def test_generate_writes_the_instance_a_bench_row_solves(capsys):
    assert main(["generate", "--n", "6", "--conflicts", "30", "--seed", "4"]) == 0
    expected = write_instance(generate_instance(6, 30, COST_LO, COST_HI, 4))
    assert capsys.readouterr().out == expected


def test_generate_too_many_conflicts_is_usage_error(capsys):
    code = main(["generate", "--n", "2", "--conflicts", "999", "--seed", "0"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_generate_with_unreadable_name_is_usage_error(capsys):
    code = main([
        "generate", "--n", "2", "--conflicts", "1", "--seed", "1", "--name", "a\nb",
    ])
    assert code == 2
    assert "name" in capsys.readouterr().err


def test_generate_then_export_lp(tmp_path, capsys):
    inst_path = tmp_path / "g.apc"
    lp_path = tmp_path / "g.lp"
    assert main([
        "generate", "--n", "15", "--conflicts", "5000",
        "--seed", "1", "--out", str(inst_path),
    ]) == 0
    assert main(["export", str(inst_path), "--out", str(lp_path)]) == 0
    text = lp_path.read_text()
    binary_section = text.split("Binary\n")[1].split("End")[0]
    variables = {line.strip() for line in binary_section.splitlines() if line.strip()}
    assert len(variables) == 15 * 15


def test_export_writes_the_lp_to_stdout(tmp_path, capsys):
    path = tmp_path / "g.apc"
    path.write_text(write_instance(generate_instance(5, 20, COST_LO, COST_HI, 2)))
    assert main(["export", str(path)]) == 0
    assert capsys.readouterr().out == export_lp(parse_instance(path.read_text()))


def test_solve_oracle(diag_file, capsys):
    code = main(["solve", str(diag_file), "--method", "oracle"])
    assert code == 0
    out = capsys.readouterr().out
    assert "status Optimal" in out
    assert "value 20" in out
    assert out.rstrip().splitlines()[-1] == "1 0"


def test_solve_exact_matches_oracle(diag_file, capsys):
    code = main(["solve", str(diag_file), "--method", "exact", "--time-limit", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "status Optimal" in out and "value 20" in out and "lower_bound 20" in out


def test_solve_heuristic(diag_file, capsys):
    code = main([
        "solve", str(diag_file), "--method", "heuristic",
        "--restarts", "3", "--seed", "4", "--time-limit", "10",
    ])
    assert code == 0
    assert "value 20" in capsys.readouterr().out


def test_solve_heuristic_defaults_to_the_bench_restart_count(tmp_path, capsys):
    # with seed 6 this instance reaches 195, 191 and 180 in 4, 5 and 6 restarts
    inst = generate_instance(12, 400, COST_LO, COST_HI, 3)
    path = tmp_path / "g.apc"
    path.write_text(write_instance(inst))
    expected = run_heuristic(inst, LSConfig(restarts=HEURISTIC_RESTARTS, rng_seed=6))
    assert main(["solve", str(path), "--method", "heuristic", "--seed", "6"]) == 0
    assert f"value {expected.value}\n" in capsys.readouterr().out


def test_solve_repeats_the_bench_run_of_a_row_and_seed(tmp_path, capsys):
    # apc solve --seed S on the instance apc generate writes for row 8/50 and
    # seed S prints what run_benchmark records for that row, seed and method
    path = tmp_path / "g.apc"
    generate = ["generate", "--n", "8", "--conflicts", "50", "--seed", "2"]
    assert main([*generate, "--out", str(path)]) == 0
    results = run_benchmark([(8, 50)], KNOWN_METHODS, 3600.0, seeds=(2,))
    for r in results:
        assert main(["solve", str(path), "--method", r.method, "--seed", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"status {r.status}", f"value {r.value}"], r.method


def test_solve_rejects_the_removed_seed_option(diag_file, capsys):
    for option in ("--seed-incumbent", "--no-seed-incumbent"):
        assert main(["solve", str(diag_file), option]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_solve_infeasible_exits_1(tmp_path, capsys):
    path = tmp_path / "blocked.apc"
    path.write_text(BLOCKED_DOC)
    code = main(["solve", str(path), "--method", "exact"])
    assert code == 1
    assert "status Infeasible" in capsys.readouterr().out


def test_solve_heuristic_finding_nothing_is_no_solution(tmp_path, capsys):
    # the heuristic proves nothing, so coming back empty is not Infeasible
    path = tmp_path / "blocked.apc"
    path.write_text(BLOCKED_DOC)
    code = main([
        "solve", str(path), "--method", "heuristic",
        "--restarts", "2", "--time-limit", "10",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "status NoSolution" in out and "value -" in out


def test_solve_writes_solution_file(diag_file, tmp_path, capsys):
    sol_path = tmp_path / "sol.txt"
    assert main([
        "solve", str(diag_file), "--method", "oracle", "--out", str(sol_path),
    ]) == 0
    assert sol_path.read_text() == "1 0\n"
    assert main(["check", str(diag_file), str(sol_path)]) == 0
    assert "feasible value 20" in capsys.readouterr().out


def test_check_rejects_conflicting_solution(diag_file, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n")
    code = main(["check", str(diag_file), str(bad)])
    assert code == 1
    assert "conflict 0 0 1 1 violated" in capsys.readouterr().out


def test_check_reports_out_of_range_entry_and_repeated_column(tmp_path, capsys):
    path = tmp_path / "three.apc"
    path.write_text("APC 1\nn 3\ncosts\n1 2 3\n4 5 6\n7 8 9\nconflicts 0\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0 7\n")
    assert main(["check", str(path), str(bad)]) == 1
    assert capsys.readouterr().out == (
        "row 2 has no valid assignment\n"
        "column 0 is not covered exactly once\n"
        "column 1 is not covered exactly once\n"
        "column 2 is not covered exactly once\n"
    )


def test_check_rejects_garbage_solution(diag_file, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("zero one\n")
    assert main(["check", str(diag_file), str(bad)]) == 2


def test_check_rejects_wrong_length_solution(diag_file, tmp_path, capsys):
    short = tmp_path / "short.txt"
    short.write_text("0\n")
    assert main(["check", str(diag_file), str(short)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: assignment has length 1, expected 2\n"


def test_malformed_instance_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.apc"
    path.write_text("APC 9\nnonsense\n")
    assert main(["solve", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path):
    assert main(["solve", str(tmp_path / "nope.apc")]) == 2


def test_usage_error_exits_2():
    assert main(["solve"]) == 2
    assert main(["frobnicate"]) == 2


def test_bad_parameter_values_exit_2(diag_file, tmp_path, capsys):
    assert main([
        "solve", str(diag_file), "--method", "heuristic", "--restarts", "0",
    ]) == 2
    assert main([
        "solve", str(diag_file), "--method", "exact", "--time-limit", "0",
    ]) == 2
    # NaN time limits and negative node limits would otherwise mean no limit;
    # every method refuses them, even one that reads no limit
    for limit in (
        ["--method", "heuristic", "--time-limit", "nan"],
        ["--method", "exact", "--time-limit", "nan"],
        ["--method", "exact", "--node-limit", "-5"],
        ["--method", "oracle", "--time-limit", "nan"],
        ["--method", "oracle", "--time-limit", "-1"],
        ["--method", "heuristic", "--node-limit", "-5"],
        ["--method", "oracle", "--node-limit", "-5"],
    ):
        assert main(["solve", str(diag_file), *limit]) == 2
    # a bench run that would run serially, solve a method twice or read an
    # unknown preset is refused before the CSV is opened
    out_csv = tmp_path / "bench.csv"
    for bad in (
        ["--jobs", "0"], ["--jobs", "-3"], ["--methods", "exact,exact"],
        ["--preset", "huge"],
    ):
        assert main(["bench", "--out-csv", str(out_csv), *bad]) == 2
        assert not out_csv.exists()
    # a bad time limit is refused before an earlier CSV at that path is opened
    out_csv.write_text("group,seed\nkept\n")
    for limit in ("0", "-1", "nan"):
        args = ["--methods", "exact", "--time-limit", limit]
        assert main(["bench", "--out-csv", str(out_csv), *args]) == 2
        assert out_csv.read_text() == "group,seed\nkept\n"
    capsys.readouterr()


def test_help_exits_0():
    assert main(["--help"]) == 0


def test_bench_small_exact_only(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    code = main([
        "bench", "--preset", "small", "--methods", "exact",
        "--time-limit", "60", "--out-csv", str(out_csv),
    ])
    assert code == 0
    table = capsys.readouterr().out
    assert "Sec Opt" in table
    assert "Averages" in table
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 1 + 30  # 6 groups x 5 seeds


def test_runtime_imports_only_the_standard_library():
    package = Path(__file__).resolve().parents[1] / "src" / "apc"
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"
