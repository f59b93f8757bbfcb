"""End-to-end command line behaviour and exit codes."""

import pytest

from apc.cli import main
from apc.instance import parse_instance

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


def test_generate_too_many_conflicts_is_usage_error(capsys):
    code = main(["generate", "--n", "2", "--conflicts", "999", "--seed", "0"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_generate_then_export_lp(tmp_path, capsys):
    inst_path = tmp_path / "g.apc"
    lp_path = tmp_path / "g.lp"
    assert main([
        "generate", "--n", "15", "--conflicts", "5000",
        "--seed", "1", "--out", str(inst_path),
    ]) == 0
    assert main([
        "export", str(inst_path), "--format", "lp", "--out", str(lp_path),
    ]) == 0
    text = lp_path.read_text()
    binary_section = text.split("Binary\n")[1].split("End")[0]
    variables = {line.strip() for line in binary_section.splitlines() if line.strip()}
    assert len(variables) == 15 * 15


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


def test_check_rejects_garbage_solution(diag_file, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("zero one\n")
    assert main(["check", str(diag_file), str(bad)]) == 2


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


def test_bad_parameter_values_exit_2(diag_file, capsys):
    assert main([
        "solve", str(diag_file), "--method", "heuristic", "--restarts", "0",
    ]) == 2
    assert main([
        "solve", str(diag_file), "--method", "exact", "--time-limit", "0",
    ]) == 2
    capsys.readouterr()


def test_help_exits_0():
    assert main(["--help"]) == 0


def test_bench_small_exact_only(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("APC_BENCH_DIR", raising=False)
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
