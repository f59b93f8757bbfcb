"""Every refusal: a plain ValueError naming what it refused.

Every `raise ValueError` site in the package outside `parse_instance` is one
(call, message fragment) row here, so the message is what tells the refusals
apart; the parser's, which name the line, are test_instance.py's
PARSE_ERRORS. A count or seed that is not an int raises TypeError instead,
before any work.
"""

import re

import pytest

from apc.bench import KNOWN_METHODS, InstanceResult, emit_table, run_benchmark, run_method
from apc.exact import branch, solve_exact
from apc.heuristic import LSConfig, gap_percent, local_search
from apc.hungarian import MaskedCosts, solve_ap
from apc.instance import (
    ConflictPair,
    ConflictSet,
    Instance,
    generate_instance,
    write_instance,
)
from apc.model import check_feasible, evaluate
from apc.oracle import brute_force, enumerate_feasible
from apc.solution import SolveStatus

DIAG = Instance([[1, 10], [10, 1]], [((0, 0), (1, 1))])
ROWS = [(4, 0)]


def _result(group, method):
    return InstanceResult(
        group, 4, 0, method, 1, 100, SolveStatus.OPTIMAL, None, 0.0, 1.0, 100, 100, 1
    )


REFUSALS = [
    # apc.bench.run_method
    (lambda: run_method(DIAG, "exact", 0, 1), "time_limit must be positive, got 0"),
    (lambda: run_method(DIAG, "exact", 1.0, 1, node_limit=-1), "node_limit must be >= 0, got -1"),
    (lambda: run_method(DIAG, "simplex", 1.0, 1), "unknown method 'simplex', expected one of"),
    # apc.bench.run_benchmark
    (lambda: run_benchmark(ROWS, (), 1.0), "no methods requested"),
    (lambda: run_benchmark(ROWS, ("simplex",), 1.0), "unknown method 'simplex', expected one of"),
    (lambda: run_benchmark(ROWS, ("exact", "exact"), 1.0), "methods must not repeat, got ("),
    (lambda: run_benchmark(ROWS, ("exact",), 1.0, jobs=0), "jobs must be >= 1, got 0"),
    (
        lambda: run_benchmark(ROWS, ("exact",), float("nan")),
        "time_limit must be positive, got nan",
    ),
    (lambda: run_benchmark(ROWS * 2, ("exact",), 1.0), "rows must not repeat, got ["),
    (
        lambda: run_benchmark(ROWS, ("exact",), 1.0, seeds=(1, 1)),
        "seeds must not repeat, got (1, 1)",
    ),
    (lambda: run_benchmark([(2, 7)], ("exact",), 1.0), "group '2/7' needs n >= 1"),
    (
        lambda: run_benchmark([(11, 0)], ("oracle",), 1.0),
        "group '11/0' has n = 11 > 10, too large",
    ),
    (lambda: run_benchmark(ROWS, ("heuristic",), 1.0), "heuristic gaps need an optimum source"),
    # apc.bench.emit_table
    (lambda: emit_table([]), "no benchmark records to report"),
    (
        lambda: emit_table([_result("a", "exact"), _result("b", "heuristic")]),
        "group 'a' has no 'heuristic' record",
    ),
    # apc.exact
    (lambda: branch(0b0111, 1 << 3, DIAG), "edge 3 is not allowed at this node"),
    (lambda: branch(0b0111, 0, DIAG), "split holds no edge"),
    (lambda: branch(0b1111, 0b1001, DIAG), "split on edges [0, 3] spans more than one line"),
    (lambda: solve_exact(DIAG, time_limit=-1), "time_limit must be positive, got -1"),
    (lambda: solve_exact(DIAG, node_limit=-5), "node_limit must be >= 0, got -5"),
    # apc.heuristic
    (lambda: LSConfig(restarts=0), "all limits must be positive, got LSConfig("),
    (lambda: local_search(DIAG, (0, 1)), "local search needs a feasible start, got violations"),
    (lambda: gap_percent(5, -3), "reference optimum must be positive, got -3"),
    # apc.hungarian
    (lambda: MaskedCosts(DIAG.costs, 1 << 4), "allowed bits must lie in 0..3"),
    (lambda: MaskedCosts(DIAG.costs, -1), "allowed bits must lie in 0..3, got a negative mask"),
    (lambda: MaskedCosts(DIAG.costs, 1 << 16), "allowed bits must lie in 0..3, got bit 16 set"),
    (
        lambda: solve_ap(MaskedCosts(DIAG.costs), ((0, 0), 2, ((0, 0), (0, 0)))),
        "start is no result for the 2x2 matrix",
    ),
    # apc.instance
    (lambda: Instance(()), "cost matrix has no rows"),
    (lambda: Instance(((1, 2, 3), (4,))), "cost row 0 has 3 entries, expected 2"),
    (lambda: Instance([[1, 2], [-3, 4]]), "cost[1][0] = -3 < 0"),
    (
        lambda: Instance([[1, 2], [3, 4]], [((0, 0), (1, 2))]),
        "conflict (0, 0)-(1, 2) outside the 2x2 grid",
    ),
    (
        lambda: ConflictSet.from_pairs(2, [((1, 1), (1, 1))]),
        "conflict pair needs two distinct edges, got Edge(a=1, b=1) twice",
    ),
    (
        lambda: ConflictPair((0, 1), (0, 1)),
        "conflict pair needs two distinct edges, got Edge(a=0, b=1) twice",
    ),
    (
        lambda: write_instance(Instance([[1]], name=" padded")),
        "instance name ' padded' must be one line",
    ),
    (lambda: generate_instance(0, 0, 1, 9, 1), "n must be positive, got 0"),
    (lambda: generate_instance(2, 0, -1, 9, 1), "cost_lo must be >= 0, got -1"),
    (lambda: generate_instance(2, 0, 9, 1, 1), "cost_hi must be >= cost_lo, got 1 < 9"),
    (lambda: generate_instance(2, -1, 1, 9, 1), "conflict count must be >= 0, got -1"),
    (
        lambda: generate_instance(2, 7, 1, 9, 1),
        "7 conflicts requested but only 6 distinct edge pairs exist for n=2",
    ),
    # apc.model
    (lambda: evaluate(DIAG, [0, 2]), "assignment [0, 2] is not a permutation of 0..1"),
    (lambda: check_feasible(DIAG, [0]), "assignment has length 1, expected 2"),
    # apc.oracle
    (
        lambda: brute_force(Instance([[0] * 11] * 11)),
        "brute force is guarded to n <= 10, got n = 11",
    ),
    (
        lambda: enumerate_feasible(Instance([[0] * 9] * 9)),
        "enumeration is guarded to n <= 8, got n = 9",
    ),
]


@pytest.mark.parametrize(
    "call, fragment", REFUSALS, ids=[re.sub(r"\W+", "-", f).strip("-") for _, f in REFUSALS]
)
def test_refusal_is_a_plain_value_error_naming_the_value(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)) as excinfo:
        call()
    assert excinfo.type is ValueError


@pytest.mark.parametrize("method", KNOWN_METHODS)
def test_run_method_refuses_a_node_limit_that_is_not_an_int(method):
    # oracle and heuristic take no node limit, and only the heuristic takes a
    # seed or a restart count, but every method refuses a bad one
    for seed, limits in (
        (0, {"node_limit": 2.5}),
        ("abc", {}),
        (1.5, {}),
        (0, {"restarts": 2.5}),
    ):
        with pytest.raises(TypeError):
            run_method(DIAG, method, 1.0, seed, **limits)


def test_run_benchmark_refuses_a_job_count_that_is_not_an_int(tmp_path):
    # refused before the CSV is opened, so an existing file is left as it was
    csv_path = tmp_path / "bench.csv"
    csv_path.write_text("kept\n")
    with pytest.raises(TypeError):
        run_benchmark(ROWS, ("exact",), 1.0, jobs=2.5, csv_path=csv_path)
    assert csv_path.read_text() == "kept\n"


def test_generate_instance_refuses_an_argument_that_is_not_an_int():
    # seed 1.5 used to draw an instance, as if any hashable seed would do,
    # and so did cost_lo 1.0 before Python 3.12
    for args in ((4.0, 3, 1, 9, 1), (4, 3.0, 1, 9, 1), (4, 3, 1.0, 9, 1), (4, 3, 1, 9.0, 1),
                 (4, 3, 1, 9, 1.5)):
        with pytest.raises(TypeError):
            generate_instance(*args)


def test_run_benchmark_refuses_a_row_or_seed_that_is_not_an_int(tmp_path):
    # refused before the CSV is opened: seed 1.5 used to give a result row,
    # and row (4.0, 3) to truncate the CSV before generate_instance failed
    csv_path = tmp_path / "bench.csv"
    csv_path.write_text("kept\n")
    for rows, seeds in (([(4.0, 3)], (1,)), ([(4, 3.0)], (1,)), ([(4, 3)], (1.5,))):
        with pytest.raises(TypeError):
            run_benchmark(rows, ("exact",), 1.0, seeds=seeds, csv_path=csv_path)
    assert csv_path.read_text() == "kept\n"
