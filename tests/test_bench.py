"""Benchmark harness: results, column discipline, tables, CSV stability."""

import csv
import dataclasses
import hashlib
import io
import statistics

import pytest

from apc.bench import (
    PRESETS,
    SEEDS,
    InstanceResult,
    emit_table,
    run_benchmark,
    run_method,
)
from apc.heuristic import gap_percent
from apc.instance import generate_instance, max_conflict_pairs
from apc.solution import SolveStatus

SMALL_ROWS = ((4, 0), (6, 20))
THREE_SEEDS = (1, 2, 3)


def seeded(results):
    """All that the seeds determine of each result: everything but timings."""
    return [
        (r.group, r.method, r.seed, r.value, r.status, r.gap_percent, r.opt)
        for r in results
    ]


def test_presets():
    assert PRESETS["small"] == (
        (8, 50), (8, 200), (10, 50), (10, 200), (12, 50), (12, 200)
    )
    assert SEEDS == (1, 2, 3, 4, 5)
    table1 = PRESETS["table1"]
    assert len(table1) == 26
    assert table1[0] == (15, 5000)
    assert table1[-1] == (500, 200000)


def test_oracle_and_exact_agree_per_instance():
    results = run_benchmark(SMALL_ROWS, ("oracle", "exact"), 30.0)  # five seeds each
    by_method = {
        method: [(r.group, r.seed, r.value) for r in results if r.method == method]
        for method in ("oracle", "exact")
    }
    assert len(by_method["oracle"]) == 10
    assert by_method["oracle"] == by_method["exact"]


def test_column_discipline():
    results = run_benchmark(SMALL_ROWS, ("exact", "heuristic"), 30.0, seeds=THREE_SEEDS)
    for r in results:
        if r.method == "heuristic":
            assert r.sec_total is None
            assert r.gap_percent is not None and r.gap_percent >= 0
        else:
            assert r.gap_percent is None
            assert r.sec_total is not None


def test_sec_best_is_empty_exactly_where_no_solution_was_found():
    # the heuristic finds nothing on seeds 1 and 4 of this dense row
    results = run_benchmark([(8, 500)], ("exact", "heuristic"), 30.0)
    assert [r.seed for r in results if r.value is None] == [1, 4]
    for r in results:
        assert (r.sec_best is None) == (r.value is None)


def test_results_are_reproducible():
    a = run_benchmark(SMALL_ROWS, ("exact", "heuristic"), 30.0, seeds=THREE_SEEDS)
    b = run_benchmark(SMALL_ROWS, ("exact", "heuristic"), 30.0, seeds=THREE_SEEDS)
    assert seeded(a) == seeded(b)


def test_parallel_matches_serial(tmp_path):
    serial_csv, parallel_csv = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    serial = run_benchmark(
        SMALL_ROWS, ("exact",), 30.0, seeds=THREE_SEEDS, jobs=1, csv_path=serial_csv
    )
    parallel = run_benchmark(
        SMALL_ROWS, ("exact",), 30.0, seeds=THREE_SEEDS, jobs=2, csv_path=parallel_csv
    )
    assert seeded(serial) == seeded(parallel)
    assert serial_csv.read_bytes() == parallel_csv.read_bytes()
    assert len(serial_csv.read_text().splitlines()) == 1 + 6


def test_pool_has_no_more_workers_than_instances(monkeypatch):
    made = []

    class InProcessPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    # concurrent.futures loads its pool class (and multiprocessing) on first
    # use, which is why bench reads the class through that module
    monkeypatch.setattr(
        "apc.bench.concurrent.futures.ProcessPoolExecutor", InProcessPool
    )
    two = run_benchmark([(4, 0)], ("exact",), 30.0, seeds=(1, 2), jobs=8)
    assert made == [2] and len(two) == 2
    run_benchmark([(4, 0)], ("exact",), 30.0, seeds=(1,), jobs=8)
    assert made == [2]


def test_empty_heuristic_is_no_solution_not_infeasible():
    # every edge pair conflicts: exact proves infeasibility, the heuristic
    # only fails to find a solution
    rows = [(3, max_conflict_pairs(3))]
    results = run_benchmark(rows, ("exact", "heuristic"), 10.0, seeds=(1, 2))
    assert [(r.method, r.status) for r in results] == [
        ("exact", SolveStatus.INFEASIBLE), ("heuristic", SolveStatus.NO_SOLUTION)
    ] * 2


def test_unknown_method():
    with pytest.raises(ValueError, match="^unknown method 'simplex', expected one of"):
        run_benchmark(SMALL_ROWS, ("simplex",), 10.0)
    with pytest.raises(ValueError, match="^unknown method 'simplex', expected one of"):
        run_method(generate_instance(3, 2, 1, 100, 1), "simplex", 10.0, 1)
    with pytest.raises(ValueError, match="^no methods requested$"):
        run_benchmark(SMALL_ROWS, (), 10.0)


def test_repeated_method_is_rejected(tmp_path):
    out = tmp_path / "runs.csv"
    with pytest.raises(ValueError, match="^methods must not repeat"):
        run_benchmark(SMALL_ROWS, ("exact", "exact"), 10.0, csv_path=out)
    assert not out.exists()


def test_repeated_group_label_is_rejected(tmp_path):
    out = tmp_path / "runs.csv"
    # the label n/m names the row, so a repeated row repeats its label
    with pytest.raises(ValueError, match="^rows must not repeat"):
        run_benchmark([(4, 0), (5, 10), (4, 0)], ("exact",), 10.0, csv_path=out)
    assert not out.exists()


def test_row_that_cannot_be_generated_is_rejected_before_the_csv_is_opened(tmp_path):
    # too many conflicts for n = 3, an empty grid, a negative conflict count:
    # an earlier CSV at the path is kept, not truncated to the header line
    out = tmp_path / "runs.csv"
    out.write_text("group,seed\nkept\n")
    for rows in ([(3, 100)], [(0, 0)], [(4, 0), (2, -1)]):
        with pytest.raises(ValueError, match="needs n >= 1"):
            run_benchmark(rows, ("exact",), 10.0, csv_path=out)
        assert out.read_text() == "group,seed\nkept\n"
    # the densest row n = 2 allows is still run
    assert len(run_benchmark([(2, 6)], ("exact",), 10.0, seeds=(1,))) == 1


def test_repeated_seed_is_rejected(tmp_path):
    out = tmp_path / "runs.csv"
    # a repeated seed would solve one instance twice and weigh it twice
    with pytest.raises(ValueError, match="^seeds must not repeat"):
        run_benchmark([(6, 20)], ("exact",), 5.0, seeds=(1, 1, 2), csv_path=out)
    assert not out.exists()


def test_oracle_size_guard():
    with pytest.raises(ValueError, match="too large for the oracle method"):
        run_benchmark([(12, 0)], ("oracle",), 10.0)


def test_heuristic_alone_needs_reference():
    with pytest.raises(ValueError, match="^heuristic gaps need an optimum source"):
        run_benchmark(SMALL_ROWS, ("heuristic",), 10.0)


def test_heuristic_with_reference_optima():
    base = run_benchmark([(4, 0)], ("exact",), 10.0, seeds=(1, 2))
    refs = {("4/0", r.seed): r.value for r in base}
    results = run_benchmark(
        [(4, 0)], ("heuristic",), 10.0, seeds=(1, 2), reference_optima=refs
    )
    assert [r.opt for r in results] == [r.value for r in base]
    assert all(r.gap_percent is not None and r.gap_percent >= 0 for r in results)


def test_incremental_csv(tmp_path):
    out = tmp_path / "runs.csv"
    run_benchmark(SMALL_ROWS, ("exact",), 30.0, seeds=THREE_SEEDS, csv_path=out)
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == [
        "group", "n", "conflicts", "method", "seed", "value",
        "status", "gap_percent", "sec_best", "sec_total", "opt",
        "lower_bound", "nodes",
    ]
    assert len(rows) == 1 + 6  # 2 groups x 3 seeds


def test_csv_rows_carry_the_bound_and_the_node_count(tmp_path):
    # the two columns after opt hold the Solution's lower_bound and nodes:
    # exact proves 10/600 seed 1 optimal at 247 in 54 nodes, and the
    # heuristic proves no bound and explores no search nodes
    out = tmp_path / "runs.csv"
    results = run_benchmark(
        [(10, 600)], ("exact", "heuristic"), 30.0, seeds=(1,), csv_path=out
    )
    rows = list(csv.DictReader(out.read_text().splitlines()))
    exact, heuristic = rows
    assert exact["method"] == "exact" and exact["status"] == "Optimal"
    assert (exact["value"], exact["lower_bound"], exact["nodes"]) == ("247", "247", "54")
    assert heuristic["method"] == "heuristic"
    assert (heuristic["lower_bound"], heuristic["nodes"]) == ("", "0")
    assert [(r.lower_bound, r.nodes) for r in results] == [(247, 54), (None, 0)]


def mean(values):
    present = [v for v in values if v is not None]
    return statistics.fmean(present) if present else None


# sha256 of all that the seeds determine in a bench run: every CSV column but
# sec_best and sec_total, and per group and method the means of opt, value
# and gap over the seeds and the statuses.
GOLDEN = {
    "all": "9ac277207bbf883cfbe6c0d44a1237cee696179f3bf92a693d89c9b7981089b4",
    "reversed-parallel": "90f255b29ec093c6d814d20581056a52afd081f9529d7789f171dfa4c08efdf7",
    "reference": "f48e8ad52aa608789a91a7f5be3d950f7336655282f21bbfe839e6b8e0cfe45e",
}


@pytest.mark.parametrize(
    "case, methods, jobs, reference_optima",
    [
        ("all", ("oracle", "exact", "heuristic"), 1, None),
        ("reversed-parallel", ("heuristic", "exact", "oracle"), 2, None),
        ("reference", ("heuristic",), 1, {("8/200", s): 190 for s in (1, 2, 3)}),
    ],
)
def test_bench_output_is_pinned(tmp_path, case, methods, jobs, reference_optima):
    # the infeasible 3/36 group has every edge pair in conflict
    rows = [(6, 20), (8, 200), (3, max_conflict_pairs(3))]
    out = tmp_path / "golden.csv"
    results = run_benchmark(
        rows, methods, 30.0, seeds=THREE_SEEDS, jobs=jobs, csv_path=out,
        reference_optima=reference_optima,
    )
    # every column but the timing ones, sec_best and sec_total
    csv_rows = [
        row[:8] + row[10:]
        for row in csv.reader(out.read_text(encoding="utf-8").splitlines())
    ]
    cells = []
    for group in ("6/20", "8/200", "3/36"):
        for method in methods:
            rs = [r for r in results if (r.group, r.method) == (group, method)]
            cells.append((
                group, method, mean(r.opt for r in rs), mean(r.value for r in rs),
                mean(r.gap_percent for r in rs), tuple(r.status.value for r in rs),
            ))
    digest = hashlib.sha256(repr((csv_rows, cells)).encode()).hexdigest()
    assert digest == GOLDEN[case]

    # opt is the instance's proven optimum, else the supplied reference
    for r in results:
        proven = [
            x.value for x in results
            if (x.group, x.seed) == (r.group, r.seed)
            and x.method in ("oracle", "exact") and x.status is SolveStatus.OPTIMAL
        ]
        expected = proven[0] if proven else (reference_optima or {}).get(
            (r.group, r.seed)
        )
        assert r.opt == expected
        if r.method == "heuristic":
            has_gap = r.value is not None and r.opt is not None
            assert r.gap_percent == (gap_percent(r.value, r.opt) if has_gap else None)


def make_result(group, n, m, method, gap, sec_total, opt=100.0):
    return InstanceResult(
        group, n, m, method, 1,
        100, SolveStatus.OPTIMAL,
        gap, 0.0, sec_total, opt, 100, 1,
    )


def test_emit_table_single_record():
    text = emit_table([make_result("4/0", 4, 0, "exact", None, 1.0)])
    lines = text.splitlines()
    assert "Sec Opt" in lines[1]
    assert lines[-1].startswith("Averages")
    # single group: data row and averages agree
    assert lines[2].split()[-1] == lines[-1].split()[-1]


def test_emit_table_average_of_gaps():
    results = [
        make_result("a", 4, 0, "heuristic", 1.0, None),
        make_result("b", 5, 0, "heuristic", 3.0, None),
    ]
    text = emit_table(results)
    assert text.splitlines()[-1].split()[1] == "2.00"


def test_emit_table_sec_best_leaves_out_seeds_without_a_solution():
    found = make_result("a", 4, 0, "heuristic", 1.0, None)
    found = dataclasses.replace(found, sec_best=0.3)
    none = dataclasses.replace(
        found, seed=2, value=None, status=SolveStatus.NO_SOLUTION,
        gap_percent=None, sec_best=None,
    )
    assert emit_table([found, none]).splitlines()[2].split()[-1] == "0.3"


def test_emit_table_text_is_pinned():
    results = [
        make_result("8/50", 8, 50, "heuristic", 1.25, None, opt=101.4),
        make_result("8/50", 8, 50, "exact", None, 0.5, opt=101.4),
        make_result("10/200", 10, 200, "heuristic", None, None, opt=98.0),
        make_result("10/200", 10, 200, "exact", None, 12.5, opt=98.0),
    ]
    assert emit_table(results) == (
        "Instances             Opt         heuristic    exact\n"
        "     n      |C|             Gap %  Sec Best  Sec Opt\n"
        "     8       50     101.4    1.25       0.0      0.5\n"
        "    10      200      98.0       -       0.0     12.5\n"
        "Averages                     1.25       0.0      6.5\n"
    )


def test_emit_table_empty():
    with pytest.raises(ValueError, match="^no benchmark records to report$"):
        emit_table([])


def test_emit_table_names_a_missing_group_method_cell():
    results = [
        make_result("a", 4, 0, "exact", None, 1.0),
        make_result("b", 5, 0, "heuristic", 2.0, None),
    ]
    with pytest.raises(ValueError, match="group 'a' has no 'heuristic' record"):
        emit_table(results)


def test_csv_round_trip_at_printed_precision(tmp_path):
    out_csv = tmp_path / "runs.csv"
    run_benchmark(
        SMALL_ROWS, ("exact", "heuristic"), 30.0, seeds=THREE_SEEDS, csv_path=out_csv
    )
    csv_text = out_csv.read_text(encoding="utf-8")
    parsed = list(csv.reader(io.StringIO(csv_text)))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in parsed:
        writer.writerow(row)
    assert out.getvalue() == csv_text
    # numeric columns re-read at their printed precision
    for row in parsed[1:]:
        gap, sec_best = row[7], row[8]
        if gap:
            assert f"{float(gap):.2f}" == gap
        assert f"{float(sec_best):.1f}" == sec_best
