"""Benchmark harness: records, column discipline, tables, CSV stability."""

import csv
import hashlib
import io

import pytest

from apc.bench import (
    BenchGroup,
    BenchRecord,
    InstanceResult,
    emit_table,
    make_group,
    preset_groups,
    run_benchmark,
)
from apc.errors import (
    EmptyReportError,
    IncompleteReportError,
    InstanceTooLargeError,
    MissingReferenceOptimumError,
    UnknownMethodError,
)
from apc.instance import max_conflict_pairs
from apc.solution import SolveStatus


def small_groups():
    return [make_group(4, 0, replicate_count=3), make_group(6, 20, replicate_count=3)]


def test_presets():
    small = preset_groups("small")
    assert [(g.n, g.conflict_count) for g in small] == [
        (8, 50), (8, 200), (10, 50), (10, 200), (12, 50), (12, 200)
    ]
    assert all(len(g.seeds) == 5 for g in small)
    table1 = preset_groups("table1")
    assert len(table1) == 26
    assert (table1[0].n, table1[0].conflict_count) == (15, 5000)
    assert (table1[-1].n, table1[-1].conflict_count) == (500, 200000)
    with pytest.raises(ValueError):
        preset_groups("huge")


def test_oracle_and_exact_agree_per_instance():
    groups = [make_group(4, 0), make_group(6, 20)]  # five seeds each
    records = run_benchmark(groups, ("oracle", "exact"), 30.0)
    by = {(r.group, r.method): r for r in records}
    for group in ("4/0", "6/20"):
        oracle_vals = [x.value for x in by[(group, "oracle")].results]
        exact_vals = [x.value for x in by[(group, "exact")].results]
        assert len(oracle_vals) == 5
        assert oracle_vals == exact_vals


def test_column_discipline():
    records = run_benchmark(small_groups(), ("exact", "heuristic"), 30.0)
    for r in records:
        if r.method == "heuristic":
            assert r.avg_sec_total is None
            assert r.avg_gap_percent is not None and r.avg_gap_percent >= 0
            assert all(x.sec_total is None for x in r.results)
        else:
            assert r.avg_gap_percent is None
            assert r.avg_sec_total is not None
            assert all(x.gap_percent is None for x in r.results)


def test_results_are_reproducible():
    a = run_benchmark(small_groups(), ("exact", "heuristic"), 30.0)
    b = run_benchmark(small_groups(), ("exact", "heuristic"), 30.0)
    for ra, rb in zip(a, b):
        assert ra.avg_value == rb.avg_value
        assert ra.avg_gap_percent == rb.avg_gap_percent
        assert ra.statuses == rb.statuses
        assert [x.value for x in ra.results] == [x.value for x in rb.results]


def test_parallel_matches_serial(tmp_path):
    serial_csv, parallel_csv = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    serial = run_benchmark(small_groups(), ("exact",), 30.0, jobs=1, csv_path=serial_csv)
    parallel = run_benchmark(
        small_groups(), ("exact",), 30.0, jobs=2, csv_path=parallel_csv
    )
    assert [(r.group, r.method, r.avg_value, r.statuses) for r in serial] == [
        (r.group, r.method, r.avg_value, r.statuses) for r in parallel
    ]
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
    two = run_benchmark([make_group(4, 0, replicate_count=2)], ("exact",), 30.0, jobs=8)
    assert made == [2] and len(two[0].results) == 2
    run_benchmark([make_group(4, 0, replicate_count=1)], ("exact",), 30.0, jobs=8)
    assert made == [2]


def test_empty_heuristic_is_no_solution_not_infeasible():
    # every edge pair conflicts: exact proves infeasibility, the heuristic
    # only fails to find a solution
    groups = [make_group(3, max_conflict_pairs(3), replicate_count=2)]
    records = run_benchmark(groups, ("exact", "heuristic"), 10.0)
    by = {r.method: r.statuses for r in records}
    assert by["exact"] == (SolveStatus.INFEASIBLE,) * 2
    assert by["heuristic"] == (SolveStatus.NO_SOLUTION,) * 2


def test_unknown_method():
    with pytest.raises(UnknownMethodError):
        run_benchmark(small_groups(), ("simplex",), 10.0)
    with pytest.raises(UnknownMethodError):
        run_benchmark(small_groups(), (), 10.0)


def test_repeated_method_is_rejected(tmp_path):
    out = tmp_path / "runs.csv"
    with pytest.raises(UnknownMethodError):
        run_benchmark(small_groups(), ("exact", "exact"), 10.0, csv_path=out)
    assert not out.exists()


def test_repeated_group_label_is_rejected(tmp_path):
    out = tmp_path / "runs.csv"
    groups = [make_group(4, 0), BenchGroup("4/0", 5, 10, (1,))]
    with pytest.raises(ValueError, match="^group labels must be unique"):
        run_benchmark(groups, ("exact",), 10.0, csv_path=out)
    assert not out.exists()


def test_oracle_size_guard():
    with pytest.raises(InstanceTooLargeError):
        run_benchmark([make_group(12, 0)], ("oracle",), 10.0)


def test_heuristic_alone_needs_reference():
    with pytest.raises(MissingReferenceOptimumError):
        run_benchmark(small_groups(), ("heuristic",), 10.0)


def test_heuristic_with_reference_optima():
    groups = [make_group(4, 0, replicate_count=2)]
    base = run_benchmark(groups, ("exact",), 10.0)
    refs = {
        ("4/0", res.seed): res.value for r in base for res in r.results
    }
    records = run_benchmark(groups, ("heuristic",), 10.0, reference_optima=refs)
    (rec,) = records
    assert rec.avg_gap_percent is not None and rec.avg_gap_percent >= 0


def test_incremental_csv(tmp_path):
    out = tmp_path / "runs.csv"
    run_benchmark(small_groups(), ("exact",), 30.0, csv_path=out)
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == [
        "group", "n", "conflicts", "method", "seed", "value",
        "status", "gap_percent", "sec_best", "sec_total",
    ]
    assert len(rows) == 1 + 6  # 2 groups x 3 seeds


# sha256 of all that the seeds determine in a bench run: the CSV columns
# group .. gap_percent, and each record's averages and statuses.
GOLDEN = {
    "all": "e334c8f0f1824097110e24e0f9068516a8c2e2f9747ae8c6553ee96f84409b94",
    "reversed-parallel": "b9dee5977975deb348b6b8f841067cdcc74d9fe312be0fec88b86586eea2e6bd",
    "reference": "38c95f07a4c4a42f45ad05efc39a326de7e2ece7fa16dbcd9185dccf4c1e9ca8",
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
    groups = [
        make_group(6, 20, replicate_count=3),
        make_group(8, 200, replicate_count=3),
        make_group(3, max_conflict_pairs(3), replicate_count=2),
    ]
    out = tmp_path / "golden.csv"
    records = run_benchmark(
        groups, methods, 30.0, jobs=jobs, csv_path=out,
        reference_optima=reference_optima,
    )
    # columns group .. gap_percent; the timing columns are left out
    rows = [row[:8] for row in csv.reader(out.read_text(encoding="utf-8").splitlines())]
    cells = [
        (r.group, r.method, r.avg_opt, r.avg_value, r.avg_gap_percent,
         tuple(s.value for s in r.statuses))
        for r in records
    ]
    digest = hashlib.sha256(repr((rows, cells)).encode()).hexdigest()
    assert digest == GOLDEN[case]


def make_record(group, n, m, method, gap, sec_total, opt=100.0):
    result = InstanceResult(
        group, n, m, method, 1,
        100, SolveStatus.OPTIMAL,
        gap, 0.0, sec_total,
    )
    return BenchRecord(
        group=group, n=n, conflicts=m, method=method, results=(result,),
        avg_opt=opt, avg_value=100.0, avg_gap_percent=gap,
        avg_sec_best=0.0, avg_sec_total=sec_total,
        statuses=(SolveStatus.OPTIMAL,),
    )


def test_emit_table_single_record():
    text = emit_table([make_record("4/0", 4, 0, "exact", None, 1.0)])
    lines = text.splitlines()
    assert "Sec Opt" in lines[1]
    assert lines[-1].startswith("Averages")
    # single group: data row and averages agree
    assert lines[2].split()[-1] == lines[-1].split()[-1]


def test_emit_table_average_of_gaps():
    records = [
        make_record("a", 4, 0, "heuristic", 1.0, None),
        make_record("b", 5, 0, "heuristic", 3.0, None),
    ]
    text = emit_table(records)
    assert text.splitlines()[-1].split()[1] == "2.00"


def test_emit_table_text_is_pinned():
    records = [
        make_record("8/50", 8, 50, "heuristic", 1.25, None, opt=101.4),
        make_record("8/50", 8, 50, "exact", None, 0.5, opt=101.4),
        make_record("10/200", 10, 200, "heuristic", None, None, opt=98.0),
        make_record("10/200", 10, 200, "exact", None, 12.5, opt=98.0),
    ]
    assert emit_table(records) == (
        "Instances             Opt         heuristic    exact\n"
        "     n      |C|             Gap %  Sec Best  Sec Opt\n"
        "     8       50     101.4    1.25       0.0      0.5\n"
        "    10      200      98.0       -       0.0     12.5\n"
        "Averages                     1.25       0.0      6.5\n"
    )


def test_emit_table_empty():
    with pytest.raises(EmptyReportError):
        emit_table([])


def test_emit_table_names_a_missing_group_method_cell():
    records = [
        make_record("a", 4, 0, "exact", None, 1.0),
        make_record("b", 5, 0, "heuristic", 2.0, None),
    ]
    with pytest.raises(IncompleteReportError, match="group 'a' has no 'heuristic' record"):
        emit_table(records)


def test_csv_round_trip_at_printed_precision(tmp_path):
    out_csv = tmp_path / "runs.csv"
    run_benchmark(small_groups(), ("exact", "heuristic"), 30.0, csv_path=out_csv)
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
