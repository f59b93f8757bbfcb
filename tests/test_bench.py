"""Benchmark harness: records, column discipline, tables, CSV stability."""

import csv
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
    InstanceTooLargeError,
    MissingReferenceOptimumError,
    UnknownMethodError,
)
from apc.instance import max_conflict_pairs
from apc.solution import SolveStatus


def small_groups():
    return [make_group(4, 0, replicate_count=3), make_group(6, 20, replicate_count=3)]


def test_group_invariant():
    with pytest.raises(ValueError):
        BenchGroup(label="x", n=4, conflict_count=0, seeds=(1, 2), replicate_count=5)


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


def test_instance_caching(tmp_path, monkeypatch):
    monkeypatch.setenv("APC_BENCH_DIR", str(tmp_path))
    groups = [make_group(4, 5, replicate_count=2)]
    first = run_benchmark(groups, ("exact",), 10.0)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["apc-n4-m5-s1.apc", "apc-n4-m5-s2.apc"]
    again = run_benchmark(groups, ("exact",), 10.0)
    assert [r.avg_value for r in first] == [r.avg_value for r in again]


def test_incremental_csv(tmp_path):
    out = tmp_path / "runs.csv"
    run_benchmark(small_groups(), ("exact",), 30.0, csv_path=out)
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == [
        "group", "n", "conflicts", "method", "seed", "value",
        "status", "gap_percent", "sec_best", "sec_total",
    ]
    assert len(rows) == 1 + 6  # 2 groups x 3 seeds


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
    text, csv_text = emit_table([make_record("4/0", 4, 0, "exact", None, 1.0)])
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
    text, _ = emit_table(records)
    assert text.splitlines()[-1].split()[1] == "2.00"


def test_emit_table_empty():
    with pytest.raises(EmptyReportError):
        emit_table([])


def test_csv_round_trip_at_printed_precision():
    records = run_benchmark(small_groups(), ("exact", "heuristic"), 30.0)
    _, csv_text = emit_table(records)
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
