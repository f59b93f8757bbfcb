"""Benchmark harness: grouped seeded instances, method runs, result tables.

Groups follow the convention of five same-sized random instances per
parameter pair (n, conflict count). The text table reports, per group, the
average optimum plus Gap % / Sec Best columns for heuristic methods and a
Sec Opt column for exact methods, with a final Averages row. The CSV holds
one row per instance and method with a fixed column order and fixed printed
precision (2 decimals for gaps, 1 for seconds), so files are machine-stable.

Timings are wall-clock and reported but never part of any correctness
contract; values and statuses are reproducible from the seeds alone.
"""

import concurrent.futures
import contextlib
import csv
import os
import statistics
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

from .errors import (
    EmptyReportError,
    IncompleteReportError,
    InstanceTooLargeError,
    MissingReferenceOptimumError,
    UnknownMethodError,
)
from .exact import solve_exact
from .heuristic import LSConfig, gap_percent, run_heuristic
from .instance import generate_instance
from .oracle import BRUTE_FORCE_MAX_N, brute_force
from .solution import Solution, SolveStatus

KNOWN_METHODS = ("oracle", "exact", "heuristic")

# The (n, conflict count) rows of each preset. "table1" is the full-scale
# preset: 26 rows, n from 15 to 500 and conflict counts from 5000 to 700000.
# Desk-scale runs should prefer "small".
PRESETS = {
    "small": tuple((n, m) for n in (8, 10, 12) for m in (50, 200)),
    "table1": (
        (15, 5000),
        (20, 10000),
        (30, 20000),
        (30, 30000),
        (40, 40000),
        (50, 50000),
        (50, 60000),
        (60, 80000),
        (70, 100000),
        (70, 150000),
        (80, 200000),
        (90, 250000),
        (100, 100000),
        (100, 250000),
        (100, 350000),
        (150, 200000),
        (150, 350000),
        (150, 500000),
        (200, 200000),
        (200, 400000),
        (250, 500000),
        (250, 700000),
        (300, 100000),
        (300, 300000),
        (400, 200000),
        (500, 200000),
    ),
}


# Every benchmark instance draws its costs from [COST_LO, COST_HI], and every
# heuristic run gets HEURISTIC_RESTARTS restarts.
COST_LO, COST_HI = 1, 100
HEURISTIC_RESTARTS = 5


@dataclass(frozen=True)
class BenchGroup:
    """One benchmark row: one seeded instance of one shape per seed."""

    label: str
    n: int
    conflict_count: int
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class InstanceResult:
    """One (instance, method) outcome; the unit the CSV is made of."""

    group: str
    n: int
    conflicts: int
    method: str
    seed: int
    value: int | None
    status: SolveStatus
    gap_percent: float | None
    sec_best: float
    sec_total: float | None


CSV_COLUMNS = tuple(f.name for f in fields(InstanceResult))
# the printed decimals of the float columns; None prints as an empty cell
_CSV_DECIMALS = {"gap_percent": 2, "sec_best": 1, "sec_total": 1}


@dataclass(frozen=True)
class BenchRecord:
    """Per-(group, method) aggregate mirroring one table cell cluster."""

    group: str
    n: int
    conflicts: int
    method: str
    results: tuple[InstanceResult, ...]
    avg_opt: float | None
    avg_value: float | None
    avg_gap_percent: float | None  # heuristic methods only
    avg_sec_best: float
    avg_sec_total: float | None  # exact methods only
    statuses: tuple[SolveStatus, ...]


def make_group(n: int, conflict_count: int, replicate_count: int = 5) -> BenchGroup:
    """The group labelled ``n/conflict_count`` with seeds 1..replicate_count."""
    return BenchGroup(
        label=f"{n}/{conflict_count}",
        n=n,
        conflict_count=conflict_count,
        seeds=tuple(range(1, replicate_count + 1)),
    )


def preset_groups(name: str) -> list[BenchGroup]:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}, expected one of {tuple(PRESETS)}")
    return [make_group(n, m) for n, m in PRESETS[name]]


def _run_unit(args: tuple) -> tuple[list[InstanceResult], int | None]:
    """Solve all requested methods on one seeded instance.

    Top-level so process pools can pickle it. Returns one result per method,
    in the order of `methods`, plus the instance's proven or supplied optimum.
    """
    group, seed, methods, time_limit, reference_opt = args
    inst = generate_instance(group.n, group.conflict_count, COST_LO, COST_HI, seed)
    solutions: dict[str, Solution] = {}
    for method in (m for m in KNOWN_METHODS if m in methods):
        if method == "oracle":
            sol = brute_force(inst)
        elif method == "exact":
            sol = solve_exact(inst, time_limit=time_limit)
        else:
            sol = run_heuristic(
                inst,
                LSConfig(
                    time_limit=time_limit, restarts=HEURISTIC_RESTARTS, rng_seed=seed
                ),
            )
        solutions[method] = sol
    proven = [
        sol.value
        for method, sol in solutions.items()
        if method != "heuristic" and sol.status is SolveStatus.OPTIMAL
    ]
    opt_value = proven[0] if proven else reference_opt

    results = []
    for method in methods:
        sol = solutions[method]
        gap = sec_total = None
        if method != "heuristic":
            sec_total = sol.sec_total
        elif sol.value is not None and opt_value is not None and opt_value > 0:
            gap = gap_percent(sol.value, opt_value)
        results.append(
            InstanceResult(
                group.label, group.n, group.conflict_count, method, seed,
                sol.value, sol.status, gap, sol.sec_best, sec_total,
            )
        )
    return results, opt_value


def _format_csv_row(r: InstanceResult) -> list[str]:
    cells = []
    for column in CSV_COLUMNS:
        value = getattr(r, column)
        if value is not None and column in _CSV_DECIMALS:
            value = f"{value:.{_CSV_DECIMALS[column]}f}"
        cells.append("" if value is None else str(value))
    return cells


def _mean(values: Iterable[float | None]) -> float | None:
    """Mean of the values that are not None; None when there are none."""
    present = [v for v in values if v is not None]
    return statistics.fmean(present) if present else None


def run_benchmark(
    groups: Sequence[BenchGroup],
    methods: Sequence[str],
    time_limit: float,
    *,
    jobs: int = 1,
    csv_path: str | os.PathLike | None = None,
    reference_optima: Mapping[tuple[str, int], int] | None = None,
) -> list[BenchRecord]:
    """Generate each seeded instance, run each method on it, aggregate.

    Instance `seed` of group ``n/m`` is ``generate_instance(n, m, COST_LO,
    COST_HI, seed)``. Methods must not repeat; results and records follow
    their order. Per-instance CSV rows are flushed to `csv_path` as soon as
    each instance finishes, so an interrupted run keeps everything already
    solved. `reference_optima` maps (group label, seed) to a known optimum
    for heuristic gaps when no exact method proves one. With jobs > 1 a
    process pool solves the instances; parallelism never changes the output.
    """
    methods = tuple(methods)
    if not methods:
        raise UnknownMethodError("no methods requested")
    for m in methods:
        if m not in KNOWN_METHODS:
            raise UnknownMethodError(
                f"unknown method {m!r}, expected one of {KNOWN_METHODS}"
            )
    if len(set(methods)) != len(methods):
        raise UnknownMethodError(f"methods must not repeat, got {methods}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not time_limit > 0:  # also rejects NaN
        raise ValueError(f"time_limit must be positive, got {time_limit}")
    labels = [g.label for g in groups]
    if len(set(labels)) != len(labels):
        raise ValueError(f"group labels must be unique, got {labels}")
    if "oracle" in methods:
        for g in groups:
            if g.n > BRUTE_FORCE_MAX_N:
                raise InstanceTooLargeError(
                    f"group {g.label!r} has n = {g.n} > {BRUTE_FORCE_MAX_N}, "
                    "too large for the oracle method"
                )
    if (
        "heuristic" in methods
        and not {"oracle", "exact"} & set(methods)
        and reference_optima is None
    ):
        raise MissingReferenceOptimumError(
            "heuristic gaps need an optimum source: run 'exact' or 'oracle' "
            "alongside, or supply reference_optima"
        )

    refs = reference_optima or {}
    units = [
        (group, seed, methods, time_limit, refs.get((group.label, seed)))
        for group in groups
        for seed in group.seeds
    ]

    unit_outputs: list[tuple[list[InstanceResult], int | None]] = []
    with contextlib.ExitStack() as stack:
        writer = None
        if csv_path is not None:
            csv_file = stack.enter_context(
                open(csv_path, "w", newline="", encoding="utf-8")
            )
            writer = csv.writer(csv_file, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            csv_file.flush()
        # a pool starts all its workers at the first submit, so it gets no
        # more than there are instances
        workers = min(jobs, len(units))
        solve_all = map
        if workers > 1:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
            solve_all = stack.enter_context(pool).map
        # Both maps yield in submission order, so the file content and order
        # are independent of worker scheduling, and the outputs of each group
        # follow one another in seed order.
        for output in solve_all(_run_unit, units):
            unit_outputs.append(output)
            if writer is not None:
                writer.writerows(_format_csv_row(r) for r in output[0])
                csv_file.flush()

    outputs = iter(unit_outputs)
    records: list[BenchRecord] = []
    for group in groups:
        group_outputs = [next(outputs) for _ in group.seeds]
        avg_opt = _mean(opt for _, opt in group_outputs)
        for k, method in enumerate(methods):
            rs = tuple(results[k] for results, _ in group_outputs)
            records.append(
                BenchRecord(
                    group=group.label,
                    n=group.n,
                    conflicts=group.conflict_count,
                    method=method,
                    results=rs,
                    avg_opt=avg_opt,
                    avg_value=_mean(r.value for r in rs),
                    avg_gap_percent=_mean(r.gap_percent for r in rs),
                    avg_sec_best=_mean(r.sec_best for r in rs) or 0.0,
                    avg_sec_total=_mean(r.sec_total for r in rs),
                    statuses=tuple(r.status for r in rs),
                )
            )
    return records


# The text table's columns for a heuristic and for an exact method, as
# (header, record field, decimals, width); the method's name heads a cluster
# as wide as its columns together.
_HEURISTIC_COLUMNS = (
    ("Gap %", "avg_gap_percent", 2, 8),
    ("Sec Best", "avg_sec_best", 1, 10),
)
_EXACT_COLUMNS = (("Sec Opt", "avg_sec_total", 1, 9),)


def _fmt(value: float | None, decimals: int) -> str:
    return "-" if value is None else f"{value:.{decimals}f}"


def emit_table(records: Sequence[BenchRecord]) -> str:
    """Render records as an aligned text table.

    One row per group with method column clusters (Gap % and Sec Best for
    heuristics, Sec Opt for exact methods) and a trailing Averages row. The
    per-instance CSV is the file `run_benchmark` writes to `csv_path`. Raises
    EmptyReportError for no records and IncompleteReportError when some group
    lacks a record for some method.
    """
    if not records:
        raise EmptyReportError("no benchmark records to report")

    groups = list(dict.fromkeys(rec.group for rec in records))
    methods = list(dict.fromkeys(rec.method for rec in records))
    by_cell = {(rec.group, rec.method): rec for rec in records}
    missing = [(g, m) for g in groups for m in methods if (g, m) not in by_cell]
    if missing:
        group, method = missing[0]
        raise IncompleteReportError(f"group {group!r} has no {method!r} record")
    clusters = [
        (m, _HEURISTIC_COLUMNS if m == "heuristic" else _EXACT_COLUMNS) for m in methods
    ]
    columns = [(m, *c) for m, cluster in clusters for c in cluster]

    def cells(values: Iterable[float | None]) -> str:
        return "".join(
            f"{_fmt(value, decimals):>{width}}"
            for value, (*_, decimals, width) in zip(values, columns)
        )

    top = f"{'Instances':<15}{'Opt':>10}" + "".join(
        f"{m:>{sum(c[-1] for c in cluster)}}" for m, cluster in clusters
    )
    bottom = f"{'n':>6}{'|C|':>9}{'':>10}" + "".join(
        f"{header:>{width}}" for _, header, _, _, width in columns
    )
    lines = [top, bottom]
    rows = []
    for group in groups:
        rec = by_cell[(group, methods[0])]
        rows.append([getattr(by_cell[(group, m)], field) for m, _, field, *_ in columns])
        head = f"{rec.n:>6}{rec.conflicts:>9}{_fmt(rec.avg_opt, 1):>10}"
        lines.append(head + cells(rows[-1]))
    lines.append(f"{'Averages':<25}" + cells(map(_mean, zip(*rows))))
    return "\n".join(lines) + "\n"
