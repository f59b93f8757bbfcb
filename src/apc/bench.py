"""Benchmark harness: seeded instances per row, method runs, result tables.

Each (n, conflict count) row is one group of same-sized random instances, one
per seed in SEEDS (five per row, the convention of the source campaign).
`run_method` runs one method on one instance, for `apc solve` as for a row.
`run_benchmark` returns one InstanceResult per instance and method, and the
CSV holds one row per result with a fixed column order and fixed printed
precision (2 decimals for gaps, 1 for seconds and the optimum), so files are
machine-stable. The text table reports, per group, the mean over the seeds
of the optimum plus Gap % / Sec Best columns for heuristic methods and a
Sec Opt column for exact methods, with a final Averages row.

Timings are wall-clock and reported but never part of any correctness
contract; values and statuses are reproducible from the seeds alone.
"""

import concurrent.futures
import contextlib
import csv
import operator
import os
import statistics
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

from .exact import solve_exact
from .heuristic import LSConfig, gap_percent, run_heuristic
from .instance import Instance, generate_instance, max_conflict_pairs
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


# Every benchmark row solves one instance per seed in SEEDS, each instance
# draws its costs from [COST_LO, COST_HI], and every heuristic run gets
# HEURISTIC_RESTARTS restarts.
SEEDS = (1, 2, 3, 4, 5)
COST_LO, COST_HI = 1, 100
HEURISTIC_RESTARTS = 5


@dataclass(frozen=True)
class InstanceResult:
    """One (instance, method) outcome; the unit the CSV is made of.

    `sec_best` is None when the method returned no assignment, and `opt` is
    the optimum the instance's gaps use: proven in the run or supplied.
    `lower_bound` and `nodes` are the method's `Solution` fields: the best
    proven bound (None when the method proves none) and the search nodes
    explored (0 where the notion does not apply). They come after `opt`, so
    the earlier CSV columns keep their places.
    """

    group: str
    n: int
    conflicts: int
    method: str
    seed: int
    value: int | None
    status: SolveStatus
    gap_percent: float | None
    sec_best: float | None
    sec_total: float | None
    opt: int | None
    lower_bound: int | None
    nodes: int


CSV_COLUMNS = tuple(f.name for f in fields(InstanceResult))
# the printed decimals of the columns the table averages, in the CSV and the
# table alike
_CSV_DECIMALS = {"gap_percent": 2, "sec_best": 1, "sec_total": 1, "opt": 1}


def run_method(
    inst: Instance,
    method: str,
    time_limit: float,
    seed: int,
    *,
    restarts: int = HEURISTIC_RESTARTS,
    node_limit: int | None = None,
) -> Solution:
    """Solve `inst` by one of KNOWN_METHODS, as `apc solve` and `apc bench` do.

    `seed` and `restarts` reach only the heuristic, `node_limit` only exact,
    and the oracle takes no limit; a time limit that is not positive, or a
    node limit that is negative or not an int, is refused for every method.
    With the defaults this is the run that `run_benchmark` makes for the
    instance of a row and seed.
    """
    if not time_limit > 0:  # also rejects NaN
        raise ValueError(f"time_limit must be positive, got {time_limit}")
    if node_limit is not None and operator.index(node_limit) < 0:
        raise ValueError(f"node_limit must be >= 0, got {node_limit}")
    if method == "oracle":
        return brute_force(inst)
    if method == "exact":
        return solve_exact(inst, time_limit=time_limit, node_limit=node_limit)
    if method == "heuristic":
        cfg = LSConfig(time_limit=time_limit, restarts=restarts, rng_seed=seed)
        return run_heuristic(inst, cfg)
    raise ValueError(f"unknown method {method!r}, expected one of {KNOWN_METHODS}")


def _run_unit(args: tuple) -> list[InstanceResult]:
    """Solve all requested methods on one seeded instance.

    Top-level so process pools can pickle it. Returns one result per method,
    in the order of `methods`.
    """
    n, m, seed, methods, time_limit, reference_opt = args
    inst = generate_instance(n, m, COST_LO, COST_HI, seed)
    solutions = {
        method: run_method(inst, method, time_limit, seed)
        for method in KNOWN_METHODS
        if method in methods
    }
    proven = [
        sol.value
        for method, sol in solutions.items()
        if method != "heuristic" and sol.status is SolveStatus.OPTIMAL
    ]
    opt = proven[0] if proven else reference_opt

    results = []
    for method in methods:
        sol = solutions[method]
        gap = sec_total = None
        if method != "heuristic":
            sec_total = sol.sec_total
        elif sol.value is not None and opt is not None and opt > 0:
            gap = gap_percent(sol.value, opt)
        sec_best = None if sol.value is None else sol.sec_best
        results.append(
            InstanceResult(
                f"{n}/{m}", n, m, method, seed,
                sol.value, sol.status, gap, sec_best, sec_total, opt,
                sol.lower_bound, sol.nodes,
            )
        )
    return results


def _cell(column: str, value: object) -> str:
    """The printed text of one value of `column`; None prints as ''."""
    if value is None:
        return ""
    if column in _CSV_DECIMALS:
        return f"{value:.{_CSV_DECIMALS[column]}f}"
    return str(value)


def _mean(values: Iterable[float | None]) -> float | None:
    """Mean of the values that are not None; None when there are none."""
    present = [v for v in values if v is not None]
    return statistics.fmean(present) if present else None


def run_benchmark(
    rows: Sequence[tuple[int, int]],
    methods: Sequence[str],
    time_limit: float,
    *,
    seeds: Sequence[int] = SEEDS,
    jobs: int = 1,
    csv_path: str | os.PathLike | None = None,
    reference_optima: Mapping[tuple[str, int], int] | None = None,
) -> list[InstanceResult]:
    """Generate each seeded instance of each (n, m) row, run each method on it.

    Instance `seed` of row (n, m), the group labelled ``n/m``, is
    ``generate_instance(n, m, COST_LO, COST_HI, seed)``. Rows, seeds and
    methods must not repeat. The results come in CSV order: rows, then seeds,
    then methods in the given order. Per-instance CSV rows are flushed to
    `csv_path` as soon as each instance finishes, so an interrupted run keeps
    everything already solved. `reference_optima` maps (group label, seed) to
    a known optimum for heuristic gaps when no exact method proves one. With
    jobs > 1 a process pool solves the instances; parallelism never changes
    the output.
    """
    methods = tuple(methods)
    if not methods:
        raise ValueError("no methods requested")
    for m in methods:
        if m not in KNOWN_METHODS:
            raise ValueError(f"unknown method {m!r}, expected one of {KNOWN_METHODS}")
    if len(set(methods)) != len(methods):
        raise ValueError(f"methods must not repeat, got {methods}")
    if operator.index(jobs) < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not time_limit > 0:  # also rejects NaN
        raise ValueError(f"time_limit must be positive, got {time_limit}")
    if len(set(rows)) != len(rows):
        raise ValueError(f"rows must not repeat, got {rows}")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must not repeat, got {seeds}")
    for n, m in rows:
        if n < 1 or not 0 <= m <= max_conflict_pairs(n):
            raise ValueError(f"group '{n}/{m}' needs n >= 1, 0 <= m <= n*n*(n*n-1)/2")
    if "oracle" in methods:
        for n, m in rows:
            if n > BRUTE_FORCE_MAX_N:
                raise ValueError(
                    f"group '{n}/{m}' has n = {n} > {BRUTE_FORCE_MAX_N}, "
                    "too large for the oracle method"
                )
    if (
        "heuristic" in methods
        and not {"oracle", "exact"} & set(methods)
        and reference_optima is None
    ):
        raise ValueError(
            "heuristic gaps need an optimum source: run 'exact' or 'oracle' "
            "alongside, or supply reference_optima"
        )

    refs = reference_optima or {}
    units = [
        (n, m, seed, methods, time_limit, refs.get((f"{n}/{m}", seed)))
        for n, m in rows
        for seed in seeds
    ]

    results: list[InstanceResult] = []
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
        # are independent of worker scheduling.
        for unit_results in solve_all(_run_unit, units):
            results.extend(unit_results)
            if writer is not None:
                writer.writerows(
                    [_cell(c, getattr(r, c)) for c in CSV_COLUMNS]
                    for r in unit_results
                )
                csv_file.flush()
    return results


# The text table's columns for a heuristic and for an exact method, as
# (header, InstanceResult field, width); each cell is the field's mean over
# the group's seeds, printed with the CSV's decimals. The method's name heads
# a cluster as wide as its columns together.
_HEURISTIC_COLUMNS = (("Gap %", "gap_percent", 8), ("Sec Best", "sec_best", 10))
_EXACT_COLUMNS = (("Sec Opt", "sec_total", 9),)


def emit_table(results: Sequence[InstanceResult]) -> str:
    """Render results as an aligned text table.

    One row per group with the mean optimum (Opt) and method column clusters
    (Gap % and Sec Best for heuristics, Sec Opt for exact methods), and a
    trailing Averages row. Each cell is the mean of one result field over
    the group's seeds, leaving out those where it is None; a cell with no
    value prints as '-'. Raises ValueError for no results and when some
    group lacks a result for some method.
    """
    if not results:
        raise ValueError("no benchmark records to report")

    by_cell: dict[tuple[str, str], list[InstanceResult]] = {}
    for r in results:
        by_cell.setdefault((r.group, r.method), []).append(r)
    groups = list(dict.fromkeys(r.group for r in results))
    methods = list(dict.fromkeys(r.method for r in results))
    missing = [(g, m) for g in groups for m in methods if (g, m) not in by_cell]
    if missing:
        group, method = missing[0]
        raise ValueError(f"group {group!r} has no {method!r} record")
    clusters = [
        (m, _HEURISTIC_COLUMNS if m == "heuristic" else _EXACT_COLUMNS) for m in methods
    ]
    columns = [(m, *c) for m, cluster in clusters for c in cluster]

    def cells(values: Iterable[float | None]) -> str:
        return "".join(
            f"{_cell(field, value) or '-':>{width}}"
            for value, (_, _, field, width) in zip(values, columns)
        )

    top = f"{'Instances':<15}{'Opt':>10}" + "".join(
        f"{m:>{sum(c[-1] for c in cluster)}}" for m, cluster in clusters
    )
    bottom = f"{'n':>6}{'|C|':>9}{'':>10}" + "".join(
        f"{header:>{width}}" for _, header, _, width in columns
    )
    lines = [top, bottom]
    rows = []
    for group in groups:
        # every method's results of a group share its instances and optima
        first = by_cell[(group, methods[0])]
        rows.append(
            [_mean(getattr(r, f) for r in by_cell[(group, m)]) for m, _, f, _ in columns]
        )
        opt = _cell("opt", _mean(r.opt for r in first)) or "-"
        head = f"{first[0].n:>6}{first[0].conflicts:>9}{opt:>10}"
        lines.append(head + cells(rows[-1]))
    lines.append(f"{'Averages':<25}" + cells(map(_mean, zip(*rows))))
    return "\n".join(lines) + "\n"
