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
import io
import os
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import (
    EmptyReportError,
    InstanceTooLargeError,
    MissingReferenceOptimumError,
    UnknownMethodError,
)
from .exact import solve_exact
from .heuristic import LSConfig, gap_percent, run_heuristic
from .instance import Instance, generate_instance, parse_instance, write_instance
from .oracle import BRUTE_FORCE_MAX_N, brute_force
from .solution import SolveStatus

KNOWN_METHODS = ("oracle", "exact", "heuristic")
CSV_COLUMNS = (
    "group",
    "n",
    "conflicts",
    "method",
    "seed",
    "value",
    "status",
    "gap_percent",
    "sec_best",
    "sec_total",
)

# Group parameters of the full-scale preset: 26 (n, conflict count) rows,
# n from 15 to 500 and conflict counts from 5000 to 700000. Desk-scale runs
# should prefer the "small" preset.
TABLE1_PARAMS = (
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
)
SMALL_PARAMS = tuple((n, m) for n in (8, 10, 12) for m in (50, 200))


@dataclass(frozen=True)
class BenchGroup:
    """One benchmark row: replicate_count seeded instances of one shape."""

    label: str
    n: int
    conflict_count: int
    seeds: tuple[int, ...]
    replicate_count: int = 5
    cost_lo: int = 1
    cost_hi: int = 100

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if self.replicate_count != len(self.seeds):
            raise ValueError(
                f"group {self.label!r}: replicate_count {self.replicate_count} "
                f"!= number of seeds {len(self.seeds)}"
            )


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


def make_group(
    n: int,
    conflict_count: int,
    replicate_count: int = 5,
    seed_base: int = 1,
    cost_lo: int = 1,
    cost_hi: int = 100,
    label: str | None = None,
) -> BenchGroup:
    return BenchGroup(
        label=label if label is not None else f"{n}/{conflict_count}",
        n=n,
        conflict_count=conflict_count,
        seeds=tuple(range(seed_base, seed_base + replicate_count)),
        replicate_count=replicate_count,
        cost_lo=cost_lo,
        cost_hi=cost_hi,
    )


def preset_groups(name: str) -> list[BenchGroup]:
    if name == "small":
        return [make_group(n, m) for n, m in SMALL_PARAMS]
    if name == "table1":
        return [make_group(n, m) for n, m in TABLE1_PARAMS]
    raise ValueError(f"unknown preset {name!r}, expected 'small' or 'table1'")


def _materialize(group: BenchGroup, seed: int, cache_dir: str | None) -> Instance:
    if cache_dir:
        path = Path(cache_dir) / (
            f"apc-n{group.n}-m{group.conflict_count}-s{seed}.apc"
        )
        if path.exists():
            return parse_instance(path.read_text(encoding="utf-8"))
        inst = generate_instance(
            group.n, group.conflict_count, group.cost_lo, group.cost_hi, seed
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(write_instance(inst), encoding="utf-8")
        return inst
    return generate_instance(
        group.n, group.conflict_count, group.cost_lo, group.cost_hi, seed
    )


def _run_unit(args: tuple) -> tuple[list[InstanceResult], int | None]:
    """Solve all requested methods on one seeded instance.

    Top-level so process pools can pickle it. Returns the per-method results
    plus the proven optimum of this instance when one is available.
    """
    group, seed, methods, time_limit, cache_dir, reference_opt, restarts = args
    inst = _materialize(group, seed, cache_dir)
    results: list[InstanceResult] = []
    opt_value: int | None = None
    by_method = {}
    for method in (m for m in ("oracle", "exact", "heuristic") if m in methods):
        if method == "oracle":
            sol = brute_force(inst)
        elif method == "exact":
            sol = solve_exact(inst, time_limit=time_limit)
        else:
            sol = run_heuristic(
                inst,
                LSConfig(time_limit=time_limit, restarts=restarts, rng_seed=seed),
            )
        by_method[method] = sol
        if (
            method in ("oracle", "exact")
            and sol is not None
            and sol.status is SolveStatus.OPTIMAL
            and opt_value is None
        ):
            opt_value = sol.value
    if opt_value is None:
        opt_value = reference_opt

    for method in methods:
        sol = by_method[method]
        if method == "heuristic":
            if sol is None:
                # no feasible solution found within the restart budget; this
                # is not a proof of infeasibility
                results.append(
                    InstanceResult(
                        group.label, group.n, group.conflict_count, method, seed,
                        None, SolveStatus.NO_SOLUTION, None, 0.0, None,
                    )
                )
                continue
            gap = None
            if opt_value is not None and opt_value > 0:
                gap = gap_percent(sol.value, opt_value)
            results.append(
                InstanceResult(
                    group.label, group.n, group.conflict_count, method, seed,
                    sol.value, sol.status, gap, sol.sec_best, None,
                )
            )
        else:
            results.append(
                InstanceResult(
                    group.label, group.n, group.conflict_count, method, seed,
                    sol.value, sol.status, None, sol.sec_best, sol.sec_total,
                )
            )
    return results, opt_value


def _format_csv_row(r: InstanceResult) -> list[str]:
    return [
        r.group,
        str(r.n),
        str(r.conflicts),
        r.method,
        str(r.seed),
        "" if r.value is None else str(r.value),
        r.status.value,
        "" if r.gap_percent is None else f"{r.gap_percent:.2f}",
        f"{r.sec_best:.1f}",
        "" if r.sec_total is None else f"{r.sec_total:.1f}",
    ]


def _mean(values: Sequence[float]) -> float | None:
    return statistics.fmean(values) if values else None


def run_benchmark(
    groups: Sequence[BenchGroup],
    methods: Sequence[str],
    time_limit: float,
    *,
    jobs: int = 1,
    csv_path: str | os.PathLike | None = None,
    reference_optima: Mapping[tuple[str, int], int] | None = None,
    cache_dir: str | None = None,
    heuristic_restarts: int = 5,
) -> list[BenchRecord]:
    """Generate (or load cached) instances, run each method, aggregate.

    Per-instance CSV rows are flushed to `csv_path` as soon as each seeded
    instance finishes, so an interrupted run keeps everything already solved.
    `reference_optima` maps (group label, seed) to a known optimum for
    heuristic gaps when no exact method runs alongside. Instances are cached
    under `cache_dir` (default: the APC_BENCH_DIR environment variable).
    With jobs > 1 the seeded instances are solved by a process pool; results
    are merged by (group, seed) so parallelism never changes the output.
    """
    methods = tuple(methods)
    if not methods:
        raise UnknownMethodError("no methods requested")
    for m in methods:
        if m not in KNOWN_METHODS:
            raise UnknownMethodError(
                f"unknown method {m!r}, expected one of {KNOWN_METHODS}"
            )
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
    if cache_dir is None:
        cache_dir = os.environ.get("APC_BENCH_DIR") or None

    units = []
    for group in groups:
        for seed in group.seeds:
            ref = None if reference_optima is None else reference_optima.get(
                (group.label, seed)
            )
            units.append(
                (group, seed, methods, time_limit, cache_dir, ref, heuristic_restarts)
            )

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
        solve_all = map
        if jobs > 1:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=jobs)
            solve_all = stack.enter_context(pool).map
        # Both maps yield in submission order, so the file content and order
        # are independent of worker scheduling.
        for output in solve_all(_run_unit, units):
            unit_outputs.append(output)
            if writer is not None:
                writer.writerows(_format_csv_row(r) for r in output[0])
                csv_file.flush()

    results: dict[tuple[str, int, str], InstanceResult] = {}
    opt_by_instance: dict[tuple[str, int], int | None] = {}
    for (group, seed, *_), output in zip(units, unit_outputs):
        rows, opt_value = output
        opt_by_instance[(group.label, seed)] = opt_value
        for r in rows:
            results[(group.label, seed, r.method)] = r

    records: list[BenchRecord] = []
    for group in groups:
        opts = [
            opt_by_instance[(group.label, seed)]
            for seed in group.seeds
            if opt_by_instance[(group.label, seed)] is not None
        ]
        avg_opt = _mean(opts)
        for method in methods:
            rs = tuple(results[(group.label, seed, method)] for seed in group.seeds)
            values = [r.value for r in rs if r.value is not None]
            gaps = [r.gap_percent for r in rs if r.gap_percent is not None]
            sec_totals = [r.sec_total for r in rs if r.sec_total is not None]
            records.append(
                BenchRecord(
                    group=group.label,
                    n=group.n,
                    conflicts=group.conflict_count,
                    method=method,
                    results=rs,
                    avg_opt=avg_opt,
                    avg_value=_mean(values),
                    avg_gap_percent=_mean(gaps) if method == "heuristic" else None,
                    avg_sec_best=_mean([r.sec_best for r in rs]) or 0.0,
                    avg_sec_total=_mean(sec_totals) if method != "heuristic" else None,
                    statuses=tuple(r.status for r in rs),
                )
            )
    return records


def _fmt(value: float | None, decimals: int) -> str:
    return "-" if value is None else f"{value:.{decimals}f}"


def emit_table(records: Sequence[BenchRecord]) -> tuple[str, str]:
    """Render records as an aligned text table and a machine-stable CSV.

    One text row per group with method column clusters (Gap % and Sec Best
    for heuristics, Sec Opt for exact methods) and a trailing Averages row.
    The CSV carries the per-instance rows in (group, seed, method) order.
    """
    if not records:
        raise EmptyReportError("no benchmark records to report")

    group_order: list[str] = []
    method_order: list[str] = []
    by_cell: dict[tuple[str, str], BenchRecord] = {}
    meta: dict[str, tuple[int, int]] = {}
    for rec in records:
        if rec.group not in group_order:
            group_order.append(rec.group)
            meta[rec.group] = (rec.n, rec.conflicts)
        if rec.method not in method_order:
            method_order.append(rec.method)
        by_cell[(rec.group, rec.method)] = rec

    # Per-method column clusters; getters drive both data and averages rows.
    getters: list[tuple[str, str, int, int]] = []  # method, attr, decimals, width
    clusters: list[tuple[str, int]] = []
    for method in method_order:
        if method == "heuristic":
            getters.append((method, "avg_gap_percent", 2, 8))
            getters.append((method, "avg_sec_best", 1, 10))
            clusters.append((method, 18))
        else:
            getters.append((method, "avg_sec_total", 1, 9))
            clusters.append((method, 9))
    sub_headers = {"avg_gap_percent": "Gap %", "avg_sec_best": "Sec Best",
                   "avg_sec_total": "Sec Opt"}

    top = f"{'Instances':<15}{'Opt':>10}" + "".join(
        f"{name:>{width}}" for name, width in clusters
    )
    bottom = f"{'n':>6}{'|C|':>9}{'':>10}" + "".join(
        f"{sub_headers[attr]:>{width}}" for _, attr, _, width in getters
    )
    lines = [top, bottom]
    for group in group_order:
        n, conflicts = meta[group]
        opt = by_cell[(group, method_order[0])].avg_opt
        cells = [f"{n:>6}", f"{conflicts:>9}", f"{_fmt(opt, 1):>10}"]
        for method, attr, decimals, width in getters:
            rec = by_cell[(group, method)]
            cells.append(f"{_fmt(getattr(rec, attr), decimals):>{width}}")
        lines.append("".join(cells))
    avg_cells = [f"{'Averages':<25}"]
    for method, attr, decimals, width in getters:
        vals = [
            getattr(by_cell[(g, method)], attr)
            for g in group_order
            if getattr(by_cell[(g, method)], attr) is not None
        ]
        avg_cells.append(f"{_fmt(_mean(vals), decimals):>{width}}")
    lines.append("".join(avg_cells))
    text = "\n".join(lines) + "\n"

    all_rows = [r for rec in records for r in rec.results]
    group_rank = {g: i for i, g in enumerate(group_order)}
    method_rank = {m: i for i, m in enumerate(method_order)}
    all_rows.sort(key=lambda r: (group_rank[r.group], r.seed, method_rank[r.method]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    seen = set()
    for r in all_rows:
        key = (r.group, r.seed, r.method)
        if key in seen:
            continue
        seen.add(key)
        writer.writerow(_format_csv_row(r))
    return text, buf.getvalue()
