"""Command line entry point: generate, solve, export, check, bench.

Exit codes: 0 success, 1 when solve returns no solution (status Infeasible
or NoSolution) or check finds a violation, 2 usage or parse errors.
Diagnostics go to stderr, data to stdout or the chosen files.
"""

import argparse
import sys
from pathlib import Path

from .bench import (
    COST_HI,
    COST_LO,
    HEURISTIC_RESTARTS,
    KNOWN_METHODS,
    PRESETS,
    emit_table,
    run_benchmark,
    run_method,
)
from .instance import generate_instance, parse_instance, write_instance
from .model import check_feasible, evaluate, export_lp


def _read_instance(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh)


def _cmd_generate(args) -> int:
    inst = generate_instance(
        args.n, args.conflicts, args.cost_lo, args.cost_hi, args.seed, name=args.name
    )
    text = write_instance(inst)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def _cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    sol = run_method(
        inst, args.method, args.time_limit, args.seed,
        restarts=args.restarts, node_limit=args.node_limit,
    )
    print(f"status {sol.status}")
    print(f"value {'-' if sol.value is None else sol.value}")
    print(f"lower_bound {'-' if sol.lower_bound is None else sol.lower_bound}")
    print(f"nodes {sol.nodes}")
    print(f"sec_best {sol.sec_best:.3f}")
    print(f"sec_total {sol.sec_total:.3f}")
    if sol.assignment is not None:
        line = " ".join(str(j) for j in sol.assignment)
        print(line)
        if args.out is not None:
            Path(args.out).write_text(line + "\n", encoding="utf-8")
    return 0 if sol.assignment is not None else 1


def _cmd_export(args) -> int:
    inst = _read_instance(args.instance)
    text = export_lp(inst)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def _cmd_check(args) -> int:
    inst = _read_instance(args.instance)
    tokens = Path(args.solution).read_text(encoding="utf-8").split()
    try:
        assignment = [int(tok) for tok in tokens]
    except ValueError:
        print(f"error: solution file {args.solution} is not integers", file=sys.stderr)
        return 2
    report = check_feasible(inst, assignment)
    if report.feasible:
        print(f"feasible value {evaluate(inst, assignment)}")
        return 0
    for i in report.violated_rows:
        print(f"row {i} has no valid assignment")
    for j in report.violated_cols:
        print(f"column {j} is not covered exactly once")
    for p in report.violated_conflicts:
        print(f"conflict {p.e1.a} {p.e1.b} {p.e2.a} {p.e2.b} violated")
    return 1


def _cmd_bench(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    results = run_benchmark(
        PRESETS[args.preset],
        methods,
        args.time_limit,
        jobs=args.jobs,
        csv_path=args.out_csv,
    )
    sys.stdout.write(emit_table(results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apc",
        description="Assignment problem with conflict pairs: generator, solvers, tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random instance")
    g.add_argument("--n", type=int, required=True, help="nodes per side")
    g.add_argument("--conflicts", type=int, required=True, help="conflict pair count")
    g.add_argument("--cost-lo", type=int, default=COST_LO)
    g.add_argument("--cost-hi", type=int, default=COST_HI)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--name", default=None)
    g.add_argument("--out", type=Path, default=None, help="output path (default stdout)")
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("solve", help="solve one instance")
    s.add_argument("instance", type=Path)
    s.add_argument("--method", choices=KNOWN_METHODS, default="exact")
    s.add_argument("--time-limit", type=float, default=3600.0)
    s.add_argument("--node-limit", type=int, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--restarts", type=int, default=HEURISTIC_RESTARTS)
    s.add_argument("--out", type=Path, default=None, help="write the assignment file")
    s.set_defaults(func=_cmd_solve)

    e = sub.add_parser("export", help="export the model of an instance as an LP file")
    e.add_argument("instance", type=Path)
    e.add_argument("--out", type=Path, default=None)
    e.set_defaults(func=_cmd_export)

    c = sub.add_parser("check", help="verify a solution file against an instance")
    c.add_argument("instance", type=Path)
    c.add_argument("solution", type=Path)
    c.set_defaults(func=_cmd_check)

    b = sub.add_parser("bench", help="run a benchmark preset")
    b.add_argument("--preset", choices=tuple(PRESETS), default="small")
    b.add_argument("--methods", default="exact,heuristic", help="comma-separated")
    b.add_argument("--time-limit", type=float, default=3600.0)
    b.add_argument("--out-csv", type=Path, default=None)
    b.add_argument("--jobs", type=int, default=1)
    b.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # malformed documents and bad parameter values end as exit code 2,
        # never as a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
