"""Solvers and tooling for the assignment problem with conflict pairs.

Given an n x n non-negative cost matrix and a set of conflicting edge pairs,
find a minimum-cost perfect matching that uses at most one edge from every
pair. The package provides a text format and random generator, LP export
of the binary program, a masked assignment engine, an exact
branch-and-bound solver, a greedy + local-search heuristic, an exhaustive
oracle for small sizes, and a benchmark harness.
"""

from .bench import InstanceResult, emit_table, run_benchmark
from .exact import branch, find_violated_conflict, solve_exact
from .heuristic import (
    LSConfig,
    construct_greedy,
    gap_percent,
    local_search,
    run_heuristic,
)
from .hungarian import MaskedCosts, solve_ap
from .instance import (
    ConflictPair,
    Edge,
    Instance,
    generate_instance,
    max_conflict_pairs,
    parse_instance,
    write_instance,
)
from .model import (
    FeasibilityReport,
    check_feasible,
    evaluate,
    export_lp,
)
from .oracle import brute_force, enumerate_feasible
from .solution import Solution, SolveStatus

__version__ = "0.1.0"

__all__ = [
    "ConflictPair",
    "Edge",
    "FeasibilityReport",
    "Instance",
    "InstanceResult",
    "LSConfig",
    "MaskedCosts",
    "Solution",
    "SolveStatus",
    "branch",
    "brute_force",
    "check_feasible",
    "construct_greedy",
    "emit_table",
    "enumerate_feasible",
    "evaluate",
    "export_lp",
    "find_violated_conflict",
    "gap_percent",
    "generate_instance",
    "local_search",
    "max_conflict_pairs",
    "parse_instance",
    "run_benchmark",
    "run_heuristic",
    "solve_ap",
    "solve_exact",
    "write_instance",
]
