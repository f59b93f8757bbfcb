"""Solvers and tooling for the assignment problem with conflict pairs.

Given an n x n non-negative cost matrix and a set of conflicting edge pairs,
find a minimum-cost perfect matching that uses at most one edge from every
pair. The package provides a text format with generator and validator, a
binary-program IR with LP export, a masked assignment engine, an exact
branch-and-bound solver, a greedy + local-search heuristic, an exhaustive
oracle for small sizes, and a benchmark harness.
"""

from .bench import (
    BenchGroup,
    BenchRecord,
    InstanceResult,
    emit_table,
    make_group,
    preset_groups,
    run_benchmark,
)
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
    Violation,
    generate_instance,
    max_conflict_pairs,
    parse_instance,
    validate,
    write_instance,
)
from .model import (
    FeasibilityReport,
    ModelIR,
    build_model,
    check_feasible,
    evaluate,
    export_lp,
)
from .oracle import brute_force, enumerate_feasible
from .solution import Solution, SolveStatus

__version__ = "0.1.0"

__all__ = [
    "BenchGroup",
    "BenchRecord",
    "ConflictPair",
    "Edge",
    "FeasibilityReport",
    "Instance",
    "InstanceResult",
    "LSConfig",
    "MaskedCosts",
    "ModelIR",
    "Solution",
    "SolveStatus",
    "Violation",
    "branch",
    "brute_force",
    "build_model",
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
    "make_group",
    "max_conflict_pairs",
    "parse_instance",
    "preset_groups",
    "run_benchmark",
    "run_heuristic",
    "solve_ap",
    "solve_exact",
    "validate",
    "write_instance",
]
