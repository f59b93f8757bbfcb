"""Solver result container shared by every solving method."""

import enum
from dataclasses import dataclass


class SolveStatus(enum.Enum):
    OPTIMAL = "Optimal"
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    TIME_LIMIT = "TimeLimit"
    NO_SOLUTION = "NoSolution"  # a limit or the heuristic stopped without one

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Solution:
    """Outcome of one solve: assignment, objective value, status and timings.

    ``sec_best`` is the time at which the reported solution was first found;
    ``sec_total`` the full running time, so sec_best <= sec_total. ``nodes``
    counts explored search nodes (enumerated candidates for the exhaustive
    solver, 0 where the notion does not apply). ``lower_bound`` is the best
    proven bound on the optimum: equal to ``value`` for proven optima, the
    best open bound when a run is interrupted.
    """

    assignment: tuple[int, ...] | None
    value: int | None
    status: SolveStatus
    sec_best: float = 0.0
    sec_total: float = 0.0
    nodes: int = 0
    lower_bound: int | None = None
