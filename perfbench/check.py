"""Output checks of the benchmark, independent of the package's own checker.

Feasibility and cost are recomputed from the instance data here, so a defect
in ``apc.model.check_feasible`` or ``apc.model.evaluate`` cannot hide itself.
"""

from dataclasses import dataclass

# Provenance of a stored reference value (see perfbench/refs.py).
PROVEN = frozenset({"highs-proven", "apc-proven"})  # the optimum, or proven infeasible
UPPER = "highs-feasible"  # value of a known feasible solution: at least the optimum
LOWER = "ap-root-bound"  # conflict-free assignment bound: at most the optimum
PROVENANCES = PROVEN | {UPPER, LOWER}


@dataclass(frozen=True)
class Reference:
    value: int | None  # None only for a proven-infeasible instance
    provenance: str
    status: str  # "Optimal" or "Infeasible" when proven, else "Unknown"

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown reference provenance {self.provenance!r}")
        proven = self.provenance in PROVEN
        if (self.value is None) != (self.status == "Infeasible") or (
            proven != (self.status in ("Optimal", "Infeasible"))
        ):
            raise ValueError(f"inconsistent reference {self}")


@dataclass(frozen=True)
class Outcome:
    """The deterministic fields of one solve; status "NoSolution" when the
    heuristic returned nothing."""

    status: str
    value: int | None
    lower_bound: int | None
    nodes: int
    assignment: tuple[int, ...] | None


def assignment_problems(inst, assignment, value) -> list[str]:
    """Why `assignment` is not a conflict-free permutation of cost `value`."""
    n = inst.n
    if len(assignment) != n or sorted(assignment) != list(range(n)):
        return [f"assignment {list(assignment)} is not a permutation of 0..{n - 1}"]
    problems = []
    for pair in inst.conflicts:
        e1, e2 = pair.e1, pair.e2
        if assignment[e1.a] == e1.b and assignment[e2.a] == e2.b:
            problems.append(f"assignment uses both edges of conflict {tuple(e1)} {tuple(e2)}")
            break
    cost = sum(inst.costs[i][assignment[i]] for i in range(n))
    if cost != value:
        problems.append(f"reported value {value} but the assignment costs {cost}")
    return problems


def outcome_problems(inst, out: Outcome, ref: Reference, must_prove: bool) -> list[str]:
    """Every way `out` contradicts the instance, itself or the reference.

    With `must_prove` the status must also equal the reference's proven one.
    """
    problems = []
    value, lb = out.value, out.lower_bound
    if value is None:
        if out.assignment is not None:
            problems.append("an assignment without a value")
    elif out.assignment is None:
        problems.append(f"value {value} without an assignment")
    else:
        problems += assignment_problems(inst, out.assignment, value)
    if lb is not None and value is not None and lb > value:
        problems.append(f"lower_bound {lb} above value {value}")
    if out.status == "Optimal" and (value is None or lb != value):
        problems.append(f"Optimal with value {value} and lower_bound {lb}")
    solution_known = ref.status == "Optimal" or ref.provenance == UPPER
    if out.status == "Infeasible" and (value is not None or solution_known):
        problems.append(f"Infeasible, but a solution is known ({ref.provenance} {ref.value})")

    if ref.status == "Infeasible":
        if value is not None:
            problems.append(f"value {value} on an instance proven infeasible")
    elif ref.provenance in PROVEN:
        if lb is not None and lb > ref.value:
            problems.append(f"lower_bound {lb} above the proven optimum {ref.value}")
        if value is not None and value < ref.value:
            problems.append(f"value {value} below the proven optimum {ref.value}")
    elif ref.provenance == UPPER:
        if lb is not None and lb > ref.value:
            problems.append(f"lower_bound {lb} above a known feasible value {ref.value}")
    elif value is not None and value < ref.value:
        problems.append(f"value {value} below the assignment bound {ref.value}")

    if must_prove and out.status != ref.status:
        problems.append(f"status {out.status}, stored proven status {ref.status}")
    return problems
