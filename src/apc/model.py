"""Binary linear model of an instance: IR, LP export, evaluation, feasibility.

One binary variable per edge. The model minimizes total assignment cost
subject to: each left node assigned exactly once, each right node covered
exactly once, and at most one edge selected from every conflict pair.
"""

from dataclasses import dataclass, field
from typing import Sequence

from .errors import NotAPermutationError
from .instance import ConflictPair, Edge, Instance


@dataclass(frozen=True)
class ModelIR:
    """Backend-neutral binary program.

    Variables are indexed 0..num_vars-1 with edge (a, b) mapped to a*n + b;
    ``var_map`` records the full bijection explicitly. Row and column
    constraints are equalities summing their variables to 1; conflict
    constraints are pairs (u, v) read as x_u + x_v <= 1. All variables are
    binary.
    """

    n: int
    num_vars: int
    objective: tuple[tuple[int, int], ...]
    row_constraints: tuple[tuple[int, ...], ...]
    col_constraints: tuple[tuple[int, ...], ...]
    conflict_constraints: tuple[tuple[int, int], ...]
    var_map: dict[Edge, int] = field(repr=False)

    def edge_of(self, var: int) -> Edge:
        return Edge(var // self.n, var % self.n)

    def variable_name(self, var: int) -> str:
        e = self.edge_of(var)
        return f"x_{e.a}_{e.b}"


@dataclass(frozen=True)
class FeasibilityReport:
    """Diagnosis of a candidate assignment array.

    ``violated_rows`` lists left nodes without a valid column, ``violated_cols``
    lists right nodes not covered exactly once, ``violated_conflicts`` lists
    every conflict pair whose two edges are both selected.
    """

    is_perfect_matching: bool
    violated_rows: tuple[int, ...]
    violated_cols: tuple[int, ...]
    violated_conflicts: tuple[ConflictPair, ...]

    @property
    def feasible(self) -> bool:
        return (
            self.is_perfect_matching
            and not self.violated_rows
            and not self.violated_cols
            and not self.violated_conflicts
        )


def build_model(inst: Instance) -> ModelIR:
    """Translate an instance into the binary program IR."""
    n = inst.n
    var_map = {Edge(i, j): i * n + j for i in range(n) for j in range(n)}
    objective = tuple(
        (i * n + j, inst.costs[i][j]) for i in range(n) for j in range(n)
    )
    rows = tuple(tuple(i * n + j for j in range(n)) for i in range(n))
    cols = tuple(tuple(i * n + j for i in range(n)) for j in range(n))
    conflicts = tuple(
        (var_map[p.e1], var_map[p.e2]) for p in sorted(inst.conflicts)
    )
    return ModelIR(
        n=n,
        num_vars=n * n,
        objective=objective,
        row_constraints=rows,
        col_constraints=cols,
        conflict_constraints=conflicts,
        var_map=var_map,
    )


def _wrap_expression(prefix: str, terms: Sequence[str], suffix: str = "") -> list[str]:
    # Eight terms per line keeps every line comfortably short for LP readers.
    per_line = 8
    lines = []
    for k in range(0, len(terms), per_line):
        chunk = " + ".join(terms[k : k + per_line])
        lines.append(prefix + chunk if k == 0 else "   + " + chunk)
    if not lines:
        lines = [prefix]
    lines[-1] += suffix
    return lines


def export_lp(ir: ModelIR) -> str:
    """Emit the model as LP-format text (Minimize / Subject To / Binary / End).

    Output is a pure function of the IR: objective terms in variable order,
    then row, column and conflict constraints in index order, so repeated
    exports are byte-identical.
    """
    lines = ["Minimize"]
    obj_terms = [f"{coeff} {ir.variable_name(var)}" for var, coeff in ir.objective]
    lines.extend(_wrap_expression(" obj: ", obj_terms))
    lines.append("Subject To")
    for i, members in enumerate(ir.row_constraints):
        terms = [ir.variable_name(v) for v in members]
        lines.extend(_wrap_expression(f" row_{i}: ", terms, " = 1"))
    for j, members in enumerate(ir.col_constraints):
        terms = [ir.variable_name(v) for v in members]
        lines.extend(_wrap_expression(f" col_{j}: ", terms, " = 1"))
    for t, (u, v) in enumerate(ir.conflict_constraints):
        lines.append(f" conf_{t}: {ir.variable_name(u)} + {ir.variable_name(v)} <= 1")
    lines.append("Binary")
    for var in range(ir.num_vars):
        lines.append(f" {ir.variable_name(var)}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _require_permutation(n: int, assignment: Sequence[int]) -> None:
    if len(assignment) != n or sorted(assignment) != list(range(n)):
        raise NotAPermutationError(
            f"assignment {list(assignment)!r} is not a permutation of 0..{n - 1}"
        )


def evaluate(inst: Instance, assignment: Sequence[int]) -> int:
    """Total cost of a permutation assignment (row i -> column assignment[i])."""
    _require_permutation(inst.n, assignment)
    return sum(inst.costs[i][assignment[i]] for i in range(inst.n))


def check_feasible(inst: Instance, assignment: Sequence[int]) -> FeasibilityReport:
    """Diagnose an arbitrary integer array as a candidate solution.

    The array must have length n but entries may be anything, so broken
    solutions can be reported rather than rejected. Edge (i, j) counts as
    selected iff assignment[i] == j.
    """
    n = inst.n
    if len(assignment) != n:
        raise ValueError(f"assignment has length {len(assignment)}, expected {n}")
    bad_rows = tuple(i for i, j in enumerate(assignment) if not 0 <= j < n)
    coverage = [0] * n
    for j in assignment:
        if 0 <= j < n:
            coverage[j] += 1
    bad_cols = tuple(j for j, c in enumerate(coverage) if c != 1)
    partners = inst.partners
    violated = []
    for i, j in enumerate(assignment):
        if 0 <= j < n:
            e = Edge(i, j)
            violated.extend(
                ConflictPair(e, p)
                for p in partners[i * n + j]
                if assignment[p.a] == p.b and e < p
            )
    return FeasibilityReport(
        is_perfect_matching=not bad_rows and not bad_cols,
        violated_rows=bad_rows,
        violated_cols=bad_cols,
        violated_conflicts=tuple(sorted(violated)),
    )
