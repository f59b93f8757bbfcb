"""Binary linear model of an instance: LP export, evaluation, feasibility.

One binary variable per edge. The model minimizes total assignment cost
subject to: each left node assigned exactly once, each right node covered
exactly once, and at most one edge selected from every conflict pair.
``export_lp`` writes it straight from the instance as an LP file.
"""

from dataclasses import dataclass
from typing import Sequence

from .instance import ConflictPair, Instance


@dataclass(frozen=True)
class FeasibilityReport:
    """Diagnosis of a candidate assignment array.

    ``violated_rows`` lists left nodes without a valid column, ``violated_cols``
    lists right nodes not covered exactly once, ``violated_conflicts`` lists
    every conflict pair whose two edges are both selected.
    """

    violated_rows: tuple[int, ...]
    violated_cols: tuple[int, ...]
    violated_conflicts: tuple[ConflictPair, ...]

    @property
    def is_perfect_matching(self) -> bool:
        return not self.violated_rows and not self.violated_cols

    @property
    def feasible(self) -> bool:
        return self.is_perfect_matching and not self.violated_conflicts


def _wrap_expression(prefix: str, terms: Sequence[str], suffix: str = "") -> list[str]:
    # Eight terms per line keeps every line comfortably short for LP readers.
    per_line = 8
    lines = []
    for k in range(0, len(terms), per_line):
        chunk = " + ".join(terms[k : k + per_line])
        lines.append(prefix + chunk if k == 0 else "   + " + chunk)
    lines[-1] += suffix
    return lines


def export_lp(inst: Instance) -> str:
    """Emit the model as LP-format text (Minimize / Subject To / Binary / End).

    Variable ``x_a_b`` is edge (a, b). The objective lists every variable in
    row-major order, then come the row equalities ``row_i``, the column
    equalities ``col_j`` and one ``conf_t`` per conflict in
    ``inst.conflicts.id_pairs()`` order, so repeated exports are
    byte-identical.
    """
    n = inst.n
    names = [f"x_{a}_{b}" for a in range(n) for b in range(n)]
    costs = [c for row in inst.costs for c in row]
    lines = ["Minimize"]
    lines.extend(_wrap_expression(" obj: ", [f"{c} {x}" for c, x in zip(costs, names)]))
    lines.append("Subject To")
    for i in range(n):
        lines.extend(_wrap_expression(f" row_{i}: ", names[i * n : (i + 1) * n], " = 1"))
    for j in range(n):
        lines.extend(_wrap_expression(f" col_{j}: ", names[j::n], " = 1"))
    for t, (u, v) in enumerate(inst.conflicts.id_pairs()):
        lines.append(f" conf_{t}: {names[u]} + {names[v]} <= 1")
    lines.append("Binary")
    lines.extend(f" {x}" for x in names)
    lines.append("End")
    return "\n".join(lines) + "\n"


def _require_permutation(n: int, assignment: Sequence[int]) -> None:
    if len(assignment) != n or sorted(assignment) != list(range(n)):
        raise ValueError(
            f"assignment {list(assignment)!r} is not a permutation of 0..{n - 1}"
        )


def evaluate(inst: Instance, assignment: Sequence[int]) -> int:
    """Total cost of a permutation assignment (row i -> column assignment[i])."""
    _require_permutation(inst.n, assignment)
    return sum(inst.costs[i][assignment[i]] for i in range(inst.n))


def check_feasible(inst: Instance, assignment: Sequence[int]) -> FeasibilityReport:
    """Diagnose an arbitrary integer array as a candidate solution.

    The array must have length n and hold ints, but any ints: an entry
    outside 0..n-1 is reported as a violated row rather than rejected, so
    broken solutions can be diagnosed. Other entries are not supported: a
    string, or a float in range, raises TypeError. Edge (i, j) counts as
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
    selected = {i * n + j for i, j in enumerate(assignment) if 0 <= j < n}
    violated = [
        ConflictPair(divmod(e, n), divmod(p, n))
        for e in selected
        for p in selected.intersection(partners[e])
        if e < p
    ]
    return FeasibilityReport(
        violated_rows=bad_rows,
        violated_cols=bad_cols,
        violated_conflicts=tuple(sorted(violated)),
    )
