"""Minimum-cost perfect matching on a masked cost matrix.

This is the conflict-free assignment engine: it ignores conflict pairs and
therefore computes a valid lower bound for the conflicted problem, whose
feasible set is a subset. Masks make it usable as the relaxation solver at
branch-and-bound nodes: forbidden edges are excluded structurally from the
augmenting search (never via inflated costs, so integer arithmetic stays
exact), forced edges are contracted away before solving.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .instance import Edge

_INF = math.inf


@dataclass(frozen=True)
class MaskedCosts:
    """A cost matrix plus per-edge masks: one branch-and-bound node.

    ``forced`` edges must appear in the solution and are therefore pairwise
    row- and column-disjoint; no edge may be both forced and forbidden.
    Masks hold ``Edge``s or plain ``(a, b)`` pairs; a contradictory mask
    raises ValueError here, the only place masks are validated. ``base`` is
    kept as given, not copied, so it must not change afterwards.
    """

    base: tuple[tuple[int, ...], ...]
    forbidden: frozenset[Edge] = frozenset()
    forced: frozenset[Edge] = frozenset()

    def __post_init__(self):
        forbidden, forced = frozenset(self.forbidden), frozenset(self.forced)
        object.__setattr__(self, "forbidden", forbidden)
        object.__setattr__(self, "forced", forced)
        n = len(self.base)
        for a, b in itertools.chain(forbidden, forced):
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"masked edge {(a, b)} outside the {n}x{n} matrix")
        overlap = forced & forbidden
        if overlap:
            raise ValueError(f"edges both forced and forbidden: {sorted(overlap)}")
        rows = {a for a, _ in forced}
        cols = {b for _, b in forced}
        if len(rows) != len(forced) or len(cols) != len(forced):
            raise ValueError("forced edges must be row- and column-disjoint")

    @property
    def n(self) -> int:
        return len(self.base)


def _hungarian_masked(
    base: Sequence[Sequence[int]],
    rows: Sequence[int],
    cols: Sequence[int],
    forbidden: frozenset[Edge],
) -> list[int] | None:
    """Solve the sub-assignment over the given rows/columns.

    Shortest-augmenting-path form of the Hungarian algorithm with dual
    potentials, O(k^3). Arrays are 1-based with slot 0 as the virtual column
    that hosts the row currently being inserted. Potentials stay integral;
    infinity appears only as a slack sentinel for forbidden edges. Returns
    sub-column index per sub-row, or None when no perfect matching avoids
    the forbidden edges.
    """
    k = len(rows)
    u = [0] * (k + 1)
    v = [0] * (k + 1)
    col_match = [0] * (k + 1)  # col_match[j] = 1-based row matched to column j
    way = [0] * (k + 1)

    for r in range(1, k + 1):
        col_match[0] = r
        j0 = 0
        minv = [_INF] * (k + 1)
        used = [False] * (k + 1)
        while True:
            used[j0] = True
            i0 = col_match[j0]
            row = rows[i0 - 1]
            delta = _INF
            j1 = 0
            for j in range(1, k + 1):
                if used[j]:
                    continue
                col = cols[j - 1]
                if (row, col) not in forbidden:
                    cur = base[row][col] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            if delta == _INF:
                return None  # no augmenting path: some row has run out of columns
            for j in range(k + 1):
                if used[j]:
                    u[col_match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if col_match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            col_match[j0] = col_match[j1]
            j0 = j1

    result = [-1] * k
    for j in range(1, k + 1):
        result[col_match[j] - 1] = j - 1
    return result


def solve_ap(mc: MaskedCosts) -> tuple[tuple[int, ...], int] | None:
    """Minimum-cost perfect matching respecting the masks.

    Returns (assignment, value) or None when no perfect matching avoids all
    forbidden edges while extending all forced edges. Rows are inserted in
    ascending index order, which fixes the tie-break among equal-cost optima:
    deterministic, but no particular optimum is promised.
    """
    n = mc.n
    forced_by_row = dict(mc.forced)
    forced_cols = set(forced_by_row.values())
    rows = [i for i in range(n) if i not in forced_by_row]
    cols = [j for j in range(n) if j not in forced_cols]

    assignment = [-1] * n
    for a, b in mc.forced:
        assignment[a] = b
    if rows:
        sub = _hungarian_masked(mc.base, rows, cols, mc.forbidden)
        if sub is None:
            return None
        for idx, j_idx in enumerate(sub):
            assignment[rows[idx]] = cols[j_idx]
    value = sum(mc.base[i][assignment[i]] for i in range(n))
    return tuple(assignment), value
