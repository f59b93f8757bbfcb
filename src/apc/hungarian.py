"""Minimum-cost perfect matching on a masked cost matrix.

This is the conflict-free assignment engine: it ignores conflict pairs and
therefore computes a valid lower bound for the conflicted problem, whose
feasible set is a subset. Masks make it usable as the relaxation solver at
branch-and-bound nodes: forbidden edges are excluded structurally from the
augmenting search (never via inflated costs, so integer arithmetic stays
exact), and forced rows and columns are skipped. Masks name edges by their
int id ``a*n + b``, so the inner loop tests an int, not a tuple. A solve can
start from an ancestor node's potentials, so a child re-matches only the
rows its tighter masks freed.
"""

import math
from dataclasses import dataclass

_INF = math.inf


@dataclass(frozen=True)
class MaskedCosts:
    """A cost matrix plus per-edge masks: one branch-and-bound node.

    Masks hold edge ids ``a*n + b``. ``forced`` edges must appear in the
    solution and are therefore pairwise row- and column-disjoint; no edge may
    be both forced and forbidden. A contradictory mask raises ValueError
    here, the only place masks are validated. ``base`` is kept as given, not
    copied, so it must not change afterwards.
    """

    base: tuple[tuple[int, ...], ...]
    forbidden: frozenset[int] = frozenset()
    forced: frozenset[int] = frozenset()

    def __post_init__(self):
        forbidden, forced = frozenset(self.forbidden), frozenset(self.forced)
        object.__setattr__(self, "forbidden", forbidden)
        object.__setattr__(self, "forced", forced)
        n = len(self.base)
        for mask in (forbidden, forced):
            if mask and not 0 <= min(mask) <= max(mask) < n * n:
                raise ValueError(f"masked edge ids must lie in 0..{n * n - 1}")
        overlap = forced & forbidden
        if overlap:
            raise ValueError(f"edges both forced and forbidden: {sorted(overlap)}")
        rows = {e // n for e in forced}
        cols = {e % n for e in forced}
        if len(rows) != len(forced) or len(cols) != len(forced):
            raise ValueError("forced edges must be row- and column-disjoint")

    @property
    def n(self) -> int:
        return len(self.base)


def _augment(base, forbidden, cols, r, u, v, row_of) -> bool:
    """Match free row `r` by one shortest augmenting path, O(n^2).

    Dijkstra over the reduced costs ``base[i][j] - u[i] - v[j]`` of allowed
    edges (id ``i*n + j`` not in `forbidden`) into the free columns `cols`,
    scanned in ascending order. `u`, `v` and `row_of` (row matched to each
    column, -1 if none) are full-index and updated in place; the last slot of
    `v` and `row_of` is the virtual column that hosts `r` until it is
    matched. False when no augmenting path exists.
    """
    virtual = len(row_of) - 1
    row_of[virtual] = r
    minv = [_INF] * (virtual + 1)  # infinity only as a slack sentinel
    way = [virtual] * (virtual + 1)
    used, unused = [virtual], list(cols)
    j0 = virtual
    while row_of[j0] >= 0:
        i0 = row_of[j0]
        costs, ui, row_id = base[i0], u[i0], i0 * virtual
        delta, j1 = _INF, -1
        for j in unused:
            if row_id + j not in forbidden:
                cur = costs[j] - ui - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
            if minv[j] < delta:
                delta = minv[j]
                j1 = j
        if delta == _INF:
            return False  # some row has run out of columns
        for j in used:
            u[row_of[j]] += delta
            v[j] -= delta
        for j in unused:
            minv[j] -= delta
        unused.remove(j1)
        used.append(j1)
        j0 = j1
    while j0 != virtual:
        j1 = way[j0]
        row_of[j0] = row_of[j1]
        j0 = j1
    return True


def solve_ap(mc: MaskedCosts, start: tuple | None = None) -> tuple | None:
    """Minimum-cost perfect matching respecting the masks.

    Returns ``(assignment, value, (u, v))`` with integer row and column
    potentials, or None when no perfect matching avoids every forbidden edge
    and extends every forced one. A cold solve (`start` None) inserts the
    unforced rows in ascending order from zero potentials. A warm solve
    starts from `start`, an earlier result for masks that `mc` only tightens
    (forbidden and forced are supersets of the earlier sets): no cost
    changes and edges are only removed, so the earlier potentials stay
    feasible. It keeps every earlier edge that is still allowed on an
    unforced row and column and re-inserts only the other unforced rows. The
    value is exact either way, since feasible potentials plus a perfect
    matching on tight edges is optimal; a warm solve may return a different
    optimum among equal-cost ones.
    """
    n = mc.n
    forced = dict(divmod(e, n) for e in mc.forced)
    row_of = [-1] * (n + 1)  # row matched to each column; slot n is virtual
    for a, b in forced.items():
        row_of[b] = a
    cols = [j for j in range(n) if row_of[j] < 0]
    free = [i for i in range(n) if i not in forced]
    if start is None:
        u, v = [0] * n, [0] * (n + 1)
    else:
        kept, _, (u, v) = start
        if not len(kept) == len(u) == len(v) == n:
            raise ValueError(f"start does not fit the {n}x{n} matrix")
        u, v = list(u), [*v, 0]
        for i in free:
            if row_of[kept[i]] < 0 and i * n + kept[i] not in mc.forbidden:
                row_of[kept[i]] = i
        free = [i for i in free if row_of[kept[i]] != i]
    for r in free:
        if not _augment(mc.base, mc.forbidden, cols, r, u, v, row_of):
            return None
    assignment = [0] * n
    for j in range(n):
        assignment[row_of[j]] = j
    value = sum(mc.base[i][assignment[i]] for i in range(n))
    return tuple(assignment), value, (tuple(u), tuple(v[:n]))
