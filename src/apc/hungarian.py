"""Minimum-cost perfect matching on a masked cost matrix.

This is the conflict-free assignment engine: it ignores conflict pairs and
therefore computes a valid lower bound for the conflicted problem, whose
feasible set is a subset. Masks make it the relaxation solver at
branch-and-bound nodes: forbidden edges are left out of the augmenting search
(never priced out, so integer arithmetic stays exact), and forced rows and
columns are skipped. Masks name edges by their int id ``a*n + b``. Each free
row is matched by a shortest-path search on distance labels that settles the
potentials once. A solve can start from an ancestor node's potentials, so a
child re-matches only the rows its tighter masks freed.
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
    edges (id ``i*n + j`` not in `forbidden`): each step is one ascending
    pass over the unscanned columns of `cols` that relaxes their distance
    labels d and picks the nearest. On reaching a free column at distance D,
    each scanned column j and its row are settled once by D - d[j]. `u`, `v`
    and `row_of` (row of each column, -1 if none; its last slot is the
    virtual column that hosts `r`) are updated in place. False when no
    augmenting path exists, with `u` and `v` untouched.
    """
    n = len(v)
    row_of[n] = r
    dist, way = [_INF] * n, [n] * n  # infinity only as an unreached sentinel
    unused, scanned = list(cols), []
    j0, d0 = n, 0
    while row_of[j0] >= 0:
        i0 = row_of[j0]
        costs, offset, row_id = base[i0], d0 - u[i0], i0 * n
        d1, j1 = _INF, -1
        for j in unused:
            dj = dist[j]
            if row_id + j not in forbidden:
                cur = costs[j] + offset - v[j]
                if cur < dj:
                    dist[j] = dj = cur
                    way[j] = j0
            if dj < d1:
                d1, j1 = dj, j
        if d1 == _INF:
            return False  # some row has run out of columns
        unused.remove(j1)
        scanned.append(j1)
        j0, d0 = j1, d1
    u[r] += d0  # r hosts the virtual column, at distance 0
    for j in scanned[:-1]:  # the last is the free column, at distance d0
        u[row_of[j]] += d0 - dist[j]
        v[j] -= d0 - dist[j]
    while j0 != n:
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
    (supersets of its forbidden and forced sets): the costs are the same and
    edges are only removed, so its potentials stay feasible. It keeps each
    earlier edge still allowed on an unforced row and column and re-inserts
    the other unforced rows. Feasible potentials plus a perfect matching on
    tight edges is optimal, so the value is exact either way; a warm solve
    may return another optimum of equal cost.
    """
    n, base = mc.n, mc.base
    row_of = [-1] * (n + 1)  # row matched to each column; slot n is virtual
    open_row = [True] * n
    for e in mc.forced:
        row_of[e % n] = e // n
        open_row[e // n] = False
    cols = [j for j in range(n) if row_of[j] < 0]
    if start is None:
        u, v, free = [0] * n, [0] * n, [i for i in range(n) if open_row[i]]
    else:
        kept, _, (u, v) = start
        if not len(kept) == len(u) == len(v) == n:
            raise ValueError(f"start does not fit the {n}x{n} matrix")
        u, v, free = list(u), list(v), []
        for i, j in enumerate(kept):
            if open_row[i] and row_of[j] < 0 and i * n + j not in mc.forbidden:
                row_of[j] = i
            elif open_row[i]:
                free.append(i)
    for r in free:
        if not _augment(base, mc.forbidden, cols, r, u, v, row_of):
            return None
    assignment, value = [0] * n, 0
    for j in range(n):
        assignment[row_of[j]] = j
        value += base[row_of[j]][j]
    return tuple(assignment), value, (tuple(u), tuple(v))
