"""Minimum-cost perfect matching on a masked cost matrix.

This is the conflict-free assignment engine: it ignores conflict pairs and
therefore computes a valid lower bound for the conflicted problem, whose
feasible set is a subset. Masks make it the relaxation solver at
branch-and-bound nodes: forbidden edges are left out of the augmenting search
(never priced out, so integer arithmetic stays exact), and forced rows and
columns are skipped. Masks name edges by their int id ``a*n + b``: the
forbidden mask is one int bitset whose bit e is set exactly when edge e is
forbidden, so a search node holds it in at most n*n/8 bytes and a child
builds its own with one C-level ``|``; the forced mask is a set of at most n
ids. Each free row is matched by a shortest-path search on distance labels
that settles the potentials once. A solve can start from an ancestor node's
potentials, so a child re-matches only the rows its tighter masks freed.
"""

import math
import operator
from dataclasses import dataclass

_INF = math.inf


@dataclass(frozen=True)
class MaskedCosts:
    """A cost matrix plus per-edge masks: one branch-and-bound node.

    ``forbidden`` is a bitset over edge ids ``a*n + b``: bit e is set exactly
    when edge e is forbidden. ``forced`` holds the ids of the edges that must
    appear in the solution, which are therefore pairwise row- and
    column-disjoint; no edge may be both forced and forbidden. A mask that is
    negative, sets a bit at or above n*n, names an id outside 0..n*n-1 or
    contradicts itself raises ValueError here, the only place masks are
    validated; each check costs O(n) or O(n*n/8) bytes, never a walk over
    the forbidden edges. ``base`` is kept as given, not copied, so it must
    not change afterwards.
    """

    base: tuple[tuple[int, ...], ...]
    forbidden: int = 0
    forced: frozenset[int] = frozenset()

    def __post_init__(self):
        forbidden, forced = operator.index(self.forbidden), frozenset(self.forced)
        object.__setattr__(self, "forbidden", forbidden)
        object.__setattr__(self, "forced", forced)
        n = len(self.base)
        nn = n * n
        if forbidden < 0 or forbidden.bit_length() > nn:
            raise ValueError(f"forbidden bits must lie in 0..{nn - 1}")
        if forced and not 0 <= min(forced) <= max(forced) < nn:
            raise ValueError(f"forced edge ids must lie in 0..{nn - 1}")
        rows = {e // n for e in forced}
        cols = {e % n for e in forced}
        if len(rows) != len(forced) or len(cols) != len(forced):
            raise ValueError("forced edges must be row- and column-disjoint")
        # one copy of the bitset as bytes makes each forced bit an O(1) read
        bits = forbidden.to_bytes((nn + 7) // 8, "little")
        overlap = sorted(e for e in forced if bits[e >> 3] >> (e & 7) & 1)
        if overlap:
            raise ValueError(f"edges both forced and forbidden: {overlap}")

    @property
    def n(self) -> int:
        return len(self.base)


def _augment(base, forbidden, bits, cols, r, u, v, row_of) -> bool:
    """Match free row `r` by one shortest augmenting path, O(n^2).

    Dijkstra over the reduced costs ``base[i][j] - u[i] - v[j]`` of allowed
    edges (bit ``i*n + j`` of the `forbidden` bitset clear): each step takes
    its row's n-bit slice of `forbidden` once, then makes one ascending pass
    over the unscanned columns of `cols` that relaxes their distance labels d
    and picks the nearest. A column's bit in the slice (``bits[j]`` is
    ``1 << j``) is tested only when its label would drop. On reaching a free
    column at distance D, each scanned column j and its row are settled once
    by D - d[j]. `u`, `v` and `row_of` (row of each column,
    -1 if none; its last slot is the virtual column that hosts `r`) are
    updated in place. False when no augmenting path exists, with `u` and `v`
    untouched.
    """
    n = len(v)
    row_of[n] = r
    dist, way = [_INF] * n, [n] * n  # infinity only as an unreached sentinel
    unused, scanned = list(cols), []
    j0, d0 = n, 0
    line = (1 << n) - 1
    while row_of[j0] >= 0:
        i0 = row_of[j0]
        costs, offset, row_bits = base[i0], d0 - u[i0], forbidden >> i0 * n & line
        d1, j1 = _INF, -1
        for j in unused:
            dj = dist[j]
            cur = costs[j] + offset - v[j]
            if cur < dj and not row_bits & bits[j]:
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
    (`mc.forbidden` keeps every bit of the earlier forbidden bitset, so
    ``mc.forbidden & earlier == earlier``, and `mc.forced` contains the
    earlier forced set): the costs are the same and
    edges are only removed, so its potentials stay feasible. It keeps each
    earlier edge still allowed on an unforced row and column and re-inserts
    the other unforced rows. Feasible potentials plus a perfect matching on
    tight edges is optimal, so the value is exact either way; a warm solve
    may return another optimum of equal cost.
    """
    n, base, forbidden = mc.n, mc.base, mc.forbidden
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
            if open_row[i] and row_of[j] < 0 and not forbidden >> i * n + j & 1:
                row_of[j] = i
            elif open_row[i]:
                free.append(i)
    bits = [1 << j for j in range(n)]
    for r in free:
        if not _augment(base, forbidden, bits, cols, r, u, v, row_of):
            return None
    assignment, value = [0] * n, 0
    for j in range(n):
        assignment[row_of[j]] = j
        value += base[row_of[j]][j]
    return tuple(assignment), value, (tuple(u), tuple(v))
