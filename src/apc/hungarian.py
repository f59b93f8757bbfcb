"""Minimum-cost perfect matching on a masked cost matrix.

This is the conflict-free assignment engine: it ignores conflict pairs and
therefore computes a valid lower bound for the conflicted problem, whose
feasible set is a subset. A mask makes it the relaxation solver at
branch-and-bound nodes: the mask is one int bitset over edge ids ``a*n + b``
whose bit e is set exactly when edge e is allowed, so a search node holds
it in at most n*n/8 bytes and a child builds its own with one C-level ``&``.
Every row and column of a perfect matching holds exactly one edge, so
forcing an edge is disallowing the rest of its row and column; the mask
needs no second kind. Only allowed edges enter the augmenting search (the
others are never priced out, so integer arithmetic stays exact). Each free
row is matched by a shortest-path search on distance labels that settles
the potentials once. A solve can start from an ancestor node's potentials,
so a child re-matches only the rows its tighter mask freed.
"""

import functools
import math
import operator

_INF = math.inf


@functools.cache
def line_masks(n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """``(full, lines, bits)``, the bit constants of an n x n matrix.

    `full` has the bit of every edge id ``a*n + b`` set; ``lines[k]`` holds
    the bits of row k when k < n, else of column k - n; ``bits[j]`` is
    ``1 << j``, column j's bit in a row's n-bit slice.
    """
    row, col = (1 << n) - 1, sum(1 << i * n for i in range(n))
    lines = tuple(row << k * n for k in range(n)) + tuple(col << j for j in range(n))
    return (1 << n * n) - 1, lines, tuple(1 << j for j in range(n))


class MaskedCosts(tuple):
    """A cost matrix plus an allowed-edge bitset: what `solve_ap` solves.

    The pair ``(base, allowed)``; unpack it as ``base, allowed = mc``.
    ``allowed`` is a bitset over edge ids ``a*n + b``: bit e is set exactly
    when edge e is allowed; None, the default, allows every edge. A node
    forces edge (a, b) by disallowing every other edge of row a and column b.
    A negative mask, or one that sets a bit at or above n*n, raises
    ValueError naming which. ``base`` is kept as given, not copied, so it
    must not change afterwards. A tuple subclass, because a search builds one
    per child.
    """

    __slots__ = ()

    def __new__(cls, base: tuple[tuple[int, ...], ...], allowed: int | None = None):
        allowed = line_masks(len(base))[0] if allowed is None else operator.index(allowed)
        if allowed < 0 or allowed.bit_length() > len(base) ** 2:
            got = "a negative mask" if allowed < 0 else f"bit {allowed.bit_length() - 1} set"
            raise ValueError(f"allowed bits must lie in 0..{len(base) ** 2 - 1}, got {got}")
        return tuple.__new__(cls, (base, allowed))

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return tuple(self)


def _augment(base, allowed, bits, cols, r, u, v, row_of) -> bool:
    """Match free row `r` by one shortest augmenting path, O(n^2).

    Dijkstra over the reduced costs ``base[i][j] - u[i] - v[j]`` of allowed
    edges (bit ``i*n + j`` of the `allowed` bitset set): each step takes
    its row's n-bit slice of `allowed` once, then makes one ascending pass
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
        costs, offset, row_bits = base[i0], d0 - u[i0], allowed >> i0 * n & line
        d1, j1 = _INF, -1
        for j in unused:
            dj = dist[j]
            cur = costs[j] + offset - v[j]
            if cur < dj and row_bits & bits[j]:
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
    """Minimum-cost perfect matching that uses only allowed edges.

    Returns ``(assignment, value, (u, v))`` with integer row and column
    potentials, feasible on every allowed edge and tight on the chosen ones,
    or None when no perfect matching uses allowed edges alone. A cold solve
    (`start` None) inserts the rows in ascending order from zero potentials.
    A warm solve starts from `start`, an earlier result for a mask that `mc`
    only tightens (its allowed bitset is a subset of the earlier one, so
    ``allowed & earlier == allowed``): the costs are the same and edges are
    only removed, so its potentials stay feasible. It keeps each earlier
    edge that is still allowed and re-inserts the other rows. A kept
    edge that is the only allowed edge of both its row and its column is
    fixed: no other row's search can reach its column, so the column is left
    out of every path search. A `start` of the wrong size, or whose
    assignment is not a permutation, raises ValueError. Feasible potentials
    plus a perfect matching on tight edges is optimal, so the value is exact
    either way; a warm solve may return another optimum of equal cost.
    """
    base, allowed = mc
    n = len(base)
    row_of = [-1] * (n + 1)  # row matched to each column; slot n is virtual
    _, lines, bits = line_masks(n)
    if start is None:
        u, v, free, fixed = [0] * n, [0] * n, range(n), ()
    else:
        kept, _, (u, v) = start
        if not len(kept) == len(u) == len(v) == n or set(kept) != set(range(n)):
            raise ValueError(f"start is no result for the {n}x{n} matrix")
        u, v, free, fixed = list(u), list(v), [], set()
        for i, j in enumerate(kept):
            row_bits = allowed >> i * n & lines[0]  # row i, as row 0
            if not row_bits & bits[j]:
                free.append(i)
                continue
            row_of[j] = i
            # the column half makes fixing sound, the row half is a cheap filter
            if row_bits == bits[j] and allowed >> j & lines[n] == 1 << i * n:
                fixed.add(j)
    cols = [j for j in range(n) if j not in fixed]
    for r in free:
        if not _augment(base, allowed, bits, cols, r, u, v, row_of):
            return None
    assignment, value = [0] * n, 0
    for j in range(n):
        assignment[row_of[j]] = j
        value += base[row_of[j]][j]
    return tuple(assignment), value, (tuple(u), tuple(v))
