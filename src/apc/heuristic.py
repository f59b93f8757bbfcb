"""Fast feasible solutions: conflict-aware greedy construction with repair,
then steepest-descent improvement over the pairwise column-swap neighborhood.

The stages pass bare assignments (the column of each row); only
`run_heuristic` builds a `Solution`. Every assignment that leaves this module
passes the feasibility checker.
"""

import math
import random
import time
from collections import deque
from dataclasses import dataclass
from operator import add, getitem, index, itemgetter, sub

from .instance import Instance
from .model import check_feasible, evaluate
from .solution import Solution, SolveStatus

# the cached delta of a pair that is not a candidate swap
_MASKED = float("inf")


@dataclass(frozen=True)
class LSConfig:
    """Knobs for the restart driver: one time budget shared by every restart
    and its descent, the restart count, and the seed the restarts draw from."""

    time_limit: float = 3600.0
    restarts: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if index(self.restarts) < 1 or not self.time_limit > 0:
            raise ValueError(f"all limits must be positive, got {self}")


def construct_greedy(inst: Instance, rng_seed: int) -> tuple[int, ...] | None:
    """Build a conflict-feasible assignment greedily, evicting on dead ends.

    Left nodes are processed in random order; each takes the cheapest free
    column that activates no conflict, walking ``inst.column_order``. A stuck
    node repairs by claiming a column after evicting whoever blocks it (the
    seat's occupant and any assigned conflict partners); evicted nodes
    re-enter the queue in row order. Repairs that touch no conflict are
    preferred over conflict-adjacent ones so that two nodes cannot steal the
    same cheap seat from each other forever; within each kind the cheapest
    column is tried first. Each node may be evicted at most once; when a
    repair would need a second eviction, construction fails and returns None
    so the caller can restart with a different seed. Otherwise the result is
    the assignment tuple: the column of each row.
    """
    n = inst.n
    partners = inst.partners  # compiled before the order: a lower peak RSS
    cheapest = inst.column_order
    order = list(range(n))
    random.Random(rng_seed).shuffle(order)

    col_of: list[int | None] = [None] * n
    row_of: list[int | None] = [None] * n
    selected: set[int] = set()  # ids i*n + j of the seated edges
    evicted: set[int] = set()  # rows that may not be evicted again
    queue = deque(order)

    def seat(i: int, j: int) -> None:
        col_of[i], row_of[j] = j, i
        selected.add(i * n + j)

    while queue:
        i = queue.popleft()
        base = i * n
        cols = cheapest[i]
        for j in cols:
            if row_of[j] is None and selected.isdisjoint(partners[base + j]):
                seat(i, j)
                break
        else:
            # every free column conflicts, so every candidate has a blocker;
            # the stable sort puts the conflict-free (occupied) columns
            # first and keeps cost order within each kind
            ranked = sorted(cols, key=lambda j: not selected.isdisjoint(partners[base + j]))
            for j in ranked:
                blockers = {p // n for p in selected.intersection(partners[base + j])}
                if row_of[j] is not None:
                    blockers.add(row_of[j])
                if evicted.isdisjoint(blockers):
                    for b in sorted(blockers):
                        evicted.add(b)
                        freed = col_of[b]
                        col_of[b] = row_of[freed] = None
                        selected.remove(b * n + freed)
                        queue.append(b)
                    seat(i, j)
                    break
            else:
                return None

    return tuple(col_of)


def _swap_clear(i: int, k: int, perm: list[int], selected: set[int], partners) -> bool:
    # Swapping the columns of rows i and k replaces edges (i, perm[i]) and
    # (k, perm[k]) of `selected` by (i, perm[k]) and (k, perm[i]); the move
    # is admissible iff neither new edge conflicts with the other or with an
    # edge that stays selected.
    n = len(perm)
    new_i, new_k = i * n + perm[k], k * n + perm[i]
    leaving = {i * n + perm[i], k * n + perm[k]}
    return (
        new_k not in partners[new_i]
        and selected.intersection(partners[new_i]) <= leaving
        and selected.intersection(partners[new_k]) <= leaving
    )


def local_search(
    inst: Instance, assignment, deadline: float = math.inf
) -> tuple[tuple[int, ...], int]:
    """Steepest descent over column swaps between row pairs from a feasible
    `assignment`; returns the ``(assignment, value)`` it stops at.

    Each pass applies the single best strictly-improving admissible swap, the
    first pair (i, k) in row order among equal deltas. The loop stops at a
    local optimum, or before a pass once ``time.perf_counter()`` has passed
    `deadline`; a deadline already past when the start has been checked
    returns the start before any delta is built. The result is never worse
    than the start and stays conflict-feasible.

    The deltas are cached. ``delta[p][q]`` is the cost change of swapping
    the columns of rows p and q, built once per call with C-level maps;
    ``low[p]`` is the minimum of row p. The diagonal and every pair that
    `_swap_clear` rejected hold ``_MASKED``. A swap changes only the deltas of
    the pairs that touch its two rows, so a pass costs O(n) interpreted work
    plus C-level row minima, and a visit to the conflict partners of the two
    edges that leave the selection. A rejected pair stays masked until one of
    its rows moves or one of those leaving edges conflicts with an edge the
    pair would seat, since that edge may have been its only blocker.
    """
    report = check_feasible(inst, assignment)
    if not report.feasible:
        raise ValueError(f"local search needs a feasible start, got violations {report}")
    value = evaluate(inst, assignment)
    if time.perf_counter() > deadline:
        return tuple(assignment), value  # before the O(n^2) delta matrix
    n = inst.n
    costs = inst.costs
    partners = inst.partners
    perm = list(assignment)
    row_of = [0] * n
    for i, j in enumerate(perm):
        row_of[j] = i
    selected = {i * n + j for i, j in enumerate(perm)}
    cur = list(map(getitem, costs, perm))  # each row's own cost

    # delta[p][q] = h[p][q] + h[q][p] with h[p][q] = costs[p][perm[q]] - cur[q];
    # an itemgetter of one index returns the item, not a 1-tuple
    pick = itemgetter(*perm) if n > 1 else lambda row: row
    h = [list(map(sub, pick(row), cur)) for row in costs]
    delta = [list(map(add, row, col)) for row, col in zip(h, zip(*h))]
    for p, row in enumerate(delta):
        row[p] = _MASKED

    def delta_row(p: int) -> list:
        # h[p][q] + h[q][p] for every q, under the current perm
        row = list(
            map(
                add,
                map(sub, map(costs[p].__getitem__, perm), cur),
                map((-cur[p]).__add__, map(itemgetter(perm[p]), costs)),
            )
        )
        row[p] = _MASKED
        return row

    low = list(map(min, delta))
    while time.perf_counter() <= deadline:
        best = min(low)
        if best >= 0:
            break
        i = low.index(best)
        row = delta[i]
        k = row.index(best)  # > i, since no earlier row holds `best`
        if not _swap_clear(i, k, perm, selected, partners):
            row[k] = delta[k][i] = _MASKED
            low[i], low[k] = min(row), min(delta[k])
            continue
        ci, ck = perm[i], perm[k]
        leaving = (i * n + ci, k * n + ck)
        selected.difference_update(leaving)
        perm[i], perm[k], row_of[ci], row_of[ck] = ck, ci, k, i
        selected.update((i * n + ck, k * n + ci))
        cur[i], cur[k] = costs[i][ck], costs[k][ci]
        value += best

        di = delta[i] = delta_row(i)
        dk = delta[k] = delta_row(k)
        for p, row, a, b in zip(range(n), delta, di, dk):
            lo = low[p]
            left = row[i] == lo < a or row[k] == lo < b  # the minimum may leave
            row[i], row[k] = a, b
            if left:
                low[p] = min(row)
            elif a < lo or b < lo:
                low[p] = a if a < b else b
        low[i], low[k] = min(di), min(dk)
        # unmask each pair whose swap would seat a partner of a leaving edge
        for e in leaving:
            for f in partners[e]:
                p, c = divmod(f, n)
                q = row_of[c]
                if delta[p][q] is _MASKED and p != q:
                    d = costs[p][perm[q]] + costs[q][perm[p]] - cur[p] - cur[q]
                    delta[p][q] = delta[q][p] = d
                    if d < low[p]:
                        low[p] = d
                    if d < low[q]:
                        low[q] = d

    return tuple(perm), value


def run_heuristic(inst: Instance, cfg: LSConfig) -> Solution:
    """Best of `cfg.restarts` greedy+descent runs under one time budget.

    Restart seeds are drawn sequentially from cfg.rng_seed, so the best value
    over k restarts is non-increasing in k for a fixed seed. No restart starts
    after the deadline, start + `cfg.time_limit`, and each descent stops there.
    ``sec_best`` is when the best descent returned. When no restart produces a
    feasible assignment the result has status NoSolution and no assignment;
    that is not a proof of infeasibility.
    """
    start = time.perf_counter()
    deadline = start + cfg.time_limit
    master = random.Random(cfg.rng_seed)
    best_perm, best_value, best_at = None, None, 0.0
    for _ in range(cfg.restarts):
        seed = master.getrandbits(63)
        if time.perf_counter() >= deadline:
            break
        built = construct_greedy(inst, seed)
        if built is None:
            continue
        perm, value = local_search(inst, built, deadline)
        if best_value is None or value < best_value:
            best_perm, best_value = perm, value
            best_at = time.perf_counter() - start
    total = time.perf_counter() - start
    if best_value is None:
        return Solution(None, None, SolveStatus.NO_SOLUTION, sec_total=total)
    return Solution(
        best_perm, best_value, SolveStatus.FEASIBLE, sec_best=best_at, sec_total=total
    )


def gap_percent(val: int, opt: int) -> float:
    """Relative excess of a heuristic value over the optimum, in percent:
    100 * (val - opt) / opt."""
    if opt <= 0:
        raise ValueError(f"reference optimum must be positive, got {opt}")
    return 100.0 * (val - opt) / opt
