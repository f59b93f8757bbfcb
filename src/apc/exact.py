"""Proven-optimal solving by branch-and-bound on the conflict-free relaxation.

A node is its edge masks, one `MaskedCosts`; the assignment problem under
them is the node's lower bound. Best-first node selection means the first
conflict-feasible relaxation popped is globally optimal. The search branches
fail-first on the selected edge that sits in the most violated conflict
pairs: one child forbids that edge, the other commits to it, which forbids
every edge it conflicts with. The children are disjoint, and together they
keep every conflict-feasible solution of the node. When the avoid child
leaves the edge's row or column with fewer than two allowed edges, its masks
are propagated: every row or column left with one allowed edge is forced to
it, and that edge's conflict partners are forbidden, until none is left. An
avoid child with a line that has no allowed edge is dropped before any AP
work. A child only tightens its parent's masks, so its assignment problem is
re-optimized from the parent's potentials instead of solved from scratch.
Inside the search an edge (a, b) is the int id ``a*n + b``.
"""

import heapq
import itertools
import time
from collections import Counter

from .heuristic import LSConfig, run_heuristic
from .hungarian import MaskedCosts, solve_ap
from .instance import Instance
from .model import _require_permutation
from .solution import Solution, SolveStatus


def find_violated_conflict(assignment, inst: Instance) -> int | None:
    """The id of the edge worth branching on, or None if no pair is violated.

    Among the edges the assignment selects, picks the one in the most
    violated conflict pairs, breaking ties by higher cost, then by smaller
    id. Returns None exactly when the feasibility checker reports no violated
    conflicts. Only the conflict partners of the n selected edges are read.
    """
    _require_permutation(inst.n, assignment)
    n, costs, partners = inst.n, inst.costs, inst.partners
    selected = {a * n + b for a, b in enumerate(assignment)}
    best = None  # (-violated pairs, -cost, id): the minimum is the edge
    for a, b in enumerate(assignment):
        e = a * n + b
        count = len(selected.intersection(partners[e]))
        if count:
            key = (-count, -costs[a][b], e)
            if best is None or key < best:
                best = key
    return None if best is None else best[2]


def _fewest_allowed(forbidden, forced, n: int, edge: int) -> int:
    # The allowed edges left on the free row and column of `edge`: the fewer
    # count, or 2 when both keep two or more. A free line has n - len(forced)
    # cells off the forced lines; less all its forbidden cells, that bounds
    # its count from below, and adding back the forbidden cells on forced
    # lines makes it exact.
    a, b = divmod(edge, n)
    free = n - len(forced)
    row = free - len(forbidden.intersection(range(a * n, a * n + n)))
    col = free - len(forbidden.intersection(range(b, n * n, n)))
    if row >= 2 and col >= 2:
        return 2
    row += len(forbidden.intersection([a * n + f % n for f in forced]))
    col += len(forbidden.intersection([f - f % n + b for f in forced]))
    return min(2, row, col)


def _line(n: int, k: int) -> range:
    # the edge ids of line k: row k when k < n, else column k - n
    return range(k * n, k * n + n) if k < n else range(k - n, n * n, n)


def _force_lone_edges(n: int, forbidden: set, forced: set, partners) -> bool:
    """Close masks under the lone-edge rule, in place; False if a line empties.

    A free line (a row or column that no forced edge holds) whose only
    allowed edge is e must take e in every perfect matching: force e and
    forbid its allowed conflict partners, which may leave other lines with
    one edge or none. An edge is allowed when it is not forbidden and lies
    on a free row and a free column. Repeats until no free line has exactly
    one allowed edge, and returns False as soon as one has none, since then
    no conflict-feasible solution obeys the masks.
    """
    allowed = set(range(n * n)).difference(forbidden)
    # allowed edges per free line (line k < n is row k, line n + j column j);
    # -1 on a forced line
    left = [0] * (2 * n)
    for e in forced:
        i, j = divmod(e, n)
        allowed.difference_update(_line(n, i), _line(n, n + j))
        left[i] = left[n + j] = -1
    for i, c in Counter(map(n.__rfloordiv__, allowed)).items():
        left[i] = c
    for j, c in Counter(map(n.__rmod__, allowed)).items():
        left[n + j] = c
    todo = [k for k, c in enumerate(left) if 0 <= c < 2]
    while todo:
        k = todo.pop()
        if left[k] < 0:  # forced since it was queued
            continue
        if left[k] == 0:
            return False
        e = next(filter(allowed.__contains__, _line(n, k)))
        i, j = divmod(e, n)
        forced.add(e)
        left[i] = left[n + j] = -1
        gone = allowed.intersection(partners[e])
        forbidden.update(gone)
        gone.update(
            allowed.intersection(_line(n, i)), allowed.intersection(_line(n, n + j))
        )
        allowed.difference_update(gone)
        # each edge leaving the allowed set leaves its free lines too
        for f in gone:
            for k in (f // n, n + f % n):
                c = left[k]
                if c > 0:
                    left[k] = c - 1
                    if c <= 2:
                        todo.append(k)
    return True


def branch(
    masks: MaskedCosts, edge: int, partners: tuple[tuple[int, ...], ...]
) -> tuple[MaskedCosts | None, MaskedCosts]:
    """Split a node's masks on `edge` into two disjoint children: (avoid, commit).

    `partners` is the instance's whole conflict index (`Instance.partners`).
    The commit child forces `edge` and forbids its conflict partners. The
    avoid child forbids `edge`; when that leaves the edge's row or column with
    fewer than two allowed edges, the avoid child's masks are closed under
    the lone-edge rule (`_force_lone_edges`): every free line with one
    allowed edge is forced to it and that edge's partners are forbidden,
    until none is left. The avoid child is None when a line ends up with no
    allowed edge, so it holds no conflict-feasible solution and needs no AP
    solve. Every conflict-feasible solution within the node's masks lies in
    exactly one child. A split that contradicts the node's masks raises
    ValueError from MaskedCosts; the solver never asks for one, because it
    branches on a violated edge of the node's own relaxation, which no mask
    excludes.
    """
    base, forbidden, forced = masks.base, masks.forbidden, masks.forced
    n = len(base)
    commit = MaskedCosts(base, forbidden.union(partners[edge]), forced | {edge})
    avoid = forbidden | {edge}
    # after the commit child's checks, `edge` is forced or on two free lines
    lone = 2 if edge in forced else _fewest_allowed(avoid, forced, n, edge)
    if lone == 0:
        return None, commit
    if lone == 1:
        avoid, forced = set(avoid), set(forced)
        if not _force_lone_edges(n, avoid, forced, partners):
            return None, commit
    return MaskedCosts(base, avoid, forced), commit


def solve_exact(
    inst: Instance,
    *,
    time_limit: float = 3600.0,
    node_limit: int | None = None,
    seed_incumbent: bool = True,
    heuristic_seed: int = 0,
) -> Solution:
    """Prove the optimal value (or infeasibility) by branch-and-bound.

    Node selection is best-first on the relaxation bound, tie-broken by depth
    (deeper first) then insertion order, so runs are deterministic whenever no
    limit triggers. With `seed_incumbent` the root incumbent comes from a
    short greedy+descent run; the only other incumbent is the first
    conflict-free relaxation popped, which ends the search. The status is set
    once, after the search: Optimal / Infeasible when the search completes or
    a limit stops it with no open bound below the incumbent, TimeLimit /
    Feasible (node limit) with the best incumbent and the best open bound
    otherwise, NoSolution (with the best open bound) when a limit stops the
    search before any incumbent is found.
    """
    if not time_limit > 0:  # also rejects NaN
        raise ValueError(f"time_limit must be positive, got {time_limit}")
    if node_limit is not None and node_limit < 0:
        raise ValueError(f"node_limit must be >= 0, got {node_limit}")
    start = time.perf_counter()
    deadline = start + time_limit

    inc_assignment: tuple[int, ...] | None = None
    inc_value: int | None = None
    sec_best = 0.0
    if seed_incumbent and inst.conflicts:
        budget = min(1.0, 0.05 * time_limit)
        seeded = run_heuristic(
            inst, LSConfig(time_limit=budget, restarts=2, rng_seed=heuristic_seed)
        )
        if seeded.value is not None:
            inc_assignment, inc_value = seeded.assignment, seeded.value
            sec_best = time.perf_counter() - start

    partners = inst.partners
    nodes = 0
    tiebreak = itertools.count()
    # (bound, -depth, tiebreak, masks, AP result): a child re-optimizes
    # from its parent's result instead of solving from scratch.
    heap: list[tuple] = []
    root = MaskedCosts(inst.costs)
    root_res = solve_ap(root)
    if root_res is not None:
        heapq.heappush(heap, (root_res[1], 0, next(tiebreak), root, root_res))

    limit = None  # the status of the limit that stopped the search, if one did
    while heap:
        if node_limit is not None and nodes >= node_limit:
            limit = SolveStatus.FEASIBLE
            break
        if time.perf_counter() > deadline:
            limit = SolveStatus.TIME_LIMIT
            break
        bound, neg_depth, _, masks, res = heapq.heappop(heap)
        nodes += 1
        if inc_value is not None and bound >= inc_value:
            # Best-first: every open node is at least this bound, so the
            # incumbent is proven optimal.
            break
        edge = find_violated_conflict(res[0], inst)
        if edge is None:
            # the best open relaxation is conflict-free, so it is optimal
            inc_assignment, inc_value = res[0], bound
            sec_best = time.perf_counter() - start
            break
        # Disjoint dichotomy on the edge in the most violated pairs: drop it
        # entirely, or commit to it (which excludes every edge it conflicts
        # with). Committing prunes far harder than a second forbid on dense
        # conflict sets.
        for child in branch(masks, edge, partners):
            if child is None:
                continue
            child_res = solve_ap(child, res)
            if child_res is None:
                continue
            child_value = child_res[1]
            assert child_value >= bound
            if inc_value is not None and child_value >= inc_value:
                continue
            heapq.heappush(
                heap, (child_value, neg_depth - 1, next(tiebreak), child, child_res)
            )

    # A search that was not stopped by a limit has proven its incumbent
    # optimal, or the instance infeasible; so has a stopped one whose open
    # bounds all reach the incumbent.
    if limit is not None and (inc_value is None or heap[0][0] < inc_value):
        status = limit if inc_value is not None else SolveStatus.NO_SOLUTION
        lower_bound = heap[0][0]
    else:
        status = SolveStatus.INFEASIBLE if inc_value is None else SolveStatus.OPTIMAL
        lower_bound = inc_value
    sec_total = time.perf_counter() - start
    return Solution(
        assignment=inc_assignment,
        value=inc_value,
        status=status,
        sec_best=min(sec_best, sec_total),
        sec_total=sec_total,
        nodes=nodes,
        lower_bound=lower_bound,
    )
