"""Proven-optimal solving by branch-and-bound on the conflict-free relaxation.

A node is its edge masks, one `MaskedCosts`; the assignment problem under
them is the node's lower bound. Best-first node selection means the first
conflict-feasible relaxation popped is globally optimal. The search branches
fail-first on the selected edge that sits in the most violated conflict
pairs: one child forbids that edge, the other commits to it, which forbids
every edge it conflicts with. The children are disjoint, and together they
keep every conflict-feasible solution of the node. When the avoid child
leaves the edge's row or column with fewer than two allowed edges, its masks
are propagated by a worklist of lines: every row or column left with one
allowed edge is forced to it, and that edge's conflict partners are
forbidden, as in a commit, until none is left. An avoid child with a line
that has no allowed edge is dropped before any AP work. A child only
tightens its parent's masks, so its assignment problem is re-optimized from
the parent's potentials instead of solved from scratch. The search starts
from the incumbent of a two-restart `run_heuristic`, bounded only by the
solve's time limit, so a node or time limit that stops it early can still
report a solution.
Inside the search an edge (a, b) is the int id ``a*n + b``.
"""

import heapq
import itertools
import time

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


def branch(
    masks: MaskedCosts, edge: int, partners: tuple[tuple[int, ...], ...]
) -> tuple[MaskedCosts | None, MaskedCosts]:
    """Split a node's masks on `edge` into two disjoint children: (avoid, commit).

    `partners` is the instance's whole conflict index (`Instance.partners`).
    The commit child forces `edge` and forbids its conflict partners. The
    avoid child forbids `edge` and is closed under the lone-edge rule: a free
    line (a row or column that no forced edge holds) whose only allowed edge
    is e must take e in every perfect matching, so e is forced and its
    partners forbidden, as in a commit. An edge is allowed when it is not
    forbidden and lies on a free row and a free column. A worklist of lines
    starts with the edge's row and column, and only when forbidding `edge`
    may leave one of them under two allowed edges; the first lone edge
    queues every free line, so the closure covers the whole node. The avoid
    child is None when a line ends up with no allowed edge, so it holds no
    conflict-feasible solution and needs no AP solve. Every
    conflict-feasible solution within the node's masks lies in exactly one
    child. A split that contradicts the node's masks raises ValueError from
    MaskedCosts; the solver never asks for one, because it branches on a
    violated edge of the node's own relaxation, which no mask excludes.
    """
    base, forbidden, forced = masks.base, masks.forbidden, masks.forced
    n = len(base)
    commit = MaskedCosts(base, forbidden.union(partners[edge]), forced | {edge})
    avoid = forbidden | {edge}
    # Line k is row k when k < n, else column k - n. A free line has
    # n - len(forced) cells off the forced lines; less all its forbidden
    # cells, that bounds its allowed edges from below, so a line whose bound
    # is two or more needs no count.
    a, b = divmod(edge, n)
    free = n - len(forced)
    todo = set()
    if free - len(avoid.intersection(range(a * n, a * n + n))) < 2:
        todo.add(a)
    if free - len(avoid.intersection(range(b, n * n, n))) < 2:
        todo.add(n + b)
    if not todo:
        return MaskedCosts(base, avoid, forced), commit
    avoid, forced = set(avoid), set(forced)
    taken = {f // n for f in forced} | {n + f % n for f in forced}

    def allowed(edges):
        return [
            f
            for f in edges
            if f not in avoid and f // n not in taken and n + f % n not in taken
        ]

    while todo:
        k = todo.pop()
        if k in taken:
            continue
        left = allowed(range(k * n, k * n + n) if k < n else range(k - n, n * n, n))
        if len(left) > 1:
            continue
        if not left:
            return None, commit
        e = left[0]
        i, j = divmod(e, n)
        if len(forced) == len(masks.forced):  # the first lone edge
            todo.update(range(2 * n))
        # e's row and column stop being free and its partners are forbidden:
        # requeue every line that loses an allowed edge
        row, col = range(i * n, i * n + n), range(j, n * n, n)
        gone = allowed(itertools.chain(row, col, partners[e]))
        todo.update(f // n for f in gone)
        todo.update(n + f % n for f in gone)
        forced.add(e)
        taken.update((i, n + j))
        avoid.update(partners[e])
    return MaskedCosts(base, avoid, forced), commit


def solve_exact(
    inst: Instance,
    *,
    time_limit: float = 3600.0,
    node_limit: int | None = None,
) -> Solution:
    """Prove the optimal value (or infeasibility) by branch-and-bound.

    Node selection is best-first on the relaxation bound, tie-broken by depth
    (deeper first) then insertion order, so runs are deterministic whenever no
    limit triggers. When the instance has conflicts, the root incumbent comes
    from `run_heuristic` with two restarts, rng seed 0 and the solve's own
    time limit; the only other incumbent is the first conflict-free
    relaxation popped, which ends the search. The status is set once, after
    the search: Optimal / Infeasible when the search completes or a limit
    stops it with no open bound below the incumbent, TimeLimit / Feasible
    (node limit) with the best incumbent and the best open bound otherwise,
    NoSolution (with the best open bound) when a limit stops the search
    before any incumbent is found.
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
    if inst.conflicts:
        seed_start = time.perf_counter() - start
        seeded = run_heuristic(inst, LSConfig(time_limit=time_limit, restarts=2))
        if seeded.value is not None:
            inc_assignment, inc_value = seeded.assignment, seeded.value
            sec_best = seed_start + seeded.sec_best  # when the seed found it

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
