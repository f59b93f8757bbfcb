"""Proven-optimal solving by branch-and-bound on the conflict-free relaxation.

A node is one int, its allowed-edge bitset: bit e is set exactly when edge
e is allowed. The assignment problem on its allowed edges is the node's
lower bound, and the bitset meets the cost matrix only as the argument of
`solve_ap`. Every row and column of an assignment holds exactly one edge,
so a node forces an edge by disallowing the rest of its row and column, and
needs no second bitset.
Best-first node selection means the first conflict-feasible relaxation
popped is globally optimal. The search branches fail-first on the selected
edge that sits in the most violated conflict pairs: one child forbids that
edge, the other commits to it, which forbids the rest of its row and column
and every edge it conflicts with. The children are disjoint, and together
they keep every conflict-feasible solution of the node. Every node is
closed under one line rule, since a perfect matching takes one edge of each
row and column: a row or column left with at most two allowed edges forbids
every edge that no matching can hold beside any of them, so a lone edge is
committed to. `solve_exact` closes the root and `branch` the commit child
from every line; the avoid child starts from the forbidden edge's row and
column, the only lines its split touches. A node with a line that has no
allowed edge is dropped before any AP work. A child only tightens its
parent: its allowed bitset is a subset of the parent's
(``child & parent == child``), so its assignment problem is re-optimized
from the parent's potentials instead of solved from scratch.
Conflicts are read as bitsets too: ``Instance.partner_masks[e]`` has bit f
set for every partner f of edge e, so a commit clears all of them with one
``& ~`` and the violation scan counts an edge's violated pairs with one ``&``
and a popcount. The search starts from the incumbent of a two-restart
`run_heuristic`, bounded only by the solve's time limit, so a node or time
limit that stops it early can still report a solution.
Inside the search an edge (a, b) is the int id ``a*n + b``, and a line, a
row or a column, is its bitset from `line_masks`.
"""

import heapq
import itertools
import operator
import time

from .heuristic import LSConfig, run_heuristic
from .hungarian import MaskedCosts, line_masks, solve_ap
from .instance import Instance
from .model import _require_permutation
from .solution import Solution, SolveStatus


def find_violated_conflict(assignment, inst: Instance) -> int | None:
    """The id of the edge worth branching on, or None if no pair is violated.

    Among the edges the assignment selects, picks the one in the most
    violated conflict pairs, breaking ties by higher cost, then by smaller
    id. Returns None exactly when the feasibility checker reports no violated
    conflicts. The selected edges form one bitset, and each one's violated
    pairs are the popcount of its AND with the edge's partner bitset
    (`Instance.partner_masks`), so only the n selected edges' masks are read.
    """
    _require_permutation(inst.n, assignment)
    n, costs, masks = inst.n, inst.costs, inst.partner_masks
    selected = sum(1 << a * n + b for a, b in enumerate(assignment))
    best = None  # (-violated pairs, -cost, id): the minimum is the edge
    for a, b in enumerate(assignment):
        e = a * n + b
        count = (selected & masks[e]).bit_count()
        if count:
            key = (-count, -costs[a][b], e)
            if best is None or key < best:
                best = key
    return None if best is None else best[2]


def _close(allowed, todo, lines, partner_masks) -> int | None:
    """Close an allowed-edge bitset under the line rule, from the lines in
    `todo` (rows and columns, `lines` as in `line_masks`).

    Every perfect matching takes one allowed edge of each line. An edge
    excludes the rest of its row and column and its partners, so a line with
    at most two allowed edges forbids every edge that each of them excludes:
    no matching holds it beside any edge the line may take. A lone edge is
    thus committed to. Each line that loses an allowed edge is queued. A
    child of a closed node needs only the lines that lost an allowed edge
    since the parent: no other line's rule can be new. None when a line ends
    up with no allowed edge.
    """
    n = len(lines) // 2
    while todo:
        k = todo.pop()
        cells = allowed & lines[k]
        count = cells.bit_count()
        if count > 2:
            continue
        if not count:
            return None
        gone = allowed
        while cells:
            e = cells.bit_length() - 1
            cells ^= 1 << e
            gone &= (lines[e // n] | lines[n + e % n]) ^ 1 << e | partner_masks[e]
        allowed ^= gone
        while gone:
            g = gone.bit_length() - 1
            gone ^= 1 << g
            todo.update((g // n, n + g % n))
    return allowed


def branch(allowed: int, edge: int, inst: Instance) -> tuple[int | None, int | None]:
    """Split a node's allowed bitset on `edge` into two disjoint children.

    `allowed` holds edge ids of `inst`'s n x n grid, and so does each child
    of the pair (avoid, commit). Each child is `allowed` with bits cleared,
    so it only tightens the parent. The avoid child forbids `edge`. The commit child forces it: it
    forbids the rest of the edge's row and column and its conflict partners
    (`inst.partner_masks`). Each child is then closed under the line rule
    (`_close`). The commit child, like the root, starts from every line, so
    it is closed whatever `allowed` is. The avoid child starts from the
    edge's row and column, the only lines its split touches, so it is closed
    when `allowed` is; from a bitset that is not, it may be left unclosed. A
    child is None when a line ends up with no allowed edge, so it holds no
    conflict-feasible solution and needs no AP solve. Every conflict-feasible
    solution within `allowed` lies in exactly one child. Splitting on an edge
    that `allowed` does not hold, one outside the n x n grid included, raises
    ValueError before any work; the solver never asks for one, because it
    branches on an edge of the node's own relaxation.
    """
    if not allowed >> edge & 1:
        raise ValueError(f"edge {edge} is not allowed at this node")
    n, partner_masks = inst.n, inst.partner_masks
    _, lines, _ = line_masks(n)
    a, b = divmod(edge, n)
    avoid = _close(allowed ^ 1 << edge, {a, n + b}, lines, partner_masks)
    commit = allowed & ~((lines[a] | lines[n + b]) ^ 1 << edge | partner_masks[edge])
    return avoid, _close(commit, set(range(2 * n)), lines, partner_masks)


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
    if node_limit is not None and operator.index(node_limit) < 0:
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

    partner_masks = inst.partner_masks
    nodes = 0
    tiebreak = itertools.count()
    # (bound, -depth, tiebreak, allowed bitset, AP result): a child
    # re-optimizes from its parent's result instead of solving from scratch.
    heap: list[tuple] = []
    full, lines, _ = line_masks(inst.n)
    allowed = _close(full, set(range(2 * inst.n)), lines, partner_masks)
    if allowed is not None:
        root_res = solve_ap(MaskedCosts(inst.costs, allowed))
        if root_res is not None:
            heapq.heappush(heap, (root_res[1], 0, next(tiebreak), allowed, root_res))

    limit = None  # the status of the limit that stopped the search, if one did
    while heap:
        if node_limit is not None and nodes >= node_limit:
            limit = SolveStatus.FEASIBLE
            break
        if time.perf_counter() > deadline:
            limit = SolveStatus.TIME_LIMIT
            break
        bound, neg_depth, _, allowed, res = heapq.heappop(heap)
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
        for child in branch(allowed, edge, inst):
            if child is None:
                continue
            child_res = solve_ap(MaskedCosts(inst.costs, child), res)
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
