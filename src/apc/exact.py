"""Proven-optimal solving by branch-and-bound on the conflict-free relaxation.

A node is one int, its allowed-edge bitset: bit e is set exactly when edge
e is allowed. The assignment problem on its allowed edges is the node's
lower bound, and the bitset meets the cost matrix only as the argument of
`solve_ap`. Every row and column of an assignment holds exactly one edge,
so a node forces an edge by disallowing the rest of its row and column, and
needs no second bitset.
Best-first node selection means the first conflict-feasible relaxation
popped is globally optimal. The search branches fail-first. A row or
column is one variable whose domain is its allowed edges, and a perfect
matching takes exactly one edge of each. So when a row or column of a
selected edge in a violated conflict pair is short, with at most
`SHORT_LINE` (four) allowed edges, the node splits d-way on the shortest
such line: one child commits to each of its edges, which forbids the rest
of that edge's row and column and every edge it conflicts with. Otherwise
it splits on the selected edge that sits in the most violated pairs: one
child forbids that edge, the other commits to it. The children are
disjoint, and together they keep every conflict-feasible solution of the
node. Every node is closed under one line rule: a short line forbids every
edge that no matching can hold beside any of its edges, so a lone edge is
committed to. `solve_exact` closes the root and `branch` each commit child
from every line; the avoid child starts from the lines its split touches.
A node with a line that has no allowed edge is dropped before any AP work.
A child only tightens its parent: its allowed bitset is a subset of the
parent's (``child & parent == child``), so its assignment problem is
re-optimized from the parent's potentials instead of solved from scratch.
Conflicts are read as bitsets too: ``Instance.exclusion_masks[e]`` has bit
f set for every other edge f of e's row and column and every partner f of
e, so a commit clears all of them with one ``& ~``, the line rule intersects
one cached mask per edge, and the violation scan counts an edge's violated
pairs with one ``&`` and a popcount. The search starts from the incumbent
of a two-restart `run_heuristic`, bounded only by the solve's time limit,
so a node or time limit that stops it early can still report a solution.
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


# A short line has at most this many allowed edges. The line rule closes
# only short lines, and the search splits on a short line one child per edge.
SHORT_LINE = 4


def find_violated_conflict(assignment, inst: Instance, allowed: int) -> int | None:
    """The split to branch on, allowed edges of one line, or None if no
    pair is violated.

    The candidate lines are the rows and columns of the selected edges in
    violated conflict pairs, each edge's row before its column, in
    assignment order. When the first of them with the fewest allowed edges
    (bits of `allowed`) is short, with at most `SHORT_LINE`, the split is
    all of its allowed edges. Otherwise it is the one edge in the most
    violated pairs, breaking ties by higher cost, then by smaller id.
    Returns None exactly when the feasibility checker reports no violated
    conflicts. The selected edges form one bitset, and each one's violated
    pairs are the popcount of its AND with the edge's exclusion bitset
    (`Instance.exclusion_masks`): a permutation selects no other edge of the
    edge's row or column, so only partners count. One pass reads only the n
    selected edges' masks.
    """
    _require_permutation(inst.n, assignment)
    n, costs, masks = inst.n, inst.costs, inst.exclusion_masks
    _, lines, _ = line_masks(n)
    selected = sum(1 << a * n + b for a, b in enumerate(assignment))
    best = None  # (-violated pairs, -cost, id): the minimum is the edge
    fewest = n + 1  # allowed edges of the shortest candidate line so far
    for a, b in enumerate(assignment):
        e = a * n + b
        count = (selected & masks[e]).bit_count()
        if count:
            key = (-count, -costs[a][b], e)
            if best is None or key < best:
                best = key
            row = allowed & lines[a]
            if (k := row.bit_count()) < fewest:
                fewest, line = k, row
            column = allowed & lines[n + b]
            if (k := column.bit_count()) < fewest:
                fewest, line = k, column
    if best is None:
        return None
    return line if fewest <= SHORT_LINE else 1 << best[2]


def _close(allowed, todo, lines, exclusion_masks) -> int | None:
    """Close an allowed-edge bitset under the line rule, from the lines in
    `todo` (rows and columns, `lines` as in `line_masks`).

    Every perfect matching takes one allowed edge of each line. An edge
    excludes the edges of `Instance.exclusion_masks`, so a short line, with
    at most `SHORT_LINE` allowed edges, forbids every edge that each of them
    excludes: no matching holds it beside any edge the line may take. A lone
    edge is thus committed to. A line's intersection stops once it is empty.
    Each line that loses an allowed edge is queued. A child of a closed node
    needs only the lines that lost an allowed edge since the parent: no other
    line's rule can be new. None when a line ends up with no allowed edge.
    """
    n = len(lines) // 2
    while todo:
        k = todo.pop()
        cells = allowed & lines[k]
        count = cells.bit_count()
        if count > SHORT_LINE:  # seldom forbids an edge, at one mask per edge
            continue
        if not count:
            return None
        gone = allowed
        while cells and gone:
            e = cells.bit_length() - 1
            cells ^= 1 << e
            gone &= exclusion_masks[e]
        allowed ^= gone
        while gone:
            g = gone.bit_length() - 1
            gone ^= 1 << g
            todo.update((g // n, n + g % n))
    return allowed


def branch(allowed: int, split: int, inst: Instance) -> tuple[int | None, ...]:
    """Split a node's allowed bitset on `split`, allowed edges of one line,
    into disjoint children: the avoid child, then one commit child per edge
    of `split` in ascending id.

    Each child is `allowed` with bits cleared, so it only tightens the
    parent. The avoid child forbids every edge of `split`; it is None, at no
    closure cost, when `split` holds every allowed edge of its line. A
    commit child forces its edge e: it forbids `inst.exclusion_masks[e]`,
    the rest of e's row and column and its conflict partners. Each child is
    closed under the line rule (`_close`): a commit child, like the root,
    from every line, so it is closed whatever `allowed` is; the avoid child
    from the lines the split touches, which closes it when `allowed` is
    closed. A child is None when a line ends up with no allowed edge, so it
    needs no AP solve. Every perfect matching takes one edge of the split's
    line, so every conflict-feasible solution within `allowed` lies in
    exactly one child, and a one-edge split gives the pair (avoid, commit).
    An empty split, one holding an edge that `allowed` lacks (an id outside
    the n x n grid included) or one spanning more than one row or column
    raises ValueError before any work; the solver never asks for one.
    """
    if not split:
        raise ValueError("split holds no edge")
    bad = split & ~allowed
    if bad:
        raise ValueError(f"edge {(bad & -bad).bit_length() - 1} is not allowed at this node")
    n, excl = inst.n, inst.exclusion_masks
    _, lines, _ = line_masks(n)
    edges, left = [], split
    while left:
        e = (left & -left).bit_length() - 1
        edges.append(e)
        left ^= 1 << e
    a, b = divmod(edges[0], n)
    line = lines[a] if split & lines[a] == split else lines[n + b]
    if split & line != split:
        raise ValueError(f"split on edges {edges} spans more than one line")
    avoid = None
    if allowed & line != split:
        touched = {k for e in edges for k in (e // n, n + e % n)}
        avoid = _close(allowed ^ split, touched, lines, excl)
    return avoid, *(_close(allowed & ~excl[e], set(range(2 * n)), lines, excl) for e in edges)


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

    nodes = 0
    tiebreak = itertools.count()
    # (bound, -depth, tiebreak, allowed bitset, AP result): a child
    # re-optimizes from its parent's result instead of solving from scratch.
    heap: list[tuple] = []
    full, lines, _ = line_masks(inst.n)
    allowed = _close(full, set(range(2 * inst.n)), lines, inst.exclusion_masks)
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
        split = find_violated_conflict(res[0], inst, allowed)
        if split is None:
            # the best open relaxation is conflict-free, so it is optimal
            inc_assignment, inc_value = res[0], bound
            sec_best = time.perf_counter() - start
            break
        # Disjoint split: avoid every edge of the split, or commit to one of
        # them (which excludes every edge it conflicts with). Committing
        # prunes far harder than a second forbid on dense conflict sets.
        for child in branch(allowed, split, inst):
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
