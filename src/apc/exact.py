"""Proven-optimal solving by branch-and-bound on the conflict-free relaxation.

A node is its edge masks, one `MaskedCosts`; the assignment problem under
them is the node's lower bound. Best-first node selection means the first
conflict-feasible relaxation popped is globally optimal. The search splits on
a violated conflict pair into two disjoint children: one child forbids the
first edge, the other commits to it, which forbids the partner edge of every
conflict the committed edge appears in. Only solutions violating the branched
pair are dropped, and those are infeasible anyway.
"""

import heapq
import itertools
import time

from .heuristic import LSConfig, run_heuristic
from .hungarian import MaskedCosts, solve_ap
from .instance import ConflictPair, Edge, Instance
from .model import _require_permutation, check_feasible, evaluate
from .solution import Solution, SolveStatus


def find_violated_conflict(assignment, inst: Instance) -> ConflictPair | None:
    """The conflict pair worth branching on, or None if none is violated.

    Among pairs with both edges selected by the assignment, picks the one
    with the largest combined edge cost, breaking ties by canonical order.
    Returns None exactly when the feasibility checker reports no violated
    conflicts. Only the conflict partners of the n selected edges are read.
    """
    _require_permutation(inst.n, assignment)
    n, costs, partners = inst.n, inst.costs, inst.partners
    best = None  # (-combined cost, e1, e2): the minimum is the pair to return
    for a, b in enumerate(assignment):
        e = Edge(a, b)
        for p in partners[a * n + b]:
            if assignment[p.a] == p.b and e < p:
                key = (-(costs[a][b] + costs[p.a][p.b]), e, p)
                if best is None or key < best:
                    best = key
    return None if best is None else ConflictPair(best[1], best[2])


def branch(
    masks: MaskedCosts, edge: Edge, partners: tuple[Edge, ...]
) -> tuple[MaskedCosts, MaskedCosts]:
    """Split a node's masks on `edge` into two disjoint children: (avoid, commit).

    The avoid child forbids `edge`. The commit child forces it and forbids
    its conflict `partners`. Every conflict-feasible solution within the
    node's masks lies in exactly one child. A split that contradicts the
    node's masks raises ValueError from MaskedCosts; the solver never asks
    for one, because it branches on a violated edge of the node's own
    relaxation, which no mask excludes.
    """
    forbidden, forced = masks.forbidden, masks.forced
    avoid = MaskedCosts(masks.base, forbidden | {edge}, forced)
    commit = MaskedCosts(masks.base, forbidden.union(partners), forced | {edge})
    return avoid, commit


def solve_exact(
    inst: Instance,
    *,
    time_limit: float = 3600.0,
    node_limit: int | None = None,
    initial_incumbent: Solution | None = None,
    seed_incumbent: bool = True,
    heuristic_seed: int = 0,
) -> Solution:
    """Prove the optimal value (or infeasibility) by branch-and-bound.

    Node selection is best-first on the relaxation bound, tie-broken by depth
    (deeper first) then insertion order, so runs are deterministic whenever no
    limit triggers. With `seed_incumbent` the root incumbent comes from a
    short greedy+descent run. Statuses: Optimal / Infeasible when the search
    completes, TimeLimit / Feasible (node limit) with the best incumbent and
    the best open bound otherwise, NoSolution (with the best open bound) when
    a limit stops the search before any incumbent is found.
    """
    if time_limit <= 0:
        raise ValueError(f"time_limit must be positive, got {time_limit}")
    start = time.perf_counter()
    deadline = start + time_limit

    inc_assignment: tuple[int, ...] | None = None
    inc_value: int | None = None
    sec_best = 0.0

    def consider(assignment, value: int) -> None:
        nonlocal inc_assignment, inc_value, sec_best
        if inc_value is None or value < inc_value:
            inc_assignment = tuple(assignment)
            inc_value = value
            sec_best = time.perf_counter() - start

    if initial_incumbent is not None:
        if initial_incumbent.assignment is None or not check_feasible(
            inst, initial_incumbent.assignment
        ).feasible:
            raise ValueError("initial incumbent is not conflict-feasible")
        consider(
            initial_incumbent.assignment,
            evaluate(inst, initial_incumbent.assignment),
        )
    elif seed_incumbent and inst.conflicts:
        budget = max(0.05, min(1.0, 0.05 * time_limit))
        seeded = run_heuristic(
            inst,
            LSConfig(
                max_passes=200, time_limit=budget, restarts=2, rng_seed=heuristic_seed
            ),
        )
        if seeded is not None:
            consider(seeded.assignment, seeded.value)

    n, partners = inst.n, inst.partners
    nodes = 0
    tiebreak = itertools.count()
    heap: list[tuple] = []  # (bound, -depth, tiebreak, masks, relaxed assignment)
    root = MaskedCosts(inst.costs)
    root_res = solve_ap(root)
    if root_res is not None:
        root_assignment, root_value = root_res
        heapq.heappush(heap, (root_value, 0, next(tiebreak), root, root_assignment))

    status = None
    open_bound: int | None = None
    while heap:
        if node_limit is not None and nodes >= node_limit:
            status = SolveStatus.FEASIBLE
            open_bound = heap[0][0]
            break
        if time.perf_counter() > deadline:
            status = SolveStatus.TIME_LIMIT
            open_bound = heap[0][0]
            break
        bound, neg_depth, _, masks, relaxed = heapq.heappop(heap)
        nodes += 1
        if inc_value is not None and bound >= inc_value:
            # Best-first: every open node is at least this bound, so the
            # incumbent is proven optimal.
            status = SolveStatus.OPTIMAL
            open_bound = inc_value
            break
        pair = find_violated_conflict(relaxed, inst)
        if pair is None:
            consider(relaxed, bound)
            status = SolveStatus.OPTIMAL
            open_bound = inc_value
            break
        # Disjoint dichotomy on the violated pair: drop e1 entirely, or
        # commit to e1 (which excludes every edge it conflicts with, e2
        # included). Committing prunes far harder than a second forbid on
        # dense conflict sets.
        e1 = pair.e1
        for child in branch(masks, e1, partners[e1.a * n + e1.b]):
            res = solve_ap(child)
            if res is None:
                continue
            child_assignment, child_value = res
            assert child_value >= bound
            if inc_value is not None and child_value >= inc_value:
                continue
            heapq.heappush(
                heap,
                (child_value, neg_depth - 1, next(tiebreak), child, child_assignment),
            )
    else:
        if inc_value is None:
            status = SolveStatus.INFEASIBLE
        else:
            status = SolveStatus.OPTIMAL
            open_bound = inc_value

    sec_total = time.perf_counter() - start
    if status in (SolveStatus.TIME_LIMIT, SolveStatus.FEASIBLE):
        if inc_value is None:
            status = SolveStatus.NO_SOLUTION
        else:
            open_bound = min(open_bound, inc_value)
    return Solution(
        assignment=inc_assignment,
        value=inc_value,
        status=status,
        sec_best=min(sec_best, sec_total),
        sec_total=sec_total,
        nodes=nodes,
        lower_bound=open_bound,
    )
