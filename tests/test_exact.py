"""Branch-and-bound solver: examples, branching rules, oracle equivalence."""

import itertools
import random

import pytest

from apc.errors import NotAPermutationError
from apc.exact import branch, find_violated_conflict, solve_exact
from apc.hungarian import MaskedCosts, solve_ap
from apc.instance import (
    ConflictPair,
    Edge,
    Instance,
    generate_instance,
    max_conflict_pairs,
)
from apc.model import check_feasible, evaluate
from apc.oracle import brute_force, enumerate_feasible
from apc.solution import SolveStatus

DIAG = Instance.from_costs([[1, 10], [10, 1]], [((0, 0), (1, 1))])
BOTH_BLOCKED = Instance.from_costs(
    [[1, 10], [10, 1]], [((0, 0), (1, 1)), ((0, 1), (1, 0))]
)


def test_diagonal_conflict():
    sol = solve_exact(DIAG, time_limit=10)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.value == 20
    assert sol.assignment == (1, 0)
    assert sol.lower_bound == 20


def test_both_matchings_blocked_is_infeasible():
    sol = solve_exact(BOTH_BLOCKED, time_limit=10)
    assert sol.status is SolveStatus.INFEASIBLE
    assert sol.assignment is None and sol.value is None


def test_no_conflicts_single_node():
    inst = generate_instance(6, 0, 1, 80, seed=12)
    sol = solve_exact(inst, time_limit=10)
    _, ap_value = solve_ap(MaskedCosts(inst.costs))
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.value == ap_value
    assert sol.nodes == 1


def test_optimal_solutions_verify():
    for seed in range(20):
        inst = generate_instance(5, 40, 1, 60, seed=seed)
        sol = solve_exact(inst, time_limit=10)
        if sol.status is SolveStatus.OPTIMAL:
            assert check_feasible(inst, sol.assignment).feasible
            assert evaluate(inst, sol.assignment) == sol.value


def test_find_violated_conflict_basics():
    assert find_violated_conflict([0, 1], DIAG) == ConflictPair(Edge(0, 0), Edge(1, 1))
    assert find_violated_conflict([1, 0], DIAG) is None


def test_find_violated_conflict_picks_most_expensive():
    inst = Instance.from_costs(
        [[5, 1, 1], [1, 25, 1], [1, 1, 5]],
        [
            ((0, 0), (1, 1)),  # combined cost 30
            ((0, 0), (2, 2)),  # combined cost 10
        ],
    )
    pair = find_violated_conflict([0, 1, 2], inst)
    assert pair == ConflictPair(Edge(0, 0), Edge(1, 1))


def test_find_violated_conflict_rejects_non_permutation():
    with pytest.raises(NotAPermutationError):
        find_violated_conflict([0, 0], DIAG)


def test_find_violated_agrees_with_feasibility_checker():
    # The most expensive violated pair, ties broken by canonical order; costs
    # in {1, 2} on odd seeds make equal combined costs common.
    rng = random.Random(12)
    ties = 0
    for seed in range(60):
        n = rng.randint(3, 7)
        m = rng.randint(0, max_conflict_pairs(n) // 2)
        inst = generate_instance(n, m, 1, 2 if seed % 2 else 50, seed=seed)
        perm = list(range(n))
        rng.shuffle(perm)
        violated = check_feasible(inst, perm).violated_conflicts
        combined = {
            p: inst.costs[p.e1.a][p.e1.b] + inst.costs[p.e2.a][p.e2.b] for p in violated
        }
        expected = min(violated, key=lambda p: (-combined[p], p), default=None)
        assert find_violated_conflict(perm, inst) == expected
        if expected is not None:
            ties += list(combined.values()).count(combined[expected]) > 1
    assert ties >= 10


def test_branch_children():
    root = MaskedCosts(DIAG.costs)
    avoid, commit = branch(root, Edge(0, 0), DIAG.partners[0])
    assert avoid.base is commit.base is DIAG.costs
    assert avoid.forbidden == frozenset({Edge(0, 0)}) and not avoid.forced
    assert commit.forced == frozenset({Edge(0, 0)})
    assert commit.forbidden == frozenset({Edge(1, 1)})


def test_branch_rejects_contradictory_split():
    # MaskedCosts is the one mask validator: a split whose commit child
    # contradicts the parent's masks fails loudly instead of dropping a child.
    for forbidden, forced in [
        ({Edge(0, 0)}, set()),  # the edge itself is forbidden
        (set(), {Edge(1, 1)}),  # a conflict partner is forced
        (set(), {Edge(1, 0)}),  # a forced edge holds its column
    ]:
        node = MaskedCosts(DIAG.costs, frozenset(forbidden), frozenset(forced))
        with pytest.raises(ValueError):
            branch(node, Edge(0, 0), DIAG.partners[0])


def _obeys(perm, masks):
    return all(perm[a] != b for a, b in masks.forbidden) and all(
        perm[a] == b for a, b in masks.forced
    )


def test_branch_is_a_dichotomy():
    # Follow solve_exact's split a few levels deep: every feasible solution
    # inside a node lies in exactly one child, and child bounds never drop.
    splits = 0
    for seed in range(16):
        n = 4 + seed % 4
        inst = generate_instance(n, max_conflict_pairs(n) // 8, 1, 50, seed=700 + seed)
        feasible = [perm for perm, _ in enumerate_feasible(inst)]
        root = MaskedCosts(inst.costs)
        relaxed, bound = solve_ap(root)
        frontier = [(root, bound, relaxed)]
        for _ in range(4):
            deeper = []
            for masks, bound, relaxed in frontier:
                pair = find_violated_conflict(relaxed, inst)
                if pair is None:
                    continue
                e1 = pair.e1
                children = branch(masks, e1, inst.partners[e1.a * n + e1.b])
                assert len(children) == 2
                splits += 1
                for perm in feasible:
                    if _obeys(perm, masks):
                        hits = [c for c in children if _obeys(perm, c)]
                        assert len(hits) == 1, (seed, perm, masks)
                for child in children:
                    res = solve_ap(child)
                    if res is None:
                        continue
                    assert res[1] >= bound
                    deeper.append((child, res[1], res[0]))
            frontier = deeper
    assert splits >= 50


def test_branch_completeness_on_dense_instance():
    # the search must agree with enumeration even when every pair conflicts
    edges = [Edge(a, b) for a in range(3) for b in range(3)]
    pairs = {ConflictPair(e, f) for e, f in itertools.combinations(edges, 2)}
    inst = Instance.from_costs([[2, 3, 4], [5, 6, 7], [8, 9, 1]], pairs)
    assert solve_exact(inst, time_limit=10).status is SolveStatus.INFEASIBLE


def test_oracle_equivalence_sample():
    for idx in range(80):
        n = 3 + idx % 5
        m = int(((idx % 8) / 14.0) * max_conflict_pairs(n))
        inst = generate_instance(n, m, 1, 100, seed=5000 + idx)
        bf = brute_force(inst)
        ex = solve_exact(inst, time_limit=30)
        assert ex.status == bf.status, (idx, n, m)
        if bf.status is SolveStatus.OPTIMAL:
            assert ex.value == bf.value, (idx, n, m)


def test_determinism():
    inst = generate_instance(6, 120, 1, 90, seed=321)
    a = solve_exact(inst, time_limit=30)
    b = solve_exact(inst, time_limit=30)
    assert (a.status, a.value, a.assignment, a.nodes) == (
        b.status,
        b.value,
        b.assignment,
        b.nodes,
    )


def test_initial_incumbent_is_used():
    opt = brute_force(DIAG)
    sol = solve_exact(DIAG, time_limit=10, initial_incumbent=opt)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.value == opt.value


def test_initial_incumbent_must_be_feasible():
    bad = brute_force(Instance.from_costs([[1, 10], [10, 1]]))  # ignores conflicts
    assert bad.assignment == (0, 1)
    with pytest.raises(ValueError):
        solve_exact(DIAG, time_limit=10, initial_incumbent=bad)


def _solution_iff_solved(sol):
    # a run returns an assignment exactly when it neither proved infeasibility
    # nor stopped empty-handed
    no_solution = (SolveStatus.INFEASIBLE, SolveStatus.NO_SOLUTION)
    return (sol.assignment is None) == (sol.value is None) == (sol.status in no_solution)


def test_node_limit_interrupts():
    inst = generate_instance(7, 400, 1, 100, seed=2024)
    full = solve_exact(inst, time_limit=30)
    assert full.status is SolveStatus.OPTIMAL
    # the seeding heuristic finds nothing here, so the limit leaves no incumbent
    sol = solve_exact(inst, time_limit=30, node_limit=1)
    assert sol.status is SolveStatus.NO_SOLUTION and _solution_iff_solved(sol)
    assert sol.nodes == 1
    assert sol.lower_bound is not None and sol.lower_bound <= full.value
    seeded = solve_exact(inst, time_limit=30, node_limit=1, initial_incumbent=full)
    assert seeded.status is SolveStatus.FEASIBLE and _solution_iff_solved(seeded)
    assert seeded.nodes == 1
    assert seeded.value == full.value and seeded.lower_bound <= full.value


def test_time_limit_status():
    inst = generate_instance(7, 500, 1, 100, seed=9)
    sol = solve_exact(inst, time_limit=1e-6, seed_incumbent=False)
    assert sol.status is SolveStatus.NO_SOLUTION and _solution_iff_solved(sol)
    assert sol.lower_bound is not None


def test_rejects_nonpositive_time_limit():
    with pytest.raises(ValueError):
        solve_exact(DIAG, time_limit=0)
