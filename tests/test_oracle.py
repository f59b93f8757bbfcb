"""Exhaustive solver: examples, enumeration consistency, monotonicity."""

import itertools
import random

import pytest

from apc.instance import ConflictPair, Edge, Instance, generate_instance, max_conflict_pairs
from apc.model import check_feasible
from apc.oracle import brute_force, enumerate_feasible
from apc.solution import SolveStatus


def all_pairs(n):
    edges = [Edge(a, b) for a in range(n) for b in range(n)]
    return {ConflictPair(e, f) for e, f in itertools.combinations(edges, 2)}


FULLY_CONFLICTED_2 = Instance([[1, 10], [10, 1]], all_pairs(2))


def test_single_node():
    sol = brute_force(Instance([[7]]))
    assert sol.assignment == (0,)
    assert sol.value == 7
    assert sol.status is SolveStatus.OPTIMAL


def test_diagonal_conflict_picks_antidiagonal():
    inst = Instance([[1, 10], [10, 1]], [((0, 0), (1, 1))])
    sol = brute_force(inst)
    assert sol.assignment == (1, 0)
    assert sol.value == 20


def test_all_conflicts_is_infeasible():
    inst = Instance([[1] * 3 for _ in range(3)], all_pairs(3))
    assert len(inst.conflicts) == 36
    sol = brute_force(inst)
    assert sol.status is SolveStatus.INFEASIBLE
    assert sol.assignment is None and sol.value is None


def test_lexicographic_tie_break():
    # every permutation costs 0: the identity comes first lexicographically
    inst = Instance([[0] * 3 for _ in range(3)])
    assert brute_force(inst).assignment == (0, 1, 2)


def test_enumerate_zero_conflicts():
    inst = Instance([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    out = enumerate_feasible(inst)
    assert len(out) == 6
    assert [a for a, _ in out] == sorted(a for a, _ in out)


def test_enumerate_fully_conflicted():
    assert enumerate_feasible(FULLY_CONFLICTED_2) == []


def test_enumerate_zero_costs():
    inst = Instance([[0, 0], [0, 0]])
    assert enumerate_feasible(inst) == [((0, 1), 0), ((1, 0), 0)]


def test_brute_force_equals_min_of_enumeration():
    for seed in range(25):
        n = 3 + seed % 4
        m = (seed * 7) % max_conflict_pairs(n)
        inst = generate_instance(n, m, 1, 40, seed=seed)
        listing = enumerate_feasible(inst)
        sol = brute_force(inst)
        if not listing:
            assert sol.status is SolveStatus.INFEASIBLE
        else:
            assert sol.value == min(v for _, v in listing)
            for assignment, _ in listing:
                assert check_feasible(inst, assignment).feasible


def test_conflict_monotonicity():
    rng = random.Random(606)
    for _ in range(12):
        n = rng.randint(3, 6)
        base = generate_instance(n, 0, 1, 30, seed=rng.randrange(10**6))
        pool = sorted(all_pairs(n))
        rng.shuffle(pool)
        conflicts = set()
        last_value = None
        went_infeasible = False
        for pair in pool[:25]:
            conflicts.add(pair)
            inst = Instance(base.costs, frozenset(conflicts), base.name)
            sol = brute_force(inst)
            if sol.status is SolveStatus.INFEASIBLE:
                went_infeasible = True
            else:
                assert not went_infeasible, "infeasible must never revert"
                if last_value is not None:
                    assert sol.value >= last_value
                last_value = sol.value


def test_size_guards():
    big = Instance([[0] * 11 for _ in range(11)])
    with pytest.raises(ValueError, match="^brute force is guarded to n <= 10, got n = 11$"):
        brute_force(big)
    mid = Instance([[0] * 9 for _ in range(9)])
    with pytest.raises(ValueError, match="^enumeration is guarded to n <= 8, got n = 9$"):
        enumerate_feasible(mid)
