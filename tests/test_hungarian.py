"""Masked assignment engine against direct permutation enumeration."""

import itertools
import random

import pytest

from apc.hungarian import MaskedCosts, solve_ap
from apc.instance import Edge


def min_over_permutations(costs, forbidden=frozenset(), forced=frozenset()):
    """Reference answer by scanning all permutations; None when infeasible."""
    n = len(costs)
    best = None
    for perm in itertools.permutations(range(n)):
        edges = {Edge(i, perm[i]) for i in range(n)}
        if edges & forbidden:
            continue
        if not forced <= edges:
            continue
        value = sum(costs[i][perm[i]] for i in range(n))
        if best is None or value < best:
            best = value
    return best


def random_costs(rng, n, hi=50):
    return tuple(tuple(rng.randint(0, hi) for _ in range(n)) for _ in range(n))


def test_diagonal_dominance():
    assignment, value = solve_ap(MaskedCosts(((1, 10), (10, 1))))
    assert assignment == (0, 1)
    assert value == 2


def test_forbidden_edge_forces_the_other_matching():
    mc = MaskedCosts(((1, 10), (10, 1)), forbidden=frozenset({Edge(0, 0)}))
    assignment, value = solve_ap(mc)
    assert assignment == (1, 0)
    assert value == 20


def test_fully_blocked_row_is_infeasible():
    mc = MaskedCosts(((1, 10), (10, 1)), forbidden=frozenset({Edge(0, 0), Edge(0, 1)}))
    assert solve_ap(mc) is None


def test_random_5x5_matches_enumeration():
    rng = random.Random(99)
    costs = random_costs(rng, 5)
    _, value = solve_ap(MaskedCosts(costs))
    assert value == min_over_permutations(costs)


def test_optimality_sweep():
    rng = random.Random(4242)
    for _ in range(120):
        n = rng.randint(1, 7)
        costs = random_costs(rng, n)
        assignment, value = solve_ap(MaskedCosts(costs))
        assert sorted(assignment) == list(range(n))
        assert value == sum(costs[i][assignment[i]] for i in range(n))
        assert value == min_over_permutations(costs)


def test_mask_soundness_sweep():
    rng = random.Random(777)
    for _ in range(80):
        n = rng.randint(2, 5)
        costs = random_costs(rng, n)
        edges = [Edge(a, b) for a in range(n) for b in range(n)]
        forbidden = frozenset(rng.sample(edges, rng.randint(0, n * n // 2)))
        mc = MaskedCosts(costs, forbidden=forbidden)
        expect = min_over_permutations(costs, forbidden=forbidden)
        got = solve_ap(mc)
        if expect is None:
            assert got is None
        else:
            assignment, value = got
            assert value == expect
            assert not {Edge(i, j) for i, j in enumerate(assignment)} & forbidden


def test_forced_edges_are_kept():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 5)
        costs = random_costs(rng, n)
        row = rng.randrange(n)
        col = rng.randrange(n)
        forced = frozenset({Edge(row, col)})
        assignment, value = solve_ap(MaskedCosts(costs, forced=forced))
        assert assignment[row] == col
        assert value == min_over_permutations(costs, forced=forced)


def test_forced_and_forbidden_must_not_overlap():
    with pytest.raises(ValueError):
        MaskedCosts(
            ((1, 2), (3, 4)),
            forbidden=frozenset({Edge(0, 0)}),
            forced=frozenset({Edge(0, 0)}),
        )


def test_forced_edges_must_be_disjoint():
    with pytest.raises(ValueError):
        MaskedCosts(((1, 2), (3, 4)), forced=frozenset({Edge(0, 0), Edge(0, 1)}))


def test_masked_edge_out_of_range():
    with pytest.raises(ValueError):
        MaskedCosts(((1, 2), (3, 4)), forbidden=frozenset({Edge(2, 0)}))


def test_scale_covariance():
    rng = random.Random(5150)
    for _ in range(30):
        n = rng.randint(2, 5)
        costs = random_costs(rng, n, hi=20)
        k = rng.randint(2, 9)
        scaled = tuple(tuple(k * c for c in row) for row in costs)
        base_assignment, base_value = solve_ap(MaskedCosts(costs))
        scaled_assignment, scaled_value = solve_ap(MaskedCosts(scaled))
        assert scaled_value == k * base_value
        # the returned assignment must be one of the optimal ones
        optima = {
            perm
            for perm in itertools.permutations(range(n))
            if sum(costs[i][perm[i]] for i in range(n)) == base_value
        }
        assert tuple(scaled_assignment) in optima
        assert tuple(base_assignment) in optima


def test_bound_is_tight_without_conflicts():
    rng = random.Random(8)
    costs = random_costs(rng, 6)
    assert solve_ap(MaskedCosts(costs))[1] == min_over_permutations(costs)


def test_bound_below_conflicted_optimum():
    # with the diagonal conflict, only [1, 0] is feasible: optimum 20, bound 2
    costs = ((1, 10), (10, 1))
    assert solve_ap(MaskedCosts(costs))[1] == 2


def test_bound_zero_costs():
    mc = MaskedCosts(((0, 0), (0, 0)))
    assert solve_ap(mc)[1] == 0
