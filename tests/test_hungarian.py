"""Masked assignment engine against direct permutation enumeration."""

import copy
import hashlib
import itertools
import pickle
import random

import pytest

import apc.hungarian
from apc.hungarian import MaskedCosts, solve_ap
from edge_bits import allowed_bits, bits, ids


def min_over_permutations(costs, forbidden=frozenset(), forced=frozenset()):
    """Reference answer by scanning all permutations; None when infeasible.
    Masks are sets of edge ids i*n + j."""
    n = len(costs)
    best = None
    for perm in itertools.permutations(range(n)):
        edges = {i * n + perm[i] for i in range(n)}
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


def random_node(rng, n):
    """Tie-heavy costs in {0, 1, 2}, the id set of some edges to force, and
    the id set of up to 3/5 of the other edges to forbid."""
    costs = random_costs(rng, n, hi=2)
    perm = list(range(n))
    rng.shuffle(perm)
    forced = {i * n + perm[i] for i in rng.sample(range(n), rng.randint(0, n // 3))}
    free = [e for e in range(n * n) if e not in forced]
    forbidden = set(rng.sample(free, rng.randint(0, len(free) * 3 // 5)))
    return costs, forbidden, forced


def masked(costs, forbidden, forced):
    """The node that forbids `forbidden` and forces `forced` (id sets)."""
    return MaskedCosts(costs, allowed_bits(len(costs), forbidden, forced))


def random_masked(rng, n):
    return masked(*random_node(rng, n))


def certified_optimal(mc, result):
    """The result is a mask-respecting permutation whose potentials prove it optimal.

    Potentials are feasible on every allowed edge and tight on the chosen
    ones, which is LP duality's certificate.
    """
    assignment, value, (u, v) = result
    base, allowed = mc
    n, allowed = len(base), ids(allowed)
    if sorted(assignment) != list(range(n)) or value != sum(
        base[i][assignment[i]] for i in range(n)
    ):
        return False
    if any(i * n + j not in allowed for i, j in enumerate(assignment)):
        return False
    for i in range(n):
        for j in range(n):
            slack = base[i][j] - u[i] - v[j]
            if i * n + j in allowed and slack < 0:
                return False
            if assignment[i] == j and slack != 0:
                return False
    return True


def test_diagonal_dominance():
    assignment, value = solve_ap(MaskedCosts(((1, 10), (10, 1))))[:2]
    assert assignment == (0, 1)
    assert value == 2


def test_forbidden_edge_forces_the_other_matching():
    mc = MaskedCosts(((1, 10), (10, 1)), allowed=bits({1, 2, 3}))
    assignment, value = solve_ap(mc)[:2]
    assert assignment == (1, 0)
    assert value == 20


def test_fully_blocked_row_is_infeasible():
    mc = MaskedCosts(((1, 10), (10, 1)), allowed=bits({2, 3}))  # row 1 only
    assert solve_ap(mc) is None


def test_random_5x5_matches_enumeration():
    rng = random.Random(99)
    costs = random_costs(rng, 5)
    _, value = solve_ap(MaskedCosts(costs))[:2]
    assert value == min_over_permutations(costs)


def test_optimality_sweep():
    rng = random.Random(4242)
    for _ in range(120):
        n = rng.randint(1, 7)
        costs = random_costs(rng, n)
        assignment, value = solve_ap(MaskedCosts(costs))[:2]
        assert sorted(assignment) == list(range(n))
        assert value == sum(costs[i][assignment[i]] for i in range(n))
        assert value == min_over_permutations(costs)


def test_mask_soundness_sweep():
    rng = random.Random(777)
    for _ in range(80):
        n = rng.randint(2, 5)
        costs = random_costs(rng, n)
        forbidden = frozenset(rng.sample(range(n * n), rng.randint(0, n * n // 2)))
        mc = MaskedCosts(costs, allowed=allowed_bits(n, forbidden))
        expect = min_over_permutations(costs, forbidden=forbidden)
        got = solve_ap(mc)
        if expect is None:
            assert got is None
        else:
            assignment, value = got[:2]
            assert value == expect
            assert not {i * n + j for i, j in enumerate(assignment)} & forbidden


def test_forced_edges_are_kept():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 5)
        costs = random_costs(rng, n)
        row = rng.randrange(n)
        col = rng.randrange(n)
        forced = frozenset({row * n + col})
        assignment, value = solve_ap(masked(costs, set(), forced))[:2]
        assert assignment[row] == col
        assert value == min_over_permutations(costs, forced=forced)


def test_masked_edge_out_of_range():
    # a 2x2 matrix has edge ids 0..3: bits 0..3 of the allowed bitset
    for mask in (bits({4}), -1, bits({0, 4})):
        with pytest.raises(ValueError):
            MaskedCosts(((1, 2), (3, 4)), allowed=mask)


def test_allowed_bitset_is_validated():
    costs = ((1, 2, 3), (4, 5, 6), (7, 8, 9))  # edge ids 0..8
    for mask in (-1, -bits({3}), bits({9}), bits({2, 40}), 1 << 200):
        with pytest.raises(ValueError):
            MaskedCosts(costs, allowed=mask)
    # the highest edge id is a valid bit, and so is every bit below it
    assert MaskedCosts(costs, allowed=bits({8})) == (costs, 1 << 8)
    all_but_4 = bits(range(9)) ^ bits({4})
    assert MaskedCosts(costs, allowed=all_but_4) == (costs, all_but_4)
    # no mask, the default, allows every edge; 0 allows none
    assert MaskedCosts(costs) == MaskedCosts(costs, None) == (costs, bits(range(9)))
    assert MaskedCosts(costs, 0) == (costs, 0)
    with pytest.raises(TypeError):  # a set of ids is not a bitset
        MaskedCosts(costs, allowed=frozenset({0}))


def test_masked_costs_is_an_immutable_pair():
    costs = ((1, 2), (3, 4))
    mc = MaskedCosts(costs, bits({1}))
    base, allowed = mc
    assert tuple(mc) == (costs, 2) and base is costs and allowed == 2
    assert MaskedCosts(costs) == (costs, bits(range(4)))
    for attr in ("base", "allowed", "n", "other"):
        with pytest.raises(AttributeError):
            setattr(mc, attr, 0)
    # a copy is rebuilt through the checked constructor, as the same pair
    for twin in (copy.copy(mc), copy.deepcopy(mc), pickle.loads(pickle.dumps(mc))):
        assert type(twin) is MaskedCosts and twin == mc


def test_line_masks_hold_each_row_and_column_by_edge_id():
    for n in range(1, 7):
        table = apc.hungarian.line_masks(n)
        full, lines, slice_bits = table
        assert full == bits(range(n * n)) and len(lines) == 2 * n
        for part in (lines[:n], lines[n:]):  # the rows, then the columns
            assert sorted(e for line in part for e in ids(line)) == list(range(n * n))
        for k in range(n):
            assert ids(lines[k]) == {k * n + b for b in range(n)}  # row k
            assert ids(lines[n + k]) == {a * n + k for a in range(n)}  # column k
        assert slice_bits == tuple(1 << j for j in range(n))
        assert apc.hungarian.line_masks(n) is table


def test_scale_covariance():
    rng = random.Random(5150)
    for _ in range(30):
        n = rng.randint(2, 5)
        costs = random_costs(rng, n, hi=20)
        k = rng.randint(2, 9)
        scaled = tuple(tuple(k * c for c in row) for row in costs)
        base_assignment, base_value = solve_ap(MaskedCosts(costs))[:2]
        scaled_assignment, scaled_value = solve_ap(MaskedCosts(scaled))[:2]
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


def test_cold_solves_are_pinned():
    # The cold solve's tie-break among equal-cost optima is part of its
    # contract (rows inserted and columns scanned in ascending order); these
    # 400 results, 30 of them infeasible, fix it.
    rng = random.Random(2718)
    results = []
    for _ in range(400):
        res = solve_ap(random_masked(rng, rng.randint(1, 14)))
        results.append(None if res is None else res[:2])
    assert sum(r is None for r in results) == 30
    digest = "f5e2085d40a95a96dc95029a8cbdfe9ea4214c224e20a81b0d107b6843719771"
    assert hashlib.sha256(repr(results).encode()).hexdigest() == digest


def test_cold_solves_carry_an_optimality_certificate():
    rng = random.Random(11)
    for _ in range(150):
        mc = random_masked(rng, rng.randint(1, 10))
        res = solve_ap(mc)
        assert res is None or certified_optimal(mc, res)


def test_warm_solve_after_random_tightening_matches_cold():
    # Tighten a node's masks at random (forbid some of its chosen edges,
    # force one more allowed edge) and re-optimize from its result.
    rng = random.Random(1618)
    checked = infeasible = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        costs, forbidden, forced = random_node(rng, n)
        start = solve_ap(masked(costs, forbidden, forced))
        if start is None:
            continue
        for i in rng.sample(range(n), rng.randint(0, min(2, n))):
            if i * n + start[0][i] not in forced:
                forbidden.add(i * n + start[0][i])
        open_rows = [a for a in range(n) if all(a != f // n for f in forced)]
        open_cols = [b for b in range(n) if all(b != f % n for f in forced)]
        if open_rows and rng.random() < 0.5:
            edge = rng.choice(open_rows) * n + rng.choice(open_cols)
            if edge not in forbidden:
                forced.add(edge)
        child = masked(costs, forbidden, forced)
        warm, cold = solve_ap(child, start), solve_ap(child)
        assert (warm is None) == (cold is None)
        if warm is None:
            infeasible += 1
            continue
        assert warm[1] == cold[1]
        assert certified_optimal(child, warm)
        if n <= 6:
            assert warm[1] == min_over_permutations(costs, forbidden, forced)
        checked += 1
    assert checked >= 150 and infeasible >= 10


def test_warm_solve_keeps_a_fixed_edge_out_of_every_path_search(monkeypatch):
    # Force an edge the start already selects, so it is alone in its row and
    # its column, and forbid another selected edge so that a row is
    # re-inserted: the fixed column is in no path search, and its row's u
    # and its column's v stay as the start left them.
    augment, searched = apc.hungarian._augment, []

    def spy(base, allowed, bits, cols, r, u, v, row_of):
        searched.append(set(cols))
        return augment(base, allowed, bits, cols, r, u, v, row_of)

    monkeypatch.setattr("apc.hungarian._augment", spy)
    rng = random.Random(404)
    checked = 0
    for _ in range(200):
        n = rng.randint(3, 10)
        costs = random_costs(rng, n)
        start = solve_ap(MaskedCosts(costs))
        (assignment, _, (u, v)), (i, k) = start, rng.sample(range(n), 2)
        j = assignment[i]
        child = MaskedCosts(costs, allowed_bits(n, {k * n + assignment[k]}, {i * n + j}))
        searched.clear()
        warm = solve_ap(child, start)
        if warm is None:
            continue
        assert searched and not any(j in cols for cols in searched)
        assert warm[0][i] == j and warm[2][0][i] == u[i] and warm[2][1][j] == v[j]
        assert certified_optimal(child, warm)
        checked += 1
    assert checked >= 150


def test_start_of_the_wrong_size_is_rejected():
    mc = MaskedCosts(((1, 10), (10, 1)))
    with pytest.raises(ValueError):
        solve_ap(mc, solve_ap(MaskedCosts(((1, 2, 3),) * 3)))
    assignment, value, (u, v) = solve_ap(mc)
    with pytest.raises(ValueError):
        solve_ap(mc, (assignment, value, (u, v + (0,))))
    with pytest.raises(ValueError):
        solve_ap(mc, (assignment[:1], value, (u, v)))


def test_start_that_is_not_a_permutation_is_rejected():
    # Kept unchecked, a repeated column would put both rows on column 0 and
    # return the assignment (0, 1) at value 7, though it costs 5; a negative
    # or too large column would index past the row's columns.
    mc = MaskedCosts(((1, 2), (3, 4)))
    for kept in ((0, 0), (-1, 0), (0, 2)):
        with pytest.raises(ValueError):
            solve_ap(mc, (kept, 0, ((0, 0), (0, 0))))
    assert solve_ap(mc, ((1, 0), 0, ((0, 0), (0, 0))))[:2] == ((1, 0), 5)


def test_solves_and_potentials_are_pinned():
    # Node counts depend on the potentials too, since each child starts from
    # its parent's. These 300 full cold results, and one warm child of each
    # feasible one (one selected edge forbidden, one allowed edge forced),
    # fix the potentials as well as the matchings. The second digest leaves
    # out the row potentials u and covers the matchings, the values and the
    # column potentials v alone, so a change that moves only u shows which
    # part moved.
    rng = random.Random(3141)
    results = []
    for _ in range(300):
        n = rng.randint(1, 14)
        costs, forbidden, forced = random_node(rng, n)
        cold = solve_ap(masked(costs, forbidden, forced))
        results.append(cold)
        if cold is None:
            continue
        rows = [i for i in range(n) if i * n + cold[0][i] not in forced]
        if rows:
            i = rng.choice(rows)
            forbidden.add(i * n + cold[0][i])
        open_cols = set(range(n)) - {e % n for e in forced}
        allowed = [i * n + j for i in rows for j in sorted(open_cols)
                   if i * n + j not in forbidden]
        if allowed:
            forced.add(rng.choice(allowed))
        results.append(solve_ap(masked(costs, forbidden, forced), cold))
    assert len(results) == 581 and sum(r is None for r in results) == 95  # 76 warm
    digest = "0d1d0348dfd0e6006ee81b23c2b05b15fbe0643fd5e0e64f5ceab596548a47d2"
    assert hashlib.sha256(repr(results).encode()).hexdigest() == digest
    matchings = [None if r is None else (r[0], r[1], r[2][1]) for r in results]
    digest = "57d5a41167138d64386f40093421ec7f935e8a188a6e2016f2f6d001e44f6f0b"
    assert hashlib.sha256(repr(matchings).encode()).hexdigest() == digest
