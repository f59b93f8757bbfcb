"""Greedy construction, local search and the gap formula."""

import hashlib
import random
from collections import deque

import pytest

from apc.heuristic import (
    LSConfig,
    _swap_clear,
    construct_greedy,
    gap_percent,
    local_search,
    run_heuristic,
)
from apc.instance import ConflictPair, Edge, Instance, generate_instance, max_conflict_pairs
from apc.model import check_feasible, evaluate
from apc.oracle import brute_force
from apc.solution import SolveStatus

DIAG = Instance([[1, 10], [10, 1]], [((0, 0), (1, 1))])
BOTH_BLOCKED = Instance(
    [[1, 10], [10, 1]], [((0, 0), (1, 1)), ((0, 1), (1, 0))]
)


def test_greedy_without_conflicts_hits_cheap_diagonal():
    inst = Instance([[1, 10], [10, 1]])
    perm = construct_greedy(inst, rng_seed=0)
    assert perm == (0, 1)
    assert evaluate(inst, perm) == 2


def test_greedy_respects_conflicts():
    # the only feasible matching is the expensive anti-diagonal
    perm = construct_greedy(DIAG, rng_seed=0)
    assert perm == (1, 0)
    assert evaluate(DIAG, perm) == 20
    assert check_feasible(DIAG, perm).feasible


def test_greedy_gives_up_when_nothing_is_feasible():
    for seed in range(6):
        assert construct_greedy(BOTH_BLOCKED, rng_seed=seed) is None


def test_greedy_feasibility_sweep():
    for seed in range(40):
        inst = generate_instance(6, 80, 1, 60, seed=seed)
        perm = construct_greedy(inst, rng_seed=seed)
        if perm is not None:
            assert type(perm) is tuple
            assert check_feasible(inst, perm).feasible


def test_greedy_is_deterministic():
    inst = generate_instance(7, 150, 1, 90, seed=5)
    a = construct_greedy(inst, rng_seed=17)
    assert a is not None and a == construct_greedy(inst, rng_seed=17)


def test_local_search_fixpoint_is_returned_unchanged():
    inst = Instance([[1, 10], [10, 1]])
    assert local_search(inst, [0, 1]) == ((0, 1), 2)  # already optimal


def test_local_search_single_swap_reaches_optimum():
    inst = Instance([[1, 10], [10, 1]])
    assert local_search(inst, [1, 0]) == ((0, 1), 2)  # from value 20


def test_local_search_rejects_infeasible_start():
    with pytest.raises(ValueError, match="^local search needs a feasible start"):
        local_search(DIAG, (0, 1))  # violates the conflict


def test_local_search_never_worse_and_stays_feasible():
    for seed in range(25):
        inst = generate_instance(6, 60, 1, 70, seed=100 + seed)
        start = construct_greedy(inst, rng_seed=seed)
        if start is None:
            continue
        perm, value = local_search(inst, start)
        assert value == evaluate(inst, perm) <= evaluate(inst, start)
        assert check_feasible(inst, perm).feasible


def reference_greedy(inst, rng_seed):
    """The greedy as it was before it walked ``inst.column_order``: each row
    sorts its free columns by (cost, column), and a stuck row builds every
    column's blocker set and sorts all candidates by (touches a conflict,
    cost, column)."""
    n = inst.n
    partners = inst.partners
    order = list(range(n))
    random.Random(rng_seed).shuffle(order)
    col_of = [None] * n
    row_of = [None] * n
    selected = set()
    evicted = set()
    queue = deque(order)

    def seat(i, j):
        col_of[i], row_of[j] = j, i
        selected.add(i * n + j)

    while queue:
        i = queue.popleft()
        row = inst.costs[i]
        for _, j in sorted((row[j], j) for j in range(n) if row_of[j] is None):
            if selected.isdisjoint(partners[i * n + j]):
                seat(i, j)
                break
        else:
            candidates = []
            for j in range(n):
                conflicted = {p // n for p in partners[i * n + j] if p in selected}
                blockers = set(conflicted)
                if row_of[j] is not None:
                    blockers.add(row_of[j])
                candidates.append((bool(conflicted), row[j], j, blockers))
            candidates.sort()
            for _, _, j, blockers in candidates:
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


def test_greedy_matches_the_reference_greedy():
    # cost ranges with many ties, and densities up to every pair conflicting,
    # so that both the seat order and the repair order are exercised
    outcomes = {True: 0, False: 0}
    for n in range(1, 13):
        top = max_conflict_pairs(n)
        for lo, hi in ((1, 1), (1, 3), (1, 100)):
            for fraction in (0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 1.0):
                m = round(fraction * top)
                for s in range(3):
                    inst = generate_instance(n, m, lo, hi, 1000 * n + s)
                    for seed in range(4):
                        built = construct_greedy(inst, seed)
                        assert built == reference_greedy(inst, seed), (n, m, lo, hi, s, seed)
                        outcomes[built is None] += 1
    assert sum(outcomes.values()) >= 3000
    assert min(outcomes.values()) >= 500, outcomes


def reference_descent(inst, assignment):
    """The steepest descent as a plain O(n^2) scan per pass: the strictly
    best admissible swap, the first in (i, k) order among equal deltas."""
    n, costs, partners = inst.n, inst.costs, inst.partners
    perm = list(assignment)
    selected = {i * n + j for i, j in enumerate(perm)}
    value = evaluate(inst, perm)
    while True:
        best_delta = 0
        best_move = None
        for i in range(n):
            ci = costs[i]
            for k in range(i + 1, n):
                delta = (
                    ci[perm[k]] + costs[k][perm[i]] - ci[perm[i]] - costs[k][perm[k]]
                )
                if delta < best_delta and _swap_clear(i, k, perm, selected, partners):
                    best_delta = delta
                    best_move = (i, k)
        if best_move is None:
            return tuple(perm), value
        i, k = best_move
        selected -= {i * n + perm[i], k * n + perm[k]}
        perm[i], perm[k] = perm[k], perm[i]
        selected |= {i * n + perm[i], k * n + perm[k]}
        value += best_delta


def descent_starts(inst, seed):
    # a greedy start, which is near a local optimum, and a random feasible
    # permutation, which makes a long descent
    starts = []
    greedy = construct_greedy(inst, rng_seed=seed)
    if greedy is not None:
        starts.append(greedy)
    rng = random.Random(seed)
    for _ in range(5):
        perm = list(range(inst.n))
        rng.shuffle(perm)
        if check_feasible(inst, perm).feasible:
            starts.append(tuple(perm))
            break
    return starts


@pytest.mark.parametrize("n", [6, 8, 10, 15, 20, 30, 40])
@pytest.mark.parametrize("lo,hi", [(0, 2), (1, 100)])
def test_local_search_matches_the_reference_descent(n, lo, hi):
    # densities up to the dense 15/5000 regime, about a fifth of all pairs
    fractions = (0.0, 0.002, 0.01, 0.05, 0.2) if n <= 20 else (0.0, 0.002, 0.01, 0.05)
    runs = 0
    for fraction in fractions:
        m = round(fraction * max_conflict_pairs(n))
        for seed in range(3):
            inst = generate_instance(n, m, lo, hi, seed)
            for perm in descent_starts(inst, seed):
                assert local_search(inst, perm) == reference_descent(inst, perm), (
                    n, m, lo, hi, seed, perm,
                )
                runs += 1
    assert runs >= 2 * len(fractions)


def test_local_search_retries_a_rejected_swap_when_its_blocker_leaves(monkeypatch):
    # Swapping rows 0 and 5 is the best move but seats (0, 0), which
    # conflicts with the selected (1, 5). Once swapping rows 1 and 4 moves
    # (1, 5) out, the swap of rows 0 and 5 is admissible and taken, though
    # neither of its rows moved in between.
    costs = [
        [0, 2, 2, 2, 2, 0],
        [1, 2, 1, 1, 2, 0],
        [2, 1, 1, 1, 2, 1],
        [1, 0, 1, 0, 1, 1],
        [1, 1, 2, 2, 2, 0],
        [0, 2, 2, 2, 1, 0],
    ]
    inst = Instance(costs, [((0, 0), (1, 5))])
    perm = (4, 5, 1, 3, 2, 0)
    checks = []

    def recording_swap_clear(i, k, *args):
        clear = _swap_clear(i, k, *args)
        checks.append((i, k, clear))
        return clear

    monkeypatch.setattr("apc.heuristic._swap_clear", recording_swap_clear)
    out = local_search(inst, perm)
    assert checks == [(0, 5, False), (1, 4, True), (0, 5, True)]
    assert out == ((0, 2, 1, 3, 5, 4), 3)
    assert out == reference_descent(inst, perm)


def test_local_search_past_its_deadline_returns_the_start(monkeypatch):
    inst = generate_instance(30, 400, 1, 100, 0)
    perm = list(construct_greedy(inst, rng_seed=0))
    assert local_search(inst, perm)[1] < evaluate(inst, perm)

    def no_deltas(*items):
        raise AssertionError("the delta matrix was built")

    # the start comes back after the feasibility check and before the delta
    # matrix, which is built through itemgetter
    monkeypatch.setattr("apc.heuristic.itemgetter", no_deltas)
    assert local_search(inst, perm, deadline=0.0) == (tuple(perm), evaluate(inst, perm))
    with pytest.raises(ValueError, match="^local search needs a feasible start"):
        local_search(DIAG, (0, 1), deadline=0.0)


def test_local_search_on_one_row_returns_the_start():
    inst = Instance([[5]])
    assert local_search(inst, [0]) == ((0,), 5)


def test_heuristic_never_beats_the_oracle():
    gaps = []
    for seed in range(20):
        inst = generate_instance(6, 40, 1, 80, seed=300 + seed)
        opt = brute_force(inst)
        sol = run_heuristic(inst, LSConfig(restarts=3, rng_seed=seed))
        if opt.status is SolveStatus.INFEASIBLE:
            assert sol.value is None or check_feasible(inst, sol.assignment).feasible
            continue
        if sol.value is not None:
            assert sol.value >= opt.value
            gaps.append(gap_percent(sol.value, opt.value))
    assert gaps and all(g >= 0 for g in gaps)


def test_run_heuristic_is_deterministic():
    inst = generate_instance(8, 200, 1, 90, seed=8)
    cfg = LSConfig(restarts=4, rng_seed=99)
    a = run_heuristic(inst, cfg)
    b = run_heuristic(inst, cfg)
    assert a.assignment == b.assignment and a.value == b.value


def test_run_heuristic_stops_restarting_at_the_deadline(monkeypatch):
    class Clock:
        # every reading is 10 s after the one before
        now = 0.0

        def perf_counter(self):
            self.now += 10.0
            return self.now

    monkeypatch.setattr("apc.heuristic.time", Clock())
    sol = run_heuristic(DIAG, LSConfig(time_limit=1.0, restarts=5))
    # start, the spent budget seen before the first restart, the end
    assert sol.status is SolveStatus.NO_SOLUTION and sol.assignment is None
    assert sol.sec_total == 20.0


def test_run_heuristic_descends_no_further_past_the_deadline(monkeypatch):
    inst = generate_instance(30, 400, 1, 100, 0)
    cfg = LSConfig(time_limit=1.0, restarts=1, rng_seed=0)
    greedy = construct_greedy(inst, random.Random(0).getrandbits(63))  # restart 1
    assert evaluate(inst, greedy) == 337
    assert run_heuristic(inst, cfg).value == 193  # with time to descend

    class Clock:
        # 0 for the start and the first restart check, then frozen past the
        # 1 s budget, so the greedy's start is all the descent may return
        reads = 0

        def perf_counter(self):
            self.reads += 1
            return 0.0 if self.reads <= 2 else 10.0

    monkeypatch.setattr("apc.heuristic.time", Clock())
    sol = run_heuristic(inst, cfg)
    assert (sol.assignment, sol.value) == (greedy, 337)
    assert sol.status is SolveStatus.FEASIBLE
    assert sol.sec_best == sol.sec_total == 10.0


def test_restart_dominance():
    inst = generate_instance(8, 150, 1, 90, seed=15)
    values = []
    for k in range(1, 6):
        sol = run_heuristic(inst, LSConfig(restarts=k, rng_seed=7))
        values.append(sol.value)
    assert values == sorted(values, reverse=True) or all(
        values[i] >= values[i + 1] for i in range(len(values) - 1)
    )


def test_gap_percent():
    assert gap_percent(110, 100) == pytest.approx(10.0)
    assert gap_percent(137, 137) == 0.0
    assert gap_percent(90, 100) == pytest.approx(-10.0)  # upstream bug signal
    with pytest.raises(ValueError, match="^reference optimum must be positive, got 0$"):
        gap_percent(5, 0)


def test_lsconfig_rejects_bad_limits():
    with pytest.raises(ValueError):
        LSConfig(time_limit=0)
    with pytest.raises(ValueError):
        LSConfig(restarts=0)
    with pytest.raises(ValueError):
        LSConfig(time_limit=float("nan"))


def test_lsconfig_rejects_a_restart_count_that_is_not_an_int():
    # a float count would build and then fail inside range() on the first run;
    # a float or str seed would seed the restarts' random.Random all the same
    for bad in ({"restarts": 2.5}, {"rng_seed": 1.5}, {"rng_seed": "abc"}):
        with pytest.raises(TypeError):
            LSConfig(**bad)
    assert LSConfig(restarts=2).restarts == 2


def test_greedy_repair_can_recover():
    # whichever row goes first grabs its cheap column, which blocks the other
    # row's only conflict-free choice; repair must still find the one feasible
    # matching from every processing order
    conflicts = {ConflictPair(Edge(0, 0), Edge(1, 1))}
    inst = Instance([[1, 50], [50, 1]], conflicts)
    for seed in range(10):
        perm = construct_greedy(inst, rng_seed=seed)
        assert perm == (1, 0)
        assert evaluate(inst, perm) == 100


def test_greedy_evicts_blockers_in_row_order():
    # a repair here evicts several blockers at once, and the order they
    # re-enter the queue in decides whether a later repair must evict one
    # of them again; re-queued in row order, none is evicted twice
    inst = generate_instance(14, 3220, 1, 100, 120956)
    perm = construct_greedy(inst, rng_seed=1)
    assert perm == (9, 8, 6, 13, 0, 12, 2, 4, 5, 10, 11, 3, 1, 7)
    assert check_feasible(inst, perm).feasible and evaluate(inst, perm) == 408


def test_heuristic_output_is_pinned():
    # The greedy's picks and evictions and the descent's swaps are fixed for a
    # seed: these results (the heur-large benchmark rows, then small seeded
    # instances, four of the twelve with no solution) must not move when the
    # conflict index changes representation.
    rows = [(100, 30000, 1), (100, 30000, 2), (15, 5000, 1), (15, 5000, 2),
            (20, 10000, 1), (20, 10000, 2)]
    rows += [(n, n * n * 2, s) for n, s in ((5, 3), (6, 4), (8, 5), (10, 6), (12, 7))]
    rows.append((12, 3000, 1))
    results = []
    for n, m, s in rows:
        inst = generate_instance(n, m, 1, 100, s)
        sol = run_heuristic(inst, LSConfig(restarts=5, rng_seed=s))
        results.append(None if sol.value is None else (sol.assignment, sol.value))
    assert sum(r is None for r in results) == 4
    digest = "64a2b1aca1233b8df547310b40a4589d164f7ae49c30f69339dbec11ea72f608"
    assert hashlib.sha256(repr(results).encode()).hexdigest() == digest
