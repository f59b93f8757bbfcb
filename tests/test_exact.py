"""Branch-and-bound solver: examples, branching rules, oracle equivalence."""

import itertools
import random
import types

import pytest

import apc.exact
from apc.errors import NotAPermutationError
from apc.exact import branch, find_violated_conflict, solve_exact
from apc.heuristic import LSConfig
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
from apc.solution import Solution, SolveStatus

DIAG = Instance([[1, 10], [10, 1]], [((0, 0), (1, 1))])
BOTH_BLOCKED = Instance(
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
    _, ap_value = solve_ap(MaskedCosts(inst.costs))[:2]
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
    # both edges of the one violated pair tie on count and cost: smaller id
    assert find_violated_conflict([0, 1], DIAG) == 0
    assert find_violated_conflict([1, 0], DIAG) is None


def test_find_violated_conflict_prefers_count_then_cost():
    costs = [[5, 1, 1], [1, 50, 1], [1, 1, 1]]
    # the cheap edge (2, 2) sits in two violated pairs, the costly (1, 1) in one
    inst = Instance(costs, [((0, 0), (2, 2)), ((1, 1), (2, 2))])
    assert find_violated_conflict([0, 1, 2], inst) == 2 * 3 + 2
    # all three edges sit in two violated pairs: the costliest wins
    triangle = [((0, 0), (1, 1)), ((0, 0), (2, 2)), ((1, 1), (2, 2))]
    inst = Instance(costs, triangle)
    assert find_violated_conflict([0, 1, 2], inst) == 1 * 3 + 1
    # count and cost tie between (0, 0) and (1, 1): the smaller id wins
    inst = Instance([[7, 1, 1], [1, 7, 1], [1, 1, 1]], triangle)
    assert find_violated_conflict([0, 1, 2], inst) == 0


def test_find_violated_conflict_rejects_non_permutation():
    with pytest.raises(NotAPermutationError):
        find_violated_conflict([0, 0], DIAG)


def test_find_violated_agrees_with_feasibility_checker():
    # The selected edge in the most violated pairs, ties broken by higher
    # cost, then smaller id; costs in {1, 2} on odd seeds make equal counts
    # and equal costs among the leaders common.
    rng = random.Random(12)
    count_ties = cost_ties = 0
    for seed in range(100):
        n = rng.randint(3, 7)
        m = rng.randint(0, max_conflict_pairs(n) // 2)
        inst = generate_instance(n, m, 1, 2 if seed % 2 else 50, seed=seed)
        perm = list(range(n))
        rng.shuffle(perm)
        violated = check_feasible(inst, perm).violated_conflicts
        keys = []
        for a, b in enumerate(perm):
            count = sum((a, b) in pair for pair in violated)
            if count:
                keys.append((-count, -inst.costs[a][b], a * n + b))
        expected = min(keys, default=(None, None, None))
        assert find_violated_conflict(perm, inst) == expected[2]
        if keys:
            count_ties += [k[0] for k in keys].count(expected[0]) > 1
            cost_ties += [k[:2] for k in keys].count(expected[:2]) > 1
    assert count_ties >= 10 and cost_ties >= 10


def test_branch_children():
    root = MaskedCosts(DIAG.costs)
    avoid, commit = branch(root, 0, DIAG.partners)
    assert DIAG.partners[0] == (3,)  # edge (0, 0) conflicts with (1, 1)
    assert avoid.base is commit.base is DIAG.costs
    # forbidding (0, 0) leaves row 0 one edge, (0, 1), and forcing it leaves
    # row 1 one edge, (1, 0)
    assert avoid.forbidden == frozenset({0}) and avoid.forced == frozenset({1, 2})
    assert commit.forced == frozenset({0})
    assert commit.forbidden == frozenset({3})


def test_branch_rejects_contradictory_split():
    # MaskedCosts is the one mask validator: a split whose commit child
    # contradicts the parent's masks fails loudly instead of dropping a child.
    for forbidden, forced in [
        ({0}, set()),  # the edge (0, 0) itself is forbidden
        (set(), {3}),  # a conflict partner, (1, 1), is forced
        (set(), {2}),  # a forced edge, (1, 0), holds its column
    ]:
        node = MaskedCosts(DIAG.costs, frozenset(forbidden), frozenset(forced))
        with pytest.raises(ValueError):
            branch(node, 0, DIAG.partners)


def test_emptied_avoid_line_gets_no_masks_and_no_ap_solve(monkeypatch):
    # In BOTH_BLOCKED, forbidding (0, 0) forces (0, 1), whose partner (1, 0)
    # is then forbidden, which empties row 1: the avoid child is dropped
    # before any MaskedCosts or solve_ap call.
    built, solved = [], []
    masks_cls, ap = apc.exact.MaskedCosts, apc.exact.solve_ap

    def masks_spy(base, forbidden=frozenset(), forced=frozenset()):
        built.append((set(forbidden), set(forced)))
        return masks_cls(base, forbidden, forced)

    def ap_spy(mc, start=None):
        solved.append((set(mc.forbidden), set(mc.forced)))
        return ap(mc, start)

    monkeypatch.setattr("apc.exact.MaskedCosts", masks_spy)
    monkeypatch.setattr("apc.exact.solve_ap", ap_spy)
    avoid, commit = branch(masks_cls(BOTH_BLOCKED.costs), 0, BOTH_BLOCKED.partners)
    assert avoid is None and commit.forced == {0} and commit.forbidden == {3}
    assert built == [({3}, {0})] and not solved
    # with (0, 1) already forbidden, avoiding (0, 0) empties row 0 at once
    built.clear()
    avoid, _ = branch(masks_cls(DIAG.costs, frozenset({1})), 0, DIAG.partners)
    assert avoid is None and built == [({1, 3}, {0})] and not solved

    built.clear()
    sol = solve_exact(BOTH_BLOCKED)
    assert sol.status is SolveStatus.INFEASIBLE and sol.nodes == 1
    # the root and the commit child only, each built once and solved once
    assert built == solved == [(set(), set()), ({3}, {0})]


def test_lone_edges_are_forced_in_a_chain():
    # Rows 0 and 1 start with two and three allowed edges. Avoiding (0, 0)
    # forces (0, 1); its partner (1, 2) and column 1 leave row 1 only (1, 3);
    # that edge's partner (2, 0) leaves row 2 only (2, 2); row 3 keeps (3, 0).
    inst = Instance(
        [[1, 4, 9, 9], [9, 2, 3, 6], [2, 9, 5, 9], [7, 9, 9, 3]],
        [((0, 1), (1, 2)), ((1, 3), (2, 0))],
    )
    node = MaskedCosts(inst.costs, frozenset({2, 3, 4}))  # (0,2) (0,3) (1,0)
    avoid, commit = branch(node, 0, inst.partners)
    assert avoid.forced == frozenset({1, 7, 10, 12})
    assert avoid.forbidden == frozenset({0, 2, 3, 4, 6, 8})
    assert commit.forced == frozenset({0}) and commit.forbidden == node.forbidden
    # the child keeps exactly the node's feasible solutions that avoid (0, 0)
    kept = [
        (p, v)
        for p, v in enumerate_feasible(inst)
        if _obeys(p, node) and p[0] != 0
    ]
    assert kept == [((1, 3, 2, 0), 4 + 6 + 5 + 7)]
    assert solve_ap(avoid)[:2] == kept[0]
    assert solve_ap(avoid, solve_ap(node))[:2] == kept[0]
    sol, bf = solve_exact(inst), brute_force(inst)
    assert (sol.status, sol.value) == (bf.status, bf.value)


def test_lone_edge_closure_agrees_with_brute_force_on_dense_instances(monkeypatch):
    # Dense conflicts leave lines with one allowed edge or none, so the
    # closure runs, both dropping avoid children and forcing edges.
    split = apc.exact.branch
    outcomes = []

    def spy(masks, edge, partners):
        avoid, commit = split(masks, edge, partners)
        added = None if avoid is None else len(avoid.forced) - len(masks.forced)
        outcomes.append(added)
        return avoid, commit

    monkeypatch.setattr("apc.exact.branch", spy)
    statuses = set()
    for idx in range(60):
        n = 3 + idx % 6
        m = int((0.15 + 0.05 * (idx % 7)) * max_conflict_pairs(n))
        inst = generate_instance(n, m, 1, 100, seed=8100 + idx)
        sol, bf = solve_exact(inst), brute_force(inst)
        assert (sol.status, sol.value) == (bf.status, bf.value), (idx, n, m)
        statuses.add(bf.status)
    assert statuses == {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE}
    assert outcomes.count(None) >= 20
    assert sum(added is not None and added >= 2 for added in outcomes) >= 5


def _closed_avoid(masks, edge, partners):
    # The avoid child's masks by the naive closure: when the edge's row or
    # column keeps under two allowed edges, sweep all 2n lines, recounting
    # each from scratch, force any lone edge and forbid all of its partners,
    # until a sweep changes nothing. None when a line has no allowed edge.
    n = masks.n
    forbidden, forced = set(masks.forbidden) | {edge}, set(masks.forced)
    lines = [range(i * n, i * n + n) for i in range(n)]
    lines += [range(j, n * n, n) for j in range(n)]

    def allowed(cells):
        rows, cols = {f // n for f in forced}, {f % n for f in forced}
        return [
            f
            for f in cells
            if f not in forbidden and f // n not in rows and f % n not in cols
        ]

    a, b = divmod(edge, n)
    changed = min(len(allowed(lines[a])), len(allowed(lines[n + b]))) < 2
    while changed:
        changed = False
        for cells in lines:
            if forced.isdisjoint(cells):
                left = allowed(cells)
                if not left:
                    return None
                if len(left) == 1:
                    forced.add(left[0])
                    forbidden.update(partners[left[0]])
                    changed = True
    return forbidden, forced


def test_avoid_child_matches_the_naive_closure(monkeypatch):
    # At every split solve_exact makes on random instances, the avoid child
    # is dropped exactly when the naive closure empties a line, and otherwise
    # has its forced edges and the same forbidden cells on the free lines.
    split = apc.exact.branch
    checked, closed = [], []

    def spy(masks, edge, partners):
        avoid, commit = split(masks, edge, partners)
        ref = _closed_avoid(masks, edge, partners)
        assert (avoid is None) == (ref is None), (masks, edge)
        if avoid is not None:
            n = masks.n
            forbidden, forced = ref
            rows, cols = {f // n for f in forced}, {f % n for f in forced}

            def on_free_lines(cells):
                return {f for f in cells if f // n not in rows and f % n not in cols}

            assert avoid.forced == forced, (masks, edge)
            assert on_free_lines(avoid.forbidden) == on_free_lines(forbidden)
        checked.append(edge)
        if ref is None or len(ref[1]) > len(masks.forced):
            closed.append(edge)
        return avoid, commit

    monkeypatch.setattr("apc.exact.branch", spy)
    rng = random.Random(2020)
    for _ in range(60):
        n = rng.randint(3, 12)
        m = int(rng.uniform(0.05, 0.40) * max_conflict_pairs(n))
        inst = generate_instance(n, m, 1, 100, seed=rng.randrange(10**6))
        solve_exact(inst, node_limit=400)
    assert len(checked) >= 5000 and len(closed) >= 1000


def _obeys(perm, masks):
    n = len(perm)
    return all(perm[e // n] != e % n for e in masks.forbidden) and all(
        perm[e // n] == e % n for e in masks.forced
    )


def test_branch_is_a_dichotomy():
    # Follow solve_exact's split a few levels deep: every feasible solution
    # inside a node lies in exactly one child, and child bounds never drop.
    splits = dropped = 0
    for seed in range(16):
        n = 4 + seed % 4
        inst = generate_instance(n, max_conflict_pairs(n) // 8, 1, 50, seed=700 + seed)
        feasible = [perm for perm, _ in enumerate_feasible(inst)]
        root = MaskedCosts(inst.costs)
        relaxed, bound = solve_ap(root)[:2]
        frontier = [(root, bound, relaxed)]
        for _ in range(4):
            deeper = []
            for masks, bound, relaxed in frontier:
                edge = find_violated_conflict(relaxed, inst)
                if edge is None:
                    continue
                children = branch(masks, edge, inst.partners)
                assert len(children) == 2
                splits += 1
                for perm in feasible:
                    if _obeys(perm, masks):
                        hits = [c for c in children if c is not None and _obeys(perm, c)]
                        assert len(hits) == 1, (seed, perm, masks)
                for child in children:
                    if child is None:
                        # the avoid child was dropped: no feasible solution of
                        # the node avoids the edge
                        dropped += 1
                        assert not any(
                            _obeys(p, masks) and p[edge // n] != edge % n
                            for p in feasible
                        ), (seed, masks, edge)
                        continue
                    res = solve_ap(child)
                    if res is None:
                        continue
                    assert res[1] >= bound
                    deeper.append((child, res[1], res[0]))
            frontier = deeper
    assert splits >= 50 and dropped >= 1


def test_warm_child_solves_match_cold_solves():
    # Follow solve_exact's split 6 levels deep on tie-heavy costs, each child
    # re-optimized from its parent's result as the solver does.
    warm_solves = dropped = 0
    for seed in range(12):
        n = 4 + seed % 9
        inst = generate_instance(n, max_conflict_pairs(n) // 10, 0, 2, seed=900 + seed)
        root = MaskedCosts(inst.costs)
        frontier = [(root, solve_ap(root))]
        for _ in range(6):
            deeper = []
            for masks, res in frontier[:24]:
                edge = find_violated_conflict(res[0], inst)
                if edge is None:
                    continue
                for child in branch(masks, edge, inst.partners):
                    if child is None:
                        # a dropped avoid child holds no feasible solution of
                        # the node
                        dropped += 1
                        if n <= 7:
                            assert not any(
                                _obeys(p, masks)
                                and p[edge // n] != edge % n
                                and check_feasible(inst, p).feasible
                                for p in itertools.permutations(range(n))
                            ), (seed, masks, edge)
                        continue
                    warm, cold = solve_ap(child, res), solve_ap(child)
                    assert (warm is None) == (cold is None), (seed, child)
                    warm_solves += 1
                    if warm is None:
                        continue
                    assert warm[1] == cold[1] >= res[1]
                    assert sorted(warm[0]) == list(range(n)) and _obeys(warm[0], child)
                    if n <= 7:
                        assert warm[1] == min(
                            sum(inst.costs[i][p[i]] for i in range(n))
                            for p in itertools.permutations(range(n))
                            if _obeys(p, child)
                        )
                    deeper.append((child, warm))
            frontier = deeper
    assert warm_solves >= 400 and dropped >= 1


def test_solve_exact_branches_on_the_scanned_edge(monkeypatch):
    # The rule the scan tests pin is the one the search branches on: every
    # split takes the edge the preceding scan returned, with its partners.
    events = []
    scan, split = apc.exact.find_violated_conflict, apc.exact.branch

    def scan_spy(assignment, inst):
        edge = scan(assignment, inst)
        events.append(("scan", edge))
        return edge

    def branch_spy(masks, edge, partners):
        events.append(("branch", edge, partners))
        return split(masks, edge, partners)

    monkeypatch.setattr("apc.exact.find_violated_conflict", scan_spy)
    monkeypatch.setattr("apc.exact.branch", branch_spy)
    splits = 0
    for n, seed in ((6, 1), (8, 2), (10, 3), (12, 4)):
        inst = generate_instance(n, max_conflict_pairs(n) // 10, 1, 50, seed=seed)
        events.clear()
        sol = solve_exact(inst, time_limit=60)
        assert sol.status is SolveStatus.OPTIMAL
        for before, event in zip(events, events[1:]):
            if event[0] == "branch":
                _, edge, partners = event
                assert before == ("scan", edge) and edge is not None
                assert partners is inst.partners
                splits += 1
        assert sum(e[0] == "branch" for e in events) == sum(
            e[0] == "scan" and e[1] is not None for e in events
        )
    assert splits >= 20


def test_branch_completeness_on_dense_instance():
    # the search must agree with enumeration even when every pair conflicts
    edges = [Edge(a, b) for a in range(3) for b in range(3)]
    pairs = {ConflictPair(e, f) for e, f in itertools.combinations(edges, 2)}
    inst = Instance([[2, 3, 4], [5, 6, 7], [8, 9, 1]], pairs)
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
    # on 30/20000 s1 the seed finds an incumbent the limit leaves unproven;
    # 257 is the optimum HiGHS proves
    seeded = solve_exact(generate_instance(30, 20000, 1, 100, 1), node_limit=1)
    assert seeded.status is SolveStatus.FEASIBLE and _solution_iff_solved(seeded)
    assert seeded.nodes == 1
    assert seeded.value == 556 and seeded.lower_bound == 177 <= 257


def test_seeded_incumbent_reports_when_the_seed_found_it(monkeypatch):
    # a seed that starts at once, returns after 1 s and found its solution
    # at 0.25 s: sec_best is the 0.25 s, not the time the seed returned
    clock = [5.0]

    def seed(inst, config):
        clock[0] += 1.0
        return Solution((1, 0), 20, SolveStatus.FEASIBLE, sec_best=0.25, sec_total=1.0)

    monkeypatch.setattr("apc.exact.time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr("apc.exact.run_heuristic", seed)
    sol = solve_exact(DIAG, node_limit=0)
    assert sol.value == 20 and sol.sec_total == 1.0
    assert sol.sec_best == 0.25


def test_time_limit_status():
    inst = generate_instance(7, 500, 1, 100, seed=9)
    # the seeding heuristic finds nothing here either
    sol = solve_exact(inst, time_limit=1e-6)
    assert sol.status is SolveStatus.NO_SOLUTION and _solution_iff_solved(sol)
    assert sol.lower_bound is not None


def test_rejects_nonpositive_time_limit():
    # a NaN time limit or a negative node limit would otherwise mean no limit
    for limits in ({"time_limit": 0}, {"time_limit": float("nan")}, {"node_limit": -5}):
        with pytest.raises(ValueError):
            solve_exact(DIAG, **limits)


def test_limited_run_that_proved_its_incumbent_is_optimal():
    # the seeding heuristic finds the optimum and the root bound meets it, so
    # a node limit of 0 stops a search that has nothing left to prove
    inst = generate_instance(3, 4, 1, 100, 1)
    sol = solve_exact(inst, node_limit=0)
    assert sol.status is SolveStatus.OPTIMAL and sol.nodes == 0
    assert sol.value == sol.lower_bound == brute_force(inst).value == 109


def test_seeding_heuristic_stays_inside_a_short_time_limit(monkeypatch):
    # two restarts from rng seed 0, bounded by the solve's own time limit
    configs = []

    def spy(inst, cfg):
        configs.append(cfg)
        return Solution(None, None, SolveStatus.NO_SOLUTION)

    monkeypatch.setattr("apc.exact.run_heuristic", spy)
    solve_exact(generate_instance(4, 10, 1, 100, seed=1), time_limit=0.01)
    assert configs == [LSConfig(time_limit=0.01, restarts=2)]


def test_search_end_states_are_pinned():
    # (status, value, lower_bound, nodes) of every way a search can end: a
    # proof by the first conflict-free relaxation, a proof of infeasibility,
    # a node limit with and without an incumbent, and a limit that strikes
    # after the incumbent is proven
    mid = generate_instance(7, 400, 1, 100, seed=2024)
    opt, feas, infeas, nosol = (
        SolveStatus.OPTIMAL,
        SolveStatus.FEASIBLE,
        SolveStatus.INFEASIBLE,
        SolveStatus.NO_SOLUTION,
    )
    cases = [
        (DIAG, {}, (opt, 20, 20, 1)),
        (BOTH_BLOCKED, {}, (infeas, None, None, 1)),
        (mid, {"node_limit": 1}, (nosol, None, 198, 1)),
        (mid, {}, (opt, 375, 375, 27)),
        (generate_instance(3, 4, 1, 100, 1), {"node_limit": 0}, (opt, 109, 109, 0)),
        (generate_instance(12, 3000, 1, 100, 1), {}, (infeas, None, None, 1724)),
        (
            generate_instance(15, 5000, 1, 100, 1),
            {"node_limit": 200},
            (nosol, None, 309, 200),
        ),
        (
            generate_instance(30, 20000, 1, 100, 1),
            {"node_limit": 40},
            (feas, 556, 204, 40),
        ),
    ]
    for inst, limits, expected in cases:
        sol = solve_exact(inst, **limits)
        assert (sol.status, sol.value, sol.lower_bound, sol.nodes) == expected, limits
