"""Branch-and-bound solver: examples, branching rules, oracle equivalence."""

import itertools
import random
import types
from collections import Counter

import pytest

import apc.exact
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
from edge_bits import allowed_bits, bits, forced_ids, ids

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
    # every line of a 2x2 node is short: the split is row 0's allowed edges,
    # the first of the tied lines of the violated edges (0, 0) and (1, 1)
    full = bits(range(4))
    assert find_violated_conflict([0, 1], DIAG, full) == bits({0, 1})
    assert find_violated_conflict([1, 0], DIAG, full) is None
    # with (1, 0) forbidden, column 0 holds (0, 0) alone, fewer than row 0
    assert find_violated_conflict([0, 1], DIAG, allowed_bits(2, {2})) == bits({0})


def _padded(costs, conflicts, n=5):
    # the costs and conflicts in the top-left corner of an n x n instance of
    # unit costs, so a full node's lines have n > 4 edges and are not short
    return Instance(
        [list(row) + [1] * (n - len(row)) for row in costs]
        + [[1] * n for _ in range(n - len(costs))],
        conflicts,
    )


def test_find_violated_conflict_prefers_count_then_cost():
    costs = [[5, 1, 1], [1, 50, 1], [1, 1, 1]]
    full, perm = bits(range(25)), list(range(5))
    # the cheap edge (2, 2) sits in two violated pairs, the costly (1, 1) in one
    inst = _padded(costs, [((0, 0), (2, 2)), ((1, 1), (2, 2))])
    assert find_violated_conflict(perm, inst, full) == 1 << 2 * 5 + 2
    # all three edges sit in two violated pairs: the costliest wins
    triangle = [((0, 0), (1, 1)), ((0, 0), (2, 2)), ((1, 1), (2, 2))]
    inst = _padded(costs, triangle)
    assert find_violated_conflict(perm, inst, full) == 1 << 1 * 5 + 1
    # count and cost tie between (0, 0) and (1, 1): the smaller id wins
    inst = _padded([[7, 1, 1], [1, 7, 1], [1, 1, 1]], triangle)
    assert find_violated_conflict(perm, inst, full) == 1 << 0


def test_find_violated_conflict_splits_the_first_shortest_line():
    # The candidates are the rows and columns of the violated edges (0, 0),
    # (1, 1) and (2, 2), each edge's row before its column, in assignment
    # order. The first with the fewest allowed edges is the split when it
    # has at most four; otherwise the edge rule picks (1, 1), in two pairs.
    inst = _padded([[1] * 3] * 3, [((0, 0), (1, 1)), ((1, 1), (2, 2))])

    def scan(*forbidden):
        return find_violated_conflict(list(range(5)), inst, allowed_bits(5, forbidden))

    assert scan() == scan(24) == 1 << 6  # no candidate line loses an edge
    assert scan(13) == bits({10, 11, 12, 14})  # row 2 keeps four
    # column 1 keeps three, fewer than row 2's four
    assert scan(11, 16) == bits({1, 6, 21})
    # row 2 keeps three as well, but column 1 comes first
    assert scan(11, 13, 16) == bits({1, 6, 21})
    # column 0 keeps three too, and it comes before both
    assert scan(5, 11, 13, 16, 20) == bits({0, 10, 15})


def test_find_violated_conflict_rejects_non_permutation():
    with pytest.raises(ValueError, match=r"^assignment \[0, 0\] is not a permutation of 0\.\.1$"):
        find_violated_conflict([0, 0], DIAG, bits(range(4)))


def test_find_violated_agrees_with_feasibility_checker():
    # The split of random nodes on random instances, spelled out over the
    # feasibility checker's violated pairs: the first shortest candidate
    # line's allowed edges when it has at most four, else the selected edge
    # in the most violated pairs, ties broken by higher cost, then smaller
    # id. Costs in {1, 2} on odd seeds make equal counts and equal costs
    # among the edge rule's leaders common. Each edge off the assignment is
    # forbidden with probability 1/8 (on half the nodes), 1/4 or 1/2, which
    # leaves short lines on some nodes and none on others.
    rng = random.Random(12)
    count_ties = cost_ties = line_splits = 0
    for seed in range(300):
        n = rng.randint(4, 10)
        m = rng.randint(0, max_conflict_pairs(n) // 2)
        inst = generate_instance(n, m, 1, 2 if seed % 2 else 50, seed=seed)
        perm = list(range(n))
        rng.shuffle(perm)
        keep = rng.choice((1, 3, 7, 7))
        allowed = bits(
            e for e in range(n * n) if perm[e // n] == e % n or rng.getrandbits(3) & keep
        )
        split = find_violated_conflict(perm, inst, allowed)
        violated = check_feasible(inst, perm).violated_conflicts
        keys, lines = [], []
        for a, b in enumerate(perm):
            count = sum((a, b) in pair for pair in violated)
            if count:
                keys.append((-count, -inst.costs[a][b], a * n + b))
                lines.append(bits(e for e in ids(allowed) if e // n == a))
                lines.append(bits(e for e in ids(allowed) if e % n == b))
        if not keys:
            assert split is None
            continue
        line, leader = min(lines, key=int.bit_count), min(keys)
        if line.bit_count() <= 4:
            assert split == line
            line_splits += 1
            continue
        assert split == 1 << leader[2]
        count_ties += [k[0] for k in keys].count(leader[0]) > 1
        cost_ties += [k[:2] for k in keys].count(leader[:2]) > 1
    assert count_ties >= 10 and cost_ties >= 10 and line_splits >= 20, (
        count_ties, cost_ties, line_splits
    )


def test_branch_children():
    root = bits(range(4))
    avoid, commit = branch(root, 1 << 0, DIAG)
    assert DIAG.partners[0] == (3,)  # edge (0, 0) conflicts with (1, 1)
    # forbidding (0, 0) leaves row 0 one edge, (0, 1), and forcing it leaves
    # row 1 one edge, (1, 0)
    assert ids(avoid) == {1, 2} and forced_ids(2, avoid) == {1, 2}
    # committing to (0, 0) forbids (0, 1) and (1, 0), the rest of its row and
    # column, and its partner (1, 1), which empties row 1
    assert commit is None
    # (1, 0) has no partner: committing to it forces (0, 1) as well
    avoid, commit = branch(root, 1 << 2, DIAG)
    assert ids(commit) == {1, 2} and forced_ids(2, commit) == {1, 2}
    # avoiding it leaves (0, 0) and (1, 1), a conflicting pair: the avoid
    # child is dropped
    assert avoid is None
    # a split on all of row 0 has no avoid child and one commit child per
    # edge, in ascending id: (0, 0) empties row 1, (0, 1) forces (1, 0)
    assert branch(root, bits({0, 1}), DIAG) == (None, None, bits({1, 2}))
    # so does a split on all of column 0, whose (1, 0) forces (0, 1)
    assert branch(root, bits({0, 2}), DIAG) == (None, None, bits({1, 2}))


def test_branch_rejects_contradictory_split():
    # Splitting on an edge the node does not allow fails loudly instead of
    # dropping a child, and an id past the grid fails before any closure work
    # rather than with an IndexError from the partner lookup. So do an empty
    # split and one whose edges share no row or column.
    n = DIAG.n
    for mask, edge in [
        (allowed_bits(2, {0}), 0),  # the edge (0, 0) itself is forbidden
        (allowed_bits(2, forced={2}), 0),  # a forced edge, (1, 0), holds its column
        (bits(range(n * n)), n * n),  # the first id outside the grid
        (bits(range(n * n)), n * n + 2),
    ]:
        with pytest.raises(ValueError, match=f"edge {edge} is not allowed"):
            branch(mask, 1 << edge, DIAG)
    # the lowest edge the node lacks is named, wherever the split lies
    with pytest.raises(ValueError, match="^edge 1 is not allowed at this node$"):
        branch(allowed_bits(2, {1}), bits({0, 1}), DIAG)
    with pytest.raises(ValueError, match="^split holds no edge$"):
        branch(bits(range(n * n)), 0, DIAG)
    for split in (bits({0, 3}), bits({1, 2})):  # the two diagonals
        spans = r"^split on edges \[\d, \d\] spans more than one line$"
        with pytest.raises(ValueError, match=spans):
            branch(bits(range(n * n)), split, DIAG)
    # A forced conflict partner, (1, 1), leaves both children an empty line.
    assert branch(allowed_bits(2, forced={3}), 1 << 0, DIAG) == (None, None)


@pytest.fixture
def ap_work(monkeypatch):
    # The allowed ids of each MaskedCosts that apc.exact builds and of each
    # mask it passes to solve_ap, in call order.
    built, solved = [], []
    masks_cls, ap = apc.exact.MaskedCosts, apc.exact.solve_ap

    def masks_spy(base, allowed=None):
        mc = masks_cls(base, allowed)
        _, allowed = mc
        built.append(ids(allowed))
        return mc

    def ap_spy(mc, start=None):
        _, allowed = mc
        solved.append(ids(allowed))
        return ap(mc, start)

    monkeypatch.setattr("apc.exact.MaskedCosts", masks_spy)
    monkeypatch.setattr("apc.exact.solve_ap", ap_spy)
    return built, solved


def test_emptied_line_drops_the_child_before_masks_and_ap_solve(ap_work):
    # In BOTH_BLOCKED, forbidding (0, 0) forces (0, 1), whose partner (1, 0)
    # is then forbidden, which empties row 1: the avoid child is dropped.
    # Committing to (0, 0) forbids its partner (1, 1) and the rest of its
    # lines, which empties row 1 too: the commit child is dropped the same
    # way. branch itself makes no MaskedCosts or solve_ap call.
    built, solved = ap_work
    assert branch(bits(range(4)), 1 << 0, BOTH_BLOCKED) == (None, None)
    assert not built and not solved
    # with (0, 1) already forbidden, avoiding (0, 0) empties row 0 at once
    avoid, _ = branch(allowed_bits(2, {1}), 1 << 0, DIAG)
    assert avoid is None and not built and not solved

    # Row 0 of BOTH_BLOCKED allows (0, 0) and (0, 1), and each of them
    # excludes both edges of row 1, so the root empties row 1 and is dropped
    # before any MaskedCosts or solve_ap call.
    sol = solve_exact(BOTH_BLOCKED)
    assert sol.status is SolveStatus.INFEASIBLE and sol.nodes == 0
    assert built == solved == []
    # In DIAG both edges of row 0 exclude (1, 1), which forces (1, 0) and so
    # forbids (0, 0): the root is closed to its one feasible solution and is
    # built and solved once.
    sol = solve_exact(DIAG)
    assert sol.status is SolveStatus.OPTIMAL and sol.nodes == 1
    assert built == solved == [{1, 2}]


def test_lone_edges_are_forced_in_a_chain():
    # Rows 0 and 1 start with two and three allowed edges. Avoiding (0, 0)
    # forces (0, 1); its partner (1, 2) and column 1 leave row 1 only (1, 3);
    # that edge's partner (2, 0) leaves row 2 only (2, 2); row 3 keeps (3, 0).
    inst = Instance(
        [[1, 4, 9, 9], [9, 2, 3, 6], [2, 9, 5, 9], [7, 9, 9, 3]],
        [((0, 1), (1, 2)), ((1, 3), (2, 0))],
    )
    node = allowed_bits(4, {2, 3, 4})  # (0,2) (0,3) (1,0)
    avoid, commit = branch(node, 1 << 0, inst)
    # the four forced edges make a permutation, so every other edge is forbidden
    assert forced_ids(4, avoid) == {1, 7, 10, 12}
    assert ids(avoid) == {1, 7, 10, 12}
    # (0, 0) has no partner: committing to it forbids only the rest of its lines
    assert commit == node & allowed_bits(4, forced={0})
    # the child keeps exactly the node's feasible solutions that avoid (0, 0)
    kept = [
        (p, v)
        for p, v in enumerate_feasible(inst)
        if _obeys(p, node) and p[0] != 0
    ]
    assert kept == [((1, 3, 2, 0), 4 + 6 + 5 + 7)]
    child = MaskedCosts(inst.costs, avoid)
    assert solve_ap(child)[:2] == kept[0]
    assert solve_ap(child, solve_ap(MaskedCosts(inst.costs, node)))[:2] == kept[0]
    sol, bf = solve_exact(inst), brute_force(inst)
    assert (sol.status, sol.value) == (bf.status, bf.value)


def test_lone_edge_closure_agrees_with_brute_force_on_dense_instances(monkeypatch):
    # Dense conflicts leave lines with one allowed edge or none, so the
    # closure runs, both dropping children and forcing edges. A split of a
    # whole line has no avoid child to close, so only its commits count.
    split_on = apc.exact.branch
    outcomes = []

    def spy(allowed, split, inst):
        children = split_on(allowed, split, inst)
        for child in children if split.bit_count() == 1 else children[1:]:
            added = None if child is None else len(
                forced_ids(inst.n, child) - forced_ids(inst.n, allowed)
            )
            outcomes.append(added)
        return children

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


def _closed(node, more, inst):
    # A child's allowed ids by the naive closure on a set of ids: allow the
    # node's ids less `more`, then sweep all 2n lines, recounting each from
    # scratch; for a line with one to four allowed edges forbid every edge in
    # the row, the column or the partners (`Instance.partners`) of each of
    # them, less the edge itself, until a sweep forbids nothing new. None
    # when a line has no allowed edge.
    n, partners = inst.n, inst.partners
    allowed = ids(node) - set(more)
    lines = [range(i * n, i * n + n) for i in range(n)]
    lines += [range(j, n * n, n) for j in range(n)]

    changed = True
    while changed:
        changed = False
        for cells in lines:
            left = [f for f in cells if f in allowed]
            if not left:
                return None
            if len(left) > 4:
                continue
            more = set.intersection(
                *({*lines[e // n], *lines[n + e % n], *partners[e]} - {e} for e in left)
            )
            changed |= bool(more & allowed)
            allowed -= more
    return allowed


def test_both_children_match_the_naive_closure(monkeypatch):
    # At every split solve_exact makes on random instances, each child is
    # dropped exactly when the naive closure of the node plus its split
    # empties a line, and otherwise forbids exactly the edges that closure
    # forbids: the avoid child's split is the split's edges, a commit
    # child's the rest of its edge's row and column and its partners. A
    # commit child starts from every line, as the root does, so it matches
    # that closure on random masks that are not closed too, split on one
    # edge or on all of a line's allowed edges.
    split_on = apc.exact.branch
    checked, closed, dropped = [], Counter(), Counter()

    def check(node, split, inst, unclosed=False):
        children = split_on(node, split, inst)
        n = inst.n
        edges = sorted(ids(split))
        sides = [("avoid", set(edges))]
        for e in edges:
            a, b = divmod(e, n)
            rest = {a * n + j for j in range(n)} | {i * n + b for i in range(n)}
            sides.append(("commit", (rest - {e}) | set(inst.partners[e])))
        assert len(children) == len(sides)
        for (side, more), child in zip(sides, children):
            if unclosed:  # only the commit children are closed from any mask
                if side == "avoid":
                    continue
                side = "unclosed"
            ref = _closed(node, more, inst)
            assert (child is None) == (ref is None), (side, node, split)
            if child is None:
                dropped[side] += 1
                continue
            assert ids(child) == ref, (side, node, split)
            if ref != ids(node) - more:
                closed[side] += 1
        checked.append(split)
        return children

    monkeypatch.setattr("apc.exact.branch", check)
    rng = random.Random(2020)
    for _ in range(160):
        n = rng.randint(3, 12)
        m = int(rng.uniform(0.05, 0.40) * max_conflict_pairs(n))
        inst = generate_instance(n, m, 1, 100, seed=rng.randrange(10**6))
        solve_exact(inst, node_limit=400)
    line_splits = sum(split.bit_count() > 1 for split in checked)
    assert len(checked) >= 5000 and line_splits >= 1000
    for _ in range(100):
        n = rng.randint(3, 8)
        m = int(rng.uniform(0.05, 0.40) * max_conflict_pairs(n))
        inst = generate_instance(n, m, 1, 100, seed=rng.randrange(10**6))
        for _ in range(30):
            forbidden = rng.getrandbits(n * n) & rng.getrandbits(n * n)
            allowed = [e for e in range(n * n) if not forbidden >> e & 1]
            if allowed:
                e = rng.choice(allowed)
                row = bits(f for f in allowed if f // n == e // n)
                column = bits(f for f in allowed if f % n == e % n)
                check(bits(allowed), rng.choice((1 << e, row, column)), inst, unclosed=True)
    assert len(checked) >= 8000
    assert min(closed.values()) >= 100, closed
    assert min(dropped.values()) >= 400, dropped


def test_a_line_with_two_allowed_edges_forbids_their_common_partners():
    # In this 5x5 node row 0 allows (0, 2) and (0, 3), and row 3 allows
    # (3, 0), (3, 1) and (3, 2). Both children of the split on (0, 2) leave
    # row 3 only (3, 0) and (3, 1): avoiding (0, 2) forces (0, 3), whose
    # partner is (3, 2), and committing to (0, 2) forbids the rest of column
    # 2. Row 3 takes (3, 0) or (3, 1), so (1, 4), a partner of both, is in
    # no feasible solution of either child; (2, 4) conflicts with (3, 0)
    # alone and stays allowed. (4, 0) shares (3, 0)'s column and conflicts
    # with (3, 1), so it cannot sit beside either and is forbidden too.
    costs = [[(3 * i + 7 * j) % 10 + 1 for j in range(5)] for i in range(5)]
    conflicts = [((0, 3), (3, 2)), ((1, 4), (3, 0)), ((1, 4), (3, 1)), ((2, 4), (3, 0))]
    inst = Instance(costs, conflicts + [((4, 0), (3, 1))])
    node = allowed_bits(5, {0, 1, 4, 18, 19})
    children = branch(node, 1 << 2, inst)
    for takes, child in enumerate(children):
        allowed = ids(child)
        assert allowed & {15, 16, 17} == {15, 16}  # row 3 keeps two
        assert 9 not in allowed and 14 in allowed
        assert 20 not in allowed
        assert allowed == _closed(node, ids(node) - allowed, inst)
        # the child keeps exactly the node's feasible solutions on its side
        kept = [p for p, _ in enumerate_feasible(inst) if _obeys(p, child)]
        assert kept == [
            p for p, _ in enumerate_feasible(inst) if _obeys(p, node) and (p[0] == 2) == takes
        ]


def test_a_line_with_three_allowed_edges_forbids_what_all_three_exclude():
    # In this 5x5 node row 0 allows (0, 2) and (0, 3), and row 3 allows all
    # five edges, each of which excludes (1, 4): (3, 4) shares its column,
    # and the other four are its partners. The node is closed: no line of at
    # most four edges has an exclusion common to all of them. Avoiding (0, 2)
    # forces (0, 3), whose column and partner (3, 0) leave row 3 (3, 1),
    # (3, 2) and (3, 4); committing to (0, 2) forbids column 2 and its
    # partner (3, 4), which leaves (3, 0), (3, 1) and (3, 3). Either way row
    # 3 keeps three edges that all exclude (1, 4), so no feasible solution
    # of either child holds it, and the line rule forbids it. (2, 4)
    # conflicts with (3, 0) alone and stays allowed.
    costs = [[(3 * i + 7 * j) % 10 + 1 for j in range(5)] for i in range(5)]
    conflicts = [((0, 2), (3, 4)), ((0, 3), (3, 0)), ((2, 4), (3, 0))]
    inst = Instance(costs, conflicts + [((1, 4), (3, j)) for j in range(4)])
    node = allowed_bits(5, {0, 1, 4})
    assert _closed(node, (), inst) == ids(node)
    children = branch(node, 1 << 2, inst)
    for takes, (child, row3) in enumerate(zip(children, ({16, 17, 19}, {15, 16, 18}))):
        allowed = ids(child)
        assert allowed & set(range(15, 20)) == row3
        assert 9 not in allowed and 14 in allowed
        assert allowed == _closed(node, ids(node) - allowed, inst)
        # the child keeps exactly the node's feasible solutions on its side
        kept = [p for p, _ in enumerate_feasible(inst) if _obeys(p, child)]
        assert kept == [
            p for p, _ in enumerate_feasible(inst) if _obeys(p, node) and (p[0] == 2) == takes
        ]


def test_the_root_is_closed_before_any_ap_work(ap_work):
    # n = 2, the largest size whose root has a line of two edges. Row 0's two
    # edges share the partner (1, 1), so the root forbids it, which forces
    # (1, 0) and then (0, 1); when they share (1, 0) as well, row 1 is left
    # empty and the root is dropped before any MaskedCosts or solve_ap call.
    built, solved = ap_work
    shared = [((0, 0), (1, 1)), ((0, 1), (1, 1))]
    inst = Instance([[1, 10], [10, 1]], shared)
    sol, bf = solve_exact(inst), brute_force(inst)
    assert (sol.status, sol.value, sol.nodes) == (bf.status, bf.value, 1)
    assert sol.assignment == (1, 0) and sol.value == 20
    assert built == solved == [{1, 2}]
    built.clear(), solved.clear()
    inst = Instance([[1, 10], [10, 1]], shared + [((0, 0), (1, 0)), ((0, 1), (1, 0))])
    sol, bf = solve_exact(inst), brute_force(inst)
    assert bf.status is SolveStatus.INFEASIBLE
    assert (sol.status, sol.value, sol.lower_bound, sol.nodes) == (bf.status, None, None, 0)
    assert not built and not solved


def test_a_closed_child_without_a_perfect_matching_is_dropped(monkeypatch):
    # The line rule sees each row and column alone, so a child can keep an
    # allowed edge in every line and still violate Hall's condition: its
    # warm solve_ap finds no perfect matching and the child is dropped. On
    # 15/4500 seed 2 that happens once, in the 975th expansion; the full
    # search proves the optimum, 473 (HiGHS agrees), in 3,535 nodes.
    ap = apc.exact.solve_ap
    calls = []

    def spy(mc, start=None):
        res = ap(mc, start)
        calls.append((start is None, res is None))
        return res

    monkeypatch.setattr("apc.exact.solve_ap", spy)
    sol = solve_exact(generate_instance(15, 4500, 1, 100, 2), node_limit=975)
    assert (sol.status, sol.value, sol.lower_bound, sol.nodes) == (
        SolveStatus.NO_SOLUTION, None, 402, 975
    )
    assert Counter(calls) == {(True, False): 1, (False, False): 2113, (False, True): 1}


def _obeys(perm, allowed):
    n = len(perm)
    return all(allowed >> a * n + b & 1 for a, b in enumerate(perm))


def _child_of(perm, edges, n):
    # the index of the child of a split on the ascending ids `edges` that
    # keeps `perm`: 1 + the index of the split edge it takes, or 0, the avoid
    # child, when it takes none
    return next((i + 1 for i, e in enumerate(edges) if perm[e // n] == e % n), 0)


def test_branch_is_a_dichotomy():
    # Follow solve_exact's split a few levels deep: every feasible solution
    # inside a node lies in exactly one child, the one on its side (avoiding
    # every edge of the split, or taking one of them), so a dropped child
    # holds none; and child bounds never drop. A split on a short line has no
    # avoid child and one commit child per allowed edge of the line.
    splits, dropped = Counter(), Counter()
    for seed in range(16):
        n = 4 + seed % 4
        inst = generate_instance(n, max_conflict_pairs(n) // 6, 1, 50, seed=700 + seed)
        feasible = [perm for perm, _ in enumerate_feasible(inst)]
        root = bits(range(n * n))
        relaxed, bound = solve_ap(MaskedCosts(inst.costs, root))[:2]
        frontier = [(root, bound, relaxed)]
        for _ in range(4):
            deeper = []
            for node, bound, relaxed in frontier:
                split = find_violated_conflict(relaxed, inst, node)
                if split is None:
                    continue
                edges = sorted(ids(split))
                children = branch(node, split, inst)
                assert len(children) == 1 + len(edges)
                splits["line" if len(edges) > 1 else "edge"] += 1
                if len(edges) > 1:  # all of a short line's allowed edges
                    a, b = divmod(edges[0], n)
                    row = bits(e for e in ids(node) if e // n == a)
                    column = bits(e for e in ids(node) if e % n == b)
                    assert split in (row, column) and len(edges) <= 4
                    assert children[0] is None
                for perm in feasible:
                    if _obeys(perm, node):
                        hits = [
                            i for i, c in enumerate(children) if c is not None and _obeys(perm, c)
                        ]
                        assert hits == [_child_of(perm, edges, n)], (seed, perm, node)
                for i, child in enumerate(children):
                    if child is None:
                        dropped["commit" if i else "avoid"] += 1
                        continue
                    res = solve_ap(MaskedCosts(inst.costs, child))
                    if res is None:
                        continue
                    assert res[1] >= bound
                    deeper.append((child, res[1], res[0]))
            frontier = deeper
    assert sum(splits.values()) >= 50 and min(splits.values()) >= 20, splits
    assert dropped["avoid"] >= 1 and dropped["commit"] >= 1, dropped


def test_warm_child_solves_match_cold_solves():
    # Follow solve_exact's split 6 levels deep on tie-heavy costs, each child
    # re-optimized from its parent's result as the solver does, through
    # splits on one edge and on every allowed edge of a short line.
    warm_solves = 0
    splits, dropped = Counter(), Counter()
    for seed in range(18):
        n = 4 + seed % 9
        inst = generate_instance(n, max_conflict_pairs(n) // 5, 0, 2, seed=900 + seed)
        frontier = [(bits(range(n * n)), solve_ap(MaskedCosts(inst.costs)))]
        for _ in range(6):
            deeper = []
            for node, res in frontier[:24]:
                split = find_violated_conflict(res[0], inst, node)
                if split is None:
                    continue
                edges = sorted(ids(split))
                splits["line" if len(edges) > 1 else "edge"] += 1
                for side, child in enumerate(branch(node, split, inst)):
                    if child is None:
                        # a dropped child holds no feasible solution of the
                        # node on its side: avoiding the split, or taking
                        # one of its edges
                        dropped["commit" if side else "avoid"] += 1
                        if n <= 7:
                            assert not any(
                                _obeys(p, node)
                                and _child_of(p, edges, n) == side
                                and check_feasible(inst, p).feasible
                                for p in itertools.permutations(range(n))
                            ), (seed, node, split, side)
                        continue
                    mc = MaskedCosts(inst.costs, child)
                    warm, cold = solve_ap(mc, res), solve_ap(mc)
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
    assert warm_solves >= 400 and min(splits.values()) >= 20, splits
    assert dropped["avoid"] >= 1 and dropped["commit"] >= 1, dropped


def test_solve_exact_branches_on_the_scanned_edge(monkeypatch):
    # The rule the scan tests pin is the one the search branches on: every
    # split is the one the preceding scan returned, of the same node, on the
    # instance being solved, and some of them are whole short lines.
    events = []
    scan, split_on = apc.exact.find_violated_conflict, apc.exact.branch

    def scan_spy(assignment, inst, allowed):
        split = scan(assignment, inst, allowed)
        events.append(("scan", split, allowed))
        return split

    def branch_spy(allowed, split, inst):
        events.append(("branch", split, allowed, inst))
        return split_on(allowed, split, inst)

    monkeypatch.setattr("apc.exact.find_violated_conflict", scan_spy)
    monkeypatch.setattr("apc.exact.branch", branch_spy)
    splits = Counter()
    for n, seed in ((6, 1), (8, 2), (10, 3), (12, 4)):
        inst = generate_instance(n, max_conflict_pairs(n) // 10, 1, 50, seed=seed)
        events.clear()
        sol = solve_exact(inst, time_limit=60)
        assert sol.status is SolveStatus.OPTIMAL
        for before, event in zip(events, events[1:]):
            if event[0] == "branch":
                _, split, allowed, solved = event
                assert before == ("scan", split, allowed) and split is not None
                assert solved is inst
                splits["line" if split.bit_count() > 1 else "edge"] += 1
        assert sum(e[0] == "branch" for e in events) == sum(
            e[0] == "scan" and e[1] is not None for e in events
        )
    assert splits["edge"] >= 20 and splits["line"] >= 5, splits


def test_search_builds_exclusion_masks_only_for_edges_it_reads():
    # an exclusion bitset is built on an edge's first lookup: the root scan
    # reads the n selected edges, and later nodes add only the edges they
    # select, force or find in a line of at most four, never all n*n masks
    # at once
    inst = generate_instance(30, 8000, 1, 100, 1)
    solve_exact(inst, node_limit=1)
    assert 30 <= len(inst.exclusion_masks) < 60
    solve_exact(inst, node_limit=50)
    assert len(inst.exclusion_masks) < 900 // 4


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


def test_rejects_a_node_limit_that_is_not_an_int():
    # 2.5 would otherwise stop the search after the third node
    with pytest.raises(TypeError):
        solve_exact(DIAG, node_limit=2.5)


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
        (BOTH_BLOCKED, {}, (infeas, None, None, 0)),
        (mid, {"node_limit": 1}, (nosol, None, 198, 1)),
        (mid, {}, (opt, 375, 375, 6)),
        (generate_instance(3, 4, 1, 100, 1), {"node_limit": 0}, (opt, 109, 109, 0)),
        (generate_instance(12, 3000, 1, 100, 1), {}, (infeas, None, None, 89)),
        (
            generate_instance(15, 5000, 1, 100, 1),
            {"node_limit": 200},
            (nosol, None, 313, 200),
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
