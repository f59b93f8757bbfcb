"""Model IR, LP export, objective evaluation and feasibility checking."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apc.errors import NotAPermutationError
from apc.instance import (
    ConflictPair,
    Edge,
    Instance,
    generate_instance,
    max_conflict_pairs,
)
from apc.model import build_model, check_feasible, evaluate, export_lp


def inst_1x1(cost=7):
    return Instance.from_costs([[cost]])


def inst_2x2(conflicts=()):
    return Instance.from_costs([[1, 10], [10, 1]], conflicts)


DIAG_CONFLICT = (((0, 0), (1, 1)),)


def test_build_model_1x1():
    ir = build_model(inst_1x1())
    assert ir.num_vars == 1
    assert ir.objective == ((0, 7),)
    assert ir.row_constraints == ((0,),)
    assert ir.col_constraints == ((0,),)
    assert ir.conflict_constraints == ()


def test_build_model_2x2_with_conflict():
    ir = build_model(inst_2x2(DIAG_CONFLICT))
    assert ir.num_vars == 4
    assert len(ir.row_constraints) + len(ir.col_constraints) == 4
    assert ir.conflict_constraints == ((0, 3),)


def test_build_model_counts_match_generated_instance():
    inst = generate_instance(15, 5000, 1, 100, seed=1)
    ir = build_model(inst)
    assert ir.num_vars == 225
    assert len(ir.row_constraints) == 15
    assert len(ir.col_constraints) == 15
    assert len(ir.conflict_constraints) == 5000
    # independent recount from the exported text
    text = export_lp(ir)
    body = text.split("Subject To")[1].split("Binary")[0]
    names = [line.split(":")[0].strip() for line in body.splitlines() if ":" in line]
    assert sum(1 for s in names if s.startswith("row_")) == 15
    assert sum(1 for s in names if s.startswith("col_")) == 15
    assert sum(1 for s in names if s.startswith("conf_")) == 5000


def test_var_map_is_bijection():
    inst = generate_instance(6, 0, 1, 9, seed=2)
    ir = build_model(inst)
    assert len(ir.var_map) == 36
    assert sorted(ir.var_map.values()) == list(range(36))
    for edge, var in ir.var_map.items():
        assert ir.edge_of(var) == edge


def test_every_var_in_one_row_and_one_col():
    ir = build_model(generate_instance(5, 10, 1, 9, seed=3))
    row_hits = [0] * ir.num_vars
    col_hits = [0] * ir.num_vars
    for members in ir.row_constraints:
        for v in members:
            row_hits[v] += 1
    for members in ir.col_constraints:
        for v in members:
            col_hits[v] += 1
    assert row_hits == [1] * ir.num_vars
    assert col_hits == [1] * ir.num_vars


def test_export_lp_1x1():
    text = export_lp(build_model(inst_1x1()))
    assert "Minimize" in text and "Subject To" in text
    assert text.rstrip().endswith("End")
    assert "7 x_0_0" in text
    assert " row_0: x_0_0 = 1" in text
    assert " col_0: x_0_0 = 1" in text
    assert "Binary\n x_0_0\n" in text


def test_export_lp_conflict_row():
    text = export_lp(build_model(inst_2x2(DIAG_CONFLICT)))
    assert " conf_0: x_0_0 + x_1_1 <= 1" in text


def test_export_lp_is_deterministic():
    inst = generate_instance(7, 60, 1, 40, seed=4)
    ir = build_model(inst)
    assert export_lp(ir) == export_lp(ir)
    assert export_lp(build_model(inst)) == export_lp(ir)


@pytest.mark.parametrize(
    "assignment,expected",
    [([0, 1], 1 + 4), ([1, 0], 2 + 3)],
)
def test_evaluate(assignment, expected):
    inst = Instance.from_costs([[1, 2], [3, 4]])
    assert evaluate(inst, assignment) == expected


def test_evaluate_all_zero_costs():
    inst = Instance.from_costs([[0, 0], [0, 0]])
    assert evaluate(inst, [1, 0]) == 0


@pytest.mark.parametrize("bad", [[0, 0], [0], [0, 2], [1, 1]])
def test_evaluate_rejects_non_permutations(bad):
    inst = Instance.from_costs([[1, 2], [3, 4]])
    with pytest.raises(NotAPermutationError):
        evaluate(inst, bad)


def test_check_feasible_conflict_violation():
    inst = inst_2x2(DIAG_CONFLICT)
    report = check_feasible(inst, [0, 1])
    assert report.is_perfect_matching
    assert report.violated_conflicts == (ConflictPair(Edge(0, 0), Edge(1, 1)),)
    assert not report.feasible


def test_check_feasible_ok():
    inst = inst_2x2(DIAG_CONFLICT)
    report = check_feasible(inst, [1, 0])
    assert report.feasible


def test_check_feasible_broken_columns():
    inst = inst_2x2()
    report = check_feasible(inst, [0, 0])
    assert not report.is_perfect_matching
    assert report.violated_cols == (0, 1)
    assert report.violated_rows == ()


def test_check_feasible_out_of_range_entry():
    inst = inst_2x2()
    report = check_feasible(inst, [5, 0])
    assert report.violated_rows == (0,)
    assert 1 in report.violated_cols


def _literal_violations(inst, assignment):
    return tuple(
        p
        for p in sorted(inst.conflicts)
        if assignment[p.e1.a] == p.e1.b and assignment[p.e2.a] == p.e2.b
    )


def test_check_feasible_conflicts_match_literal_scan():
    rng = random.Random(5)
    for seed in range(60):
        n = rng.randint(1, 6)
        m = rng.randint(0, max_conflict_pairs(n))
        inst = generate_instance(n, m, 1, 40, seed=seed)
        perm = list(range(n))
        rng.shuffle(perm)
        # permutations, repeated columns and out-of-range entries alike
        candidates = [perm, [rng.randrange(n) for _ in range(n)]]
        candidates.append([rng.choice((-1, n, n + 3, j)) for j in perm])
        for assignment in candidates:
            report = check_feasible(inst, assignment)
            assert report.violated_conflicts == _literal_violations(inst, assignment)


def test_check_feasible_requires_full_length():
    with pytest.raises(ValueError):
        check_feasible(inst_2x2(), [0])


@given(data=st.data(), n=st.integers(min_value=1, max_value=6))
@settings(max_examples=50, deadline=None)
def test_permutations_are_perfect_matchings(data, n):
    inst = generate_instance(n, 0, 0, 20, seed=11)
    perm = data.draw(st.permutations(range(n)))
    report = check_feasible(inst, perm)
    assert report.is_perfect_matching
    assert not report.violated_rows and not report.violated_cols


@given(data=st.data(), seed=st.integers(min_value=0, max_value=999))
@settings(max_examples=40, deadline=None)
def test_ir_objective_agrees_with_evaluate(data, seed):
    inst = generate_instance(5, 30, 1, 50, seed=seed)
    perm = data.draw(st.permutations(range(5)))
    ir = build_model(inst)
    selected = {ir.var_map[Edge(i, j)] for i, j in enumerate(perm)}
    ir_value = sum(coeff for var, coeff in ir.objective if var in selected)
    assert ir_value == evaluate(inst, perm)
