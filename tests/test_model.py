"""LP export, objective evaluation and feasibility checking."""

import collections
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apc.instance import (
    ConflictPair,
    Edge,
    Instance,
    generate_instance,
    max_conflict_pairs,
)
from apc.model import check_feasible, evaluate, export_lp

from lp_text import parse_lp


def inst_1x1(cost=7):
    return Instance([[cost]])


def inst_2x2(conflicts=()):
    return Instance([[1, 10], [10, 1]], conflicts)


DIAG_CONFLICT = (((0, 0), (1, 1)),)


def constraint_counts(constraints):
    return collections.Counter(name.split("_")[0] for name, *_ in constraints)


def test_build_model_1x1():
    objective, constraints, binaries = parse_lp(export_lp(inst_1x1()))
    assert binaries == [(0, 0)]
    assert objective == [(7, (0, 0))]
    assert constraints == [
        ("row_0", [(1, (0, 0))], "=", 1),
        ("col_0", [(1, (0, 0))], "=", 1),
    ]


def test_build_model_2x2_with_conflict():
    _, constraints, binaries = parse_lp(export_lp(inst_2x2(DIAG_CONFLICT)))
    assert len(binaries) == 4
    assert constraint_counts(constraints) == collections.Counter(row=2, col=2, conf=1)
    assert constraints[-1] == ("conf_0", [(1, (0, 0)), (1, (1, 1))], "<=", 1)


def test_export_lp_counts_match_generated_instance():
    inst = generate_instance(15, 5000, 1, 100, seed=1)
    text = export_lp(inst)
    body = text.split("Subject To")[1].split("Binary")[0]
    names = [line.split(":")[0].strip() for line in body.splitlines() if ":" in line]
    assert sum(1 for s in names if s.startswith("row_")) == 15
    assert sum(1 for s in names if s.startswith("col_")) == 15
    assert sum(1 for s in names if s.startswith("conf_")) == 5000
    binaries = text.split("Binary\n")[1].split("End")[0].split()
    assert len(binaries) == len(set(binaries)) == 225


def test_var_map_is_bijection():
    inst = generate_instance(6, 0, 1, 9, seed=2)
    _, _, binaries = parse_lp(export_lp(inst))
    assert binaries == [(i, j) for i in range(6) for j in range(6)]


def test_every_var_in_one_row_and_one_col():
    inst = generate_instance(5, 10, 1, 9, seed=3)
    _, constraints, _ = parse_lp(export_lp(inst))
    hits = {"row": collections.Counter(), "col": collections.Counter()}
    for name, terms, _, _ in constraints:
        kind = name.split("_")[0]
        if kind in hits:
            hits[kind].update(edge for _, edge in terms)
    grid = collections.Counter((i, j) for i in range(5) for j in range(5))
    assert hits["row"] == hits["col"] == grid


def test_export_lp_1x1():
    text = export_lp(inst_1x1())
    assert "Minimize" in text and "Subject To" in text
    assert text.rstrip().endswith("End")
    assert "7 x_0_0" in text
    assert " row_0: x_0_0 = 1" in text
    assert " col_0: x_0_0 = 1" in text
    assert "Binary\n x_0_0\n" in text


def test_export_lp_conflict_row():
    text = export_lp(inst_2x2(DIAG_CONFLICT))
    assert " conf_0: x_0_0 + x_1_1 <= 1" in text


def test_export_lp_is_deterministic():
    inst = generate_instance(7, 60, 1, 40, seed=4)
    assert export_lp(inst) == export_lp(inst)
    assert export_lp(generate_instance(7, 60, 1, 40, seed=4)) == export_lp(inst)


def test_export_lp_is_byte_stable():
    text = export_lp(generate_instance(12, 300, 1, 100, 5))
    digest = "9975afe889dacccee971082b354f7da0eeff3c66543887bd6e7d1a1cd33e9260"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "assignment,expected",
    [([0, 1], 1 + 4), ([1, 0], 2 + 3)],
)
def test_evaluate(assignment, expected):
    inst = Instance([[1, 2], [3, 4]])
    assert evaluate(inst, assignment) == expected


def test_evaluate_all_zero_costs():
    inst = Instance([[0, 0], [0, 0]])
    assert evaluate(inst, [1, 0]) == 0


@pytest.mark.parametrize("bad", [[0, 0], [0], [0, 2], [1, 1]])
def test_evaluate_rejects_non_permutations(bad):
    inst = Instance([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match=r"is not a permutation of 0\.\.1$"):
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
def test_lp_objective_agrees_with_evaluate(data, seed):
    inst = generate_instance(5, 30, 1, 50, seed=seed)
    perm = data.draw(st.permutations(range(5)))
    objective, _, _ = parse_lp(export_lp(inst))
    selected = set(enumerate(perm))
    lp_value = sum(coeff for coeff, edge in objective if edge in selected)
    assert lp_value == evaluate(inst, perm)
