"""Cross-check of the exact solver and the LP export against HiGHS.

The reference model is built here from ``inst.conflicts`` alone, not from
``apc.model``, so a fault shared by the model and the solver still shows.
The LP text of ``export_lp`` is read back and solved by HiGHS separately,
and must reach the same optimum. scipy is a test-only dependency; without
it this module is skipped.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("scipy")

import numpy as np  # noqa: E402  (installed with scipy)
from scipy.optimize import Bounds, LinearConstraint, milp  # noqa: E402
from scipy.sparse import coo_matrix  # noqa: E402

from apc.exact import solve_exact  # noqa: E402
from apc.instance import generate_instance  # noqa: E402
from apc.model import export_lp  # noqa: E402
from apc.solution import SolveStatus  # noqa: E402

from lp_text import parse_lp  # noqa: E402


def highs_optimum(inst):
    """Optimal value of the binary program solved by HiGHS; None if infeasible."""
    n = inst.n
    var = np.arange(n * n)
    rows = np.concatenate([var // n, n + var % n])
    assign = coo_matrix(
        (np.ones(2 * n * n), (rows, np.concatenate([var, var]))), shape=(2 * n, n * n)
    )
    pairs = sorted(inst.conflicts)
    k = np.arange(len(pairs))
    cols = np.concatenate([
        [p.e1.a * n + p.e1.b for p in pairs],
        [p.e2.a * n + p.e2.b for p in pairs],
    ])
    conflict = coo_matrix(
        (np.ones(2 * len(pairs)), (np.concatenate([k, k]), cols)),
        shape=(len(pairs), n * n),
    )
    res = milp(
        np.array([c for row in inst.costs for c in row], dtype=float),
        integrality=np.ones(n * n),
        bounds=Bounds(0, 1),
        constraints=[
            LinearConstraint(assign.tocsr(), 1, 1),
            LinearConstraint(conflict.tocsr(), -np.inf, 1),
        ],
    )
    assert res.status in (0, 2), res.message  # proven optimal or infeasible
    if res.status == 2:
        return None
    chosen = {(a, int(np.argmax(res.x[a * n:(a + 1) * n]))) for a in range(n)}
    assert sorted(b for _, b in chosen) == list(range(n))
    assert not any(p.e1 in chosen and p.e2 in chosen for p in pairs)
    return sum(inst.costs[a][b] for a, b in chosen)


# (n, m, seed); 11/800 s1 is the deep row, 79 nodes to the proof
ROWS = [(11, 300, 1), (11, 800, 1), (13, 400, 3), (15, 800, 4), (16, 1500, 4),
        (18, 1000, 5), (20, 1200, 6)]


@functools.cache
def row(n, m, seed):
    """The instance of a row and its HiGHS optimum, solved once per session."""
    inst = generate_instance(n, m, 1, 100, seed)
    return inst, highs_optimum(inst)


@pytest.mark.parametrize("n,m,seed", ROWS)
def test_exact_matches_highs(n, m, seed):
    inst, ref = row(n, m, seed)
    sol = solve_exact(inst)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.value == ref == sol.lower_bound
    stopped = solve_exact(inst, node_limit=2)
    assert stopped.lower_bound <= ref <= stopped.value


@pytest.mark.parametrize("n,m,seed", ROWS)
def test_time_limited_bounds_bracket_highs(n, m, seed):
    # On a 2-vCPU VM every row proves within 0.02 s; the shorter limits stop
    # some searches early, so an open bound is checked as well as a proof.
    inst, ref = row(n, m, seed)
    for limit in (0.001, 0.005, 0.02):
        sol = solve_exact(inst, time_limit=limit)
        assert sol.lower_bound <= ref
        if sol.value is not None:
            assert ref <= sol.value
        if sol.status is SolveStatus.OPTIMAL:
            assert sol.value == ref


@pytest.mark.parametrize("n,m,seed", ROWS)
def test_exported_lp_solves_to_highs_optimum(n, m, seed):
    inst, ref = row(n, m, seed)
    objective, constraints, binaries = parse_lp(export_lp(inst))
    var = {edge: k for k, edge in enumerate(binaries)}
    c = np.zeros(len(var))
    for coeff, edge in objective:
        c[var[edge]] += coeff
    matrix = np.zeros((len(constraints), len(var)))
    lower = np.empty(len(constraints))
    upper = np.empty(len(constraints))
    for r, (_, terms, op, rhs) in enumerate(constraints):
        for coeff, edge in terms:
            matrix[r, var[edge]] += coeff
        lower[r] = rhs if op == "=" else -np.inf
        upper[r] = rhs
    res = milp(c, integrality=np.ones(len(var)), bounds=Bounds(0, 1),
               constraints=[LinearConstraint(matrix, lower, upper)])
    assert res.status == 0, res.message
    assert round(res.fun) == ref


@given(n=st.integers(11, 20), m=st.integers(0, 1500), seed=st.integers())
@settings(max_examples=6, deadline=None)
def test_random_rows_match_highs(n, m, seed):
    inst = generate_instance(n, m, 1, 100, seed)
    ref = highs_optimum(inst)
    sol = solve_exact(inst)
    if ref is None:
        assert sol.status is SolveStatus.INFEASIBLE
    else:
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.value == ref
