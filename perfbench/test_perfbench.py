"""Tests of the benchmark itself: its checker, its tracer and its published names.

    python3 -m pytest -q perfbench
"""

import itertools
import json
import random
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import ROOT, use_checkout_src  # noqa: E402

use_checkout_src()

import apc.exact  # noqa: E402
from apc import enumerate_feasible, generate_instance, solve_exact  # noqa: E402

import runner  # noqa: E402
import spans  # noqa: E402
from check import Outcome, Reference, outcome_problems  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
INST = generate_instance(6, 120, 1, 100, seed=5)


@pytest.fixture(scope="module")
def feasible():
    """All feasible assignments of INST by value, and its proven reference."""
    sols = sorted(enumerate_feasible(INST), key=lambda s: s[1])
    assert len({v for _, v in sols}) >= 2
    return sols, Reference(sols[0][1], "apc-proven", "Optimal")


def test_correct_results_pass(feasible):
    sols, ref = feasible
    sol = solve_exact(INST)
    exact = Outcome(str(sol.status), sol.value, sol.lower_bound, sol.nodes, sol.assignment)
    assert outcome_problems(INST, exact, ref, must_prove=True) == []
    worse, value = sols[-1]
    limited = Outcome("Feasible", value, ref.value, 3, worse)
    assert outcome_problems(INST, limited, ref, must_prove=False) == []
    assert outcome_problems(INST, Outcome("NoSolution", None, None, 0, None), ref, False) == []


def test_rejects_conflicting_assignment(feasible):
    _, ref = feasible
    pair = min(p for p in INST.conflicts if p.e1.a != p.e2.a and p.e1.b != p.e2.b)
    bad = next(p for p in itertools.permutations(range(INST.n))
               if p[pair.e1.a] == pair.e1.b and p[pair.e2.a] == pair.e2.b)
    value = sum(INST.costs[i][j] for i, j in enumerate(bad))
    out = Outcome("Feasible", value, None, 0, bad)
    assert any("both edges of conflict" in p for p in outcome_problems(INST, out, ref, False))


def test_rejects_wrong_value(feasible):
    sols, ref = feasible
    assignment, value = sols[-1]
    out = Outcome("Feasible", value - 1, None, 0, assignment)
    assert any("costs" in p for p in outcome_problems(INST, out, ref, False))


def test_rejects_lower_bound_above_proven_reference(feasible):
    sols, ref = feasible
    assignment, value = sols[-1]
    out = Outcome("Feasible", value, ref.value + 1, 10, assignment)
    assert any("above the proven optimum" in p for p in outcome_problems(INST, out, ref, False))


def test_rejects_status_other_than_the_stored_proof(feasible):
    sols, ref = feasible
    assignment, value = sols[0]
    unproven = Outcome("Feasible", value, value - 1, 10, assignment)
    assert outcome_problems(INST, unproven, ref, must_prove=False) == []
    assert any("stored proven status" in p for p in outcome_problems(INST, unproven, ref, True))
    false_proof = Outcome("Infeasible", None, None, 10, None)
    assert outcome_problems(INST, false_proof, ref, must_prove=False)


def test_reference_records_are_consistent():
    with pytest.raises(ValueError):
        Reference(None, "highs-feasible", "Unknown")
    with pytest.raises(ValueError):
        Reference(10, "highs-proven", "Unknown")
    with pytest.raises(ValueError):
        Reference(10, "guess", "Unknown")


def test_every_benchmark_instance_has_a_reference():
    refs = runner.load_references()
    for workload in runner.WORKLOADS:
        for key, *_ in runner.instance_keys(workload):
            assert key in refs
            if workload == "exact-prove":
                assert refs[key].status in ("Optimal", "Infeasible")


def test_published_names_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in names + list(e2e) + list(layer):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(names + list(e2e) + list(layer))) == len(names) + len(e2e) + len(layer)
    assert names == list(runner.WORKLOADS)
    assert e2e == runner.E2E_UNITS
    assert layer == runner.PER_LAYER_UNITS
    assert "setup_s" in e2e


def test_shuffled_text_loads_the_same_instance():
    text = runner.shuffle_conflict_lines(apc.instance.write_instance(INST), random.Random(3))
    assert text != apc.instance.write_instance(INST)
    assert apc.instance.parse_instance(text) == INST


def test_tracer_sees_each_layer_and_restores_the_package():
    original = apc.exact.solve_ap
    tracer = spans.Tracer()
    tracer.phase = "p"
    with tracer.installed():
        sol = apc.exact.solve_exact(INST)
    assert apc.exact.solve_ap is original
    t = spans.totals(tracer.spans, "p")
    assert t["exact.solve"].calls == 1 and t["exact.solve"].infos == [sol.nodes]
    assert t["exact.scan"].calls >= 1
    assert t["hungarian.solve_ap"].calls == t["hungarian.masked_costs"].calls
    for layer in t.values():
        assert 0 <= layer.self_s <= layer.total_s + 1e-9
    roots = spans.first_child_infos(tracer.spans, "p", "exact.solve", "hungarian.solve_ap")
    assert len(roots) == 1 and roots[0] <= sol.value
