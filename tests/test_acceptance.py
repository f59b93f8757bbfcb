"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the report lines.
The shared random suite (criteria 1, 3, 4): 300 instances, sizes cycling
through 3..7, conflict density stepping 0 %..50 % of all edge pairs, costs
uniform in [1, 100], fixed seeds.
"""

import csv
import io
import itertools
import random
import re
import statistics
import time

from apc.bench import emit_table, make_group, preset_groups, run_benchmark
from apc.heuristic import LSConfig, gap_percent, run_heuristic
from apc.hungarian import MaskedCosts, solve_ap
from apc.instance import (
    ConflictPair,
    Edge,
    Instance,
    generate_instance,
    max_conflict_pairs,
    parse_instance,
    write_instance,
)
from apc.model import build_model, check_feasible, evaluate, export_lp
from apc.oracle import brute_force
from apc.exact import solve_exact
from apc.solution import SolveStatus

_SUITE_CACHE = []


def suite_instances():
    """300 seeded instances plus their brute-force ground truth."""
    if not _SUITE_CACHE:
        for idx in range(300):
            n = 3 + idx % 5
            density_step = idx % 10  # 0 -> no conflicts, 9 -> 50 % of pairs
            m = int(density_step / 18.0 * max_conflict_pairs(n))
            inst = generate_instance(n, m, 1, 100, seed=7000 + idx)
            _SUITE_CACHE.append((inst, brute_force(inst)))
    return _SUITE_CACHE


def report(num, name, ok, extra=""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" [{extra}]"
    print(line)


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    for inst, truth in suite_instances():
        ex = solve_exact(inst, time_limit=60)
        if ex.status != truth.status:
            failures.append((inst.name, "status", truth.status, ex.status))
        elif truth.status is SolveStatus.OPTIMAL and ex.value != truth.value:
            failures.append((inst.name, "value", truth.value, ex.value))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60
    report(1, "oracle equivalence, 300 instances", ok, f"{elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 60


def test_criterion_2_hungarian_correctness():
    t0 = time.perf_counter()
    rng = random.Random(20240917)
    failures = 0
    for _ in range(200):
        n = rng.randint(1, 7)
        costs = tuple(tuple(rng.randint(0, 100) for _ in range(n)) for _ in range(n))
        _, value = solve_ap(MaskedCosts(costs))
        best = min(
            sum(costs[i][p[i]] for i in range(n))
            for p in itertools.permutations(range(n))
        )
        if value != best:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 10
    report(2, "assignment engine vs permutation scan, 200 matrices", ok, f"{elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 10


def test_criterion_3_bound_validity():
    failures = []
    for inst, truth in suite_instances():
        res = solve_ap(MaskedCosts(inst.costs))
        bound = None if res is None else res[1]
        if truth.status is SolveStatus.OPTIMAL:
            if bound is None or bound > truth.value:
                failures.append((inst.name, bound, truth.value))
            if not inst.conflicts and bound != truth.value:
                failures.append((inst.name, "not tight", bound, truth.value))
    ok = not failures
    report(3, "root bound below every optimum, tight without conflicts", ok)
    assert not failures, failures[:5]


def test_criterion_4_heuristic_sandwich():
    t0 = time.perf_counter()
    failures = []
    zero_conflict_gaps = []
    for idx, (inst, truth) in enumerate(suite_instances()):
        if truth.status is not SolveStatus.OPTIMAL:
            continue
        sol = run_heuristic(inst, LSConfig(restarts=10, rng_seed=idx))
        if sol is None:
            # bounded-repair greedy may legitimately give up on very dense
            # conflict sets; it must never fail without conflicts
            if not inst.conflicts:
                failures.append((inst.name, "no solution on conflict-free instance"))
            continue
        if not check_feasible(inst, sol.assignment).feasible:
            failures.append((inst.name, "infeasible solution"))
            continue
        gap = gap_percent(sol.value, truth.value)
        if gap < 0:
            failures.append((inst.name, "negative gap", gap))
        if not inst.conflicts:
            zero_conflict_gaps.append(gap)
    median_gap = statistics.median(zero_conflict_gaps)
    elapsed = time.perf_counter() - t0
    ok = not failures and median_gap <= 5.0 and elapsed < 60
    report(
        4,
        "heuristic feasible with gap >= 0, conflict-free median gap <= 5 %",
        ok,
        f"median {median_gap:.2f}% over {len(zero_conflict_gaps)}, {elapsed:.1f}s",
    )
    assert not failures, failures[:5]
    assert median_gap <= 5.0
    assert elapsed < 60


def test_criterion_5_conflict_monotonicity():
    rng = random.Random(55)
    violations = []
    for trial in range(50):
        n = rng.randint(3, 6)
        inst = generate_instance(n, 0, 1, 100, seed=4000 + trial)
        edges = [Edge(a, b) for a in range(n) for b in range(n)]
        pool = [ConflictPair(e, f) for e, f in itertools.combinations(edges, 2)]
        rng.shuffle(pool)
        conflicts = set()
        last_value = None
        transitions = 0
        infeasible = False
        for pair in pool[:30]:
            conflicts.add(pair)
            sol = brute_force(
                Instance(inst.name, n, inst.costs, frozenset(conflicts))
            )
            if sol.status is SolveStatus.INFEASIBLE:
                if not infeasible:
                    transitions += 1
                    infeasible = True
            else:
                if infeasible:
                    violations.append((trial, "came back from infeasible"))
                    break
                if last_value is not None and sol.value < last_value:
                    violations.append((trial, "value decreased", last_value, sol.value))
                    break
                last_value = sol.value
        if transitions > 1:
            violations.append((trial, "multiple transitions"))
    ok = not violations
    report(5, "optimum non-decreasing under conflict insertion, 50 instances", ok)
    assert not violations, violations[:5]


def test_criterion_6_scaled_benchmark_methodology():
    t0 = time.perf_counter()
    groups = preset_groups("small")
    records = run_benchmark(groups, ("exact", "heuristic"), 60.0)
    text, csv_text = emit_table(records)
    elapsed = time.perf_counter() - t0

    exact_statuses = [
        s for r in records if r.method == "exact" for s in r.statuses
    ]
    gaps = [
        res.gap_percent
        for r in records
        if r.method == "heuristic"
        for res in r.results
    ]
    structure_ok = (
        "Gap %" in text
        and "Sec Best" in text
        and "Sec Opt" in text
        and text.rstrip().splitlines()[-1].startswith("Averages")
    )
    discipline_ok = all(
        (r.avg_gap_percent is None) == (r.method != "heuristic")
        and (r.avg_sec_total is None) == (r.method == "heuristic")
        for r in records
    )
    all_optimal = (
        len(exact_statuses) == 30
        and all(s is SolveStatus.OPTIMAL for s in exact_statuses)
    )
    gaps_ok = len(gaps) == 30 and all(g is not None and g >= 0 for g in gaps)
    ok = structure_ok and discipline_ok and all_optimal and gaps_ok and elapsed < 600
    report(
        6,
        "scaled benchmark run: column structure, 30/30 optimal, gaps >= 0",
        ok,
        f"{elapsed:.1f}s",
    )
    assert structure_ok
    assert discipline_ok
    assert all_optimal
    assert gaps_ok
    assert elapsed < 600


def _parse_lp(text):
    """Independent reader of the exported LP file (test-side only)."""
    sections = {}
    current = None
    for line in text.splitlines():
        if line in ("Minimize", "Subject To", "Binary", "End"):
            current = line
            sections[current] = []
        elif current is not None:
            sections[current].append(line)

    def read_terms(expr):
        terms = []
        for raw in expr.split("+"):
            raw = raw.strip()
            if not raw:
                continue
            match = re.fullmatch(r"(?:(\d+)\s+)?x_(\d+)_(\d+)", raw)
            assert match, raw
            coeff = int(match.group(1)) if match.group(1) else 1
            terms.append((coeff, (int(match.group(2)), int(match.group(3)))))
        return terms

    def glue(lines):
        # continuation lines carry no ':'; fold them into their constraint
        items = []
        for line in lines:
            if ":" in line:
                items.append(line)
            else:
                items[-1] += " " + line.strip()
        return items

    objective = read_terms(" ".join(sections["Minimize"]).split(":", 1)[1])
    constraints = []
    for item in glue(sections["Subject To"]):
        name, body = item.split(":", 1)
        if "<=" in body:
            expr, rhs = body.split("<=")
            op = "<="
        else:
            expr, rhs = body.split("=")
            op = "="
        constraints.append((name.strip(), read_terms(expr), op, int(rhs)))
    binaries = {line.strip() for line in sections["Binary"] if line.strip()}
    return objective, constraints, binaries


def test_criterion_7_model_lp_fidelity():
    checked = 0
    failures = []
    rng = random.Random(1234)
    attempt = 0
    while checked < 20:
        attempt += 1
        n = rng.randint(3, 8)
        m = rng.randint(0, max_conflict_pairs(n) // 5)
        inst = generate_instance(n, m, 1, 100, seed=60000 + attempt)
        sol = solve_exact(inst, time_limit=30)
        if sol.status is not SolveStatus.OPTIMAL:
            continue
        checked += 1
        ir = build_model(inst)
        if (
            len(ir.row_constraints) != n
            or len(ir.col_constraints) != n
            or len(ir.conflict_constraints) != len(inst.conflicts)
        ):
            failures.append((inst.name, "constraint counts"))
            continue
        objective, constraints, binaries = _parse_lp(export_lp(ir))
        if len(binaries) != n * n:
            failures.append((inst.name, "binary section size"))
        selected = {(i, j) for i, j in enumerate(sol.assignment)}
        value = sum(coeff for coeff, edge in objective if edge in selected)
        if value != sol.value or value != evaluate(inst, sol.assignment):
            failures.append((inst.name, "objective mismatch", value, sol.value))
        for name, terms, op, rhs in constraints:
            lhs = sum(coeff for coeff, edge in terms if edge in selected)
            if op == "=" and lhs != rhs:
                failures.append((inst.name, name, lhs, rhs))
            if op == "<=" and lhs > rhs:
                failures.append((inst.name, name, lhs, rhs))
    ok = not failures
    report(7, "exported model satisfied by exact solutions, 20 instances", ok)
    assert not failures, failures[:5]


def test_criterion_8_format_round_trips():
    failures = []
    rng = random.Random(88)
    for trial in range(100):
        n = rng.randint(1, 9)
        m = rng.randint(0, max_conflict_pairs(n) // 2)
        inst = generate_instance(n, m, 0, 500, seed=80000 + trial)
        if parse_instance(write_instance(inst)) != inst:
            failures.append(inst.name)

    groups = [make_group(4, 0, replicate_count=3), make_group(5, 12, replicate_count=3)]
    records = run_benchmark(groups, ("exact", "heuristic"), 30.0)
    _, csv_text = emit_table(records)
    parsed = list(csv.reader(io.StringIO(csv_text)))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in parsed:
        writer.writerow(row)
    csv_ok = buf.getvalue() == csv_text
    ok = not failures and csv_ok
    report(8, "write/parse and CSV round trips", ok)
    assert not failures, failures[:5]
    assert csv_ok
