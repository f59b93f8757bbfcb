"""Workloads, set-up, timing loop, checks and metrics of the benchmark.

A run sets up its workload's instance set at least SETUP_REPEATS times, then
makes passes over the set until the time is spent (at least MIN_PASSES). Each
pass runs every operation once, in an order drawn from the seed. Every set-up
and operation is timed between two runs of the host-speed kernel
(hostspeed.py) and scaled by them. A set's time is the sum over operations of
each one's median scaled time, and the set-up time is the median scaled
set-up; the unscaled medians are printed on the summary line.
"""

import json
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import apc.exact
import apc.heuristic
import apc.instance
from apc.heuristic import LSConfig

import hostspeed
import spans as sp
from check import Outcome, Reference, outcome_problems

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
TRACE_DIR = ".perfbench-out"
SETUP_REPEATS = 3  # at least; cheap set-ups repeat until SETUP_MIN_S is spent
SETUP_MIN_S = 3.0
MIN_PASSES = 3
COST_LO, COST_HI = 1, 100
HEURISTIC_RESTARTS = 5


@dataclass(frozen=True)
class Row:
    """Table-1 style row: n x n costs in [1, 100], m conflicts, one instance
    per seed; `node_limit` is the exact solver's budget on exact-table1."""

    n: int
    m: int
    seeds: tuple[int, ...]
    node_limit: int | None = None


# Each set is sized so that one pass takes 2-8 s, and a whole run about 35 s,
# on a 2-vCPU machine; perfbench/baseline.json records which rows of the full
# sets were dropped.
WORKLOADS = {
    "exact-prove": (Row(20, 5000, (1,)), Row(30, 8000, (1,)), Row(12, 3000, (1,))),
    "exact-table1": (
        Row(15, 5000, (1, 2), node_limit=200),
        Row(20, 10000, (1, 2), node_limit=80),
        Row(30, 20000, (1, 2), node_limit=40),
    ),
    "heur-large": (Row(100, 30000, (1, 2)), Row(15, 5000, (1, 2)), Row(20, 10000, (1, 2))),
}

# Spans that must occur in every traced pass (and, for instance.*, every
# set-up); a missing one means a wrapped call site was renamed or inlined.
EXPECTED_PASS_SPANS = {
    "exact-prove": ("exact.solve", "exact.seed_heuristic", "exact.scan",
                    "hungarian.masked_costs", "hungarian.solve_ap", "heuristic.construct"),
    "heur-large": ("instance.parse", "heuristic.run", "heuristic.construct",
                   "heuristic.local_search", "model.check_feasible", "model.evaluate"),
}
EXPECTED_PASS_SPANS["exact-table1"] = EXPECTED_PASS_SPANS["exact-prove"]
EXPECTED_SETUP_SPANS = ("instance.generate", "instance.write", "instance.parse")

E2E_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "solved_ratio": "ratio",
    "value_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "hungarian.solve_ap.calls": "count",
    "hungarian.solve_ap.self_s": "s",
    "hungarian.solve_ap.us_per_call": "us",
    "hungarian.solve_ap.none_ratio": "ratio",
    "hungarian.masked_costs.self_s": "s",
    "exact.scan.calls": "count",
    "exact.scan.self_s": "s",
    "exact.scan.us_per_call": "us",
    "exact.nodes": "count",
    "exact.nodes_per_s": "1/s",
    "exact.ap_per_node": "ratio",
    "exact.root_bound": "cost",
    "exact.self_s": "s",
    "exact.seed_heuristic.s": "s",
    "exact.lb_gap_pct": "%",
    "heuristic.construct.calls": "count",
    "heuristic.construct.ok_ratio": "ratio",
    "heuristic.construct.self_s": "s",
    "heuristic.local_search.calls": "count",
    "heuristic.local_search.self_s": "s",
    "model.check_feasible.calls": "count",
    "model.check_feasible.self_s": "s",
    "model.evaluate.self_s": "s",
    "instance.parse.s": "s",
    "instance.parse.conflicts_per_s": "1/s",
    "instance.generate.s": "s",
    "instance.write.s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Case:
    key: str
    seed: int
    node_limit: int | None
    inst: object  # apc.Instance, as loaded from its text
    text: str
    ref: Reference


def instance_key(n: int, m: int, seed: int) -> str:
    return f"{n}-{m}-s{seed}"


def instance_keys(workload: str) -> list[tuple[str, int, int, int]]:
    return [(instance_key(r.n, r.m, s), r.n, r.m, s) for r in WORKLOADS[workload] for s in r.seeds]


def load_references() -> dict[str, Reference]:
    with open(REFERENCES, encoding="utf-8") as f:
        data = json.load(f)
    return {key: Reference(r["value"], r["provenance"], r["status"])
            for key, r in data["instances"].items()}


def shuffle_conflict_lines(text: str, rng: random.Random) -> str:
    """The same instance with its conflict lines in a seeded order; the
    format allows any order, so the parsed instance is unchanged."""
    lines = text.splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("conflicts "))
    body = lines[head + 1:]
    rng.shuffle(body)
    return "\n".join(lines[:head + 1] + body) + "\n"


def setup(workload: str, seed: int) -> tuple[list[Case], list[str], float]:
    """Generate, write and load the workload's instances and references.
    Returns the cases, the instances whose text did not load back equal, and
    the seconds spent in generating, writing, parsing and loading references;
    the shuffle and the round-trip check are not timed."""
    t0 = time.perf_counter()
    refs = load_references()
    timed = time.perf_counter() - t0
    rng = random.Random(seed)
    cases, bad = [], []
    for row in WORKLOADS[workload]:
        for s in row.seeds:
            key = instance_key(row.n, row.m, s)
            if key not in refs:
                raise SystemExit(f"perfbench: no reference for {key} in {REFERENCES}")
            t0 = time.perf_counter()
            inst = apc.instance.generate_instance(row.n, row.m, COST_LO, COST_HI, s)
            text = apc.instance.write_instance(inst)
            timed += time.perf_counter() - t0
            text = shuffle_conflict_lines(text, rng)
            t0 = time.perf_counter()
            loaded = apc.instance.parse_instance(text)
            timed += time.perf_counter() - t0
            if loaded != inst:
                bad.append(key)
            cases.append(Case(key, s, row.node_limit, loaded, text, refs[key]))
    return cases, bad, timed


def run_case(workload: str, case: Case) -> Outcome:
    if workload == "heur-large":
        inst = apc.instance.parse_instance(case.text)
        sol = apc.heuristic.run_heuristic(
            inst, LSConfig(restarts=HEURISTIC_RESTARTS, rng_seed=case.seed)
        )
        if sol is None:
            return Outcome("NoSolution", None, None, 0, None)
    else:
        sol = apc.exact.solve_exact(case.inst, node_limit=case.node_limit)
    return Outcome(str(sol.status), sol.value, sol.lower_bound, sol.nodes, sol.assignment)


def solved(workload: str, out: Outcome) -> bool:
    """A proof on exact-prove, an incumbent elsewhere."""
    if workload == "exact-prove":
        return out.status in ("Optimal", "Infeasible")
    return out.value is not None


def quality(workload: str, cases: list[Case], outcomes: dict[str, Outcome]) -> dict[str, float]:
    """Deterministic quality figures of one pass, against each case's stored
    reference value."""
    vals = [outcomes[c.key].value / c.ref.value for c in cases
            if outcomes[c.key].value is not None and c.ref.value is not None]
    lbs = [(c.ref.value - outcomes[c.key].lower_bound) / c.ref.value for c in cases
           if outcomes[c.key].lower_bound is not None and c.ref.value is not None]
    n_solved = sum(solved(workload, outcomes[c.key]) for c in cases)
    if not vals:
        raise SystemExit(f"perfbench: no operation of {workload} returned a solution")
    return {
        "solved_ratio": n_solved / len(cases),
        "value_ratio": statistics.fmean(vals),
        "lb_gap_pct": 100.0 * statistics.fmean(lbs) if lbs else 0.0,
    }


def layer_metrics(tracer: sp.Tracer, phase: str, lb_gap_pct: float) -> dict[str, float]:
    t = sp.totals(tracer.spans, phase)
    empty = sp.LayerTotals()
    ap, scan, solve = (t.get(k, empty) for k in ("hungarian.solve_ap", "exact.scan", "exact.solve"))
    construct, parse = t.get("heuristic.construct", empty), t.get("instance.parse", empty)
    nodes = sum(solve.infos)
    roots = sp.first_child_infos(tracer.spans, phase, "exact.solve", "hungarian.solve_ap")

    def per(a, b):
        return a / b if b else 0.0

    return {
        "hungarian.solve_ap.calls": ap.calls,
        "hungarian.solve_ap.self_s": ap.self_s,
        "hungarian.solve_ap.us_per_call": 1e6 * per(ap.self_s, ap.calls),
        "hungarian.solve_ap.none_ratio": per(ap.infos.count(None), ap.calls),
        "hungarian.masked_costs.self_s": t.get("hungarian.masked_costs", empty).self_s,
        "exact.scan.calls": scan.calls,
        "exact.scan.self_s": scan.self_s,
        "exact.scan.us_per_call": 1e6 * per(scan.self_s, scan.calls),
        "exact.nodes": nodes,
        "exact.nodes_per_s": per(nodes, solve.total_s),
        "exact.ap_per_node": per(ap.calls, nodes),
        "exact.root_bound": sum(v for v in roots if v is not None),
        "exact.self_s": solve.self_s,
        "exact.seed_heuristic.s": t.get("exact.seed_heuristic", empty).total_s,
        "exact.lb_gap_pct": lb_gap_pct,
        "heuristic.construct.calls": construct.calls,
        "heuristic.construct.ok_ratio": per(sum(construct.infos), construct.calls),
        "heuristic.construct.self_s": construct.self_s,
        "heuristic.local_search.calls": t.get("heuristic.local_search", empty).calls,
        "heuristic.local_search.self_s": t.get("heuristic.local_search", empty).self_s,
        "model.check_feasible.calls": t.get("model.check_feasible", empty).calls,
        "model.check_feasible.self_s": t.get("model.check_feasible", empty).self_s,
        "model.evaluate.self_s": t.get("model.evaluate", empty).self_s,
        "instance.parse.s": parse.total_s,
        "instance.parse.conflicts_per_s": per(sum(parse.infos), parse.total_s),
    }


def missing_spans(tracer: sp.Tracer, phase: str, expected) -> list[str]:
    seen = {span[sp.NAME] for span in tracer.spans if span[sp.PHASE] == phase}
    return [name for name in expected if name not in seen]


def fields(out: Outcome) -> str:
    return (f"status={out.status} value={out.value} lower_bound={out.lower_bound} "
            f"nodes={out.nodes}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    tracer = sp.Tracer()
    problems: list[str] = []

    setup_times, setup_wall = [], []
    kernel = hostspeed.kernel_s()
    while len(setup_times) < SETUP_REPEATS or sum(setup_wall) < SETUP_MIN_S:
        tracer.phase = f"setup{len(setup_times)}"
        cases = []  # free the previous set-up first: one is alive at a time
        with tracer.installed() if trace else nullcontext():
            cases, bad, setup_time = setup(workload, seed)
        kernel_before, kernel = kernel, hostspeed.kernel_s()
        setup_times.append(hostspeed.scaled_s(setup_time, kernel_before, kernel))
        setup_wall.append(setup_time)
        problems += [f"{key}: parse_instance(write_instance(inst)) != inst" for key in bad]
        if trace:
            problems += [f"setup: no {name} call"
                         for name in missing_spans(tracer, tracer.phase, EXPECTED_SETUP_SPANS)]

    rng = random.Random(seed)
    first: dict[str, Outcome] = {}
    times: dict[str, list[float]] = {c.key: [] for c in cases}
    wall: dict[str, list[float]] = {c.key: [] for c in cases}
    pass_totals: dict[bool, list[float]] = {False: [], True: []}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = trace and len(pass_totals[False]) > len(pass_totals[True])
        tracer.phase = f"pass{sum(map(len, pass_totals.values()))}"
        order = cases[:]
        rng.shuffle(order)
        pass_s = 0.0
        with tracer.installed() if traced else nullcontext():
            for case in order:
                t0 = time.perf_counter()
                out = run_case(workload, case)
                elapsed = time.perf_counter() - t0
                kernel_before, kernel = kernel, hostspeed.kernel_s()
                pass_s += elapsed
                attempted += 1
                if not traced:
                    times[case.key].append(hostspeed.scaled_s(elapsed, kernel_before, kernel))
                    wall[case.key].append(elapsed)
                if case.key not in first:
                    bad = outcome_problems(case.inst, out, case.ref, workload == "exact-prove")
                    first[case.key] = out
                elif out != first[case.key]:
                    bad = [f"not repeatable: {fields(out)} after {fields(first[case.key])}"]
                else:
                    bad = []
                failed += bool(bad)
                problems += [f"{case.key}: {p}" for p in bad]
        pass_totals[traced].append(pass_s)
        if traced:
            problems += [f"{workload}: no {name} call" for name in
                         missing_spans(tracer, tracer.phase, EXPECTED_PASS_SPANS[workload])]
        passes = sum(map(len, pass_totals.values()))
        if passes >= MIN_PASSES and time.perf_counter() - start + pass_s > seconds:
            break

    for case in cases:
        print(f"result {case.key} {fields(first[case.key])}")
    if problems:
        for p in problems:
            print(f"perfbench: CHECK FAILED {p}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": max(failed, 1),
                          "metrics": {}}))
        return 1

    q = quality(workload, cases, first)
    setup_s = statistics.median(setup_times)
    solve_s = sum(statistics.median(ts) for ts in times.values())
    solve_wall_s = sum(statistics.median(ts) for ts in wall.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    unsolved = metric(1 - q["solved_ratio"], "ratio")
    gap = metric(100.0 * (q["value_ratio"] - 1), "%")
    if workload == "exact-prove":
        named = {"prove_s": metric(solve_s, "s"), "prove_unproven_ratio": unsolved}
    elif workload == "exact-table1":
        named = {"table1_s": metric(solve_s, "s"),
                 "table1_lb_gap_pct": metric(q["lb_gap_pct"], "%"),
                 "table1_inc_gap_pct": gap, "table1_nosol_ratio": unsolved}
    else:
        named = {"heur_s": metric(solve_s, "s"), "heur_gap_pct": gap, "heur_nosol_ratio": unsolved}
    summary = {"setup_s": metric(setup_s, "s"), **named, "peak_rss_mb": metric(peak_rss_mb, "MB"),
               "solve_wall_s": metric(solve_wall_s, "s"),
               "setup_wall_s": metric(statistics.median(setup_wall), "s")}
    for traced, label in ((False, "untraced"), (True, "traced")):
        if pass_totals[traced]:
            print(f"passes {label} ({len(cases)} operations each): "
                  + " ".join(f"{t:.3f}" for t in pass_totals[traced]) + " s")
    print("summary " + json.dumps(summary))

    if trace:
        traced_phases = [f"pass{i}" for i in range(1, 2 * len(pass_totals[True]), 2)]
        per_pass = [layer_metrics(tracer, ph, q["lb_gap_pct"]) for ph in traced_phases]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        for name in ("instance.generate", "instance.write"):
            values[f"{name}.s"] = statistics.median(
                sp.totals(tracer.spans, f"setup{i}")[name].total_s for i in range(len(setup_times)))
        values["trace.overhead_s"] = min(pass_totals[True]) - min(pass_totals[False])
        out_dir = root / TRACE_DIR
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(out_dir / f"trace-{workload}-s{seed}.jsonl")
        metrics = {k: metric(values[k], unit) for k, unit in PER_LAYER_UNITS.items()}
    else:
        values = {"setup_s": setup_s, "solve_s": solve_s, "peak_rss_mb": peak_rss_mb,
                  "solved_ratio": q["solved_ratio"], "value_ratio": q["value_ratio"]}
        metrics = {k: metric(values[k], unit) for k, unit in E2E_UNITS.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0

