"""Regenerate perfbench/references.json with HiGHS, through scipy.optimize.milp.

    python3 perfbench/refs.py

Each benchmark instance gets a reference value and its provenance:
highs-proven (optimum or infeasibility proven by HiGHS), apc-proven (proven
by apc.exact where HiGHS ran out of time), highs-feasible (best solution
HiGHS found in its time limit) or ap-root-bound (the conflict-free
assignment bound, when HiGHS found nothing). scipy is needed by this script
only; the benchmark reads the stored file and the apc package never imports
scipy.
"""

import json
import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linear_sum_assignment, milp
from scipy.sparse import coo_matrix

from run import use_checkout_src

use_checkout_src()

import apc.exact  # noqa: E402
import apc.instance  # noqa: E402
from check import assignment_problems  # noqa: E402
from runner import COST_HI, COST_LO, REFERENCES, WORKLOADS, instance_keys  # noqa: E402

# Values in ROADMAP.md, which this script must reproduce: two optima proven
# by HiGHS, and feasible values HiGHS found where apc's heuristic finds none.
KNOWN_OPTIMA = {"30-20000-s1": 257, "40-40000-s2": 273}
KNOWN_FEASIBLE = {"15-5000-s1": 581, "15-5000-s2": 595, "20-10000-s1": 454}

# Seconds HiGHS gets per instance; it decides which references are proven.
HIGHS_TIME_LIMIT_S = 120.0


def solve_milp(inst):
    """(status, value, seconds): status is HiGHS's, value from its solution."""
    n = inst.n
    var = np.arange(n * n)
    assign = coo_matrix(
        (np.ones(2 * n * n), (np.concatenate([var // n, n + var % n]), np.concatenate([var, var]))),
        shape=(2 * n, n * n),
    )
    pairs = sorted(inst.conflicts)
    k = np.arange(len(pairs))
    cols = [[p.e1.a * n + p.e1.b for p in pairs], [p.e2.a * n + p.e2.b for p in pairs]]
    conflict = coo_matrix(
        (np.ones(2 * len(pairs)), (np.concatenate([k, k]), np.concatenate(cols))),
        shape=(len(pairs), n * n),
    )
    constraints = [LinearConstraint(assign.tocsr(), 1, 1)]
    if pairs:
        constraints.append(LinearConstraint(conflict.tocsr(), -np.inf, 1))
    t0 = time.perf_counter()
    res = milp(
        np.array([c for row in inst.costs for c in row], dtype=float),
        integrality=np.ones(n * n),
        bounds=Bounds(0, 1),
        constraints=constraints,
        options={"time_limit": HIGHS_TIME_LIMIT_S},
    )
    seconds = time.perf_counter() - t0
    if res.x is None:
        return res.status, None, seconds
    assignment = tuple(int(np.argmax(res.x[i * n:(i + 1) * n])) for i in range(n))
    value = sum(inst.costs[i][assignment[i]] for i in range(n))
    problems = assignment_problems(inst, assignment, value)
    if problems:
        raise RuntimeError(f"HiGHS returned a bad solution for {inst.name}: {problems}")
    return res.status, value, seconds


def reference(inst, provable: bool) -> dict:
    status, value, seconds = solve_milp(inst)
    record = {"highs_status": int(status), "highs_seconds": round(seconds, 1)}
    if status == 0:
        return {"value": value, "provenance": "highs-proven", "status": "Optimal", **record}
    if status == 2:
        return {"value": None, "provenance": "highs-proven", "status": "Infeasible", **record}
    if provable:
        sol = apc.exact.solve_exact(inst)
        status_name = str(sol.status)
        if status_name in ("Optimal", "Infeasible"):
            return {"value": sol.value, "provenance": "apc-proven", "status": status_name,
                    **record}
    if value is not None:
        return {"value": value, "provenance": "highs-feasible", "status": "Unknown", **record}
    rows, cols = linear_sum_assignment(np.array(inst.costs))
    bound = int(sum(inst.costs[i][j] for i, j in zip(rows, cols)))
    return {"value": bound, "provenance": "ap-root-bound", "status": "Unknown", **record}


def main() -> None:
    provable = {key for key, *_ in instance_keys("exact-prove")}
    wanted = {key: (n, m, s) for w in WORKLOADS for key, n, m, s in instance_keys(w)}
    checks = {}
    for key in {**KNOWN_OPTIMA, **KNOWN_FEASIBLE}:
        n, m, s = key.replace("-s", "-").split("-")
        checks[key] = (int(n), int(m), int(s))
    refs, failures = {}, []
    for key, (n, m, s) in sorted({**checks, **wanted}.items(), key=lambda kv: kv[1]):
        inst = apc.instance.generate_instance(n, m, COST_LO, COST_HI, s)
        ref = reference(inst, key in provable)
        print(key, json.dumps(ref), flush=True)
        if key in KNOWN_OPTIMA and (ref["status"], ref["value"]) != ("Optimal", KNOWN_OPTIMA[key]):
            failures.append(f"{key}: expected optimum {KNOWN_OPTIMA[key]}, got {ref}")
        if key in KNOWN_FEASIBLE and not (ref["value"] is not None and ref["provenance"] != "ap-root-bound"
                                          and ref["value"] <= KNOWN_FEASIBLE[key]):
            failures.append(f"{key}: expected a solution of value <= {KNOWN_FEASIBLE[key]}, got {ref}")
        if key in wanted:
            refs[key] = ref
    if failures:
        raise SystemExit("refs: known values not reproduced:\n" + "\n".join(failures))
    data = {
        "generator": f"apc.generate_instance(n, m, {COST_LO}, {COST_HI}, seed); key n-m-sSEED",
        "time_limit_s": HIGHS_TIME_LIMIT_S,
        "instances": dict(sorted(refs.items(), key=lambda kv: wanted[kv[0]])),
    }
    REFERENCES.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCES}")


if __name__ == "__main__":
    main()
