"""Exhaustive ground-truth solver for small instances.

Deliberately dumb: direct enumeration of all permutations with a literal
both-edges-selected conflict test. Everything else in the package is judged
against this module, so it shares no solver code with anything: it reads
``inst.conflicts`` directly, never the compiled conflict index the solvers
use.
"""

import itertools
import math
import time
from typing import Iterator

from .errors import InstanceTooLargeError
from .instance import Instance
from .solution import Solution, SolveStatus

BRUTE_FORCE_MAX_N = 10
ENUMERATE_MAX_N = 8


def _feasible_permutations(inst: Instance) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every conflict-feasible permutation with its value, lexicographic."""
    conflicts = tuple(
        (p.e1.a, p.e1.b, p.e2.a, p.e2.b) for p in sorted(inst.conflicts)
    )
    costs = inst.costs
    for perm in itertools.permutations(range(inst.n)):
        for a1, b1, a2, b2 in conflicts:
            if perm[a1] == b1 and perm[a2] == b2:
                break
        else:
            yield perm, sum(costs[i][j] for i, j in enumerate(perm))


def brute_force(inst: Instance) -> Solution:
    """Optimal solution by enumerating every permutation in lexicographic order.

    Returns the first permutation attaining the minimum conflict-feasible
    cost, or an Infeasible solution when every permutation violates some
    conflict. Guarded to n <= 10.
    """
    if inst.n > BRUTE_FORCE_MAX_N:
        raise InstanceTooLargeError(
            f"brute force is guarded to n <= {BRUTE_FORCE_MAX_N}, got n = {inst.n}"
        )
    start = time.perf_counter()
    best = min(_feasible_permutations(inst), key=lambda pv: pv[1], default=None)
    elapsed = time.perf_counter() - start
    count = math.factorial(inst.n)
    if best is None:
        return Solution(
            assignment=None,
            value=None,
            status=SolveStatus.INFEASIBLE,
            sec_best=elapsed,
            sec_total=elapsed,
            nodes=count,
        )
    best_perm, best_value = best
    return Solution(
        assignment=best_perm,
        value=best_value,
        status=SolveStatus.OPTIMAL,
        sec_best=elapsed,
        sec_total=elapsed,
        nodes=count,
        lower_bound=best_value,
    )


def enumerate_feasible(inst: Instance) -> list[tuple[tuple[int, ...], int]]:
    """All conflict-feasible permutations with their values, lexicographic.

    Guarded to n <= 8. The brute-force answer equals the minimum of this list,
    and an empty list means the instance is infeasible.
    """
    if inst.n > ENUMERATE_MAX_N:
        raise InstanceTooLargeError(
            f"enumeration is guarded to n <= {ENUMERATE_MAX_N}, got n = {inst.n}"
        )
    return list(_feasible_permutations(inst))
