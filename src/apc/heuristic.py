"""Fast feasible solutions: conflict-aware greedy construction with repair,
then steepest-descent improvement over the pairwise column-swap neighborhood.

Both stages preserve conflict feasibility at all times; every solution that
leaves this module passes the feasibility checker.
"""

import random
import time
from collections import deque
from dataclasses import dataclass, replace

from .errors import InfeasibleStartError, NonpositiveOptError
from .instance import Instance
from .model import check_feasible, evaluate
from .solution import Solution, SolveStatus


@dataclass(frozen=True)
class LSConfig:
    """Knobs for the restart driver: one time budget shared by every restart
    and its descent, the restart count, and the seed the restarts draw from."""

    time_limit: float = 3600.0
    restarts: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or not self.time_limit > 0:
            raise ValueError(f"all limits must be positive, got {self}")


def construct_greedy(inst: Instance, rng_seed: int) -> Solution | None:
    """Build a conflict-feasible solution greedily, evicting on dead ends.

    Left nodes are processed in random order; each takes the cheapest free
    column that activates no conflict. A stuck node repairs by claiming a
    column after evicting whoever blocks it (the seat's occupant and any
    assigned conflict partners); evicted nodes re-enter the queue. Repairs
    that touch no conflict are preferred over conflict-adjacent ones so that
    two nodes cannot steal the same cheap seat from each other forever. Each
    node may be evicted at most once; when a repair would need a second
    eviction, construction fails and returns None so the caller can restart
    with a different seed.
    """
    n = inst.n
    partners = inst.partners
    order = list(range(n))
    random.Random(rng_seed).shuffle(order)
    start = time.perf_counter()

    col_of: list[int | None] = [None] * n
    row_of: list[int | None] = [None] * n
    selected: set[int] = set()  # ids i*n + j of the seated edges
    evicted: set[int] = set()  # rows that may not be evicted again
    queue = deque(order)

    def seat(i: int, j: int) -> None:
        col_of[i], row_of[j] = j, i
        selected.add(i * n + j)

    while queue:
        i = queue.popleft()
        row = inst.costs[i]
        for _, j in sorted((row[j], j) for j in range(n) if row_of[j] is None):
            if selected.isdisjoint(partners[i * n + j]):
                seat(i, j)
                break
        else:
            # every free column conflicts, so every candidate has a blocker
            candidates = []
            for j in range(n):
                conflicted = {p // n for p in partners[i * n + j] if p in selected}
                blockers = set(conflicted)
                if row_of[j] is not None:
                    blockers.add(row_of[j])
                candidates.append((bool(conflicted), row[j], j, blockers))
            candidates.sort()
            for _, _, j, blockers in candidates:
                if evicted.isdisjoint(blockers):
                    for b in blockers:
                        evicted.add(b)
                        freed = col_of[b]
                        col_of[b] = row_of[freed] = None
                        selected.remove(b * n + freed)
                        queue.append(b)
                    seat(i, j)
                    break
            else:
                return None

    perm = tuple(col_of)
    elapsed = time.perf_counter() - start
    return Solution(
        assignment=perm,
        value=evaluate(inst, perm),
        status=SolveStatus.FEASIBLE,
        sec_best=elapsed,
        sec_total=elapsed,
    )


def _swap_clear(i: int, k: int, perm: list[int], selected: set[int], partners) -> bool:
    # Swapping the columns of rows i and k replaces edges (i, perm[i]) and
    # (k, perm[k]) of `selected` by (i, perm[k]) and (k, perm[i]); the move
    # is admissible iff neither new edge conflicts with the other or with an
    # edge that stays selected.
    n = len(perm)
    new_i, new_k = i * n + perm[k], k * n + perm[i]
    leaving = {i * n + perm[i], k * n + perm[k]}
    return (
        new_k not in partners[new_i]
        and selected.intersection(partners[new_i]) <= leaving
        and selected.intersection(partners[new_k]) <= leaving
    )


def local_search(inst: Instance, start: Solution, cfg: LSConfig) -> Solution:
    """Steepest descent over column swaps between row pairs.

    Each pass applies the single best strictly-improving admissible swap;
    the loop stops at a local optimum or at the time limit.
    The result is never worse than the start and stays conflict-feasible.
    """
    report = check_feasible(inst, start.assignment)
    if not report.feasible:
        raise InfeasibleStartError(
            f"local search needs a feasible start, got violations {report}"
        )
    n = inst.n
    costs = inst.costs
    partners = inst.partners
    perm = list(start.assignment)
    selected = {i * n + j for i, j in enumerate(perm)}
    value = evaluate(inst, perm)
    t0 = time.perf_counter()
    deadline = t0 + cfg.time_limit
    improved_at = 0.0

    while time.perf_counter() <= deadline:
        best_delta = 0
        best_move = None
        for i in range(n):
            ci = costs[i]
            for k in range(i + 1, n):
                delta = (
                    ci[perm[k]] + costs[k][perm[i]] - ci[perm[i]] - costs[k][perm[k]]
                )
                if delta < best_delta and _swap_clear(i, k, perm, selected, partners):
                    best_delta = delta
                    best_move = (i, k)
        if best_move is None:
            break
        i, k = best_move
        selected -= {i * n + perm[i], k * n + perm[k]}
        perm[i], perm[k] = perm[k], perm[i]
        selected |= {i * n + perm[i], k * n + perm[k]}
        value += best_delta
        improved_at = time.perf_counter() - t0

    elapsed = time.perf_counter() - t0
    return Solution(
        assignment=tuple(perm),
        value=value,
        status=SolveStatus.FEASIBLE,
        sec_best=improved_at,
        sec_total=elapsed,
    )


def run_heuristic(inst: Instance, cfg: LSConfig) -> Solution:
    """Best of `cfg.restarts` greedy+descent runs under one time budget.

    Restart seeds are drawn sequentially from cfg.rng_seed, so the best value
    over k restarts is non-increasing in k for a fixed seed. When no restart
    produces a feasible solution the result has status NoSolution and no
    assignment; that is not a proof of infeasibility.
    """
    start = time.perf_counter()
    deadline = start + cfg.time_limit
    master = random.Random(cfg.rng_seed)
    best: Solution | None = None
    best_at = 0.0
    for _ in range(cfg.restarts):
        seed = master.getrandbits(63)
        if time.perf_counter() >= deadline:
            break
        built = construct_greedy(inst, seed)
        if built is None:
            continue
        remaining = max(deadline - time.perf_counter(), 1e-3)
        improved = local_search(inst, built, replace(cfg, time_limit=remaining))
        if best is None or improved.value < best.value:
            best = improved
            best_at = time.perf_counter() - start
    total = time.perf_counter() - start
    if best is None:
        return Solution(None, None, SolveStatus.NO_SOLUTION, sec_total=total)
    return replace(best, sec_best=best_at, sec_total=total)


def gap_percent(val: int, opt: int) -> float:
    """Relative excess of a heuristic value over the optimum, in percent:
    100 * (val - opt) / opt."""
    if opt <= 0:
        raise NonpositiveOptError(f"reference optimum must be positive, got {opt}")
    return 100.0 * (val - opt) / opt
