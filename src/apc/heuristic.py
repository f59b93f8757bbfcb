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
from .instance import Edge, Instance
from .model import check_feasible, evaluate
from .solution import Solution, SolveStatus


@dataclass(frozen=True)
class LSConfig:
    """Knobs for the improvement loop and the restart driver."""

    max_passes: int = 1000
    time_limit: float = 3600.0
    restarts: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_passes < 1 or self.restarts < 1 or self.time_limit <= 0:
            raise ValueError(f"all limits must be positive, got {self}")


def _edge_clear(partners: tuple[Edge, ...], assigned: dict[int, int]) -> bool:
    # True when selecting the edge with these conflict partners activates no
    # conflict against current picks.
    for partner in partners:
        if assigned.get(partner.a) == partner.b:
            return False
    return True


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
    rng = random.Random(rng_seed)
    order = list(range(n))
    rng.shuffle(order)
    partners = inst.partners
    start = time.perf_counter()

    assigned: dict[int, int] = {}
    occupant: dict[int, int] = {}
    col_free = [True] * n
    evictions_left = [1] * n
    queue = deque(order)
    while queue:
        i = queue.popleft()
        choices = sorted((inst.costs[i][j], j) for j in range(n) if col_free[j])
        picked = False
        for _, j in choices:
            if _edge_clear(partners[i * n + j], assigned):
                assigned[i] = j
                occupant[j] = i
                col_free[j] = False
                picked = True
                break
        if picked:
            continue
        candidates = []
        for j in range(n):
            conflicted = {
                p.a for p in partners[i * n + j] if assigned.get(p.a) == p.b
            }
            blockers = set(conflicted)
            if not col_free[j]:
                blockers.add(occupant[j])
            candidates.append((bool(conflicted), inst.costs[i][j], j, blockers))
        candidates.sort(key=lambda c: c[:3])
        for _, _, j, blockers in candidates:
            if blockers and all(evictions_left[b] for b in blockers):
                for b in blockers:
                    evictions_left[b] -= 1
                    freed = assigned.pop(b)
                    del occupant[freed]
                    col_free[freed] = True
                    queue.append(b)
                assigned[i] = j
                occupant[j] = i
                col_free[j] = False
                picked = True
                break
        if not picked:
            return None

    perm = tuple(assigned[i] for i in range(n))
    elapsed = time.perf_counter() - start
    return Solution(
        assignment=perm,
        value=evaluate(inst, perm),
        status=SolveStatus.FEASIBLE,
        sec_best=elapsed,
        sec_total=elapsed,
    )


def _swap_clear(i: int, k: int, perm: list[int], partners) -> bool:
    # Swapping the columns of rows i and k introduces edges (i, perm[k]) and
    # (k, perm[i]); the move is admissible iff neither activates a conflict
    # against the post-swap assignment.
    n = len(perm)
    new_i, new_k = perm[k], perm[i]
    for edge_partners in (partners[i * n + new_i], partners[k * n + new_k]):
        for partner in edge_partners:
            if partner.a == i:
                selected = partner.b == new_i
            elif partner.a == k:
                selected = partner.b == new_k
            else:
                selected = perm[partner.a] == partner.b
            if selected:
                return False
    return True


def local_search(inst: Instance, start: Solution, cfg: LSConfig) -> Solution:
    """Steepest descent over column swaps between row pairs.

    Each pass applies the single best strictly-improving admissible swap;
    the loop stops at a local optimum, the pass limit or the time limit.
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
    value = evaluate(inst, perm)
    t0 = time.perf_counter()
    deadline = t0 + cfg.time_limit
    improved_at = 0.0

    for _ in range(cfg.max_passes):
        if time.perf_counter() > deadline:
            break
        best_delta = 0
        best_move = None
        for i in range(n):
            ci = costs[i]
            for k in range(i + 1, n):
                delta = (
                    ci[perm[k]] + costs[k][perm[i]] - ci[perm[i]] - costs[k][perm[k]]
                )
                if delta < best_delta and _swap_clear(i, k, perm, partners):
                    best_delta = delta
                    best_move = (i, k)
        if best_move is None:
            break
        i, k = best_move
        perm[i], perm[k] = perm[k], perm[i]
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


def run_heuristic(inst: Instance, cfg: LSConfig) -> Solution | None:
    """Best of `cfg.restarts` greedy+descent runs under one time budget.

    Restart seeds are drawn sequentially from cfg.rng_seed, so the best value
    over k restarts is non-increasing in k for a fixed seed. Returns None when
    no restart produces a feasible solution (not a proof of infeasibility).
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
    if best is None:
        return None
    total = time.perf_counter() - start
    return replace(best, sec_best=best_at, sec_total=total)


def gap_percent(val: int, opt: int) -> float:
    """Relative excess of a heuristic value over the optimum, in percent:
    100 * (val - opt) / opt."""
    if opt <= 0:
        raise NonpositiveOptError(f"reference optimum must be positive, got {opt}")
    return 100.0 * (val - opt) / opt
