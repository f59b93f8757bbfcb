"""A fixed kernel that measures how fast the host runs right now.

On a shared machine the same deterministic operation can take up to twice as
long from one minute to the next, in CPU time as well as wall time, because
the host's other tenants slow this one down. The kernel below is timed next
to every measured operation, and the operation's time is divided by it. It
does the kind of work the ``apc`` package does (pure Python: an assignment
solve by the Hungarian method, then a scan of conflict pairs through a set),
but it is a frozen copy that no change to ``apc`` can speed up or slow down.
"""

import random
import time

_N = 40
_RNG = random.Random(20250604)
_COSTS = [[_RNG.randint(1, 100) for _ in range(_N)] for _ in range(_N)]
# Conflict pairs ((i1, j1), (i2, j2)) as three flat lists of small ints,
# which keep the kernel's share of the peak resident set small.
_I1, _I2, _J2 = ([_RNG.randrange(_N) for _ in range(40000)] for _ in range(3))
_EDGES = {(i, j) for i in range(_N) for j in range(_N) if (i + j) % 3}

# Median of kernel_s() run alone for 40 s on the 2-vCPU x86_64 host the
# baseline was taken on (Python 3.11), in a quiet minute. It only sets the
# scale: a scaled time reads in seconds of that host running at that speed.
REFERENCE_KERNEL_S = 0.0065
# One sample averages three runs, about 20 ms: short beside any operation.
KERNEL_REPEATS = 3


def _hungarian(c: list[list[int]]) -> list[int]:
    n, inf = len(c), float("inf")
    u, v, p, way = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for i in range(1, n + 1):
        p[0], j0 = i, 0
        minv, used = [inf] * (n + 1), [False] * (n + 1)
        while True:
            used[j0] = True
            i0, delta, j1 = p[j0], inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = c[i0 - 1][j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0], j0 = p[j1], j1
    assignment = [0] * n
    for j in range(1, n + 1):
        assignment[p[j] - 1] = j - 1
    return assignment


def kernel_s() -> float:
    """Mean wall time of KERNEL_REPEATS runs of the kernel."""
    t0 = time.perf_counter()
    for _ in range(KERNEL_REPEATS):
        _kernel()
    return (time.perf_counter() - t0) / KERNEL_REPEATS


def _kernel() -> int:
    a = _hungarian(_COSTS)
    hits = 0
    for i1, i2, j2 in zip(_I1, _I2, _J2):
        if (i1, a[i1]) in _EDGES and a[i2] == j2:
            hits += 1
    return hits


def scaled_s(elapsed: float, kernel_before: float, kernel_after: float) -> float:
    """`elapsed` in seconds of the reference host: the operation's time over
    the mean of the kernel times measured just before and just after it."""
    return elapsed * 2 * REFERENCE_KERNEL_S / (kernel_before + kernel_after)
