"""Problem instances: domain types, text format, random generation, validation.

An instance couples an n x n matrix of non-negative integer assignment costs
with a set of conflict pairs: unordered pairs of distinct edges that must not
both appear in a solution.

Text format (UTF-8, line oriented, '#' starts a comment line, blank lines are
skipped)::

    APC 1
    # name: example
    n 2
    costs
    1 10
    10 1
    conflicts 1
    0 0 1 1

Each conflict line holds two edges as ``a1 b1 a2 b2`` with 0-based indices.
The ``# name:`` comment is optional and carries the instance name through a
write/parse round trip; parsers that discard comments read the same data.
"""

import random
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, NamedTuple

from .errors import (
    DegenerateConflictError,
    DimensionMismatchError,
    DuplicateConflictError,
    IndexOutOfRangeError,
    MalformedHeaderError,
    NegativeCostError,
    TooManyConflictsError,
)


class Edge(NamedTuple):
    """One candidate assignment: left node ``a`` to right node ``b``."""

    a: int
    b: int


@dataclass(frozen=True, order=True)
class ConflictPair:
    """Unordered pair of distinct edges that cannot both be selected.

    The pair is stored in canonical (lexicographic) order, so a pair built
    from (e2, e1) compares and hashes equal to one built from (e1, e2).
    """

    e1: Edge
    e2: Edge

    def __post_init__(self):
        e1, e2 = Edge(*self.e1), Edge(*self.e2)
        if e1 == e2:
            raise DegenerateConflictError(
                f"conflict pair needs two distinct edges, got {e1} twice"
            )
        if e2 < e1:
            e1, e2 = e2, e1
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)

    def edges(self) -> tuple[Edge, Edge]:
        return (self.e1, self.e2)


@dataclass(frozen=True)
class Instance:
    """Immutable problem data: size, cost matrix, conflict set."""

    name: str
    n: int
    costs: tuple[tuple[int, ...], ...]
    conflicts: frozenset[ConflictPair] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "costs", tuple(tuple(row) for row in self.costs))
        object.__setattr__(self, "conflicts", frozenset(self.conflicts))

    @classmethod
    def from_costs(cls, costs, conflicts: Iterable = (), name: str = "") -> "Instance":
        """Build an instance from a square cost matrix; n is inferred."""
        rows = tuple(tuple(row) for row in costs)
        pairs = frozenset(
            p if isinstance(p, ConflictPair) else ConflictPair(*p) for p in conflicts
        )
        return cls(name=name, n=len(rows), costs=rows, conflicts=pairs)

    @cached_property
    def partners(self) -> tuple[tuple[Edge, ...], ...]:
        """Compiled conflict index: ``partners[a*n + b]`` holds every edge
        that conflicts with edge (a, b).

        Built once, on first use, and cached on the instance. It is not a
        field, so equality and hashing ignore it.
        """
        n = self.n
        adj: list[list[Edge]] = [[] for _ in range(n * n)]
        for pair in self.conflicts:
            e1, e2 = pair.e1, pair.e2
            if not 0 <= min(e1 + e2) <= max(e1 + e2) < n:
                raise IndexOutOfRangeError(
                    f"conflict {tuple(e1)}-{tuple(e2)} outside the {n}x{n} grid"
                )
            adj[e1.a * n + e1.b].append(e2)
            adj[e2.a * n + e2.b].append(e1)
        return tuple(map(tuple, adj))


@dataclass(frozen=True)
class Violation:
    """One broken invariant found by :func:`validate`."""

    code: str
    where: tuple
    message: str


def max_conflict_pairs(n: int) -> int:
    """Number of unordered pairs of distinct edges in a complete n x n graph."""
    num_edges = n * n
    return num_edges * (num_edges - 1) // 2


class _Cursor:
    """Sequential reader over the document's logical (non-comment) lines."""

    def __init__(self, lines: list[tuple[int, str]]):
        self._lines = lines
        self._pos = 0

    def take(self, what: str) -> tuple[int, str]:
        if self._pos >= len(self._lines):
            raise MalformedHeaderError(f"unexpected end of document, expected {what}")
        item = self._lines[self._pos]
        self._pos += 1
        return item

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._lines)

    def peek(self) -> tuple[int, str] | None:
        return None if self.exhausted else self._lines[self._pos]


def _all_ints(tokens: list[str]) -> bool:
    try:
        for tok in tokens:
            int(tok)
    except ValueError:
        return False
    return True


def parse_instance(source: str | IO[str]) -> Instance:
    """Parse an instance document.

    Accepts a string or a readable text stream. Raises a
    :class:`~apc.errors.FormatError` subclass naming the first problem found:
    MalformedHeaderError, DimensionMismatchError, IndexOutOfRangeError,
    DegenerateConflictError, DuplicateConflictError or NegativeCostError.
    Duplicate conflict lines are an error, never merged silently.
    """
    text = source.read() if hasattr(source, "read") else source
    name = ""
    logical: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("name:") and not name:
                name = body[len("name:"):].strip()
            continue
        logical.append((lineno, line))

    cur = _Cursor(logical)

    lineno, line = cur.take("magic line 'APC 1'")
    if line.split() != ["APC", "1"]:
        raise MalformedHeaderError(f"line {lineno}: expected 'APC 1', got {line!r}")

    lineno, line = cur.take("size line 'n <N>'")
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != "n" or not _all_ints(tokens[1:]):
        raise MalformedHeaderError(f"line {lineno}: expected 'n <N>', got {line!r}")
    n = int(tokens[1])
    if n < 1:
        raise MalformedHeaderError(f"line {lineno}: n must be positive, got {n}")

    lineno, line = cur.take("'costs' keyword")
    if line.split() != ["costs"]:
        raise MalformedHeaderError(f"line {lineno}: expected 'costs', got {line!r}")

    costs: list[tuple[int, ...]] = []
    for i in range(n):
        if cur.exhausted:
            raise DimensionMismatchError(
                f"cost block has {i} rows, expected {n}"
            )
        lineno, line = cur.take("cost row")
        tokens = line.split()
        if not _all_ints(tokens) or len(tokens) != n:
            raise DimensionMismatchError(
                f"line {lineno}: cost row {i} must hold exactly {n} integers, got {line!r}"
            )
        row = tuple(int(tok) for tok in tokens)
        for j, value in enumerate(row):
            if value < 0:
                raise NegativeCostError(f"line {lineno}: cost[{i}][{j}] = {value} < 0")
        costs.append(row)

    lineno, line = cur.take("conflict count line 'conflicts <M>'")
    tokens = line.split()
    if tokens[0:1] != ["conflicts"]:
        if _all_ints(tokens):
            raise DimensionMismatchError(
                f"line {lineno}: more than {n}x{n} cost entries (extra row {line!r})"
            )
        raise MalformedHeaderError(
            f"line {lineno}: expected 'conflicts <M>', got {line!r}"
        )
    if len(tokens) != 2 or not _all_ints(tokens[1:]) or int(tokens[1]) < 0:
        raise MalformedHeaderError(
            f"line {lineno}: expected 'conflicts <M>', got {line!r}"
        )
    m = int(tokens[1])

    conflicts: set[ConflictPair] = set()
    for k in range(m):
        lineno, line = cur.take(f"conflict line {k + 1} of {m}")
        tokens = line.split()
        if len(tokens) != 4 or not _all_ints(tokens):
            raise MalformedHeaderError(
                f"line {lineno}: conflict line must hold 4 integers, got {line!r}"
            )
        a1, b1, a2, b2 = (int(tok) for tok in tokens)
        for idx in (a1, b1, a2, b2):
            if not 0 <= idx < n:
                raise IndexOutOfRangeError(
                    f"line {lineno}: index {idx} outside [0, {n})"
                )
        pair = ConflictPair(Edge(a1, b1), Edge(a2, b2))
        if pair in conflicts:
            raise DuplicateConflictError(f"line {lineno}: duplicate conflict {line!r}")
        conflicts.add(pair)

    if not cur.exhausted:
        lineno, line = cur.peek()
        raise MalformedHeaderError(f"line {lineno}: unexpected trailing content {line!r}")

    return Instance(name=name, n=n, costs=tuple(costs), conflicts=frozenset(conflicts))


def write_instance(inst: Instance) -> str:
    """Serialize to the canonical document; inverse of :func:`parse_instance`."""
    out = ["APC 1"]
    if inst.name:
        out.append(f"# name: {inst.name}")
    out.append(f"n {inst.n}")
    out.append("costs")
    for row in inst.costs:
        out.append(" ".join(str(c) for c in row))
    pairs = sorted(inst.conflicts)
    out.append(f"conflicts {len(pairs)}")
    for p in pairs:
        out.append(f"{p.e1.a} {p.e1.b} {p.e2.a} {p.e2.b}")
    return "\n".join(out) + "\n"


def _unrank_edge_pair(rank: int, num_edges: int) -> tuple[int, int]:
    # Pairs (i, j) with i < j are numbered lexicographically; f(i) counts the
    # pairs whose first element is below i. Exact integer arithmetic so the
    # decoding stays correct for very large edge counts.
    def f(i: int) -> int:
        return i * (num_edges - 1) - i * (i - 1) // 2

    lo, hi = 0, num_edges - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(mid) <= rank:
            lo = mid
        else:
            hi = mid
    i = lo
    j = i + 1 + (rank - f(i))
    return i, j


def generate_instance(
    n: int,
    m: int,
    cost_lo: int,
    cost_hi: int,
    seed: int,
    name: str | None = None,
) -> Instance:
    """Draw a random instance: uniform costs, m distinct random conflict pairs.

    Costs are drawn row-major from [cost_lo, cost_hi]; conflicts are a uniform
    m-subset of all unordered pairs of distinct edges. The same parameters and
    seed reproduce the identical instance on every platform.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if cost_lo < 0:
        raise ValueError(f"cost_lo must be >= 0, got {cost_lo}")
    if cost_hi < cost_lo:
        raise ValueError(f"cost_hi must be >= cost_lo, got {cost_hi} < {cost_lo}")
    if m < 0:
        raise ValueError(f"conflict count must be >= 0, got {m}")
    limit = max_conflict_pairs(n)
    if m > limit:
        raise TooManyConflictsError(
            f"{m} conflicts requested but only {limit} distinct edge pairs exist for n={n}"
        )

    rng = random.Random(seed)
    costs = tuple(
        tuple(rng.randint(cost_lo, cost_hi) for _ in range(n)) for _ in range(n)
    )
    num_edges = n * n
    conflicts = set()
    for rank in rng.sample(range(limit), m) if m else ():
        eu, ev = _unrank_edge_pair(rank, num_edges)
        conflicts.add(
            ConflictPair(Edge(eu // n, eu % n), Edge(ev // n, ev % n))
        )
    if name is None:
        name = f"apc-n{n}-m{m}-s{seed}"
    return Instance(name=name, n=n, costs=costs, conflicts=frozenset(conflicts))


def validate(inst: Instance) -> list[Violation]:
    """Check every instance invariant; returns one record per violation.

    Violations are data, not failures: an empty list means the instance is
    valid. Arbitrary in-memory candidates are accepted.
    """
    out: list[Violation] = []
    if inst.n < 1:
        out.append(Violation("BadSize", (inst.n,), f"n must be >= 1, got {inst.n}"))
        return out
    if len(inst.costs) != inst.n:
        out.append(
            Violation(
                "ShapeMismatch",
                (len(inst.costs),),
                f"cost matrix has {len(inst.costs)} rows, expected {inst.n}",
            )
        )
    for i, row in enumerate(inst.costs):
        if len(row) != inst.n:
            out.append(
                Violation(
                    "ShapeMismatch",
                    (i,),
                    f"cost row {i} has {len(row)} entries, expected {inst.n}",
                )
            )
            continue
        for j, value in enumerate(row):
            if not isinstance(value, int):
                out.append(
                    Violation(
                        "NonIntegerCost", (i, j), f"cost[{i}][{j}] = {value!r} is not an integer"
                    )
                )
            elif value < 0:
                out.append(
                    Violation("NegativeCost", (i, j), f"cost[{i}][{j}] = {value} < 0")
                )
    for pair in sorted(inst.conflicts):
        for e in pair.edges():
            if not (0 <= e.a < inst.n and 0 <= e.b < inst.n):
                out.append(
                    Violation(
                        "IndexOutOfRange",
                        tuple(e),
                        f"conflict edge {tuple(e)} outside the {inst.n}x{inst.n} grid",
                    )
                )
    return out
