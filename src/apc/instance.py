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

import itertools
import math
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


class _EdgePair(NamedTuple):
    e1: Edge
    e2: Edge


class ConflictPair(_EdgePair):
    """Unordered pair of distinct edges that cannot both be selected.

    A canonical tuple of two :class:`Edge` in lexicographic order, so a pair
    built from (e2, e1) is the same tuple as one built from (e1, e2), and
    pairs compare and hash as tuples do. An ``Edge`` argument is kept as
    that very object, so pairs can share edges; anything else is coerced.
    """

    __slots__ = ()

    def __new__(cls, e1, e2):
        e1 = e1 if type(e1) is Edge else Edge(*e1)
        e2 = e2 if type(e2) is Edge else Edge(*e2)
        if e1 == e2:
            raise DegenerateConflictError(
                f"conflict pair needs two distinct edges, got {e1} twice"
            )
        if e2 < e1:
            e1, e2 = e2, e1
        return super().__new__(cls, e1, e2)


class _EdgeTable(dict):
    """One shared :class:`Edge` per used grid cell, keyed by its id a*n + b."""

    def __init__(self, n: int):
        self.n = n

    def __missing__(self, key: int) -> Edge:
        edge = self[key] = Edge(*divmod(key, self.n))
        return edge


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
    def partners(self) -> tuple[tuple[int, ...], ...]:
        """Compiled conflict index on edge ids: ``partners[a*n + b]`` holds
        the id ``c*n + d`` of every edge (c, d) that conflicts with (a, b).

        Built once, on first use, and cached on the instance. It is not a
        field, so equality and hashing ignore it. Each id is one shared int
        object, looked up in a single ``range`` list.
        """
        n = self.n
        ids = list(range(n * n))
        adj: list[list[int]] = [[] for _ in ids]
        for (a1, b1), (a2, b2) in self.conflicts:
            if not (0 <= a1 < n and 0 <= b1 < n and 0 <= a2 < n and 0 <= b2 < n):
                raise IndexOutOfRangeError(
                    f"conflict {(a1, b1)}-{(a2, b2)} outside the {n}x{n} grid"
                )
            u, v = ids[a1 * n + b1], ids[a2 * n + b2]
            adj[u].append(v)
            adj[v].append(u)
        for e, lst in enumerate(adj):  # free each list as its tuple lands
            adj[e] = tuple(lst)
        return tuple(adj)


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


def parse_instance(source: str | IO[str]) -> Instance:
    """Parse an instance document.

    Accepts a string or a readable text stream. Raises a
    :class:`~apc.errors.FormatError` subclass naming the first problem found:
    MalformedHeaderError, DimensionMismatchError, IndexOutOfRangeError,
    DegenerateConflictError, DuplicateConflictError or NegativeCostError.
    Duplicate conflict lines are an error, never merged silently. The pairs
    share one :class:`Edge` object per used grid cell, not two per line.
    """
    text = source.read() if hasattr(source, "read") else source
    name = ""

    def logical_lines():
        # (line number, stripped line) of every non-blank, non-comment line;
        # the first non-empty '# name:' comment sets the name on the way
        nonlocal name
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("name:") and not name:
                    name = body[len("name:"):].strip()
                continue
            yield lineno, line

    lines = logical_lines()

    def take(what: str) -> tuple[int, str]:
        item = next(lines, None)
        if item is None:
            raise MalformedHeaderError(f"unexpected end of document, expected {what}")
        return item

    def ints(tokens: list[str]) -> tuple[int, ...] | None:
        try:
            return tuple(map(int, tokens))
        except ValueError:
            return None

    lineno, line = take("magic line 'APC 1'")
    if line.split() != ["APC", "1"]:
        raise MalformedHeaderError(f"line {lineno}: expected 'APC 1', got {line!r}")

    lineno, line = take("size line 'n <N>'")
    tokens = line.split()
    size = ints(tokens[1:]) if tokens[0] == "n" else None
    if size is None or len(size) != 1:
        raise MalformedHeaderError(f"line {lineno}: expected 'n <N>', got {line!r}")
    (n,) = size
    if n < 1:
        raise MalformedHeaderError(f"line {lineno}: n must be positive, got {n}")

    lineno, line = take("'costs' keyword")
    if line.split() != ["costs"]:
        raise MalformedHeaderError(f"line {lineno}: expected 'costs', got {line!r}")

    costs: list[tuple[int, ...]] = []
    for i in range(n):
        item = next(lines, None)
        if item is None:
            raise DimensionMismatchError(f"cost block has {i} rows, expected {n}")
        lineno, line = item
        row = ints(line.split())
        if row is None or len(row) != n:
            raise DimensionMismatchError(
                f"line {lineno}: cost row {i} must hold exactly {n} integers, got {line!r}"
            )
        if min(row) < 0:
            j = next(j for j, value in enumerate(row) if value < 0)
            raise NegativeCostError(f"line {lineno}: cost[{i}][{j}] = {row[j]} < 0")
        costs.append(row)

    lineno, line = take("conflict count line 'conflicts <M>'")
    tokens = line.split()
    count = ints(tokens[1:]) if tokens[0] == "conflicts" else None
    if count is None and ints(tokens) is not None:
        raise DimensionMismatchError(
            f"line {lineno}: more than {n}x{n} cost entries (extra row {line!r})"
        )
    if count is None or len(count) != 1 or count[0] < 0:
        raise MalformedHeaderError(
            f"line {lineno}: expected 'conflicts <M>', got {line!r}"
        )
    (m,) = count

    edges = _EdgeTable(n)
    conflicts: set[ConflictPair] = set()
    for lineno, line in itertools.islice(lines, m):
        try:
            a1, b1, a2, b2 = map(int, line.split())
        except ValueError:  # a token that is not an int, or not 4 tokens
            raise MalformedHeaderError(
                f"line {lineno}: conflict line must hold 4 integers, got {line!r}"
            ) from None
        if not (0 <= a1 < n and 0 <= b1 < n and 0 <= a2 < n and 0 <= b2 < n):
            bad = next(i for i in (a1, b1, a2, b2) if not 0 <= i < n)
            raise IndexOutOfRangeError(f"line {lineno}: index {bad} outside [0, {n})")
        before = len(conflicts)
        conflicts.add(ConflictPair(edges[a1 * n + b1], edges[a2 * n + b2]))
        if len(conflicts) == before:
            raise DuplicateConflictError(f"line {lineno}: duplicate conflict {line!r}")
    if len(conflicts) < m:  # the lines ran out, so take() raises
        take(f"conflict line {len(conflicts) + 1} of {m}")

    extra = next(lines, None)
    if extra is not None:
        lineno, line = extra
        raise MalformedHeaderError(f"line {lineno}: unexpected trailing content {line!r}")

    return Instance(name=name, n=n, costs=tuple(costs), conflicts=frozenset(conflicts))


def write_instance(inst: Instance) -> str:
    """Serialize to the canonical document; inverse of :func:`parse_instance`.

    Raises ValueError for a name the document cannot carry back: one that
    spans lines or begins or ends with whitespace.
    """
    out = ["APC 1"]
    if inst.name:
        if inst.name.splitlines() != [inst.name] or inst.name != inst.name.strip():
            raise ValueError(
                f"instance name {inst.name!r} must be one line without "
                "leading or trailing whitespace"
            )
        out.append(f"# name: {inst.name}")
    out.append(f"n {inst.n}")
    out.append("costs")
    out.extend(" ".join(map(str, row)) for row in inst.costs)
    # flat 4-tuples sort faster than the nested pairs, in the same order
    quads = sorted(p.e1 + p.e2 for p in inst.conflicts)
    out.append(f"conflicts {len(quads)}")
    out.extend(f"{a1} {b1} {a2} {b2}" for a1, b1, a2, b2 in quads)
    return "\n".join(out) + "\n"


def _unrank_edge_pair(rank: int, num_edges: int) -> tuple[int, int]:
    # Pairs (i, j) with i < j are numbered lexicographically, so row i starts
    # at rank i*(N-1) - i*(i-1)/2. i is the last row starting at or before
    # `rank`; solving that quadratic with an exact integer square root keeps
    # the decoding correct for very large edge counts.
    last = num_edges - 1
    i = last - 1 - (math.isqrt(4 * num_edges * last - 8 * rank - 7) - 1) // 2
    j = rank + i + 1 - i * last + i * (i - 1) // 2
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
    edges = _EdgeTable(n)
    conflicts = set()
    for rank in rng.sample(range(limit), m) if m else ():
        eu, ev = _unrank_edge_pair(rank, num_edges)
        conflicts.add(ConflictPair(edges[eu], edges[ev]))
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
        for e in pair:
            if not (0 <= e.a < inst.n and 0 <= e.b < inst.n):
                out.append(
                    Violation(
                        "IndexOutOfRange",
                        tuple(e),
                        f"conflict edge {tuple(e)} outside the {inst.n}x{inst.n} grid",
                    )
                )
    return out
