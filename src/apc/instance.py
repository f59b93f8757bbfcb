"""Problem instances: domain types, text format, random generation, validation.

An instance couples an n x n matrix of non-negative integer assignment costs
with a set of conflict pairs: unordered pairs of distinct edges that must not
both appear in a solution.

Text format (UTF-8, line oriented, '#' starts a comment line, blank lines and
one leading byte-order mark are skipped)::

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

import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator, NamedTuple

from .hungarian import line_masks


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
    pairs compare and hash as tuples do. An ``Edge`` argument is kept as it
    is; anything else is coerced.
    """

    __slots__ = ()

    def __new__(cls, e1, e2):
        e1 = e1 if type(e1) is Edge else Edge(*e1)
        e2 = e2 if type(e2) is Edge else Edge(*e2)
        if e1 == e2:
            raise ValueError(f"conflict pair needs two distinct edges, got {e1} twice")
        if e2 < e1:
            e1, e2 = e2, e1
        return super().__new__(cls, e1, e2)


@dataclass(frozen=True)
class ConflictSet:
    """The :class:`ConflictPair` of an n x n instance, held as int keys.

    The pair of edge ids ``u = a1*n + b1 < v = a2*n + b2`` is the key
    ``u*n*n + v``, so sorted keys follow the pairs' own order. Iterating
    builds each pair as it goes and keeps none, because the cyclic GC walks
    every live tuple subclass on each collection and never a plain int.
    Two conflict sets are equal when they have the same ``n`` and keys.
    """

    n: int
    keys: frozenset[int]

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable) -> "ConflictSet":
        """Coerce any iterable of pairs of (a, b) edges.

        Raises ValueError for an edge outside the n x n grid or a pair of one
        edge twice.
        """
        if isinstance(pairs, cls) and pairs.n == n:
            return pairs
        nn = n * n
        keys = set()
        for (a1, b1), (a2, b2) in pairs:
            a1, b1, a2, b2 = map(operator.index, (a1, b1, a2, b2))
            if not (0 <= a1 < n and 0 <= b1 < n and 0 <= a2 < n and 0 <= b2 < n):
                raise ValueError(f"conflict {(a1, b1)}-{(a2, b2)} outside the {n}x{n} grid")
            u, v = a1 * n + b1, a2 * n + b2
            if u == v:
                raise ValueError(
                    f"conflict pair needs two distinct edges, got {Edge(a1, b1)} twice"
                )
            keys.add(u * nn + v if u < v else v * nn + u)
        return cls(n, frozenset(keys))

    def __len__(self) -> int:
        return len(self.keys)

    def id_pairs(self) -> Iterator[tuple[int, int]]:
        """Yield each pair as edge ids ``(u, v)``, ``u < v``, in sorted order."""
        nn = self.n * self.n
        for key in sorted(self.keys):
            yield divmod(key, nn)

    def __iter__(self):
        n = self.n
        nn = n * n
        pair, edge = ConflictPair._make, Edge._make
        for key in self.keys:
            u, v = divmod(key, nn)
            yield pair((edge(divmod(u, n)), edge(divmod(v, n))))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({sorted(self)!r})"


@dataclass(frozen=True)
class Instance:
    """Immutable problem data: cost matrix, conflict set, name.

    Valid once built: ``n`` is the number of cost rows, a matrix that is
    empty or not square or holds a negative cost raises ValueError, and a
    cost that is not an integer TypeError. ``conflicts`` takes any iterable
    of pairs and holds it as a :class:`ConflictSet`; an edge outside the
    n x n grid or a pair of one edge twice raises ValueError.
    """

    costs: tuple[tuple[int, ...], ...]
    conflicts: ConflictSet = ConflictSet(0, frozenset())
    name: str = ""

    def __post_init__(self):
        # a row of ints is kept, not copied, which keeps the peak memory of
        # parsing down; any other row is coerced, so a float or a str raises
        # TypeError
        costs = tuple(
            row if all(type(c) is int for c in row) else tuple(map(operator.index, row))
            for row in map(tuple, self.costs)
        )
        n = len(costs)
        if n == 0:
            raise ValueError("cost matrix has no rows")
        for i, row in enumerate(costs):
            if len(row) != n:
                raise ValueError(f"cost row {i} has {len(row)} entries, expected {n}")
            if min(row) < 0:
                j = next(j for j, value in enumerate(row) if value < 0)
                raise ValueError(f"cost[{i}][{j}] = {row[j]} < 0")
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "conflicts", ConflictSet.from_pairs(n, self.conflicts))

    @property
    def n(self) -> int:
        """Nodes per side: the number of cost rows."""
        return len(self.costs)

    @cached_property
    def partners(self) -> tuple[tuple[int, ...], ...]:
        """Compiled conflict index on edge ids: ``partners[a*n + b]`` holds
        the id ``c*n + d`` of every edge (c, d) that conflicts with (a, b).

        Built once from the conflict keys, on first use, and cached on the
        instance. It is not a field, so equality and hashing ignore it. Each
        id is one shared int object, looked up in a single ``range`` list.
        """
        nn = self.n * self.n
        ids = list(range(nn))
        adj: list[list[int]] = [[] for _ in ids]
        for key in self.conflicts.keys:
            u, v = divmod(key, nn)
            u, v = ids[u], ids[v]
            adj[u].append(v)
            adj[v].append(u)
        for e, lst in enumerate(adj):  # free each list as its tuple lands
            adj[e] = tuple(lst)
        return tuple(adj)

    @cached_property
    def column_order(self) -> tuple[tuple[int, ...], ...]:
        """Each row's columns, cheapest first: ``column_order[i]`` is
        ``range(n)`` sorted by ``costs[i]``, ties by column index.

        Built once, on first use, and cached like ``partners``; equality and
        hashing ignore it. The rows share one set of int objects.
        """
        cols = list(range(self.n))
        return tuple(tuple(sorted(cols, key=row.__getitem__)) for row in self.costs)

    @cached_property
    def exclusion_masks(self) -> dict[int, int]:
        """What each edge rules out, as bitsets: ``exclusion_masks[e]`` is the
        int with bit f set for every other edge f of e's row and column and
        for every f in ``partners[e]``, the edges no solution holds beside e.

        Empty until an edge is looked up; each edge's mask is built from
        ``partners`` and the line bitsets of `line_masks` on its first lookup
        and kept. All n*n masks at once would take up to n**4/8 bytes, so
        none is built ahead of use. Like ``partners`` it is cached on the
        instance and ignored by equality and hashing.
        """
        return _ExclusionMasks(self.n, self.partners)


class _ExclusionMasks(dict):
    """Edge id -> bitset of the edges it excludes, filled on first lookup."""

    def __init__(self, n: int, partners: tuple[tuple[int, ...], ...]):
        super().__init__()
        self.n, self.partners = n, partners

    def __missing__(self, e: int) -> int:
        if e < 0:  # a tuple index would wrap around
            raise KeyError(e)
        partners, n = self.partners[e], self.n  # IndexError past the grid
        lines = line_masks(n)[1]
        own = (lines[e // n] | lines[n + e % n]) ^ 1 << e
        mask = self[e] = own | sum(map((1).__lshift__, partners))
        return mask


def max_conflict_pairs(n: int) -> int:
    """Number of unordered pairs of distinct edges in a complete n x n graph."""
    num_edges = n * n
    return num_edges * (num_edges - 1) // 2


def parse_instance(source: str | IO[str]) -> Instance:
    """Parse an instance document.

    Accepts a string or a readable text stream. Raises ValueError naming the
    first problem found and its line, or saying that the document ended
    early. Duplicate conflict lines are an error, never merged silently.
    """
    text = source.read() if hasattr(source, "read") else source
    name = ""
    numbered = enumerate(text.removeprefix("\ufeff").splitlines(), start=1)

    def is_data(line: str) -> bool:
        # false for a blank or comment line; the first non-empty '# name:'
        # comment sets the name on the way
        nonlocal name
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("name:") and not name:
                name = body[len("name:"):].strip()
            return False
        return line != ""

    def take(missing: str):
        # (line number, stripped line) of the next non-blank, non-comment
        # line; ValueError(missing) when the document ends first
        for lineno, raw in numbered:
            line = raw.strip()
            if is_data(line):
                return lineno, line
        raise ValueError(missing)

    def ints(tokens: list[str]) -> tuple[int, ...] | None:
        try:
            return tuple(map(int, tokens))
        except ValueError:
            return None

    at_end = "unexpected end of document, expected"
    lineno, line = take(f"{at_end} magic line 'APC 1'")
    if line.split() != ["APC", "1"]:
        raise ValueError(f"line {lineno}: expected 'APC 1', got {line!r}")

    lineno, line = take(f"{at_end} size line 'n <N>'")
    tokens = line.split()
    size = ints(tokens[1:]) if tokens[0] == "n" else None
    if size is None or len(size) != 1:
        raise ValueError(f"line {lineno}: expected 'n <N>', got {line!r}")
    (n,) = size
    if n < 1:
        raise ValueError(f"line {lineno}: n must be positive, got {n}")

    lineno, line = take(f"{at_end} 'costs' keyword")
    if line.split() != ["costs"]:
        raise ValueError(f"line {lineno}: expected 'costs', got {line!r}")

    costs: list[tuple[int, ...]] = []
    for i in range(n):
        lineno, line = take(f"cost block has {i} rows, expected {n}")
        row = ints(line.split())
        if row is None or len(row) != n:
            raise ValueError(
                f"line {lineno}: cost row {i} must hold exactly {n} integers, got {line!r}"
            )
        if min(row) < 0:
            j = next(j for j, value in enumerate(row) if value < 0)
            raise ValueError(f"line {lineno}: cost[{i}][{j}] = {row[j]} < 0")
        costs.append(row)

    lineno, line = take(f"{at_end} conflict count line 'conflicts <M>'")
    tokens = line.split()
    count = ints(tokens[1:]) if tokens[0] == "conflicts" else None
    if count is None and ints(tokens) is not None:
        raise ValueError(f"line {lineno}: more than {n}x{n} cost entries (extra row {line!r})")
    if count is None or len(count) != 1 or count[0] < 0:
        raise ValueError(f"line {lineno}: expected 'conflicts <M>', got {line!r}")
    (m,) = count

    # the rest of the document, read from the same numbered lines: each token
    # is looked up in a table of the n canonical indices, built only now that
    # the cost block holds n rows; only a line with a token outside it (blank,
    # comment, trailing, or a signed, padded or bad index) takes the branch
    # that skips it, rejects it or reads it with int()
    index = {str(i): i for i in range(n)}
    nn = n * n
    keys: set[int] = set()
    for lineno, raw in numbered:
        try:
            a1, b1, a2, b2 = raw.split()
            u = index[a1] * n + index[b1]
            v = index[a2] * n + index[b2]
        except (KeyError, ValueError):
            line = raw.strip()
            if not is_data(line):
                continue
            if len(keys) < m:
                try:
                    a1, b1, a2, b2 = map(int, line.split())
                except ValueError:  # a token that is not an int, or not 4 tokens
                    raise ValueError(
                        f"line {lineno}: conflict line must hold 4 integers, got {line!r}"
                    ) from None
                if not (0 <= a1 < n and 0 <= b1 < n and 0 <= a2 < n and 0 <= b2 < n):
                    bad = next(i for i in (a1, b1, a2, b2) if not 0 <= i < n)
                    raise ValueError(f"line {lineno}: index {bad} outside [0, {n})")
                u, v = a1 * n + b1, a2 * n + b2
        found = len(keys)
        if found == m:
            raise ValueError(f"line {lineno}: unexpected trailing content {raw.strip()!r}")
        if u == v:
            raise ValueError(
                f"line {lineno}: conflict pair needs two distinct edges, "
                f"got {Edge(*divmod(u, n))} twice"
            )
        keys.add(u * nn + v if u < v else v * nn + u)
        if len(keys) == found:
            raise ValueError(f"line {lineno}: duplicate conflict {raw.strip()!r}")
    if len(keys) < m:  # the lines ran out, so take() raises
        take(f"{at_end} conflict line {len(keys) + 1} of {m}")

    return Instance(tuple(costs), ConflictSet(n, frozenset(keys)), name)


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
    n = inst.n
    out.append(f"conflicts {len(inst.conflicts)}")
    for u, v in inst.conflicts.id_pairs():
        out.append(f"{u // n} {u % n} {v // n} {v % n}")
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
    seed reproduce the identical instance on every platform. An argument
    other than `name` that is not an int raises TypeError.
    """
    n, m, cost_lo, cost_hi, seed = map(operator.index, (n, m, cost_lo, cost_hi, seed))
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
        raise ValueError(
            f"{m} conflicts requested but only {limit} distinct edge pairs exist for n={n}"
        )

    rng = random.Random(seed)
    costs = tuple(
        tuple(rng.randint(cost_lo, cost_hi) for _ in range(n)) for _ in range(n)
    )
    nn = n * n
    keys = set()
    for rank in rng.sample(range(limit), m) if m else ():
        u, v = _unrank_edge_pair(rank, nn)
        keys.add(u * nn + v)
    if name is None:
        name = f"apc-n{n}-m{m}-s{seed}"
    return Instance(costs, ConflictSet(n, frozenset(keys)), name)
