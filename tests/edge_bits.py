"""Edge-id bitsets for the tests.

A search node's forbidden mask and an instance's partner masks are ints
whose bit e is set exactly when edge id e belongs to them; `ids` and `bits`
convert between such an int and the set of ids it holds. A node forces an
edge by forbidding the rest of its row and column: `force_bits` writes
forced edges that way, and `forced_ids` reads them back.
"""

from collections import Counter


def ids(mask: int) -> set[int]:
    """The edge ids whose bits are set in `mask`."""
    return {e for e in range(mask.bit_length()) if mask >> e & 1}


def bits(edge_ids) -> int:
    """The bitset of `edge_ids`: bit e is set for each id e."""
    return sum(1 << e for e in set(edge_ids))


def force_bits(n: int, edge_ids) -> int:
    """The forbidden bits that force each of `edge_ids` in an n x n matrix:
    every other edge of its row and of its column."""
    return bits(
        f
        for e in edge_ids
        for f in range(n * n)
        if f != e and (f // n == e // n or f % n == e % n)
    )


def forced_ids(n: int, mask: int) -> set[int]:
    """The edges that `mask` leaves as the only allowed edge of both their
    row and their column."""
    allowed = set(range(n * n)) - ids(mask)
    rows = Counter(e // n for e in allowed)
    cols = Counter(e % n for e in allowed)
    return {e for e in allowed if rows[e // n] == cols[e % n] == 1}
