"""Edge-id bitsets for the tests.

A search node's allowed mask and an instance's partner masks are ints whose
bit e is set exactly when edge id e belongs to them; `ids` and `bits`
convert between such an int and the set of ids it holds. A node forces an
edge by disallowing the rest of its row and column: `allowed_bits` writes
forbidden and forced edges that way, and `forced_ids` reads forced ones back.
"""

from collections import Counter


def ids(mask: int) -> set[int]:
    """The edge ids whose bits are set in `mask`."""
    return {e for e in range(mask.bit_length()) if mask >> e & 1}


def bits(edge_ids) -> int:
    """The bitset of `edge_ids`: bit e is set for each id e."""
    return sum(1 << e for e in set(edge_ids))


def allowed_bits(n: int, forbidden=(), forced=()) -> int:
    """The allowed bits of an n x n node that forbids each of `forbidden` and
    forces each of `forced`: every edge but those forbidden and, for each
    forced edge, the other edges of its row and of its column."""
    return bits(
        f
        for f in range(n * n)
        if f not in forbidden
        and not any(f != e and (f // n == e // n or f % n == e % n) for e in forced)
    )


def forced_ids(n: int, mask: int) -> set[int]:
    """The edges that the allowed `mask` leaves as the only allowed edge of
    both their row and their column."""
    allowed = ids(mask)
    rows = Counter(e // n for e in allowed)
    cols = Counter(e % n for e in allowed)
    return {e for e in allowed if rows[e // n] == cols[e % n] == 1}
