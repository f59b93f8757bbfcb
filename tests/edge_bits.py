"""Edge-id bitsets for the tests.

A search node's forbidden mask and an instance's partner masks are ints
whose bit e is set exactly when edge id e belongs to them; these two
functions convert between such an int and the set of ids it holds.
"""


def ids(mask: int) -> set[int]:
    """The edge ids whose bits are set in `mask`."""
    return {e for e in range(mask.bit_length()) if mask >> e & 1}


def bits(edge_ids) -> int:
    """The bitset of `edge_ids`: bit e is set for each id e."""
    return sum(1 << e for e in set(edge_ids))
