"""Instance types, text format, generator and validator."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apc.errors import (
    DegenerateConflictError,
    DimensionMismatchError,
    DuplicateConflictError,
    IndexOutOfRangeError,
    MalformedHeaderError,
    NegativeCostError,
    TooManyConflictsError,
)
from apc.instance import (
    ConflictPair,
    Edge,
    Instance,
    generate_instance,
    max_conflict_pairs,
    parse_instance,
    validate,
    write_instance,
)

SMALLEST_DOC = """\
APC 1
n 1
costs
7
conflicts 0
"""


def test_parse_smallest_instance():
    inst = parse_instance(SMALLEST_DOC)
    assert inst.n == 1
    assert inst.costs == ((7,),)
    assert inst.conflicts == frozenset()


def test_parse_conflict_line():
    doc = "APC 1\nn 2\ncosts\n1 2\n3 4\nconflicts 1\n0 0 1 1\n"
    inst = parse_instance(doc)
    assert inst.conflicts == {ConflictPair(Edge(0, 0), Edge(1, 1))}


def test_parse_accepts_comments_and_blank_lines():
    doc = "# leading comment\n\nAPC 1\n# name: demo\nn 1\n\ncosts\n5\nconflicts 0\n"
    inst = parse_instance(doc)
    assert inst.name == "demo"
    assert inst.costs == ((5,),)


def test_parse_reads_stream():
    import io

    inst = parse_instance(io.StringIO(SMALLEST_DOC))
    assert inst.n == 1


@pytest.mark.parametrize(
    "doc,error",
    [
        ("APX 1\nn 1\ncosts\n7\nconflicts 0\n", MalformedHeaderError),
        ("APC 2\nn 1\ncosts\n7\nconflicts 0\n", MalformedHeaderError),
        ("APC 1\nn 0\ncosts\nconflicts 0\n", MalformedHeaderError),
        ("APC 1\nn 1\ncosts\n7\n", MalformedHeaderError),  # missing conflicts
        ("APC 1\nn 2\ncosts\n1 2\nconflicts 0\n", DimensionMismatchError),
        ("APC 1\nn 2\ncosts\n1 2 3\n4 5\nconflicts 0\n", DimensionMismatchError),
        ("APC 1\nn 2\ncosts\n1 2\n3 4\n5 6\nconflicts 0\n", DimensionMismatchError),
        ("APC 1\nn 1\ncosts\n-7\nconflicts 0\n", NegativeCostError),
        ("APC 1\nn 2\ncosts\n1 2\n3 4\nconflicts 1\n0 0 0 0\n", DegenerateConflictError),
        ("APC 1\nn 2\ncosts\n1 2\n3 4\nconflicts 1\n0 0 2 1\n", IndexOutOfRangeError),
        (
            "APC 1\nn 2\ncosts\n1 2\n3 4\nconflicts 2\n0 0 1 1\n0 0 1 1\n",
            DuplicateConflictError,
        ),
        (
            # same pair written with the edges swapped is still a duplicate
            "APC 1\nn 2\ncosts\n1 2\n3 4\nconflicts 2\n0 0 1 1\n1 1 0 0\n",
            DuplicateConflictError,
        ),
        ("APC 1\nn 1\ncosts\n7\nconflicts 1\n", MalformedHeaderError),
        ("APC 1\nn 1\ncosts\n7\nconflicts 0\ntrailing junk\n", MalformedHeaderError),
    ],
)
def test_parse_errors(doc, error):
    with pytest.raises(error):
        parse_instance(doc)


def test_write_smallest_round_trip_is_byte_identical():
    inst = parse_instance(SMALLEST_DOC)
    assert write_instance(inst) == SMALLEST_DOC
    again = parse_instance(write_instance(inst))
    assert again == inst


def test_write_canonicalizes_conflict_order():
    inst = Instance.from_costs(
        [[1, 2], [3, 4]], [((1, 1), (0, 0))], name=""
    )
    text = write_instance(inst)
    assert "0 0 1 1" in text
    assert "1 1 0 0" not in text


def test_conflict_pair_is_unordered():
    p1 = ConflictPair(Edge(0, 0), Edge(1, 1))
    p2 = ConflictPair(Edge(1, 1), Edge(0, 0))
    assert p1 == p2
    assert hash(p1) == hash(p2)
    assert p1.e1 == Edge(0, 0)


def test_conflict_pair_rejects_equal_edges():
    with pytest.raises(DegenerateConflictError):
        ConflictPair(Edge(1, 1), Edge(1, 1))


@given(
    n=st.integers(min_value=1, max_value=6),
    frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60, deadline=None)
def test_round_trip_random_instances(n, frac, seed):
    m = int(frac * max_conflict_pairs(n))
    inst = generate_instance(n, m, 0, 30, seed)
    inst.partners  # a conflict index compiled on one side only must not matter
    parsed = parse_instance(write_instance(inst))
    assert parsed == inst and hash(parsed) == hash(inst)


@pytest.mark.parametrize("n,m,seed", [(1, 0, 1), (3, 20, 2), (5, 150, 3), (7, 0, 4)])
def test_partners_index_holds_each_pair_at_both_endpoints(n, m, seed):
    inst = generate_instance(n, m, 1, 30, seed)
    expected = [[] for _ in range(n * n)]
    for pair in inst.conflicts:
        expected[pair.e1.a * n + pair.e1.b].append(pair.e2)
        expected[pair.e2.a * n + pair.e2.b].append(pair.e1)
    assert len(inst.partners) == n * n
    for got, want in zip(inst.partners, expected):
        assert sorted(got) == sorted(want)
    assert sum(len(p) for p in inst.partners) == 2 * m


def test_partners_index_rejects_out_of_range_conflicts():
    inst = Instance.from_costs([[1, 2], [3, 4]], [((0, 0), (1, 2))])
    with pytest.raises(IndexOutOfRangeError):
        inst.partners


def test_generate_is_deterministic():
    a = generate_instance(6, 40, 1, 100, seed=123)
    b = generate_instance(6, 40, 1, 100, seed=123)
    assert a == b
    c = generate_instance(6, 40, 1, 100, seed=124)
    assert c != a


def test_generate_degenerate_ranges():
    inst = generate_instance(2, 0, 0, 0, seed=5)
    assert inst.costs == ((0, 0), (0, 0))
    assert inst.conflicts == frozenset()


def test_generate_counts_and_ranges():
    inst = generate_instance(15, 5000, 1, 100, seed=77)
    assert inst.n == 15
    assert len(inst.conflicts) == 5000
    assert all(1 <= c <= 100 for row in inst.costs for c in row)
    assert not validate(inst)


def test_generate_all_pairs_for_tiny_instance():
    # 9 edges in a 3x3 grid give 9*8/2 = 36 unordered pairs; check against a
    # direct enumeration.
    edges = [Edge(a, b) for a in range(3) for b in range(3)]
    all_pairs = {ConflictPair(e, f) for e, f in itertools.combinations(edges, 2)}
    assert len(all_pairs) == 36
    inst = generate_instance(3, 36, 1, 9, seed=3)
    assert inst.conflicts == all_pairs


def test_generate_too_many_conflicts():
    with pytest.raises(TooManyConflictsError):
        generate_instance(2, max_conflict_pairs(2) + 1, 0, 1, seed=0)


def test_generate_rejects_bad_params():
    with pytest.raises(ValueError):
        generate_instance(0, 0, 0, 1, seed=0)
    with pytest.raises(ValueError):
        generate_instance(2, 0, -1, 1, seed=0)
    with pytest.raises(ValueError):
        generate_instance(2, 0, 5, 4, seed=0)


def test_validate_ok():
    inst = generate_instance(4, 10, 1, 50, seed=9)
    assert validate(inst) == []


def test_validate_negative_cost():
    inst = Instance.from_costs([[-1, 2], [3, 4]])
    out = validate(inst)
    assert [v.code for v in out] == ["NegativeCost"]
    assert out[0].where == (0, 0)


def test_validate_index_out_of_range():
    inst = Instance(
        name="",
        n=3,
        costs=tuple(tuple(1 for _ in range(3)) for _ in range(3)),
        conflicts=frozenset({ConflictPair(Edge(5, 0), Edge(0, 0))}),
    )
    codes = {v.code for v in validate(inst)}
    assert codes == {"IndexOutOfRange"}


def test_validate_shape_mismatch():
    inst = Instance(name="", n=2, costs=((1, 2, 3), (4,)), conflicts=frozenset())
    codes = [v.code for v in validate(inst)]
    assert codes.count("ShapeMismatch") == 2
