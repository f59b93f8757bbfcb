"""Instance types, text format, generator and validator."""

import gc
import hashlib
import itertools
import pickle
import re
import sys
import tracemalloc

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
    _unrank_edge_pair,
    generate_instance,
    max_conflict_pairs,
    parse_instance,
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
    assert set(inst.conflicts) == frozenset()


def test_parse_conflict_line():
    doc = "APC 1\nn 2\ncosts\n1 2\n3 4\nconflicts 1\n0 0 1 1\n"
    inst = parse_instance(doc)
    assert set(inst.conflicts) == {ConflictPair(Edge(0, 0), Edge(1, 1))}


def test_parse_accepts_comments_and_blank_lines():
    doc = "# leading comment\n\nAPC 1\n# name: demo\nn 1\n\ncosts\n5\nconflicts 0\n"
    inst = parse_instance(doc)
    assert inst.name == "demo"
    assert inst.costs == ((5,),)


def test_parse_reads_stream():
    import io

    inst = parse_instance(io.StringIO(SMALLEST_DOC))
    assert inst.n == 1


def test_parse_ignores_one_leading_byte_order_mark():
    doc = "APC 1\r\n# name: b\r\nn 2\r\ncosts\r\n1 2\r\n3 4\r\nconflicts 1\r\n0 0 1 1\r\n"
    assert parse_instance("\ufeff" + doc) == parse_instance(doc)
    message = "line 1: expected 'APC 1', got '\\ufeffAPC 1'"  # the repr of the line
    with pytest.raises(MalformedHeaderError, match=f"^{re.escape(message)}$"):
        parse_instance("\ufeff\ufeff" + doc)


_HEAD_2 = "APC 1\nn 2\ncosts\n1 2\n3 4\n"

# each header, cost-block and conflict-block error: the document, the error
# class and the full message the parser reports
PARSE_ERRORS = [
    ("", MalformedHeaderError, "unexpected end of document, expected magic line 'APC 1'"),
    ("APX 1\nn 1\ncosts\n7\nconflicts 0\n", MalformedHeaderError,
     "line 1: expected 'APC 1', got 'APX 1'"),
    ("APC 2\nn 1\ncosts\n7\nconflicts 0\n", MalformedHeaderError,
     "line 1: expected 'APC 1', got 'APC 2'"),
    ("APC 1\n", MalformedHeaderError, "unexpected end of document, expected size line 'n <N>'"),
    ("APC 1\nn 0\ncosts\nconflicts 0\n", MalformedHeaderError,
     "line 2: n must be positive, got 0"),
    ("APC 1\nn x\ncosts\n7\nconflicts 0\n", MalformedHeaderError,
     "line 2: expected 'n <N>', got 'n x'"),
    ("APC 1\nn 1\n", MalformedHeaderError,
     "unexpected end of document, expected 'costs' keyword"),
    ("APC 1\nn 1\ncost\n7\nconflicts 0\n", MalformedHeaderError,
     "line 3: expected 'costs', got 'cost'"),
    ("APC 1\nn 2\ncosts\n1 2\n", DimensionMismatchError, "cost block has 1 rows, expected 2"),
    ("APC 1\nn 2\ncosts\n1 2\nconflicts 0\n", DimensionMismatchError,
     "line 5: cost row 1 must hold exactly 2 integers, got 'conflicts 0'"),
    ("APC 1\nn 2\ncosts\n1 2 3\n4 5\nconflicts 0\n", DimensionMismatchError,
     "line 4: cost row 0 must hold exactly 2 integers, got '1 2 3'"),
    ("APC 1\nn 2\ncosts\n1 x\n3 4\nconflicts 0\n", DimensionMismatchError,
     "line 4: cost row 0 must hold exactly 2 integers, got '1 x'"),
    ("APC 1\nn 1\ncosts\n-7\nconflicts 0\n", NegativeCostError, "line 4: cost[0][0] = -7 < 0"),
    ("APC 1\nn 2\ncosts\n1 2\n3 4\n5 6\nconflicts 0\n", DimensionMismatchError,
     "line 6: more than 2x2 cost entries (extra row '5 6')"),
    ("APC 1\nn 1\ncosts\n7\n", MalformedHeaderError,
     "unexpected end of document, expected conflict count line 'conflicts <M>'"),
    ("APC 1\nn 1\ncosts\n7\nconflicts x\n", MalformedHeaderError,
     "line 5: expected 'conflicts <M>', got 'conflicts x'"),
    ("APC 1\nn 1\ncosts\n7\nconflicts -1\n", MalformedHeaderError,
     "line 5: expected 'conflicts <M>', got 'conflicts -1'"),
    ("APC 1\nn 1\ncosts\n7\nconflicts 0\ntrailing junk\n", MalformedHeaderError,
     "line 6: unexpected trailing content 'trailing junk'"),
    (_HEAD_2 + "conflicts 1\n0 0 1\n", MalformedHeaderError,
     "line 7: conflict line must hold 4 integers, got '0 0 1'"),
    (_HEAD_2 + "conflicts 1\n0 0 1 1 0\n", MalformedHeaderError,
     "line 7: conflict line must hold 4 integers, got '0 0 1 1 0'"),
    (_HEAD_2 + "conflicts 1\n0 0 1 y\n", MalformedHeaderError,
     "line 7: conflict line must hold 4 integers, got '0 0 1 y'"),
    (_HEAD_2 + "conflicts 1\n0 5 7 1\n", IndexOutOfRangeError, "line 7: index 5 outside [0, 2)"),
    (_HEAD_2 + "conflicts 1\n0 0 2 1\n", IndexOutOfRangeError, "line 7: index 2 outside [0, 2)"),
    (_HEAD_2 + "conflicts 1\n0 -1 1 1\n", IndexOutOfRangeError,
     "line 7: index -1 outside [0, 2)"),
    (_HEAD_2 + "conflicts 2\n0 0 1 1\n", MalformedHeaderError,
     "unexpected end of document, expected conflict line 2 of 2"),
    ("APC 1\nn 1\ncosts\n7\nconflicts 1\n", MalformedHeaderError,
     "unexpected end of document, expected conflict line 1 of 1"),
    (_HEAD_2 + "conflicts 1\n0 0 0 0\n", DegenerateConflictError,
     "line 7: conflict pair needs two distinct edges, got Edge(a=0, b=0) twice"),
    (_HEAD_2 + "conflicts 2\n0 0 1 1\n0 0 1 1\n", DuplicateConflictError,
     "line 8: duplicate conflict '0 0 1 1'"),
    # the same pair written with the edges swapped is still a duplicate
    (_HEAD_2 + "conflicts 2\n0 0 1 1\n1 1 0 0\n", DuplicateConflictError,
     "line 8: duplicate conflict '1 1 0 0'"),
    # a comment and a blank line before the bad line move its number
    (_HEAD_2 + "conflicts 2\n0 0 1 1\n# note\n\n0 5 7 1\n", IndexOutOfRangeError,
     "line 10: index 5 outside [0, 2)"),
    # a padded or signed token is read by int(), then range-checked
    (_HEAD_2 + "conflicts 1\n0 0 02 1\n", IndexOutOfRangeError, "line 7: index 2 outside [0, 2)"),
    (_HEAD_2 + "conflicts 1\n0 0 +2 1\n", IndexOutOfRangeError, "line 7: index 2 outside [0, 2)"),
    # '00' and '-0' are the edge index 0
    (_HEAD_2 + "conflicts 1\n00 0 -0 0\n", DegenerateConflictError,
     "line 7: conflict pair needs two distinct edges, got Edge(a=0, b=0) twice"),
    (_HEAD_2 + "conflicts 2\n0 0 1 1\n00 -0 1 1\n", DuplicateConflictError,
     "line 8: duplicate conflict '00 -0 1 1'"),
]


@pytest.mark.parametrize(
    "doc,error,message",
    PARSE_ERRORS,
    ids=[f"{doc}-{error.__name__}" for doc, error, _ in PARSE_ERRORS],  # no message
)
def test_parse_errors(doc, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        parse_instance(doc)


def test_write_smallest_round_trip_is_byte_identical():
    inst = parse_instance(SMALLEST_DOC)
    assert write_instance(inst) == SMALLEST_DOC
    again = parse_instance(write_instance(inst))
    assert again == inst


def test_name_comment_after_conflict_block_round_trips():
    doc = "APC 1\nn 2\ncosts\n1 2\n3 4\nconflicts 1\n0 0 1 1\n# name: late\n"
    inst = parse_instance(doc)
    assert inst.name == "late"
    assert parse_instance(write_instance(inst)) == inst


@pytest.mark.parametrize(
    "args,digest",
    [
        ((5, 40, 1, 100, 3), "98a65511323a9fceb4dc9c57a7274cddb6b95916450657f4a2353655e528303f"),
        ((9, 300, 0, 500, 11), "7899c30955661816281bdd9baf5be716e96a2248e7d306e9e9163ef8e730ee31"),
    ],
)
def test_generated_documents_are_byte_stable(args, digest):
    text = write_instance(generate_instance(*args))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_unrank_matches_lexicographic_combinations():
    for num_edges in range(2, 41):
        for rank, pair in enumerate(itertools.combinations(range(num_edges), 2)):
            assert _unrank_edge_pair(rank, num_edges) == pair


@pytest.mark.parametrize("num_edges", [250 * 250, 10**9])
def test_unrank_endpoints_at_scale(num_edges):
    last = num_edges * (num_edges - 1) // 2 - 1
    assert _unrank_edge_pair(0, num_edges) == (0, 1)
    assert _unrank_edge_pair(last, num_edges) == (num_edges - 2, num_edges - 1)


@pytest.mark.parametrize(
    "name", ["a\nb", "a\rb", "x\r", "a\x1cb", " pad ", "pad ", "\tpad"]
)
def test_write_rejects_names_it_cannot_read_back(name):
    with pytest.raises(ValueError):
        write_instance(Instance([[1]], name=name))


def test_name_with_inner_space_round_trips():
    inst = Instance([[1, 2], [3, 4]], [((0, 0), (1, 1))], name="a b")
    assert parse_instance(write_instance(inst)) == inst


def test_write_canonicalizes_conflict_order():
    inst = Instance(
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


def test_conflict_set_repr_lists_its_pairs():
    conflicts = Instance([[1, 10], [10, 1]], [((1, 1), (0, 0))]).conflicts
    assert repr(conflicts) == (
        "ConflictSet([ConflictPair(e1=Edge(a=0, b=0), e2=Edge(a=1, b=1))])"
    )


def test_instance_equality_and_hash_read_only_the_keys(monkeypatch):
    inst = generate_instance(12, 3000, 1, 30, 7)
    again = parse_instance(write_instance(inst))

    def no_pairs(*args):
        raise AssertionError("a ConflictPair was built")

    monkeypatch.setattr(ConflictPair, "_make", no_pairs)
    assert hash(inst) == hash(again)
    assert inst == again
    assert len(inst.conflicts) == 3000
    assert bool(inst.conflicts)


def test_instance_and_pair_survive_pickling():
    pair = ConflictPair((1, 1), (0, 0))
    assert type(pair.e1) is Edge and type(pair.e2) is Edge
    assert pair == (Edge(0, 0), Edge(1, 1))
    inst = generate_instance(5, 40, 1, 100, 3)
    assert pickle.loads(pickle.dumps(pair)) == pair
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(inst, protocol))
        assert again == inst
        assert again.conflicts.n == inst.n and again.conflicts.keys == inst.conflicts.keys
        assert all(type(p) is ConflictPair for p in again.conflicts)


def test_conflict_pair_rejects_equal_edges():
    with pytest.raises(DegenerateConflictError):
        ConflictPair(Edge(1, 1), Edge(1, 1))
    message = "conflict pair needs two distinct edges, got Edge(a=1, b=1) twice"
    with pytest.raises(DegenerateConflictError, match=f"^{re.escape(message)}$"):
        Instance([[1, 2], [3, 4]], [((0, 0), (1, 0)), ((1, 1), (1, 1))])


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


@st.composite
def _respelled_documents(draw):
    """(instance, its document with every conflict line spelled another way:
    padded or signed tokens, tabs and runs of spaces, trailing whitespace,
    CRLF endings, and comment, blank and '# name:' lines in and after the
    conflict block)."""
    n = draw(st.integers(min_value=1, max_value=12))
    m = int(draw(st.floats(min_value=0.0, max_value=1.0)) * max_conflict_pairs(n))
    inst = generate_instance(n, m, 0, 30, draw(st.integers(min_value=0, max_value=2**32)))
    rnd = draw(st.randoms(use_true_random=False))
    head, conflicts = write_instance(inst).split(f"conflicts {m}\n")
    filler = ["", "  ", "\t", "# a comment", "#0 0 1 1", "  # 0 0 1 1", "# name: other"]
    spelling = ["{}", "0{}", "00{}", "+{}", "+0{}"]

    def respell(line):
        tokens = [rnd.choice(spelling).format(t) for t in line.split()]
        if line.startswith("0 "):
            tokens[0] = rnd.choice(["-0", "+0", "000"])
        text = tokens[0] + "".join(rnd.choice([" ", "\t", "   ", " \t "]) + t for t in tokens[1:])
        return rnd.choice(["", " ", "\t"]) + text + rnd.choice(["", " ", "\t ", "  "])

    lines = [f"conflicts {m}"]
    for line in conflicts.splitlines():
        while rnd.random() < 0.2:
            lines.append(rnd.choice(filler))
        lines.append(respell(line) if rnd.random() < 0.7 else line)
    lines += rnd.sample(filler, rnd.randint(0, len(filler)))
    return inst, (head + "\n".join(lines) + "\n").replace("\n", "\r\n")


@given(_respelled_documents())
@settings(max_examples=40, deadline=None)
def test_respelled_conflict_lines_parse_as_the_canonical_document(case):
    inst, doc = case
    parsed = parse_instance(doc)
    assert parsed == inst and parsed.name == inst.name


@st.composite
def _sized_pairs(draw):
    """(n, raw pairs of distinct edges of an n x n grid, in either order)."""
    n = draw(st.integers(min_value=2, max_value=5))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = st.tuples(edge, edge).filter(lambda p: p[0] != p[1])
    return n, draw(st.lists(pairs, max_size=3 * n * n))


@given(_sized_pairs())
@settings(max_examples=80, deadline=None)
def test_conflict_set_behaves_as_a_frozenset_of_pairs(case):
    n, raw = case
    ref = frozenset(ConflictPair(e1, e2) for e1, e2 in raw)
    inst = Instance([[1] * n] * n, raw)
    view = inst.conflicts
    assert len(view) == len(ref)
    assert sorted(view) == sorted(ref)
    assert all(type(p) is ConflictPair for p in view)

    edges = [Edge(a, b) for a in range(n) for b in range(n)]
    for e1, e2 in itertools.combinations(edges, 2):
        for probe in [ConflictPair(e2, e1), (e1, e2), (e2, e1), ((e1.a, e1.b), e2)]:
            assert (probe in view) == (probe in ref)
    outside = [((0, 0), (0, n)), ((0, n), (0, 0)), ((-1, 0), (0, 0)), ((0, 0), (0, 0))]
    junk = [None, 3, "ab", ("ab", "cd"), (), (edges[0],), tuple(edges[:3])]
    for probe in outside + junk:
        assert probe not in view and probe not in ref

    swapped = Instance(inst.costs, [(e2, e1) for e1, e2 in reversed(raw)])
    again = pickle.loads(pickle.dumps(view))
    assert type(again) is type(view)
    for same in [swapped.conflicts, again]:
        assert view == same and same == view and not view != same
        assert hash(view) == hash(same)
    if ref:
        fewer = Instance(inst.costs, ref - {min(ref)}).conflicts
        assert view != fewer and fewer != view
    # the same pairs on a wider grid are other keys: equal pairs, unequal sets
    wider = Instance([[1] * (n + 1)] * (n + 1), raw).conflicts
    assert set(wider) == set(view) and view != wider and wider != view

    lines = write_instance(inst).split(f"conflicts {len(ref)}\n")[1].splitlines()
    assert [f"{p.e1.a} {p.e1.b} {p.e2.a} {p.e2.b}" for p in sorted(view)] == lines


@pytest.mark.parametrize(
    "n,m,seed", [(1, 0, 1), (3, 20, 2), (5, 150, 3), (7, 0, 4), (20, 600, 5)]
)
def test_partners_index_holds_each_pair_at_both_endpoints(n, m, seed):
    inst = generate_instance(n, m, 1, 30, seed)
    expected = [[] for _ in range(n * n)]
    for (a1, b1), (a2, b2) in inst.conflicts:
        expected[a1 * n + b1].append(a2 * n + b2)
        expected[a2 * n + b2].append(a1 * n + b1)
    assert len(inst.partners) == n * n
    for got, want in zip(inst.partners, expected):
        assert sorted(got) == sorted(want)
    assert sum(len(p) for p in inst.partners) == 2 * m
    # every id is one shared int object (ids above 256 are not cached by Python)
    ids = {}
    assert all(ids.setdefault(e, e) is e for p in inst.partners for e in p)


def _tracked_objects_kept_by(build):
    """GC-tracked objects that the instance ``build()`` returns keeps alive."""
    build()  # first-use caches fill outside the count
    gc.collect()
    before = len(gc.get_objects())
    inst = build()
    gc.collect()
    return len(gc.get_objects()) - before, inst


def test_conflicts_add_no_tracked_object_per_pair():
    e1, e2 = Edge(0, 1), Edge(2, 3)
    pair = ConflictPair(e2, e1)
    assert pair.e1 is e1 and pair.e2 is e2
    coerced = ConflictPair([2, 3], (0, 1))
    assert coerced == pair
    assert type(coerced.e1) is Edge and type(coerced.e2) is Edge

    # the cyclic GC walks every tracked object on each full collection, so
    # 3000 pairs must cost it no more objects than none
    empty = generate_instance(12, 0, 1, 30, 7)
    generated = generate_instance(12, 3000, 1, 30, 7)
    empty_text, text = write_instance(empty), write_instance(generated)
    for build_empty, build in [
        (lambda: generate_instance(12, 0, 1, 30, 7),
         lambda: generate_instance(12, 3000, 1, 30, 7)),
        (lambda: parse_instance(empty_text), lambda: parse_instance(text)),
    ]:
        base, _ = _tracked_objects_kept_by(build_empty)
        grown, inst = _tracked_objects_kept_by(build)
        assert inst == generated and len(inst.conflicts) == 3000
        assert grown - base <= 4


def test_sparse_instance_memory_does_not_scale_with_the_grid():
    # an eager n*n table of Edge objects would add about 7 MB at n = 300
    def peak(m):
        tracemalloc.start()
        try:
            inst = generate_instance(300, m, 1, 100, 1)
            return tracemalloc.get_traced_memory()[1], inst
        finally:
            tracemalloc.stop()

    sparse, inst = peak(5)
    assert sparse - peak(0)[0] <= 1.5 * 2**20
    # ... also when the table would be built for m = 0 too: the cost matrix
    # is the only thing that should scale with n*n
    matrix = sys.getsizeof(inst.costs) + sum(map(sys.getsizeof, inst.costs))
    assert sparse - matrix <= 1.5 * 2**20


def test_partners_index_rejects_out_of_range_conflicts():
    # the conflict set is range-checked when the instance is built, before
    # any index over it can be compiled
    with pytest.raises(IndexOutOfRangeError):
        Instance([[1, 2], [3, 4]], [((0, 0), (1, 2))])


def test_generate_is_deterministic():
    a = generate_instance(6, 40, 1, 100, seed=123)
    b = generate_instance(6, 40, 1, 100, seed=123)
    assert a == b
    c = generate_instance(6, 40, 1, 100, seed=124)
    assert c != a


def test_generate_degenerate_ranges():
    inst = generate_instance(2, 0, 0, 0, seed=5)
    assert inst.costs == ((0, 0), (0, 0))
    assert set(inst.conflicts) == frozenset()


def test_generate_counts_and_ranges():
    inst = generate_instance(15, 5000, 1, 100, seed=77)
    assert inst.n == 15
    assert len(inst.conflicts) == 5000
    assert all(1 <= c <= 100 for row in inst.costs for c in row)


def test_validate_ok():
    # a generated instance passes the checks Instance(...) runs when it is built
    inst = generate_instance(4, 10, 1, 50, seed=9)
    assert Instance(inst.costs, inst.conflicts, inst.name) == inst


def test_validate_index_out_of_range():
    # a conflict outside the grid is rejected when the instance is built
    with pytest.raises(IndexOutOfRangeError):
        Instance([[1] * 3] * 3, [((5, 0), (0, 0))])


def test_generate_all_pairs_for_tiny_instance():
    # 9 edges in a 3x3 grid give 9*8/2 = 36 unordered pairs; check against a
    # direct enumeration.
    edges = [Edge(a, b) for a in range(3) for b in range(3)]
    all_pairs = {ConflictPair(e, f) for e, f in itertools.combinations(edges, 2)}
    assert len(all_pairs) == 36
    inst = generate_instance(3, 36, 1, 9, seed=3)
    assert set(inst.conflicts) == all_pairs


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
    with pytest.raises(ValueError, match="^conflict count must be >= 0, got -1$"):
        generate_instance(2, -1, 0, 1, seed=0)


def test_instance_derives_n_and_coerces_costs():
    inst = Instance([[1, True], range(2)])
    assert inst.n == 2
    assert inst.costs == ((1, 1), (0, 1))
    assert type(inst.costs[0][1]) is int  # operator.index turns a bool into an int


def test_instance_rejects_empty_costs():
    with pytest.raises(DimensionMismatchError, match="^cost matrix has no rows$"):
        Instance(())


def test_instance_rejects_ragged_costs():
    with pytest.raises(
        DimensionMismatchError, match=r"^cost row 0 has 3 entries, expected 2$"
    ):
        Instance(((1, 2, 3), (4,)))
    with pytest.raises(DimensionMismatchError, match=r"^cost row 1 has 1 entries"):
        Instance(((1, 2), (4,)))


def test_instance_rejects_negative_cost():
    with pytest.raises(NegativeCostError, match=r"^cost\[1\]\[0\] = -3 < 0$"):
        Instance([[1, 2], [-3, 4]])


def test_instance_rejects_non_integer_cost():
    with pytest.raises(TypeError):
        Instance([[1, 2.0], [3, 4]])
    with pytest.raises(TypeError):
        Instance([[1, "2"], [3, 4]])
