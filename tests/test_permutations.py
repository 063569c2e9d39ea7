"""Permutation arithmetic, group slices, and the Cayley adjacency operator.

The operator's vectorized neighbor table is checked against an adjacency
matrix assembled here by literal one-at-a-time composition.
"""

import itertools
import re
from collections import Counter
from math import factorial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cayley_spectra import permutations
from cayley_spectra.eigensolve import dense_spectrum
from cayley_spectra.errors import SizeLimitError, VerificationError
from cayley_spectra.permutations import (
    DENSE_ORDER_LIMIT,
    GroupSlice,
    Permutation,
    _compose,
    _factor_rows,
    _member_matrix,
    _RankLookup,
    _require_quotient,
    alternating_group,
    cayley_adjacency,
    enumerate_class_cycles,
    symmetric_group,
)
from oracles import (
    closure,
    images_of,
    index_of,
    members,
    neighbors,
    numbering,
    t_filtration,
    vertex_at,
)

perm_images = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


def test_identity_and_call():
    e = Permutation.identity(4)
    assert e.images == (1, 2, 3, 4)
    assert all(e(i) == i for i in range(1, 5))
    assert e.is_even() and e.sign() == 1


def test_call_refuses_a_point_outside_the_degree():
    # point 0 would read the last image through a negative index
    t = Permutation.parse("(1 2 3)", degree=4)
    for point in (0, 5):
        with pytest.raises(ValueError, match=f"point {point} outside 1..4"):
            t(point)


def test_composition_convention():
    # (s * p)(x) = s(p(x)): apply the right factor first
    s = Permutation((2, 1, 3))
    p = Permutation((1, 3, 2))
    assert (s * p).images == (2, 3, 1)
    assert (p * s).images == (3, 1, 2)


def test_composition_degree_mismatch():
    with pytest.raises(ValueError):
        Permutation((2, 1)) * Permutation((1, 2, 3))


def test_from_cycles_and_parse():
    p = Permutation.from_cycles(5, [(1, 2, 3), (4, 5)])
    assert p.images == (2, 3, 1, 5, 4)
    assert Permutation.parse("(1 2 3)(4 5)") == p
    assert Permutation.parse("2 3 1 5 4") == p
    assert p.cycle_string() == "(1 2 3)(4 5)"
    assert Permutation.parse("()", degree=3) == Permutation.identity(3)


def test_parse_rejects_malformed():
    for bad in ("(1 2", "(1 2)(2 3)", "2 2 1", "0 1 2"):
        with pytest.raises(ValueError):
            Permutation.parse(bad)
    # a point in two cycles names the point, not a malformed image tuple
    for bad, point in (("(1 2 3)(3 2 1)", 3), ("(1 2)(1 2)", 1), ("(1 2)(2 3)", 2)):
        with pytest.raises(ValueError, match=f"point {point} appears more than once"):
            Permutation.parse(bad)


@given(perm_images)
def test_parse_round_trips(images):
    p = Permutation(tuple(images))
    assert Permutation.parse(p.cycle_string(), degree=p.degree) == p
    assert Permutation.parse(" ".join(map(str, images))) == p
    assert (p * p.inverse()) == Permutation.identity(p.degree)


@given(perm_images, perm_images)
def test_sign_is_multiplicative(a, b):
    pa, pb = Permutation(tuple(a)), Permutation(tuple(b))
    if pa.degree == pb.degree:
        assert (pa * pb).sign() == pa.sign() * pb.sign()


def test_cycle_type_and_support():
    p = Permutation.parse("(1 4)(2 5 6)", degree=7)
    assert p.cycle_type() == (3, 2, 1, 1)
    assert p.support() == {1, 4, 2, 5, 6}
    assert p(3) == 3 and p(7) == 7


# --- class enumeration ---------------------------------------------------


def test_class_cycles_against_exhaustive_filter():
    for n, length in ((4, 3), (5, 4), (5, 3), (6, 5)):
        expected_type = (length,) + (1,) * (n - length)
        brute = {
            p for p in members(symmetric_group(n)) if p.cycle_type() == expected_type
        }
        enumerated = enumerate_class_cycles(n, length)
        assert len(enumerated) == len(set(enumerated)) == len(brute)
        assert set(enumerated) == brute
        # the order the Alt(8) certificate's bits depend on: supports ascending, then tail arrangements
        assert enumerated == [
            Permutation.from_cycles(n, [(support[0],) + tail])
            for support in itertools.combinations(range(1, n + 1), length)
            for tail in itertools.permutations(support[1:])
        ]


def test_sign_is_kept_and_agrees_with_the_inversion_count():
    for p in members(symmetric_group(5)):
        expected = (-1) ** sum(a > b for a, b in itertools.combinations(p.images, 2))
        assert p.sign() == p.sign() == expected  # the second call reads the kept sign
        assert p.is_even() == (expected == 1) == alternating_group(5).contains(p)


def test_class_cycles_inverse_closed():
    T = enumerate_class_cycles(6, 4)
    members = set(T)
    assert all(t.inverse() in members for t in T)


def test_class_cycles_rejects_fixed_points_in_cycle():
    with pytest.raises(ValueError):
        enumerate_class_cycles(4, 1)
    with pytest.raises(ValueError):
        enumerate_class_cycles(4, 5)


def test_class_cycles_cap():
    assert len(enumerate_class_cycles(9, 2)) == 36  # the cap is inclusive
    with pytest.raises(SizeLimitError, match="class enumeration is capped at degree 9"):
        enumerate_class_cycles(10, 3)


def test_t_filtration_sizes():
    T = enumerate_class_cycles(5, 3)
    sizes = [len(t_filtration(T, k)) for k in range(4)]
    assert sizes == [20, 12, 6, 2]
    T8 = enumerate_class_cycles(8, 5)
    assert [len(t_filtration(T8, k)) for k in range(5)] == [1344, 840, 480, 240, 96]


# --- slices ---------------------------------------------------------------


def test_slice_orders():
    assert symmetric_group(4).order == 24
    assert alternating_group(4).order == 12
    assert GroupSlice(1).order == 1
    assert GroupSlice(2, even_only=True).order == 1
    # past the member-table cap the order is still known, but no member table is built
    assert symmetric_group(12).order == 2 * alternating_group(12).order == factorial(12)
    for big in (symmetric_group(12), alternating_group(12)):
        with pytest.raises(SizeLimitError, match="capped at degree 9"):
            _member_matrix(big)


def test_slice_validation():
    with pytest.raises(ValueError):
        GroupSlice(0)


def test_members_sorted_unique_and_contained():
    for slice_ in (
        symmetric_group(4),
        alternating_group(4),
        symmetric_group(5),
        alternating_group(5),
    ):
        ms = members(slice_)
        assert len(ms) == slice_.order
        assert ms == sorted(ms)
        assert len(set(ms)) == len(ms)
        assert all(slice_.contains(p) for p in ms)


def test_alternating_members_are_even():
    assert all(p.is_even() for p in members(alternating_group(5)))


# --- Cayley operator ------------------------------------------------------


def brute_adjacency(slice_, connection):
    vertices = members(slice_)
    index = {p: i for i, p in enumerate(vertices)}
    a = np.zeros((len(vertices), len(vertices)), dtype=np.int64)
    for j, g in enumerate(vertices):
        for t in connection:
            a[index[t * g], j] += 1
    return a


def test_operator_matches_brute_adjacency():
    cases = [
        (symmetric_group(3), enumerate_class_cycles(3, 2)),
        (symmetric_group(4), enumerate_class_cycles(4, 3)),
        (alternating_group(4), enumerate_class_cycles(4, 3)),
    ]
    for slice_, connection in cases:
        op = cayley_adjacency(slice_, connection)
        assert np.array_equal(op.dense(), brute_adjacency(slice_, connection))


def test_operator_neighbors_and_matvec():
    slice_ = symmetric_group(4)
    connection = enumerate_class_cycles(4, 4)
    op = cayley_adjacency(slice_, connection)
    dense = op.dense()
    assert (dense == dense.T).all()
    assert dense.sum(axis=0).tolist() == [op.valency] * op.dim
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.standard_normal(op.dim)
        assert np.allclose(op.matvec(x), dense @ x)
    for bad in (np.ones(op.dim - 1), np.ones((op.dim, 1))):
        with pytest.raises(ValueError, match="length"):
            op.matvec(bad)
    assert np.array_equal(op.matvec(np.arange(op.dim)), dense @ np.arange(op.dim))
    vertices = members(slice_)
    for v in (0, 5, 23):
        expected = sorted(index_of(op, t * vertices[v]) for t in connection)
        assert neighbors(op, v) == expected
        assert np.flatnonzero(dense[:, v]).tolist() == expected
    for bad in (-1, op.dim):  # -1 would otherwise read the last vertex's row
        with pytest.raises(ValueError, match=f"vertex {bad} outside 0..{op.dim - 1}"):
            neighbors(op, bad)


def test_operator_vertex_indexing():
    slice_ = alternating_group(5)
    op = cayley_adjacency(slice_, enumerate_class_cycles(5, 5))
    for v in (0, 13, 59):
        assert index_of(op, vertex_at(op, v)) == v


def test_operator_images_of_point():
    slice_ = symmetric_group(4)
    op = cayley_adjacency(slice_, enumerate_class_cycles(4, 3))
    assert images_of(op, 1) == [p(1) for p in members(slice_)]


def test_operator_validates_connection():
    s4 = symmetric_group(4)
    threes = enumerate_class_cycles(4, 3)
    with pytest.raises(ValueError, match="identity"):
        cayley_adjacency(s4, threes + [Permutation.identity(4)])
    with pytest.raises(ValueError, match="duplicate"):
        cayley_adjacency(s4, threes + threes[:1])
    with pytest.raises(ValueError, match="not inverse-closed: missing " + re.escape(repr(threes[0].inverse()))):
        cayley_adjacency(s4, threes[:1])
    with pytest.raises(ValueError, match="outside the vertex group"):
        cayley_adjacency(alternating_group(4), enumerate_class_cycles(4, 4))  # odd elements
    with pytest.raises(ValueError, match="degree"):
        cayley_adjacency(s4, enumerate_class_cycles(5, 3))


def test_operator_prefix_is_validated_and_shares_the_table():
    # the 4-cycles are composed, so the shared head rows are not empty
    op = cayley_adjacency(
        symmetric_group(4), enumerate_class_cycles(4, 3) + enumerate_class_cycles(4, 4)
    )
    with pytest.raises(ValueError, match="inverse-closed"):
        op.prefix(1)  # (1 2 3) without (1 3 2)
    for bad in (-1, op.valency + 1):
        with pytest.raises(ValueError):
            op.prefix(bad)
    pair = op.prefix(2)
    assert pair.connection == op.connection[:2]
    with pytest.raises(ValueError, match="inverse-closed"):
        pair.prefix(1)  # a prefix checks its own slice of the kept inverses
    heads, tails, pairs = op._factor_rows()
    pair_heads, pair_tails, pair_pairs = pair._factor_rows()
    assert np.shares_memory(pair_heads, heads)
    assert np.shares_memory(pair_tails, tails)
    assert np.shares_memory(pair_pairs, pairs)
    assert np.array_equal(pair_pairs, pairs[:2])
    assert np.array_equal(pair.dense(), brute_adjacency(pair.slice, pair.connection))


def test_operator_dense_cap():
    op = cayley_adjacency(symmetric_group(7), enumerate_class_cycles(7, 2))
    with pytest.raises(SizeLimitError):
        op.dense()


# --- member matrix and neighbor table against independent oracles --------


def _arrangement_parity(seq) -> int:
    """Inversion parity (0/1) of a sequence relative to its sorted order."""
    inversions = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inversions += 1
    return inversions & 1


def itertools_members(slice_):
    """The former member build: every arrangement of the points from itertools,
    in lexicographic order, odd ones dropped for an even-only slice."""
    out = [
        images
        for images in itertools.permutations(range(slice_.degree))
        if not (slice_.even_only and _arrangement_parity(images))
    ]
    return np.array(out, dtype=np.uint8).reshape(len(out), slice_.degree)


def searchsorted_table(slice_, connection):
    """The former table build: radix keys of the members, one binary search per element."""
    members = _member_matrix(slice_)
    radix = slice_.degree ** np.arange(slice_.degree - 1, -1, -1, dtype=np.int64)
    keys = members.astype(np.int64) @ radix  # ascending: rows are lex sorted
    rows = np.empty((len(connection), slice_.order), dtype=np.int32)
    for j, t in enumerate(connection):
        t0 = np.array(t.images, dtype=np.int64) - 1
        composed_keys = t0[members].astype(np.int64) @ radix
        idx = np.searchsorted(keys, composed_keys)
        assert np.array_equal(keys[idx], composed_keys)
        rows[j] = idx
    return rows


TABLE_SLICES = (
    [symmetric_group(n) for n in range(2, 8)]
    + [alternating_group(n) for n in range(3, 9)]
    + [GroupSlice(1), GroupSlice(2, even_only=True)]
)


@pytest.mark.parametrize("slice_", TABLE_SLICES + [alternating_group(9)], ids=repr)
def test_member_matrix_matches_itertools_oracle(slice_):
    members = _member_matrix(slice_)
    assert members.dtype == np.uint8
    assert np.array_equal(members, itertools_members(slice_))


@pytest.mark.parametrize("slice_", TABLE_SLICES, ids=repr)
def test_neighbor_table_matches_searchsorted_oracle(slice_):
    vertices = members(slice_)
    # every member of the small slices; a spread of members elsewhere (each
    # one composes with every vertex, so each row checks every rank)
    step = max(1, len(vertices) // 97)
    connection = vertices[::step] + vertices[-1:]
    table = _compose(*_factor_rows(slice_, connection))
    assert table.dtype == (np.uint8 if slice_.order <= 256 else np.uint16)
    assert np.array_equal(table, searchsorted_table(slice_, connection))


def _of_type(slice_, cycle_type, count):
    """About ``count`` members of ``slice_`` of the given cycle type, spread over the class."""
    found = [p for p in members(slice_) if p.cycle_type() == cycle_type]
    return found[:: max(1, len(found) // count)]


@pytest.mark.parametrize(
    "slice_, cycle_type",
    [
        (symmetric_group(7), (7,)),  # (a1 a2 a3) * 5-cycle, then (a3 a4 a5) * 3-cycle
        (symmetric_group(8), (8,)),  # three 3-cycles, then a transposition
        (alternating_group(8), (3, 3, 1, 1)),  # 3-cycle * 3-cycle
        (alternating_group(8), (5, 3)),  # 3-cycle * (3-cycle * 3-cycle)
        (alternating_group(8), (2, 2, 1, 1, 1, 1)),  # an involution: looked up whole
        (alternating_group(8), (4, 2, 1, 1)),  # 3-cycle * an involution of type (2, 2)
    ],
    ids=repr,
)
def test_composed_neighbor_rows_match_searchsorted_oracle(slice_, cycle_type):
    connection = _of_type(slice_, cycle_type, 60)
    assert connection
    assert np.array_equal(
        _compose(*_factor_rows(slice_, connection)), searchsorted_table(slice_, connection)
    )


def test_alt8_5cycle_table_equals_the_row_by_row_lookup():
    a8 = alternating_group(8)
    connection = [t for t in enumerate_class_cycles(8, 5) if a8.contains(t)]
    lookup = _RankLookup(a8)
    expected = np.empty((len(connection), a8.order), dtype=np.uint16)
    for j, t in enumerate(connection):
        expected[j] = lookup.ranks(np.array(t.images, dtype=np.intp) - 1)
    table = _compose(*_factor_rows(a8, connection))
    assert table.dtype == np.uint16
    assert np.array_equal(table, expected)


def test_neighbor_table_widens_past_uint16():
    a9 = alternating_group(9)  # 181440 vertices: ranks need more than 16 bits
    connection = [Permutation.from_cycles(9, [(1, 2, 3)]), Permutation.from_cycles(9, [(9, 4, 6)])]
    table = _compose(*_factor_rows(a9, connection))
    assert table.dtype == np.uint32
    assert np.array_equal(table, searchsorted_table(a9, connection))


def test_neighbor_table_rejects_an_element_outside_the_slice():
    odd = Permutation.from_cycles(5, [(1, 2)])
    with pytest.raises(VerificationError, match="does not stabilize"):
        _compose(*_factor_rows(alternating_group(5), [Permutation.identity(5), odd]))


# --- the factored matvec against the dense matrix -------------------------


def _members_of_type(slice_, cycle_type):
    return [p for p in members(slice_) if p.cycle_type() == cycle_type]


@pytest.mark.parametrize(
    "slice_, connection",
    [
        (symmetric_group(6), enumerate_class_cycles(6, 5)),  # 3-cycle heads, 3-cycle tails
        (alternating_group(7), enumerate_class_cycles(7, 5)),
        (symmetric_group(7), enumerate_class_cycles(7, 7)),  # the tail is a composed 5-cycle
        (alternating_group(6), _members_of_type(alternating_group(6), (3, 3))),
        (alternating_group(6), _members_of_type(alternating_group(6), (2, 2, 1, 1))),
    ],
    ids=["Sym(6) 5-cycles", "Alt(7) 5-cycles", "Sym(7) 7-cycles", "Alt(6) (3,3)", "Alt(6) (2,2)"],
)
def test_factored_matvec_equals_the_dense_product(slice_, connection):
    op = cayley_adjacency(slice_, connection)
    _, _, pairs = op._factor_rows()
    involutions = all(t * t == Permutation.identity(slice_.degree) for t in connection)
    # only an all-involution set pairs every element with the identity head
    assert (pairs[:, 0] < 0).all() == involutions

    def reference(v):
        if op.dim <= DENSE_ORDER_LIMIT:
            return op.dense() @ v
        # past the dense cap: the rows of the dense matrix, summed one at a time
        return sum(v[row] for row in searchsorted_table(slice_, connection))

    x = np.random.default_rng(11).standard_normal(op.dim)
    assert np.allclose(op.matvec(x), reference(x), rtol=0, atol=1e-9)
    # integer input: every partial sum is exact, so the order of the adds cannot show
    ints = np.arange(op.dim, dtype=np.float64)
    assert np.array_equal(op.matvec(ints), reference(ints))


# --- right cosets of a subgroup ----------------------------------------------


def brute_schreier(slice_, connection, subgroup):
    """Adjacency of the right cosets gH, assembled one composition at a time:
    entry (c', c) counts the t with t * g in c', g the smallest member of c."""
    vertices, index = numbering(slice_, tuple(subgroup))
    a = np.zeros((len(vertices), len(vertices)), dtype=np.int64)
    for j, g in enumerate(vertices):
        for t in connection:
            a[index[t * g], j] += 1
    return a


def parse_all(generators, degree):
    return [Permutation.parse(h, degree=degree) for h in generators]


KLEIN6 = ("(3 4)(5 6)", "(3 5)(4 6)")
E8 = ("(1 2)(3 4)", "(5 6)(7 8)", "(5 7)(6 8)")


@pytest.mark.parametrize(
    "slice_, connection, subgroup",
    [
        (alternating_group(5), enumerate_class_cycles(5, 3), ("(2 3)(4 5)",)),
        (alternating_group(6), enumerate_class_cycles(6, 5), ("(3 4)(5 6)",)),
        (alternating_group(6), enumerate_class_cycles(6, 3), ("(1 2)(3 4)",)),
        (alternating_group(7), enumerate_class_cycles(7, 3), ("(4 5)(6 7)",)),
        (alternating_group(6), enumerate_class_cycles(6, 5), KLEIN6),
        (alternating_group(6), enumerate_class_cycles(6, 3), ("(1 2)(3 4 5 6)",)),
        (symmetric_group(5), enumerate_class_cycles(5, 2), ("(2 3)(4 5)",)),
        (alternating_group(8), enumerate_class_cycles(8, 3), E8),
    ],
    ids=[
        "Alt(5) 3-cycles",
        "Alt(6) 5-cycles",
        "Alt(6) 3-cycles",
        "Alt(7) 3-cycles",
        "Alt(6) 5-cycles Klein",
        "Alt(6) 3-cycles order 4",
        "Sym(5) transpositions",
        "Alt(8) 3-cycles order 8",
    ],
)
def test_coset_operator_matches_the_brute_schreier_graph(slice_, connection, subgroup):
    subgroup = parse_all(subgroup, slice_.degree)
    connection = [t for t in connection if slice_.contains(t)]
    op = cayley_adjacency(slice_, connection, subgroup)
    assert op.dim == slice_.order // len(closure(subgroup, slice_.degree))
    brute = brute_schreier(slice_, connection, subgroup)
    if op.dim <= DENSE_ORDER_LIMIT:
        assert np.array_equal(op.dense(), brute)
    x = np.arange(op.dim, dtype=np.float64)
    assert np.array_equal(op.matvec(x), brute @ x)
    assert op.one_norm() == op.valency == brute.sum(axis=0).max()


def test_the_trivial_subgroup_is_the_full_graph():
    slice_ = alternating_group(5)
    connection = enumerate_class_cycles(5, 3)
    for subgroup in ([], parse_all(["()"], 5)):
        op = cayley_adjacency(slice_, connection, subgroup)
        assert op.dim == slice_.order
        assert np.array_equal(op.dense(), brute_adjacency(slice_, connection))
        assert images_of(op, 4) == [g(4) for g in members(slice_)]


@pytest.mark.parametrize("subgroup", [("(3 4)(5 6)",), KLEIN6], ids=["<z>", "Klein"])
def test_coset_operator_answers_in_coset_numbering(subgroup):
    slice_ = alternating_group(6)
    subgroup = parse_all(subgroup, 6)
    elements = closure(subgroup, 6)
    connection = enumerate_class_cycles(6, 5)
    op = cayley_adjacency(slice_, connection, subgroup)
    full = cayley_adjacency(slice_, connection)
    vertices = [vertex_at(op, i) for i in range(op.dim)]
    # each coset is numbered by its smallest member, in lexicographic order
    assert vertices == sorted(vertices)
    assert vertices == sorted({min(g * h for h in elements) for g in members(slice_)})
    for i, g in enumerate(vertices):
        assert [index_of(op, g * h) for h in elements] == [i] * len(elements)
        expected = sorted(index_of(op, t * g) for t in connection)
        for h in elements:
            assert neighbors(op, i) == expected == sorted(index_of(op, t * g * h) for t in connection)
    # never a full-group answer: the indices of the operator on all of Alt(6) differ
    assert [index_of(op, g) for g in vertices] != [index_of(full, g) for g in vertices]
    for point in (1, 2):  # the subgroup fixes these: one image per coset
        assert images_of(op, point) == [g(point) for g in vertices]
    for point in (3, 4, 5, 6):
        with pytest.raises(ValueError, match=f"point {point} is moved by"):
            images_of(op, point)
    for bad in (-1, op.dim):
        with pytest.raises(ValueError, match=f"index {bad} outside 0..{op.dim - 1}"):
            vertex_at(op, bad)
        with pytest.raises(ValueError, match=f"vertex {bad} outside 0..{op.dim - 1}"):
            neighbors(op, bad)
    with pytest.raises(ValueError, match="length"):
        op.matvec(np.ones(slice_.order))


def test_alt8_order8_cosets_answer_in_coset_numbering():
    slice_ = alternating_group(8)
    subgroup = parse_all(E8, 8)
    elements = closure(subgroup, 8)
    connection = enumerate_class_cycles(8, 3)
    op = cayley_adjacency(slice_, connection, subgroup)
    assert (op.dim, len(elements)) == (2520, 8)
    vertices = [vertex_at(op, i) for i in range(op.dim)]
    assert vertices == sorted(vertices)
    for i, g in enumerate(vertices):
        assert [index_of(op, g * h) for h in elements] == [i] * 8
        assert g == min(g * h for h in elements)
    for i in range(0, op.dim, 97):
        g = vertices[i]
        assert neighbors(op, i) == sorted(index_of(op, t * g) for t in connection)
    # every point is moved by some generator, so no point has one image per coset
    for point in range(1, 9):
        with pytest.raises(ValueError, match=f"point {point} is moved by"):
            images_of(op, point)


def test_an_odd_involution_on_sym5_loses_the_sign_eigenvalue():
    # Cay(Sym(5), transpositions) has the sign eigenvalue -10; on the cosets of
    # <(4 5)> a sign eigenvector would have to be fixed by g -> g * (4 5),
    # which flips its sign, so -10 is gone: the sign character sums to 0
    slice_ = symmetric_group(5)
    z = Permutation.parse("(4 5)", degree=5)
    transpositions = enumerate_class_cycles(5, 2)
    full = np.linalg.eigvalsh(brute_adjacency(slice_, transpositions))
    cosets = np.linalg.eigvalsh(brute_schreier(slice_, transpositions, [z]))
    assert np.isclose(full, -10).any() and not np.isclose(cosets, -10).any()
    # the rows themselves build the same Schreier graph: only the constructor refuses
    rows = _compose(*_factor_rows(slice_, transpositions, [z]))
    built = np.zeros((len(cosets), len(cosets)), dtype=np.int64)
    for row in rows:
        built[row, np.arange(len(cosets))] += 1
    assert np.array_equal(built, brute_schreier(slice_, transpositions, [z]))
    with pytest.raises(ValueError, match=r"the character \(1, 1, 1, 1, 1\) sums to 0"):
        cayley_adjacency(slice_, transpositions, [z])


def test_the_klein_group_on_alt5_loses_the_eigenvalue_0():
    # its 15 cosets keep 20, 5 and -4 but not the 0 of the 3-cycle graph
    slice_ = alternating_group(5)
    klein = parse_all(("(2 3)(4 5)", "(2 4)(3 5)"), 5)
    connection = enumerate_class_cycles(5, 3)
    distinct = lambda a: sorted({round(v) for v in np.linalg.eigvalsh(a)})  # noqa: E731
    assert distinct(brute_adjacency(slice_, connection)) == [-4, 0, 5, 20]
    assert distinct(brute_schreier(slice_, connection, klein)) == [-4, 5, 20]
    with pytest.raises(ValueError, match=r"the character \(3, 1, 1\) sums to 0"):
        cayley_adjacency(slice_, connection, klein)


@pytest.mark.parametrize(
    "slice_, subgroup",
    [
        (alternating_group(4), ("(1 2)(3 4)",)),
        (symmetric_group(5), ("(2 3)(4 5)",)),
        (alternating_group(5), ("(1 2 3)",)),
        (alternating_group(6), ("(1 2)(3 4 5 6)",)),
    ],
    ids=repr,
)
def test_admitted_cosets_keep_every_distinct_eigenvalue(slice_, subgroup):
    # the count admits these, and the brute Schreier graphs confirm it
    subgroup = parse_all(subgroup, slice_.degree)
    for length in range(3, slice_.degree + 1):
        connection = [t for t in enumerate_class_cycles(slice_.degree, length) if slice_.contains(t)]
        full = np.linalg.eigvalsh(brute_adjacency(slice_, connection))
        cosets = dense_spectrum(cayley_adjacency(slice_, connection, subgroup)).values
        assert {round(v) for v in full} == {round(v) for v in cosets}


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_the_count_admits_an_even_involution_on_alt_n(n):
    z = Permutation.from_cycles(n, [(n - 3, n - 2), (n - 1, n)])
    assert _require_quotient(alternating_group(n), (z,)) == [Permutation.identity(n), z]


def test_the_count_admits_the_order8_subgroup_of_alt8_and_not_its_order16_overgroup():
    assert len(_require_quotient(alternating_group(8), tuple(parse_all(E8, 8)))) == 8
    larger = parse_all(("(1 2)(3 4)", "(1 3)(2 4)", "(5 6)(7 8)", "(5 7)(6 8)"), 8)
    with pytest.raises(ValueError, match=r"the character \(6, 1, 1\) sums to 0"):
        _require_quotient(alternating_group(8), tuple(larger))


@pytest.mark.parametrize("n, cosets", [(8, 840), (9, 7560)])
def test_the_count_admits_the_diagonal_sym4_on_alt8_and_alt9(n, cosets):
    # <(1 2 3 4)(5 6 7 8), (1 2)(5 6)> acts on {1..4} and {5..8} alike; it meets
    # no split class, and every character of Sym(n) sums to more than 0 over it
    slice_ = alternating_group(n)
    diagonal = parse_all(("(1 2 3 4)(5 6 7 8)", "(1 2)(5 6)"), n)
    elements = _require_quotient(slice_, tuple(diagonal))
    assert sorted(Counter(h.cycle_type() for h in elements).items()) == [
        ((1,) * n, 1),
        ((2, 2) + (1,) * (n - 4), 6),
        ((2, 2, 2, 2) + (1,) * (n - 8), 3),
        ((3, 3) + (1,) * (n - 6), 8),
        ((4, 4) + (1,) * (n - 8), 6),
    ]
    assert cayley_adjacency(slice_, enumerate_class_cycles(n, 3), diagonal).dim == cosets
    assert len(_RankLookup(slice_, diagonal).representatives) == cosets


@pytest.mark.parametrize(
    "slice_, subgroup, message",
    [
        (alternating_group(5), ("(4 5)",), "lies outside"),  # odd
        (alternating_group(5), ("(1 2)(3 4)", "(1 2)"), "lies outside"),
        (alternating_group(5), ("(1 2 3 4 5)",), r"meets the split class of cycle type \(5,\)"),
        (alternating_group(7), ("(1 2 3)(4 5 6)", "(1 2 3 4 5 6 7)"), "split class"),
        (alternating_group(3), ("(1 2 3)",), "split class"),
        (symmetric_group(4), ("(1 2)(3 4)", "(1 3)(2 4)"), r"\(3, 1\) sums to 0"),
    ],
    ids=repr,
)
def test_coset_operator_refuses_what_loses_eigenvalues(slice_, subgroup, message):
    subgroup = parse_all(subgroup, slice_.degree)
    connection = [t for t in enumerate_class_cycles(slice_.degree, 3) if slice_.contains(t)]
    with pytest.raises(ValueError, match=message):
        cayley_adjacency(slice_, connection, subgroup)


def test_coset_operator_refuses_a_generator_of_another_degree():
    with pytest.raises(ValueError, match="degree 6 != slice degree 5"):
        cayley_adjacency(alternating_group(5), [], [Permutation.parse("(1 2)(3 4)", degree=6)])


@pytest.mark.parametrize("subgroup", [("(4 5)",), ("(1 2)",), ("(1 2)(3 4)", "(4 5)")])
def test_rank_lookup_refuses_a_subgroup_outside_the_slice(subgroup):
    # an odd element sends every member of Alt(5) to an odd product, whose
    # key is that of no member, so the search of the generator's move refuses it
    with pytest.raises(VerificationError, match="outside the vertex group"):
        _RankLookup(alternating_group(5), parse_all(subgroup, 5))


def test_rank_lookup_numbers_cosets_by_their_smallest_member():
    slice_ = alternating_group(5)
    # the trivial subgroup goes down the same path: every member is its own vertex
    for trivial in ((), parse_all(["()"], 5)):
        lookup = _RankLookup(slice_, trivial)
        assert lookup.representatives.tolist() == lookup.vertex_of.tolist() == list(range(60))
    three = parse_all(["(1 2 3)"], 5)
    lookup = _RankLookup(slice_, three)
    vertices = members(slice_)
    least = [min(g * h for h in closure(three, 5)) for g in vertices]
    assert [vertices[r] for r in lookup.representatives] == sorted(set(least))
    assert lookup.vertex_of.tolist() == [sorted(set(least)).index(m) for m in least]
    assert lookup.dim == 20


def test_rank_lookup_ranks_every_member():
    # the identity is vertex 0, so column 0 of the ranks of t is t's own rank
    for slice_ in [GroupSlice(n, even_only=even) for n in range(1, 8) for even in (False, True)]:
        lookup = _RankLookup(slice_)
        rows = _member_matrix(slice_).astype(np.intp)
        assert lookup.dim == slice_.order == len(rows)
        assert [lookup.ranks(row)[0] for row in rows] == list(range(len(rows)))


@pytest.mark.parametrize("subgroup", [("(3 4)(5 6)",), KLEIN6], ids=["<z>", "Klein"])
def test_rank_lookup_puts_every_member_in_its_right_coset(subgroup):
    slice_ = alternating_group(6)
    subgroup = tuple(parse_all(subgroup, 6))
    lookup = _RankLookup(slice_, subgroup)
    index = numbering(slice_, subgroup)[1]
    # the identity's coset H holds the smallest member, so it is vertex 0
    ranks = [lookup.ranks(np.array(g.images, dtype=np.intp) - 1)[0] for g in members(slice_)]
    assert ranks == [index[g] for g in members(slice_)]


def test_rank_lookup_refuses_images_that_are_no_permutation():
    # two members of Sym(4) whose first two images are 1 and 2 would both be sent to (1, 1)
    with pytest.raises(VerificationError, match="not a member of the vertex group"):
        _RankLookup(symmetric_group(4)).ranks(np.array([0, 0, 2, 3], dtype=np.intp))


def test_rank_lookup_refuses_a_composition_outside_the_slice():
    # (1 2) * g is odd for every member g of Alt(5): no rank may stand for it
    t0 = np.array(Permutation.parse("(1 2)", degree=5).images, dtype=np.intp) - 1
    with pytest.raises(VerificationError, match="not a member of the vertex group"):
        _RankLookup(alternating_group(5)).ranks(t0)


def test_rank_lookup_searches_each_generator_once(monkeypatch):
    # the numbering searches the move g -> g * s once per generator, then only sweeps
    calls = []
    search = _RankLookup._search

    def counted(self, keys, message, **context):
        calls.append(len(keys))
        return search(self, keys, message, **context)

    monkeypatch.setattr(_RankLookup, "_search", counted)
    diagonal = parse_all(("(1 2 3 4)(5 6 7 8)", "(1 2)(5 6)"), 8)
    assert _RankLookup(alternating_group(8), diagonal).dim == 840
    assert calls == [20160, 20160]


def test_member_keys_fit_int32_up_to_the_materialization_cap():
    # a key is n base-n digits, at most n**n - 1: raising the cap past 9 needs wider keys
    assert permutations.MAX_MATERIALIZED_DEGREE**permutations.MAX_MATERIALIZED_DEGREE <= 2**31
    keys = _RankLookup(alternating_group(9))._keys
    assert keys.dtype == np.int32 and (np.diff(keys) > 0).all()
    assert keys[-1] == int("876543210", 9)


def test_rank_lookup_refuses_elements_that_are_no_subgroup(monkeypatch):
    # the closure is what makes the cosets a partition: three elements that are
    # no group do not split the 60 members into 20 classes of three
    elements = [Permutation.identity(5)] + parse_all(("(1 2 3)", "(1 2)(4 5)"), 5)
    monkeypatch.setattr(permutations, "_subgroup_elements", lambda generators, degree: elements)
    with pytest.raises(VerificationError, match="do not split the members evenly"):
        _RankLookup(alternating_group(5), elements[1:])
