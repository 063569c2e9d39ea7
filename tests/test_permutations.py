"""Permutation arithmetic, group slices, and the Cayley adjacency operator.

The operator's vectorized neighbor table is checked against an adjacency
matrix assembled here by literal one-at-a-time composition.
"""

import itertools
from math import factorial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cayley_spectra.errors import SizeLimitError, VerificationError
from cayley_spectra.permutations import (
    CayleyOperator,
    GroupSlice,
    Permutation,
    _member_matrix,
    _neighbor_table,
    _RankLookup,
    alternating_group,
    cayley_adjacency,
    coset_count,
    enumerate_class_cycles,
    symmetric_group,
    t_filtration,
)

perm_images = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


def test_identity_and_call():
    e = Permutation.identity(4)
    assert e.images == (1, 2, 3, 4)
    assert all(e(i) == i for i in range(1, 5))
    assert e.is_even() and e.sign() == 1


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
    assert p.one_line_string() == "2 3 1 5 4"
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
    assert Permutation.parse(p.one_line_string()) == p
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
    assert p.fixes(3) and p.fixes(7)


# --- class enumeration ---------------------------------------------------


def test_class_cycles_against_exhaustive_filter():
    for n, length in ((4, 3), (5, 4), (5, 3), (6, 5)):
        expected_type = (length,) + (1,) * (n - length)
        brute = {
            p for p in symmetric_group(n).members() if p.cycle_type() == expected_type
        }
        enumerated = enumerate_class_cycles(n, length)
        assert len(enumerated) == len(set(enumerated)) == len(brute)
        assert set(enumerated) == brute


def test_class_cycles_inverse_closed():
    T = enumerate_class_cycles(6, 4)
    members = set(T)
    assert all(t.inverse() in members for t in T)


def test_class_cycles_rejects_fixed_points_in_cycle():
    with pytest.raises(ValueError):
        enumerate_class_cycles(4, 1)
    with pytest.raises(ValueError):
        enumerate_class_cycles(4, 5)


def test_t_filtration_sizes():
    T = enumerate_class_cycles(5, 3)
    sizes = [len(t_filtration(T, k)) for k in range(4)]
    assert sizes == [20, 12, 6, 2]
    T8 = enumerate_class_cycles(8, 5)
    assert [len(t_filtration(T8, k)) for k in range(5)] == [1344, 840, 480, 240, 96]


def test_coset_count_examples():
    a8 = alternating_group(8)
    T = [t for t in enumerate_class_cycles(8, 5) if a8.contains(t)]
    assert coset_count(T, a8, fixes=1) == 504
    assert coset_count(T, a8, maps=(2, 1)) == 120


def test_coset_count_requires_one_constraint():
    a5 = alternating_group(5)
    T = enumerate_class_cycles(5, 3)
    with pytest.raises(ValueError):
        coset_count(T, a5, fixes=1, maps=(2, 1))
    with pytest.raises(ValueError):
        coset_count(T, a5)


# --- slices ---------------------------------------------------------------


def test_slice_orders():
    assert symmetric_group(4).order == 24
    assert alternating_group(4).order == 12
    assert GroupSlice(6, fixed=frozenset({2, 5})).order == 24
    assert GroupSlice(6, even_only=True, fixed=frozenset({2})).order == 60
    assert GroupSlice(1).order == 1
    assert GroupSlice(2, even_only=True).order == 1


def test_slice_validation():
    with pytest.raises(ValueError):
        GroupSlice(0)
    with pytest.raises(ValueError):
        GroupSlice(3, fixed=frozenset({4}))


def test_members_sorted_unique_and_contained():
    for slice_ in (
        symmetric_group(4),
        alternating_group(4),
        GroupSlice(5, fixed=frozenset({3})),
        GroupSlice(5, even_only=True, fixed=frozenset({1, 4})),
    ):
        ms = slice_.members()
        assert len(ms) == slice_.order
        assert ms == sorted(ms)
        assert len(set(ms)) == len(ms)
        assert all(slice_.contains(p) for p in ms)


def test_alternating_members_are_even():
    assert all(p.is_even() for p in alternating_group(5).members())


def test_rank_unrank_round_trip():
    # degree 1..7, full and even, with four fixed-point patterns each
    small = [
        GroupSlice(n, even_only=even, fixed=frozenset(fixed))
        for n in range(1, 8)
        for even in (False, True)
        for fixed in (set(), {1}, {n}, set(range(2, n + 1, 2)))
    ]
    for slice_ in [
        symmetric_group(4),
        alternating_group(5),
        GroupSlice(6, even_only=True, fixed=frozenset({2})),
        GroupSlice(3, fixed=frozenset({1, 2, 3})),
        *small,
    ]:
        members = slice_.members()
        for index, p in enumerate(members):
            assert slice_.unrank(index) == p
            assert slice_.rank(p) == index


def test_unrank_range_check():
    with pytest.raises(ValueError):
        symmetric_group(3).unrank(6)
    with pytest.raises(ValueError):
        symmetric_group(3).unrank(-1)


def test_rank_requires_membership():
    with pytest.raises(ValueError):
        alternating_group(3).rank(Permutation((2, 1, 3)))


def test_unrank_avoids_materialization():
    big = GroupSlice(12, fixed=frozenset(range(5, 13)))  # order 4! = 24
    assert big.order == 24
    first = big.unrank(0)
    assert first == Permutation.identity(12)
    assert big.rank(big.unrank(17)) == 17
    with pytest.raises(SizeLimitError):
        GroupSlice(12).members()


# --- Cayley operator ------------------------------------------------------


def brute_adjacency(slice_, connection):
    members = slice_.members()
    index = {p: i for i, p in enumerate(members)}
    a = np.zeros((len(members), len(members)), dtype=np.int64)
    for j, g in enumerate(members):
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
    members = slice_.members()
    for v in (0, 5, 23):
        expected = sorted(op.index_of(t * members[v]) for t in connection)
        assert list(op.neighbors(v)) == expected
        assert np.flatnonzero(dense[:, v]).tolist() == expected
    for bad in (-1, op.dim):  # -1 would otherwise read the last vertex's row
        with pytest.raises(ValueError, match=f"vertex {bad} outside 0..{op.dim - 1}"):
            op.neighbors(bad)


def test_operator_vertex_indexing():
    slice_ = alternating_group(5)
    op = cayley_adjacency(slice_, enumerate_class_cycles(5, 5))
    for v in (0, 13, 59):
        assert op.index_of(op.vertex_at(v)) == v


def test_operator_images_of_point():
    slice_ = symmetric_group(4)
    op = cayley_adjacency(slice_, enumerate_class_cycles(4, 3))
    members = slice_.members()
    col = op.images_of(1)
    assert col.tolist() == [p(1) for p in members]


def test_operator_validates_connection():
    s4 = symmetric_group(4)
    threes = enumerate_class_cycles(4, 3)
    with pytest.raises(ValueError):
        cayley_adjacency(s4, threes + [Permutation.identity(4)])
    with pytest.raises(ValueError):
        cayley_adjacency(s4, threes + threes[:1])  # duplicate
    with pytest.raises(ValueError):
        cayley_adjacency(s4, threes[:1])  # not inverse-closed
    with pytest.raises(ValueError):
        cayley_adjacency(alternating_group(4), enumerate_class_cycles(4, 4))  # odd elements
    with pytest.raises(ValueError):
        cayley_adjacency(s4, enumerate_class_cycles(5, 3))  # degree mismatch


def test_operator_prefix_is_validated_and_shares_the_table():
    op = cayley_adjacency(symmetric_group(4), enumerate_class_cycles(4, 3))
    with pytest.raises(ValueError, match="inverse-closed"):
        op.prefix(1)  # (1 2 3) without (1 3 2)
    for bad in (-1, op.valency + 1):
        with pytest.raises(ValueError):
            op.prefix(bad)
    pair = op.prefix(2)
    assert pair.connection == op.connection[:2]
    assert np.shares_memory(pair._neighbor_rows(), op._neighbor_rows())
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
    """The former member build: every arrangement of the free points from
    itertools, in lexicographic order, odd ones dropped for an even-only slice."""
    free = slice_.free_points()
    out = []
    for arrangement in itertools.permutations(free):
        if slice_.even_only and _arrangement_parity(arrangement):
            continue
        images = list(range(slice_.degree))
        for pos, value in zip(free, arrangement):
            images[pos - 1] = value - 1
        out.append(images)
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
    + [
        GroupSlice(1),
        GroupSlice(2, even_only=True),
        GroupSlice(3, fixed=frozenset({1, 2, 3})),
        GroupSlice(5, fixed=frozenset({3})),
        GroupSlice(5, even_only=True, fixed=frozenset({1, 4})),
        GroupSlice(6, fixed=frozenset({2, 5})),
        GroupSlice(6, even_only=True, fixed=frozenset({2})),
    ]
)


@pytest.mark.parametrize(
    "slice_",
    TABLE_SLICES
    + [alternating_group(9), GroupSlice(9, even_only=True, fixed=frozenset({2, 7}))],
    ids=repr,
)
def test_member_matrix_matches_itertools_oracle(slice_):
    members = _member_matrix(slice_)
    assert members.dtype == np.uint8
    assert np.array_equal(members, itertools_members(slice_))


@pytest.mark.parametrize("slice_", TABLE_SLICES, ids=repr)
def test_neighbor_table_matches_searchsorted_oracle(slice_):
    members = slice_.members()
    # every member of the small slices; a spread of members elsewhere (each
    # one composes with every vertex, so each row checks every rank)
    step = max(1, len(members) // 97)
    connection = members[::step] + members[-1:]
    table = _neighbor_table(slice_, connection)
    assert table.dtype == (np.uint8 if slice_.order <= 256 else np.uint16)
    assert np.array_equal(table, searchsorted_table(slice_, connection))


def _of_type(slice_, cycle_type, count):
    """About ``count`` members of ``slice_`` of the given cycle type, spread over the class."""
    found = [p for p in slice_.members() if p.cycle_type() == cycle_type]
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
        _neighbor_table(slice_, connection), searchsorted_table(slice_, connection)
    )


def test_alt8_5cycle_table_equals_the_row_by_row_lookup():
    a8 = alternating_group(8)
    connection = [t for t in enumerate_class_cycles(8, 5) if a8.contains(t)]
    lookup = _RankLookup(a8)
    expected = np.empty((len(connection), a8.order), dtype=np.uint16)
    for j, t in enumerate(connection):
        expected[j] = lookup.ranks(np.array(t.images, dtype=np.intp) - 1)
    table = _neighbor_table(a8, connection)
    assert table.dtype == np.uint16
    assert np.array_equal(table, expected)


def test_neighbor_table_widens_past_uint16():
    a9 = alternating_group(9)  # 181440 vertices: ranks need more than 16 bits
    connection = [Permutation.from_cycles(9, [(1, 2, 3)]), Permutation.from_cycles(9, [(9, 4, 6)])]
    table = _neighbor_table(a9, connection)
    assert table.dtype == np.uint32
    assert np.array_equal(table, searchsorted_table(a9, connection))


def test_neighbor_table_rejects_an_element_outside_the_slice():
    odd = Permutation.from_cycles(5, [(1, 2)])
    moves_fixed = Permutation.from_cycles(6, [(2, 5)])  # swaps the two fixed points
    for slice_, outsider in (
        (alternating_group(5), odd),
        (GroupSlice(6, fixed=frozenset({2, 5})), moves_fixed),
    ):
        with pytest.raises(VerificationError, match="does not stabilize"):
            _neighbor_table(slice_, [Permutation.identity(slice_.degree), outsider])
