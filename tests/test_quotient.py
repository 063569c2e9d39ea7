"""Equitable coset partitions and their quotient matrices.

The two quotient entries are checked three ways: the closed-form binomial
expressions, literal neighbor counting on the graph, and membership of the
quotient eigenvalues in the full character spectrum.
"""

import csv
import io
import itertools

import pytest

from cayley_spectra.permutations import (
    alternating_group,
    cayley_adjacency,
    enumerate_class_cycles,
    symmetric_group,
)
from cayley_spectra.quotient import (
    quotient_eigenvalues_gamma,
    quotient_lambda2_recursive,
    quotient_matrix_gamma,
)
from cayley_spectra.spectra import class_size, full_spectrum
from oracles import coset_cells, members, neighbors, t_filtration, verify_equitable


def test_quotient_matrix_5_1():
    q = quotient_matrix_gamma(5, 1)
    assert (q.order, q.diagonal, q.off_diagonal) == (5, 6, 6)
    assert quotient_eigenvalues_gamma(5, 1) == (30, 0)


def test_quotient_matrix_6_2():
    q = quotient_matrix_gamma(6, 2)
    assert (q.order, q.diagonal, q.off_diagonal) == (6, 30, 12)
    assert quotient_eigenvalues_gamma(6, 2) == (90, 18)


def test_quotient_matrix_4_0():
    q = quotient_matrix_gamma(4, 0)
    assert (q.order, q.diagonal, q.off_diagonal) == (4, 0, 2)
    assert quotient_eigenvalues_gamma(4, 0) == (6, -2)


def test_row_sums_equal_valency():
    for n in range(3, 9):
        for k in range(n - 1):
            q = quotient_matrix_gamma(n, k)
            assert q.diagonal + (q.order - 1) * q.off_diagonal == class_size(n, k)


def test_quotient_eigenvalues_lie_in_full_spectrum():
    for n in range(3, 8):
        for k in range(n - 1):
            top, second = quotient_eigenvalues_gamma(n, k)
            values = {e.eigenvalue for e in full_spectrum(n, k)}
            assert top in values
            assert second in values


def test_entries_against_literal_neighbor_counts():
    for n, k in ((4, 1), (5, 1), (5, 2)):
        op = cayley_adjacency(symmetric_group(n), enumerate_class_cycles(n, n - k))
        q = quotient_matrix_gamma(n, k)
        cells = coset_cells(op, 1)
        assert len(cells) == n
        vertices = members(op.slice)
        for cell_index, cell in enumerate(cells):
            v = cell[0]
            per_cell = [0] * n
            for w in neighbors(op, v):
                per_cell[vertices[w](1) - 1] += 1
            image = vertices[v](1)
            assert cell_index == image - 1
            for j, count in enumerate(per_cell):
                assert count == (q.diagonal if j == cell_index else q.off_diagonal)


def test_verify_equitable_accepts_coset_cells():
    for n, k in ((4, 1), (4, 2), (5, 1)):
        op = cayley_adjacency(symmetric_group(n), enumerate_class_cycles(n, n - k))
        assert verify_equitable(op, coset_cells(op, 1))


def test_verify_equitable_rejects_unbalanced_partition():
    op = cayley_adjacency(symmetric_group(4), enumerate_class_cycles(4, 3))
    lopsided = [list(range(7)), list(range(7, 24))]
    assert not verify_equitable(op, lopsided)


def test_verify_equitable_validates_partition():
    op = cayley_adjacency(symmetric_group(4), enumerate_class_cycles(4, 3))
    with pytest.raises(ValueError):
        verify_equitable(op, [[0, 1], [1, 2]])  # overlap
    with pytest.raises(ValueError):
        verify_equitable(op, [list(range(23))])  # missing a vertex


def test_recursive_lambda2_alt8():
    a8 = alternating_group(8)
    T = enumerate_class_cycles(8, 5)
    frozen = {0: 384, 2: 216, 4: 72}
    for k, expected in frozen.items():
        tk = [t for t in t_filtration(T, k) if a8.contains(t)]
        assert quotient_lambda2_recursive(tk, a8, k) == expected


def test_recursive_lambda2_examples():
    # 504 of the 5-cycles in Alt(8) fix 1 and 120 send 2 to 1
    a8 = alternating_group(8)
    T = [t for t in enumerate_class_cycles(8, 5) if a8.contains(t)]
    assert quotient_lambda2_recursive(T, a8, 0) == 504 - 120


@pytest.mark.parametrize("slice_", [alternating_group(6), symmetric_group(6)], ids=repr)
def test_recursive_lambda2_matches_a_membership_first_count(slice_):
    # the coordinate tests run before membership, in one pass; the difference must not move
    for m, k in itertools.product(range(2, 7), range(5)):
        T = enumerate_class_cycles(6, m)
        inside = [t for t in T if slice_.contains(t)]
        fixing = sum(t(k + 1) == k + 1 for t in inside)
        moving = sum(t(k + 2) == k + 1 for t in inside)
        assert quotient_lambda2_recursive(T, slice_, k) == fixing - moving, (m, k)


def test_recursive_lambda2_range_check():
    a8 = alternating_group(8)
    T = enumerate_class_cycles(8, 5)
    with pytest.raises(ValueError):
        quotient_lambda2_recursive(T, a8, 7)


@pytest.mark.parametrize("degree", [4, 6])
def test_recursive_lambda2_refuses_a_class_of_another_degree(degree):
    # such a member lies in no slice; counting it as outside would hide the caller's mistake
    with pytest.raises(ValueError, match=f"class member degree {degree} != slice degree 5"):
        quotient_lambda2_recursive(enumerate_class_cycles(degree, 3), alternating_group(5), 0)


def test_recursive_lambda2_runs_at_degree_minus_two():
    # k = degree - 2 is the last k that leaves two points, k+1 and k+2, to count on.
    # T_6 of the 7-cycles: 720 with support {1..6, 8}, each fixing 7, and 720 with
    # support {1..7}, none sending 8 to 7
    a8 = alternating_group(8)
    t6 = [t for t in t_filtration(enumerate_class_cycles(8, 7), 6) if a8.contains(t)]
    assert len(t6) == 1440
    assert quotient_lambda2_recursive(t6, a8, 6) == 720


def test_to_csv():
    q = quotient_matrix_gamma(5, 1)
    lines = q.to_csv().strip().split("\n")
    assert len(lines) == 5
    assert lines[0] == "6,6,6,6,6"
    assert lines[1] == "6,6,6,6,6"


@pytest.mark.parametrize("n, k", [(2, 0), (5, 0), (7, 2), (12, 3), (30, 0)])
def test_to_csv_matches_the_csv_module_on_every_entry(n, k):
    q = quotient_matrix_gamma(n, k)
    entries = [[q.diagonal if r == c else q.off_diagonal for c in range(n)] for r in range(n)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(entries)
    assert q.to_csv() == buf.getvalue()
