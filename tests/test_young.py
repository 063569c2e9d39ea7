"""Partitions, hooks, tableaux, rim hooks.

The counting oracles here are deliberately independent of the library's
formulas: partition counts are frozen from the classical p(n) sequence, the
enumeration order is rebuilt by plain recursion, dimensions are recounted by
hook products and by exhaustive tableau placement, and border-strip validity
is rechecked with a breadth-first search over the cell set.
"""

import itertools
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cayley_spectra.young as young
from cayley_spectra.young import (
    dimension,
    enumerate_partitions,
    format_partition,
    parse_partition,
    transpose,
)
from oracles import count_standard_tableaux, enumerate_rim_hooks, hook_lengths, remove_rim_hook

# p(0) .. p(18), frozen
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297, 385]

partitions_up_to_8 = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.sampled_from(enumerate_partitions(n))
)


def test_partition_counts_match_frozen_sequence():
    for n, expected in enumerate(PARTITION_COUNTS):
        assert len(enumerate_partitions(n)) == expected, n


def test_partition_enumeration_is_reverse_lex():
    for n in range(1, 11):
        parts = enumerate_partitions(n)
        assert parts[0] == (n,)
        assert parts[-1] == (1,) * n
        assert parts == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)
        for lam in parts:
            assert sum(lam) == n
            assert all(a >= b for a, b in zip(lam, lam[1:]))


def recursive_partitions(n):
    """Reverse-lexicographic partitions of n by depth-first extension: the
    largest next part first, never larger than the one before."""
    out = []

    def extend(prefix, remaining, max_part):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, max_part), 0, -1):
            extend(prefix + (part,), remaining - part, part)

    extend((), n, n)
    return out


def test_zs1_enumeration_matches_the_recursive_order():
    for n in range(31):
        assert enumerate_partitions(n) == recursive_partitions(n), n


def test_enumerate_partitions_rejects_negative():
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


def test_transpose_examples():
    assert transpose((3, 1)) == (2, 1, 1)
    assert transpose((2, 2, 1)) == (3, 2)
    assert transpose((5,)) == (1, 1, 1, 1, 1)
    assert transpose(()) == ()


@given(partitions_up_to_8)
def test_transpose_is_an_involution(lam):
    assert transpose(transpose(lam)) == lam


def test_hook_length_grids():
    assert hook_lengths((2, 2, 1)) == [[4, 2], [3, 1], [1]]
    assert hook_lengths((4, 2, 1)) == [[6, 4, 2, 1], [3, 1], [1]]
    assert hook_lengths((1,)) == [[1]]


def test_dimension_examples():
    assert dimension((5,)) == 1
    assert dimension((1, 1, 1)) == 1
    assert dimension((4, 1)) == 4
    assert dimension((2, 2, 1)) == 5
    assert dimension((4, 2, 1)) == 35
    assert dimension((3, 3)) == 5


def test_dimension_against_hook_products():
    # Frobenius' beta-set formula against the hook length formula
    for n in range(23):
        for lam in enumerate_partitions(n):
            assert dimension(lam) * prod(itertools.chain(*hook_lengths(lam))) == factorial(n), lam


def test_dimension_of_large_shapes():
    # exact past int64: the beta-set quotient against the hook length formula at n = 100
    assert dimension((13,)) == 1
    assert dimension((99, 1)) == 99
    for lam in [(10,) * 10, (14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 1), (50, 25, 13, 7, 3, 2)]:
        n = sum(lam)
        assert dimension(lam) * prod(itertools.chain(*hook_lengths(lam))) == factorial(n), lam
        assert dimension(lam) > 2**63


def test_dimension_against_exhaustive_tableau_count():
    # Two genuinely different routes: bead products vs backtracking placement.
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            assert dimension(lam) == count_standard_tableaux(lam), lam


@given(partitions_up_to_8)
def test_dimension_invariant_under_transpose(lam):
    assert dimension(lam) == dimension(transpose(lam))


def test_sum_of_squared_dimensions_is_group_order():
    for n in range(1, 13):
        assert sum(dimension(lam) ** 2 for lam in enumerate_partitions(n)) == factorial(n)


def test_dimension_raises_when_the_bead_factorials_do_not_divide(monkeypatch):
    # f(2,2) = 4! * (3-2) / (3! 2!) = 2; with 4! read as 25 the quotient is not an integer
    monkeypatch.setattr(young, "factorial", lambda x: factorial(x) + (x == 4))
    with pytest.raises(ArithmeticError, match="do not divide"):
        dimension((2, 2))


# --- rim hooks ----------------------------------------------------------


def _cells_are_border_strip(cells):
    """BFS connectivity over edge-adjacency plus the no-2x2 condition."""
    cellset = set(cells)
    if not cellset:
        return False
    for r, c in cellset:
        if {(r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1)} <= cellset:
            return False
    seen = set()
    frontier = [next(iter(cellset))]
    while frontier:
        r, c = frontier.pop()
        if (r, c) in seen:
            continue
        seen.add((r, c))
        for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if nb in cellset and nb not in seen:
                frontier.append(nb)
    return seen == cellset


def diagram(lam):
    return {(r + 1, c + 1) for r, part in enumerate(lam) for c in range(part)}


def test_rim_hooks_of_32():
    hooks2 = enumerate_rim_hooks((3, 2), 2)
    assert len(hooks2) == 1
    # cells are 1-based (row, column) pairs, matching the 1-based point convention
    assert hooks2[0].cells == ((2, 1), (2, 2))
    assert hooks2[0].leg_length == 0

    hooks3 = enumerate_rim_hooks((3, 2), 3)
    assert len(hooks3) == 1
    assert hooks3[0].leg_length == 1
    assert remove_rim_hook((3, 2), hooks3[0]) == (1, 1)


def test_rim_hooks_whole_diagram():
    # a hook shape is one big border strip; a 2x2 square is not
    [hook] = enumerate_rim_hooks((3, 1, 1), 5)
    assert hook.leg_length == 2
    assert remove_rim_hook((3, 1, 1), hook) == ()
    assert enumerate_rim_hooks((2, 2), 4) == ()


def test_rim_hook_length_validation():
    with pytest.raises(ValueError):
        enumerate_rim_hooks((3, 2), 0)
    assert enumerate_rim_hooks((3, 2), 6) == ()


def test_rim_hook_structure_exhaustively():
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            for length in range(1, n + 1):
                for hook in enumerate_rim_hooks(lam, length):
                    assert len(hook.cells) == length
                    assert hook.length == length
                    assert _cells_are_border_strip(hook.cells)
                    rows = {r for r, _ in hook.cells}
                    assert hook.leg_length == len(rows) - 1
                    # SW->NE traversal order
                    assert list(hook.cells) == sorted(
                        hook.cells, key=lambda rc: (-rc[0], rc[1])
                    )
                    rest = remove_rim_hook(lam, hook)
                    assert sum(rest) == n - length
                    assert all(a >= b for a, b in zip(rest, rest[1:]))
                    assert diagram(rest) == diagram(lam) - set(hook.cells)


def test_rim_hook_enumeration_is_complete():
    # the partition scan: the hooks of length n-m are exactly the skew
    # diagrams lam/mu, mu a partition of m inside lam, that are border strips
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            for m in range(n):
                strips = set()
                for mu in enumerate_partitions(m):
                    padded = mu + (0,) * (len(lam) - len(mu))
                    if len(mu) > len(lam) or any(a > b for a, b in zip(padded, lam)):
                        continue
                    cells = frozenset(
                        (r + 1, c + 1) for r in range(len(lam)) for c in range(padded[r], lam[r])
                    )
                    if _cells_are_border_strip(cells):
                        strips.add(cells)
                hooks = enumerate_rim_hooks(lam, n - m)
                assert len(hooks) == len(strips), (lam, n - m)
                assert {frozenset(h.cells) for h in hooks} == strips, (lam, n - m)


def test_rim_hook_uniqueness_for_long_cycles():
    """At most one way to peel an (n-k)-hook whenever 3k+1 < n."""
    for n in range(4, 19):
        for k in range((n - 1) // 3 + 1):
            if 3 * k + 1 >= n:
                continue
            for lam in enumerate_partitions(n):
                assert len(enumerate_rim_hooks(lam, n - k)) <= 1, (lam, n - k)


def test_remove_rim_hook_rejects_foreign_hook():
    [hook] = enumerate_rim_hooks((3, 1, 1), 5)
    with pytest.raises(ValueError):
        remove_rim_hook((3, 2), hook)


# --- parsing ------------------------------------------------------------


def test_parse_partition_forms():
    assert parse_partition("5,1") == (5, 1)
    assert parse_partition("[5,1]") == (5, 1)
    assert parse_partition("2^3,1^2") == (2, 2, 2, 1, 1)
    assert parse_partition(" 4 , 2 , 1 ") == (4, 2, 1)


def test_parse_partition_rejects_garbage():
    for bad in ("", "0", "1,2", "a,b", "3,,1", "2^0"):
        with pytest.raises(ValueError):
            parse_partition(bad)


def test_format_examples():
    assert format_partition((5, 1)) == "5,1"
    assert format_partition((2, 2, 2, 1, 1)) == "2,2,2,1,1"


@given(partitions_up_to_8)
def test_parse_format_round_trip(lam):
    assert parse_partition(format_partition(lam)) == lam


@settings(max_examples=50)
@given(partitions_up_to_8)
def test_validation_rejects_increasing_sequences(lam):
    if len(set(lam)) > 1:
        with pytest.raises(ValueError):
            dimension(tuple(sorted(lam)))
