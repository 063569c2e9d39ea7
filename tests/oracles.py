"""Reference routines that the tests compare the package against.

The package runs none of these, and none is capped.  They are hook lengths
and exhaustive tableau counts for the dimensions, rim hooks as cell lists for
the character recursion, class sizes and whole character tables for the
orthogonality relations, the point-stabilizer cells and an explicit
equitability check for the quotient matrices, an explicit matrix operator
for the eigensolvers, and the members, vertex numbering and neighbors of a
Cayley operator.  The vertex numbering comes from the lexicographic member
list and the smallest member of each right coset, not from the package's
rank lookup.

Diagram coordinates are 1-based ``(row, column)`` pairs in the English
convention: row 1 is the longest row and sits on top.
"""

from __future__ import annotations

import functools
from math import factorial
from typing import NamedTuple

import numpy as np

from cayley_spectra.characters import _mn
from cayley_spectra.permutations import GroupSlice, Permutation, _member_matrix
from cayley_spectra.young import (
    _bead_moves,
    _conjugate,
    beta_set,
    enumerate_partitions,
    validate_partition,
)

# --- shapes ---------------------------------------------------------------


def hook_lengths(lam) -> list[list[int]]:
    """Hook length of every cell, as a row-by-row grid."""
    lam = validate_partition(lam)
    conj = _conjugate(lam)
    return [
        [(lam[r] - c - 1) + (conj[c] - r - 1) + 1 for c in range(lam[r])]
        for r in range(len(lam))
    ]


def count_standard_tableaux(lam) -> int:
    """Count standard tableaux by exhaustively placing 1..n cell by cell: no
    hook lengths, just backtracking over all fillings whose rows and columns
    increase.  It walks one node per partial filling, so it grows with f^lambda."""
    lam = validate_partition(lam)
    n = sum(lam)
    fill = [0] * len(lam)  # cells already occupied in each row

    def place(value: int) -> int:
        if value > n:
            return 1
        total = 0
        for r, used in enumerate(fill):
            # next free cell of row r is (r, used); legal if the row has room
            # and the cell above is already filled
            if used < lam[r] and (r == 0 or fill[r - 1] > used):
                fill[r] += 1
                total += place(value + 1)
                fill[r] -= 1
        return total

    return place(1)


class RimHook(NamedTuple):
    """A border strip: an edge-connected skew diagram containing no 2x2 block.

    ``cells`` are ordered from the southwest-most cell; each step moves one
    cell up or one cell right.  ``leg_length`` is (number of rows spanned) - 1.
    """

    cells: tuple[tuple[int, int], ...]
    leg_length: int

    @property
    def length(self) -> int:
        return len(self.cells)


def enumerate_rim_hooks(lam, length: int) -> tuple[RimHook, ...]:
    """All rim hooks of the given length removable from ``lam``.

    Deterministic order, induced by the reverse-lexicographic order of the
    leftover partition.  ``length`` must be at least 1 (a rim hook is a
    non-empty strip); lengths exceeding |lam| simply yield nothing.
    """
    lam = validate_partition(lam)
    if length < 1:
        raise ValueError("a rim hook has length at least 1")
    rows = len(lam)
    beads = beta_set(lam)
    hooks = []
    # bottom row first: a lower top row leaves a lexicographically larger leftover
    for b, target in _bead_moves(beads[::-1], length):
        moved = sorted([x for x in beads if x != b] + [target], reverse=True)
        # each row past its leftover length, bottom row up, left to right within a row
        cells = tuple(
            (r + 1, c + 1)
            for r in reversed(range(rows))
            for c in range(moved[r] - (rows - 1 - r), lam[r])
        )
        hooks.append(RimHook(cells=cells, leg_length=len({r for r, _ in cells}) - 1))
    return tuple(hooks)


def remove_rim_hook(lam, hook: RimHook) -> tuple[int, ...]:
    """Partition left after removing ``hook``; rejects hooks not on the border of ``lam``."""
    lam = validate_partition(lam)
    if hook not in enumerate_rim_hooks(lam, hook.length):
        raise ValueError(f"{hook} is not a rim hook of {lam}")
    rest = list(lam)
    for r, _ in hook.cells:
        rest[r - 1] -= 1
    # a partition's zero parts can only trail, so dropping them all is safe
    return tuple(p for p in rest if p)


# --- classes and characters -----------------------------------------------


def centralizer_order(tau) -> int:
    """|centralizer| of a permutation of cycle type ``tau``: prod l^m_l * m_l!."""
    tau = validate_partition(tau)
    order = 1
    for length in set(tau):
        mult = tau.count(length)
        order *= length**mult * factorial(mult)
    return order


def conjugacy_class_size(tau) -> int:
    tau = validate_partition(tau)
    q, r = divmod(factorial(sum(tau)), centralizer_order(tau))
    if r:  # the centralizer order always divides n!; anything else is a bug
        raise ArithmeticError(f"centralizer order of {tau} does not divide {sum(tau)}!")
    return q


def cycle_type_sign(tau) -> int:
    """Sign of any permutation of cycle type ``tau``: (-1)^(n - number of cycles)."""
    tau = validate_partition(tau)
    return -1 if (sum(tau) - len(tau)) % 2 else 1


def character_table(n: int) -> list[list[int]]:
    """Full character table of Sym(n): rows are shapes, columns are cycle types,
    both in reverse-lexicographic order."""
    if n < 1:
        raise ValueError("n must be positive")
    shapes = enumerate_partitions(n)
    return [[_mn(lam, tau) for tau in shapes] for lam in shapes]


# --- groups and Cayley operators --------------------------------------------


def t_filtration(class_members: list[Permutation], k: int) -> list[Permutation]:
    """Members whose support contains every point of {1..k} (the bottom points)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    required = set(range(1, k + 1))
    return [t for t in class_members if required <= t.support()]


def members(slice_: GroupSlice) -> list[Permutation]:
    """All members in lexicographic order of image tuples."""
    return [Permutation(row) for row in (_member_matrix(slice_) + 1).tolist()]


def closure(generators, degree: int) -> list[Permutation]:
    """Every product of the generators, by repeated multiplication until nothing is new."""
    elements = {Permutation.identity(degree)}
    while True:
        grown = elements | {g * h for g in elements for h in generators}
        if grown == elements:
            return sorted(elements)
        elements = grown


@functools.cache
def numbering(slice_: GroupSlice, subgroup: tuple[Permutation, ...]):
    """(vertices, index) of the right cosets gH of the subgroup H that the
    generators in ``subgroup`` close to: the smallest member of each coset,
    in lexicographic order, and the vertex index of every member.  With
    the trivial subgroup every member is its own vertex."""
    elements = closure(subgroup, slice_.degree)
    least = {g: min(g * h for h in elements) for g in members(slice_)}
    vertices = sorted(set(least.values()))
    position = {g: i for i, g in enumerate(vertices)}
    return vertices, {g: position[r] for g, r in least.items()}


def index_of(op, perm: Permutation) -> int:
    """Index of the vertex of ``op`` holding ``perm``: its place among the
    members, or on right cosets the index of its coset."""
    return numbering(op.slice, op.subgroup)[1][perm]


def vertex_at(op, index: int) -> Permutation:
    """The member at ``index``; on right cosets the smallest member of the coset."""
    vertices = numbering(op.slice, op.subgroup)[0]
    if not 0 <= index < len(vertices):
        raise ValueError(f"index {index} outside 0..{len(vertices) - 1}")
    return vertices[index]


def neighbors(op, vertex: int) -> list[int]:
    """Sorted indices of t * g over the connection, g the vertex at ``vertex``,
    read from the factor rows that the matvec uses."""
    if not 0 <= vertex < op.dim:
        raise ValueError(f"vertex {vertex} outside 0..{op.dim - 1}")
    heads, tails, pairs = op._factor_rows()
    ranks = tails[pairs[:, 1], vertex]
    composed = pairs[:, 0] >= 0
    ranks[composed] = heads[pairs[composed, 0], ranks[composed]]
    return sorted(ranks.tolist())


def images_of(op, point: int) -> list[int]:
    """sigma(point) for every vertex sigma.  On right cosets g * h and g
    differ at the points h moves, so only a point that every generator of the
    subgroup fixes has one image per coset."""
    if not 1 <= point <= op.slice.degree:
        raise ValueError(f"point {point} outside 1..{op.slice.degree}")
    mover = next((h for h in op.subgroup if h(point) != point), None)
    if mover is not None:
        raise ValueError(
            f"point {point} is moved by {mover.cycle_string()}, so the members "
            "of a right coset send it to different images"
        )
    return [g(point) for g in numbering(op.slice, op.subgroup)[0]]


def coset_cells(op, point: int) -> list[list[int]]:
    """Vertex indices grouped by the image of ``point``: the point-stabilizer
    coset partition."""
    cells: dict[int, list[int]] = {}
    for vertex, value in enumerate(images_of(op, point)):
        cells.setdefault(value, []).append(vertex)
    return [cells[v] for v in sorted(cells)]


def verify_equitable(op, cells: list[list[int]]) -> bool:
    """Explicitly check that every vertex of a cell has the same number of
    neighbors in every other cell."""
    cell_of = [-1] * op.dim
    for i, cell in enumerate(cells):
        for v in cell:
            if not 0 <= v < op.dim or cell_of[v] != -1:
                raise ValueError("cells must partition the vertex set")
            cell_of[v] = i
    if -1 in cell_of:
        raise ValueError("cells must cover the vertex set")
    for cell in cells:
        reference = None
        for v in cell:
            counts = [0] * len(cells)
            for nb in neighbors(op, v):
                counts[cell_of[nb]] += 1
            if reference is None:
                reference = counts
            elif counts != reference:
                return False
    return True


class MatrixOperator:
    """Operator protocol adapter around an explicit symmetric matrix."""

    def __init__(self, matrix):
        a = np.asarray(matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        self._a = a
        self.dim = a.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._a @ x

    def one_norm(self) -> float:
        return float(np.abs(self._a).sum(axis=0).max())

    def dense(self) -> np.ndarray:
        return self._a.copy()
