"""Equitable-partition quotient matrices and their exact eigenvalues.

Partitioning Cay(Sym(n), C(n,k)) into the n cosets of a point stabilizer is
equitable; the quotient matrix is alpha*(J - I) + beta*I, its integer entries
count class members between cosets, and its two eigenvalues come out exactly.
The recursive route counts both entries of a given class in one pass.  Nothing
here uses floating point or loads an array module.
"""

from __future__ import annotations

from math import comb, factorial
from typing import TYPE_CHECKING, NamedTuple

from .spectra import _check_range, class_size

if TYPE_CHECKING:
    from .permutations import GroupSlice, Permutation


class QuotientMatrix(NamedTuple):
    order: int
    diagonal: int
    off_diagonal: int
    provenance: str

    def to_csv(self) -> str:
        # every row repeats the same two integers: convert each one once
        diagonal, off_diagonal = str(self.diagonal), str(self.off_diagonal)
        lines = []
        for r in range(self.order):
            cells = [off_diagonal] * self.order
            cells[r] = diagonal
            lines.append(",".join(cells) + "\n")
        return "".join(lines)


def quotient_matrix_gamma(n: int, k: int) -> QuotientMatrix:
    """Quotient of Cay(Sym(n), C(n,k)) over the n point-stabilizer cosets.

    Entry (s, t) counts the (n-k)-cycles sending s to t: the diagonal is
    C(n-1, n-k) (n-k-1)! and every off-diagonal entry is C(n-2, n-k-2) (n-k-2)!.
    """
    _check_range(n, k)
    diagonal = comb(n - 1, n - k) * factorial(n - k - 1)
    off_diagonal = comb(n - 2, n - k - 2) * factorial(n - k - 2)
    return QuotientMatrix(
        order=n,
        diagonal=diagonal,
        off_diagonal=off_diagonal,
        provenance=f"point-stabilizer cosets of Cay(Sym({n}), {n - k}-cycles)",
    )


def quotient_eigenvalues_gamma(n: int, k: int) -> tuple[int, int]:
    """The two eigenvalues of the quotient: the valency (all-ones vector) and
    diagonal - off_diagonal, with multiplicity n-1.  Exact integers."""
    q = quotient_matrix_gamma(n, k)
    top = q.diagonal + (n - 1) * q.off_diagonal
    if top != class_size(n, k):
        raise ArithmeticError(
            f"quotient row sum {top} differs from the valency {class_size(n, k)} at n = {n}, k = {k}"
        )
    return top, q.diagonal - q.off_diagonal


def quotient_lambda2_recursive(
    class_members: list[Permutation], slice_: GroupSlice, k: int
) -> int:
    """Exact second quotient eigenvalue for Cay(slice, T_k ∩ slice) where the
    support of every member of T_k covers {1..k}:

        |T_k ∩ slice fixing k+1|  -  |T_k ∩ slice sending k+2 to k+1|

    The two counts are the diagonal and off-diagonal entries of the quotient
    over the cosets of the stabilizer of k+1 in the slice.  A member of another
    degree raises ValueError rather than count as outside the slice.
    """
    if k < 0 or k + 2 > slice_.degree:
        raise ValueError(f"need 0 <= k <= degree-2, got k = {k}, degree = {slice_.degree}")
    value = 0
    for t in class_members:
        if t.degree != slice_.degree:
            raise ValueError(f"class member degree {t.degree} != slice degree {slice_.degree}")
        # +1 if t fixes k+1, -1 if it sends k+2 to k+1; only then the parity
        step = (t.images[k] == k + 1) - (t.images[k + 1] == k + 1)
        if step and slice_.contains(t):
            value += step
    return value
