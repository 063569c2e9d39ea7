"""Explicit permutations, conjugacy classes of cycles, the groups Sym(n) and
Alt(n), and implicit Cayley adjacency operators.

Permutations act on {1, ..., degree}; composition is (sigma * pi)(x) =
sigma(pi(x)).  Vertices of a Cayley graph are the members of a
:class:`GroupSlice` in lexicographic order of their image tuples, and two
vertices g, h are adjacent iff h g^{-1} lies in the connection set.  An
operator may instead act on the right cosets gH of a subgroup H given by
generators, each numbered by its smallest member: the Schreier graph on
|G|/|H| vertices.  It is built only for an H that keeps every distinct
eigenvalue, which one exact character count decides; the diagonal Sym(4)
<(1 2 3 4)(5 6 7 8), (1 2)(5 6)> of Alt(8), of order 24, leaves 840 cosets.
"""

from __future__ import annotations

import copy
import itertools
import os
import re
import sys
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from math import factorial

from .errors import SizeLimitError, VerificationError
from .spectra import DENSE_ORDER_LIMIT

#: the variables that OpenBLAS reads for its thread count when it loads
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@contextmanager
def _one_blas_thread():
    """Load numpy inside this block with one OpenBLAS thread, then restore os.environ.

    numpy's OpenBLAS starts one worker thread per core when it loads, about
    70 ms of every import on two cores, and the package never calls a
    threaded BLAS: the Lanczos products are einsum without ``optimize``, and
    eigh and eigvalsh run on matrices of order at most DENSE_ORDER_LIMIT.
    The pool is sized once, at load, so BLAS stays single-threaded for the
    rest of the process.  A process that set any of _BLAS_THREAD_VARIABLES,
    or loaded numpy before this package, is left as it is.
    """
    if "numpy" in sys.modules or any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
        yield
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


with _one_blas_thread():
    import numpy as np

#: |Alt(9)| = 181440 is the largest group we will materialize element by element
MAX_MATERIALIZED_DEGREE = 9


class Permutation:
    """Immutable permutation of {1..degree}, stored as its image tuple; its
    sign is computed on first use and kept."""

    __slots__ = ("_images", "_sign")

    def __init__(self, images):
        images = tuple(int(v) for v in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        self._images = images
        self._sign = 0

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(1, degree + 1))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        images = list(range(1, degree + 1))
        seen: set[int] = set()
        for cycle in cycles:
            cycle = [int(p) for p in cycle]
            for p in cycle:
                if not 1 <= p <= degree:
                    raise ValueError(f"point {p} outside 1..{degree}")
                if p in seen:
                    raise ValueError(f"point {p} appears more than once in the cycles")
                seen.add(p)
            for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
                images[src - 1] = dst
        return cls(images)

    @classmethod
    def parse(cls, text: str, degree: int | None = None) -> "Permutation":
        """Accepts cycle notation "(1 2 3)(4 5)" or one-line notation "2 3 1 5 4"."""
        s = text.strip()
        if s.startswith("("):
            cycles = []
            for group in re.findall(r"\(([^()]*)\)", s):
                points = [int(tok) for tok in group.replace(",", " ").split()]
                if points:
                    cycles.append(points)
            leftover = re.sub(r"\([^()]*\)", "", s).strip()
            if leftover:
                raise ValueError(f"unparsed text {leftover!r} in {text!r}")
            top = max((p for c in cycles for p in c), default=1)
            deg = degree if degree is not None else top
            if top > deg:
                raise ValueError(f"cycle mentions point {top} but degree is {deg}")
            return cls.from_cycles(deg, cycles)
        images = [int(tok) for tok in s.replace(",", " ").split()]
        if not images:
            raise ValueError(f"empty permutation string {text!r}")
        if degree is not None and degree != len(images):
            raise ValueError(f"one-line string has {len(images)} points, expected {degree}")
        return cls(images)

    @property
    def images(self) -> tuple[int, ...]:
        return self._images

    @property
    def degree(self) -> int:
        return len(self._images)

    def __call__(self, point: int) -> int:
        if not 0 < point <= len(self._images):
            raise ValueError(f"point {point} outside 1..{len(self._images)}")
        return self._images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return Permutation(self._images[v - 1] for v in other._images)

    def inverse(self) -> "Permutation":
        return Permutation(_inverse_images(self._images))

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its smallest point, ordered by that point."""
        images = self._images
        seen = [False] * len(images)
        out = []
        for start in range(1, len(images) + 1):
            if seen[start - 1]:
                continue
            cycle = [start]
            seen[start - 1] = True
            nxt = images[start - 1]
            while nxt != start:
                cycle.append(nxt)
                seen[nxt - 1] = True
                nxt = images[nxt - 1]
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        lengths = sorted((len(c) for c in self.cycles(include_fixed=True)), reverse=True)
        return tuple(lengths)

    def support(self) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self._images, start=1) if v != i)

    def sign(self) -> int:
        if not self._sign:  # 0 until the first call
            self._sign = -1 if (self.degree - len(self.cycles(include_fixed=True))) % 2 else 1
        return self._sign

    def is_even(self) -> bool:
        return self.sign() == 1

    def cycle_string(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cyc)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __lt__(self, other: "Permutation") -> bool:
        return self._images < other._images

    def __repr__(self) -> str:
        return f"Permutation.parse({self.cycle_string()!r}, degree={self.degree})"


def _inverse_images(images: tuple[int, ...]) -> tuple[int, ...]:
    """The image tuple of the inverse of the permutation with ``images``."""
    inverse = [0] * len(images)
    for i, v in enumerate(images, start=1):
        inverse[v - 1] = i
    return tuple(inverse)


@dataclass(frozen=True)
class GroupSlice:
    """Sym(degree), or Alt(degree) when ``even_only``."""

    degree: int
    even_only: bool = False

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be positive")

    @property
    def order(self) -> int:
        if self.even_only and self.degree >= 2:
            return factorial(self.degree) // 2
        return factorial(self.degree)

    def contains(self, perm: Permutation) -> bool:
        if perm.degree != self.degree:
            return False
        return perm.is_even() if self.even_only else True


def _member_matrix(slice_: GroupSlice) -> np.ndarray:
    """(order, degree) uint8 array of 0-based images, rows in lexicographic order.

    The arrangements grow one position at a time: those of s values are s
    blocks, one per first value v in ascending order, each holding the
    arrangements of s-1 values with every value >= v raised by one, which
    keeps the order lexicographic.  An even-only slice keeps the rows whose
    pairwise inversions XOR to 0.
    """
    if slice_.degree > MAX_MATERIALIZED_DEGREE:
        raise SizeLimitError(
            f"group materialization is capped at degree {MAX_MATERIALIZED_DEGREE}, "
            f"got degree {slice_.degree}"
        )
    members = np.zeros((1, 0), dtype=np.uint8)
    for size in range(1, slice_.degree + 1):
        first = np.repeat(np.arange(size, dtype=np.uint8), len(members))[:, None]
        rest = np.tile(members, (size, 1))
        rest += rest >= first
        members = np.hstack([first, rest])
    if slice_.even_only:
        odd = np.zeros(len(members), dtype=bool)
        for i, j in itertools.combinations(range(slice_.degree), 2):
            odd ^= members[:, i] > members[:, j]
        members = members[~odd]
    return members


def symmetric_group(n: int) -> GroupSlice:
    return GroupSlice(degree=n)


def alternating_group(n: int) -> GroupSlice:
    return GroupSlice(degree=n, even_only=True)


def enumerate_class_cycles(n: int, m: int) -> list[Permutation]:
    """All m-cycles in Sym(n): support choice times (m-1)! cyclic arrangements."""
    if n > MAX_MATERIALIZED_DEGREE:
        raise SizeLimitError(
            f"class enumeration is capped at degree {MAX_MATERIALIZED_DEGREE}, got n = {n}"
        )
    if not 2 <= m <= n:
        raise ValueError(f"need 2 <= m <= n, got m = {m}, n = {n}")
    out = []
    for support in itertools.combinations(range(1, n + 1), m):
        anchor, rest = support[0], support[1:]
        for tail in itertools.permutations(rest):
            # distinct points in 1..n by construction: the constructor's check is the only one
            images = list(range(1, n + 1))
            cycle = (anchor,) + tail
            for src, dst in zip(cycle, tail + (anchor,)):
                images[src - 1] = dst
            out.append(Permutation(images))
    return out


def _subgroup_elements(generators: Sequence[Permutation], degree: int) -> list[Permutation]:
    """The elements of the subgroup generated by ``generators``, identity first."""
    elements = [Permutation.identity(degree)]
    seen = set(elements)
    for g in elements:  # the list grows while it is walked: a breadth-first closure
        for s in generators:
            h = g * s
            if h not in seen:
                seen.add(h)
                elements.append(h)
    return elements


class _RankLookup:
    """Vertex index of t * g for every vertex g of a slice, found by one
    binary search over the members' keys.

    The 0-based images of a member, read as base-n digits, form its key.
    The members are in lexicographic order, so their keys ascend, and the
    rank of a permutation is the position of its key among them; a key that
    is not there belongs to no member and raises
    :class:`~cayley_spectra.errors.VerificationError`.  Sym(n) and Alt(n)
    take the same path.

    The vertices are the right cosets gH of the subgroup H that the
    generators in ``subgroup`` close to, each numbered by its smallest member
    in lexicographic order; with no generators every member is its own
    coset.  ``ranks`` composes t with those members only and maps the rank
    of each product to its coset.  The numbering searches the move g -> g * s
    once per generator s, 2 searches for the diagonal Sym(4) of Alt(8).
    """

    def __init__(self, slice_: GroupSlice, subgroup: Sequence[Permutation] = ()):
        n = slice_.degree
        # one contiguous row of images per position, so every gather below is row-major
        columns = _member_matrix(slice_).T.copy()
        # int32 holds every key, up to n**n - 1 < 2**31 at MAX_MATERIALIZED_DEGREE = 9
        self._weights = n ** np.arange(n - 1, -1, -1, dtype=np.int32)
        self._keys = self._weights @ columns
        order = len(_subgroup_elements(subgroup, n))
        #: member ranks of the vertices, ascending, and the vertex of every member
        self.representatives, self.vertex_of = self._right_cosets(slice_, columns, subgroup, order)
        columns = columns.take(self.representatives, axis=1)  # still row-major
        self.dim = columns.shape[1]
        # flat positions of the images in a (degree, degree) table of weighted images
        self._digits = columns + (np.arange(n) * n)[:, None]

    def _search(self, keys: np.ndarray, message: str, **context) -> np.ndarray:
        """Member ranks of ``keys``; raise VerificationError(message) unless
        every key is a member's."""
        ranks = np.searchsorted(self._keys, keys)
        if not (self._keys.take(ranks, mode="clip") == keys).all():
            raise VerificationError(message, **context)
        return ranks

    def _right_cosets(
        self, slice_: GroupSlice, columns: np.ndarray, generators: Sequence[Permutation], order: int
    ):
        """(representatives, vertex_of) for the right cosets of the subgroup of
        ``order`` elements that ``generators`` close to.  Each generator's
        move g -> g * s is searched once; an elementwise minimum of every rank
        with that of its moves, repeated until a sweep changes nothing, holds
        the smallest member of gH: H is finite, so s^-1 is a power of s and
        the moves alone reach every g * h."""
        moves = []
        for s in generators:
            # row i of g * s holds g(s(i)): the rows of g, permuted by s
            keys = self._weights @ columns[[v - 1 for v in s.images]]
            message = "a subgroup element sends a member outside the vertex group"
            moves.append(self._search(keys, message, element=s, slice=slice_))
        members = np.arange(slice_.order)
        least = members.copy()
        settled = False
        while not settled:
            previous = least.copy()
            for move in moves:
                np.minimum(least, least[move], out=least)
            settled = np.array_equal(least, previous)
        representatives = np.flatnonzero(least == members)
        if len(representatives) * order != slice_.order:
            raise VerificationError(
                "the right cosets of the subgroup do not split the members evenly",
                cosets=len(representatives),
                subgroup_order=order,
                slice=slice_,
            )
        vertex_of = np.searchsorted(representatives, least).astype(np.int32)
        return representatives, vertex_of

    def ranks(self, t0: np.ndarray) -> np.ndarray:
        """Vertex index of t * g for every vertex g; ``t0`` holds t's 0-based images."""
        weighted = np.outer(self._weights, t0.astype(np.int32)).ravel()
        keys = weighted[self._digits].sum(axis=0, dtype=np.int32)
        return self.vertex_of[
            self._search(keys, "a composed permutation is not a member of the vertex group")
        ]


def _images0(degree: int, cycles) -> tuple[int, ...]:
    """0-based image tuple of the product of disjoint ``cycles`` on 1..degree."""
    t0 = list(range(degree))
    for cycle in cycles:
        for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
            t0[src - 1] = dst - 1
    return tuple(t0)


def _split(cycles: list[tuple[int, ...]]):
    """(head, tail) cycle lists with t = head * tail, head a 3-cycle, or
    (None, cycles) when t moves at most three points or is an involution.

    Any other element has a cycle (a1 a2 a3 ... am) with m >= 3, and
    (a1 a2 a3 ... am) = (a1 a2 a3) * (a3 ... am).  Both factors stay in the
    slice: the head is even and moves only points that t moves.
    """
    long = next((c for c in cycles if len(c) > 2), None)
    if long is None or sum(map(len, cycles)) <= 3:
        return None, cycles
    return [long[:3]], [long[2:]] + [c for c in cycles if c is not long]


def _factor_rows(
    slice_: GroupSlice, connection: list[Permutation], subgroup: Sequence[Permutation] = ()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank rows of the two factors of every connection element, on the
    vertices of :class:`_RankLookup`: the members of ``slice_``, or the right
    cosets of the subgroup that the generators in ``subgroup`` close to.

    Returns ``(heads, tails, pairs)``: row i of ``heads`` and of ``tails``
    holds the index of a_i * g and of b_i * g for every vertex g, and row j
    of ``pairs`` is (head, tail) with t_j = heads[head] * tails[tail], so
    that index(t_j * g) = heads[head][tails[tail][g]], or tails[tail][g]
    alone when head = -1 (the identity).  Each distinct factor is stored
    once, in the smallest unsigned dtype that holds every index (uint16 up
    to degree 8).  Composing rows stays exact on right cosets gH: a * g and
    a * g * h lie in one coset, so row_a gives the same index whichever
    member of the coset named by row_b it was ranked from.

    Heads are 3-cycles and tails that :func:`_split` leaves whole are ranked
    by the key search; any other tail is split again and stored composed, so the
    tail of a 7-cycle is a composed 5-cycle row.
    """
    lookup = _RankLookup(slice_, subgroup)
    dtype = np.min_scalar_type(lookup.dim - 1)

    def row_of(cycles: list[tuple[int, ...]]) -> np.ndarray:
        head, tail = _split(cycles)
        if head is not None:
            return np.take(row_of(head), row_of(tail))
        t0 = np.array(_images0(slice_.degree, cycles), dtype=np.intp)
        return lookup.ranks(t0).astype(dtype)

    def factor(seen: dict, cycles: list[tuple[int, ...]]) -> int:
        """Index of the factor among ``seen`` (images -> (index, cycles)), added if new."""
        return seen.setdefault(_images0(slice_.degree, cycles), (len(seen), cycles))[0]

    def stack(seen: dict) -> np.ndarray:
        rows = np.empty((len(seen), lookup.dim), dtype=dtype)
        for i, cycles in seen.values():
            rows[i] = row_of(cycles)
        return rows

    heads: dict = {}
    tails: dict = {}
    pairs = np.empty((len(connection), 2), dtype=np.intp)
    for j, t in enumerate(connection):
        if not slice_.contains(t):
            raise VerificationError(
                "connection does not stabilize the vertex group", element=t, slice=slice_
            )
        head, tail = _split(t.cycles())
        pairs[j] = (-1 if head is None else factor(heads, head), factor(tails, tail))
    return stack(heads), stack(tails), pairs


def _compose(heads: np.ndarray, tails: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """One full row of indices per pair of :func:`_factor_rows`: row j holds
    the index of t_j * g for every vertex g, as heads[head][tails[tail]].

    Full rows are composed only for :meth:`CayleyOperator.dense` and the
    tests; the matvec applies the factors directly.
    """
    rows = np.empty((len(pairs), tails.shape[1]), dtype=tails.dtype)
    for j, (head, tail) in enumerate(pairs.tolist()):
        rows[j] = tails[tail] if head < 0 else np.take(heads[head], tails[tail])
    return rows


def _require_inverse_closed(connection: list[Permutation], inverses: list[tuple[int, ...]]) -> None:
    """Raise ValueError unless every image tuple in ``inverses``, those of the
    inverses of ``connection`` in order, is the image tuple of a member."""
    images = {t.images for t in connection}
    for t, inverse in zip(connection, inverses):
        if inverse not in images:
            raise ValueError(f"connection set is not inverse-closed: missing {t.inverse()!r}")


class CayleyOperator:
    """Implicit adjacency operator of Cay(slice, connection), or with a
    ``subgroup`` H, given by generators, of its Schreier graph on the right
    cosets gH.

    Each connection element is split once, by :func:`_factor_rows`, into a
    head a and a tail b with rank(t * g) = row_a[row_b[g]]; elements ranked
    directly (moving at most three points, or involutions) pair the identity
    with themselves.  A matvec gathers U_a = x[row_a] once per distinct head,
    sums the U_a of a tail's partners (x itself for the identity) into one
    contiguous V, and accumulates y = sum_b V[row_b].  Tails with the same
    ordered partner list share one V: the heads paired with a 5-cycle's tail
    (c d e) depend only on its support {c, d, e}, so (c d e) and (c e d)
    share.  For all 1344 5-cycles on Alt(8) that is 104 head and 70 tail
    gathers instead of 1344, and 35 partner sums with 637 adds instead of
    70 with 1274, from 7 MB of uint16 factor rows instead of a 54 MB table
    of composed rows; on the 840 right cosets of the diagonal Sym(4)
    <(1 2 3 4)(5 6 7 8), (1 2)(5 6)> the same gathers and adds run on rows
    a 24th as long, 0.3 MB in all.  On rows this short a call's fixed cost
    counts, so the matvec calls the C methods directly on row lists built
    once per operator.  A matvec of the five certification levels takes
    0.82, 0.54, 0.42, 0.28 and 0.16 ms on those cosets, against 1.59, 1.01,
    0.80, 0.55 and 0.30 ms on the 2520 cosets of an order-8 subgroup
    (medians of 15 interleaved rounds of 30 calls, 3 alternating
    processes each, 2 cores): a third of the length costs about half.
    :meth:`prefix` serves a leading part of the connection from the same
    factor rows without a copy.
    """

    def __init__(
        self,
        slice_: GroupSlice,
        connection: list[Permutation],
        subgroup: Sequence[Permutation] = (),
    ):
        subgroup = tuple(subgroup)
        subgroup_order = len(_require_quotient(slice_, subgroup))
        identity = tuple(range(1, slice_.degree + 1))
        seen = set()
        for t in connection:
            if t.degree != slice_.degree:
                raise ValueError(f"connection degree {t.degree} != slice degree {slice_.degree}")
            if t.images == identity:
                raise ValueError("the identity is not allowed in a connection set")
            if not slice_.contains(t):
                raise ValueError(f"connection element {t!r} lies outside the vertex group")
            if t.images in seen:
                raise ValueError(f"duplicate connection element {t!r}")
            seen.add(t.images)
        self.slice = slice_
        self.connection = list(connection)
        #: the image tuple of each element's inverse, in connection order:
        #: computed once, for this check and that of every prefix
        self._inverses = [_inverse_images(t.images) for t in self.connection]
        _require_inverse_closed(self.connection, self._inverses)
        #: generators of the subgroup whose right cosets are the vertices
        self.subgroup = subgroup
        self.dim = slice_.order // subgroup_order
        self._factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._plan: tuple[list[np.ndarray], list[tuple]] | None = None

    @property
    def valency(self) -> int:
        return len(self.connection)

    def one_norm(self) -> int:
        """Max absolute column sum; for a 0/1 adjacency this is the valency."""
        return self.valency

    def prefix(self, count: int) -> "CayleyOperator":
        """Operator of the first ``count`` connection elements; it reads this
        operator's head and tail rows, not a copy.  A prefix of a validated
        connection keeps its degree, membership and distinct non-identity
        elements, so only its inverse-closure is checked again."""
        if not 0 <= count <= self.valency:
            raise ValueError(f"need 0 <= count <= {self.valency}, got count = {count}")
        connection = self.connection[:count]
        inverses = self._inverses[:count]
        _require_inverse_closed(connection, inverses)
        heads, tails, pairs = self._factor_rows()
        op = copy.copy(self)
        op.connection = connection
        op._inverses = inverses
        op._factors = (heads, tails, pairs[:count])
        op._plan = None
        return op

    def _factor_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(heads, tails, pairs) of :func:`_factor_rows`, built on first use."""
        if self._factors is None:
            self._factors = _factor_rows(self.slice, self.connection, self.subgroup)
        return self._factors

    def _grouping(self) -> tuple[list[np.ndarray], list[tuple]]:
        """The rows of the heads to gather, ascending by head, and the tails in
        use grouped by the slots of their partners among the gathered heads,
        slot -1 standing for x itself: one (slots, tails, rows) triple per
        distinct slot list, tails ascending with their rows, and groups ordered
        by their first tail.  Built once per operator, so that a matvec indexes
        no table."""
        if self._plan is None:
            heads, tails, pairs = self._factor_rows()
            used = sorted({head for head, _ in pairs.tolist() if head >= 0})
            slot = {head: i for i, head in enumerate(used)} | {-1: -1}
            partners: dict[int, list[int]] = {}
            for head, tail in pairs.tolist():
                partners.setdefault(tail, []).append(slot[head])
            sharing: dict[tuple[int, ...], list[int]] = {}
            for tail, slots in sorted(partners.items()):
                sharing.setdefault(tuple(slots), []).append(tail)
            self._plan = (
                [heads[head] for head in used],
                [(slots, shared, [tails[tail] for tail in shared]) for slots, shared in sharing.items()],
            )
        return self._plan

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a vector of length {self.dim}, got shape {x.shape}")
        head_rows, groups = self._grouping()
        # row -1 holds x, the gather through the identity head
        u = np.empty((len(head_rows) + 1, self.dim), dtype=np.float64)
        u[-1] = x
        gathered = list(u)  # one view per row, reused by every partner sum
        # every entry is a rank below dim = len(x), so "clip" never clips; it
        # skips the bounds check and the copy take() adds under mode="raise";
        # the method, like np.add with out=, skips numpy's Python-level wrapper
        for row, out in zip(head_rows, gathered):
            x.take(row, out=out, mode="clip")
        y = np.zeros(self.dim, dtype=np.float64)
        v = np.empty(self.dim, dtype=np.float64)
        buf = np.empty(self.dim, dtype=np.float64)
        for slots, _, tail_rows in groups:
            np.copyto(v, gathered[slots[0]])
            for i in slots[1:]:
                np.add(v, gathered[i], out=v)
            for row in tail_rows:
                v.take(row, out=buf, mode="clip")
                np.add(y, buf, out=y)
        return y

    def dense(self) -> np.ndarray:
        if self.dim > DENSE_ORDER_LIMIT:
            raise SizeLimitError(
                f"dense adjacency is capped at order {DENSE_ORDER_LIMIT}, got {self.dim}"
            )
        a = np.zeros((self.dim, self.dim), dtype=np.int32)
        src = np.arange(self.dim)
        for row in _compose(*self._factor_rows()):
            a[src, row] += 1
        if not np.array_equal(a, a.T):
            raise VerificationError("dense Cayley adjacency is not symmetric", dim=self.dim)
        return a


def _require_quotient(slice_: GroupSlice, generators: Sequence[Permutation]) -> list[Permutation]:
    """The elements of the subgroup H = <generators>, identity first; raise
    ValueError unless the right cosets gH keep every distinct eigenvalue of
    every Cayley graph on ``slice_``.

    A = sum_t x(t * g) commutes with right multiplication, so each of its
    eigenspaces is a sum of copies of irreducibles of the vertex group G under
    g -> g * h, and the coset operator is A on the functions constant on
    every gH.  An eigenspace meets those exactly when its irreducible has an
    H-fixed vector, and by Frobenius reciprocity an irreducible chi has one
    exactly when sum_{h in H} chi(h) > 0 (Serre, Linear Representations of
    Finite Groups, ch. 7; Babai, JCTB 1979).  So the rule is one count: every
    chi^lambda of Sym(n), lambda |- n, must sum to more than 0 over H.  The
    characters come from the Murnaghan-Nakayama recursion
    :func:`cayley_spectra.characters._mn` in exact integers, not from the
    eigenvalue formula :func:`cayley_spectra.spectra._eigenvalue` that the
    Lanczos certification checks.  On Alt(n) a self-conjugate chi^lambda
    splits into two irreducibles that differ only on the split classes
    (cycle types with distinct odd parts), so an H that meets none gives each
    half the sum chi^lambda / 2; an H that meets one is refused.  The count
    runs only for a nontrivial H: the full graph needs none.
    """
    for h in generators:
        if h.degree != slice_.degree:
            raise ValueError(f"subgroup generator degree {h.degree} != slice degree {slice_.degree}")
        if not slice_.contains(h):
            raise ValueError(f"subgroup generator {h.cycle_string()} lies outside {slice_}")
    elements = _subgroup_elements(generators, slice_.degree)
    if len(elements) == 1:
        return elements
    from .characters import _mn  # exact integers, loaded only for a coset operator
    from .young import enumerate_partitions

    named = "<" + ", ".join(h.cycle_string() for h in generators) + ">"
    types: dict[tuple[int, ...], int] = {}
    for h in elements:
        tau = h.cycle_type()
        types[tau] = types.get(tau, 0) + 1
    if slice_.even_only:
        for tau in types:
            if len(set(tau)) == len(tau) and all(part % 2 for part in tau):
                raise ValueError(
                    f"{named} meets the split class of cycle type {tau} of {slice_}, "
                    "so the character count cannot tell its two halves apart"
                )
    for lam in enumerate_partitions(slice_.degree):
        total = sum(count * _mn(lam, tau) for tau, count in types.items())
        if total <= 0:
            raise ValueError(
                f"the right cosets of {named} lose an eigenvalue: the character {lam} "
                f"sums to {total} over the subgroup"
            )
    return elements


def cayley_adjacency(
    slice_: GroupSlice, connection: list[Permutation], subgroup: Sequence[Permutation] = ()
) -> CayleyOperator:
    """Adjacency operator of Cay(slice, connection); validates that the
    connection is identity-free, duplicate-free, inverse-closed, and inside
    the vertex group.  With the generators of a nontrivial ``subgroup`` H the
    vertices are the right cosets gH, admitted only when they keep every
    distinct eigenvalue (see :func:`_require_quotient`)."""
    return CayleyOperator(slice_, connection, subgroup)
