"""Explicit permutations, conjugacy classes of cycles, coordinate subgroups,
and implicit Cayley adjacency operators.

Permutations act on {1, ..., degree}; composition is (sigma * pi)(x) =
sigma(pi(x)).  Vertices of a Cayley graph are the members of a
:class:`GroupSlice` in lexicographic order of their image tuples, and two
vertices g, h are adjacent iff h g^{-1} lies in the connection set.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cache
from math import factorial

import numpy as np

from .errors import SizeLimitError, VerificationError

#: |Alt(9)| = 181440 is the largest group we will materialize element by element
MAX_MATERIALIZED_DEGREE = 9

#: dense adjacency matrices stop being reasonable past this order
DENSE_ORDER_LIMIT = 1000


class Permutation:
    """Immutable permutation of {1..degree}, stored as its image tuple."""

    __slots__ = ("_images",)

    def __init__(self, images):
        images = tuple(int(v) for v in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        self._images = images

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
        return self._images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return Permutation(self._images[v - 1] for v in other._images)

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for i, v in enumerate(self._images, start=1):
            images[v - 1] = i
        return Permutation(images)

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its smallest point, ordered by that point."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cycle = [start]
            seen[start - 1] = True
            nxt = self(start)
            while nxt != start:
                cycle.append(nxt)
                seen[nxt - 1] = True
                nxt = self(nxt)
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        lengths = sorted((len(c) for c in self.cycles(include_fixed=True)), reverse=True)
        return tuple(lengths)

    def support(self) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self._images, start=1) if v != i)

    def sign(self) -> int:
        return -1 if (self.degree - len(self.cycles(include_fixed=True))) % 2 else 1

    def is_even(self) -> bool:
        return self.sign() == 1

    def fixes(self, point: int) -> bool:
        return self(point) == point

    def cycle_string(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cyc)

    def one_line_string(self) -> str:
        return " ".join(str(v) for v in self._images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __lt__(self, other: "Permutation") -> bool:
        return self._images < other._images

    def __repr__(self) -> str:
        return f"Permutation.parse({self.cycle_string()!r}, degree={self.degree})"


@dataclass(frozen=True)
class GroupSlice:
    """A subgroup of Sym(degree) cut out by coordinates: optionally only even
    permutations, optionally pointwise fixing a set of points."""

    degree: int
    even_only: bool = False
    fixed: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be positive")
        object.__setattr__(self, "fixed", frozenset(int(p) for p in self.fixed))
        if any(not 1 <= p <= self.degree for p in self.fixed):
            raise ValueError(f"fixed points {sorted(self.fixed)} outside 1..{self.degree}")

    def free_points(self) -> list[int]:
        return [p for p in range(1, self.degree + 1) if p not in self.fixed]

    @property
    def order(self) -> int:
        m = self.degree - len(self.fixed)
        if self.even_only and m >= 2:
            return factorial(m) // 2
        return factorial(m)

    def contains(self, perm: Permutation) -> bool:
        if perm.degree != self.degree:
            return False
        if any(not perm.fixes(p) for p in self.fixed):
            return False
        return perm.is_even() if self.even_only else True

    def members(self) -> list[Permutation]:
        """All members in lexicographic order of image tuples (degree <= 9)."""
        return [Permutation(row) for row in (_member_matrix(self) + 1).tolist()]

    def unrank(self, index: int) -> Permutation:
        """The index-th member in lexicographic order, without enumerating the group.

        Lexicographic arrangements 2i and 2i+1 of the free values differ only
        in their last two, so an even-only slice keeps exactly one of each
        pair: its index-th member is arrangement 2i, or that one with the last
        two free images swapped.
        """
        if not 0 <= index < self.order:
            raise ValueError(f"index {index} outside 0..{self.order - 1}")
        free = self.free_points()
        remaining = list(free)
        images = list(range(1, self.degree + 1))
        arrangement = 2 * index if self.even_only else index
        for pos in free:
            slot, arrangement = divmod(arrangement, factorial(len(remaining) - 1))
            images[pos - 1] = remaining.pop(slot)
        if not self.contains(Permutation(images)):
            a, b = free[-2] - 1, free[-1] - 1
            images[a], images[b] = images[b], images[a]
        return Permutation(images)

    def rank(self, perm: Permutation) -> int:
        """Inverse of :func:`unrank`; requires membership."""
        if not self.contains(perm):
            raise ValueError(f"{perm!r} is not a member of {self}")
        free = self.free_points()
        remaining = list(free)
        index = 0
        for pos in free:
            slot = remaining.index(perm(pos))
            index = index * len(remaining) + slot
            remaining.pop(slot)
        return index // 2 if self.even_only else index


@cache
def _member_matrix(slice_: GroupSlice) -> np.ndarray:
    """(order, degree) uint8 array of 0-based images, rows in lexicographic order.

    The arrangements of the m free points grow one position at a time: those
    of s values are s blocks, one per first value v in ascending order, each
    holding the arrangements of s-1 values with every value >= v raised by
    one, which keeps the order lexicographic.  An even-only slice keeps the
    rows whose pairwise inversions XOR to 0.
    """
    if slice_.degree > MAX_MATERIALIZED_DEGREE:
        raise SizeLimitError(
            f"group materialization is capped at degree {MAX_MATERIALIZED_DEGREE}, "
            f"got degree {slice_.degree}"
        )
    free = np.array(slice_.free_points(), dtype=np.uint8) - 1
    m = len(free)
    arrangements = np.zeros((1, 0), dtype=np.uint8)
    for size in range(1, m + 1):
        first = np.repeat(np.arange(size, dtype=np.uint8), len(arrangements))[:, None]
        rest = np.tile(arrangements, (size, 1))
        rest += rest >= first
        arrangements = np.hstack([first, rest])
    if slice_.even_only:
        odd = np.zeros(len(arrangements), dtype=bool)
        for i, j in itertools.combinations(range(m), 2):
            odd ^= arrangements[:, i] > arrangements[:, j]
        arrangements = arrangements[~odd]
    members = np.tile(np.arange(slice_.degree, dtype=np.uint8), (len(arrangements), 1))
    members[:, free] = free[arrangements]
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
            out.append(Permutation.from_cycles(n, [(anchor,) + tail]))
    return out


def t_filtration(class_members: list[Permutation], k: int) -> list[Permutation]:
    """Members whose support contains every point of {1..k} (the bottom points)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    required = set(range(1, k + 1))
    return [t for t in class_members if required <= t.support()]


def coset_count(
    class_members: list[Permutation],
    slice_: GroupSlice,
    fixes: int | None = None,
    maps: tuple[int, int] | None = None,
) -> int:
    """|T ∩ slice| refined by one coordinate constraint:
    ``fixes=p`` counts members fixing p, ``maps=(t, s)`` counts members sending t to s."""
    if (fixes is None) == (maps is None):
        raise ValueError("give exactly one of fixes= and maps=")
    count = 0
    for t in class_members:
        if not slice_.contains(t):
            continue
        if fixes is not None and not t.fixes(fixes):
            continue
        if maps is not None and t(maps[0]) != maps[1]:
            continue
        count += 1
    return count


class _RankLookup:
    """Rank of t * g for every member g of a slice, read from one lookup table.

    With m free points, members that agree on their first m-2 free-point
    images differ only in the order of the last two, so they sit next to each
    other in lexicographic order, ascending pair first; an even-only slice
    keeps exactly one of the two.  The table maps the base-m key of those m-2
    images, free points numbered 0..m-1, to the rank of the first member with
    them, and holds -1 where no member has them.  For Alt(8) it has 8^6 int32
    entries, 1 MB.
    """

    def __init__(self, slice_: GroupSlice):
        members = _member_matrix(slice_)
        free = np.array(slice_.free_points(), dtype=np.intp) - 1
        m = len(free)
        head = max(m - 2, 0)
        self._weights = m ** np.arange(head - 1, -1, -1, dtype=np.int32)
        self._digits = np.zeros(slice_.degree, dtype=np.int32)
        self._digits[free] = np.arange(m)
        # flat positions of the head images in a (head, degree) table of weighted digits
        self._heads = members[:, free[:head]].T + (np.arange(head) * slice_.degree)[:, None]
        # the two orders of the last two images are both members only in a full slice
        self._tails = members[:, free[head:]].T if m >= 2 and not slice_.even_only else None
        step = 1 if self._tails is None else 2
        self._lookup = np.full(m**head, -1, dtype=np.int32)
        keys = self._keys(np.arange(slice_.degree))
        self._lookup[keys[::step]] = np.arange(0, slice_.order, step, dtype=np.int32)

    def _keys(self, t0: np.ndarray) -> np.ndarray:
        weighted = np.outer(self._weights, self._digits[t0]).ravel()
        return weighted[self._heads].sum(axis=0, dtype=np.int32)

    def ranks(self, t0: np.ndarray) -> np.ndarray:
        """Ranks of t * g for every member g; ``t0`` holds t's 0-based images
        and t must lie in the slice."""
        ranks = self._lookup[self._keys(t0)]
        if ranks.min() < 0:
            raise VerificationError("a composed permutation is not a member of the vertex group")
        if self._tails is not None:
            ranks += t0[self._tails[0]] > t0[self._tails[1]]
        return ranks


def _neighbor_table(slice_: GroupSlice, connection: list[Permutation]) -> np.ndarray:
    """(len(connection), order); row j holds the rank of t_j * g for every member g,
    in the smallest unsigned dtype that holds every rank (uint16 up to degree 8).

    Only elements that move at most three points, or are involutions, are
    ranked by :class:`_RankLookup`, and each such row is kept for reuse within
    the build.  Any other element has a cycle (a1 a2 a3 ... am) with m >= 3,
    and (a1 a2 a3 ... am) = (a1 a2 a3) * (a3 ... am); writing t = a * b with
    a = (a1 a2 a3), its row is rank(a * b * g) = row_a[row_b[g]], one gather,
    with row_b built the same way.  Both factors stay in the slice: a is even
    and moves only points that t moves.
    """
    lookup = _RankLookup(slice_)
    dtype = np.min_scalar_type(slice_.order - 1)
    looked_up: dict[tuple[int, ...], np.ndarray] = {}

    def row_of(cycles: list[tuple[int, ...]]) -> np.ndarray:
        long = next((c for c in cycles if len(c) > 2), None)
        if long is not None and sum(map(len, cycles)) > 3:
            rest = [long[2:]] + [c for c in cycles if c is not long]
            return np.take(row_of([long[:3]]), row_of(rest))
        t0 = list(range(slice_.degree))
        for cycle in cycles:
            for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
                t0[src - 1] = dst - 1
        key = tuple(t0)
        if key not in looked_up:
            looked_up[key] = lookup.ranks(np.array(t0, dtype=np.intp)).astype(dtype)
        return looked_up[key]

    rows = np.empty((len(connection), slice_.order), dtype=dtype)
    for j, t in enumerate(connection):
        if not slice_.contains(t):
            raise VerificationError(
                "connection does not stabilize the vertex group", element=t, slice=slice_
            )
        rows[j] = row_of(t.cycles())
    return rows


class CayleyOperator:
    """Implicit adjacency operator of Cay(slice, connection).

    Matvecs accumulate x[index(t * g)] over the connection set from a table
    of neighbor ranks, one row per connection element, built once by
    :func:`_neighbor_table`: a direct lookup on the composed free-point images
    for 3-cycles, involutions and other elements moving at most three points,
    and a gather of those rows for every other element.  Ranks are stored in
    the smallest unsigned dtype that holds them, so the densest degree-8
    table, all 1344 5-cycles on Alt(8) in uint16, takes about 54 MB;
    :meth:`prefix` serves a leading part of the connection from the same
    table without a copy.
    """

    def __init__(self, slice_: GroupSlice, connection: list[Permutation]):
        seen = set()
        for t in connection:
            if t.degree != slice_.degree:
                raise ValueError(f"connection degree {t.degree} != slice degree {slice_.degree}")
            if t.support() == frozenset():
                raise ValueError("the identity is not allowed in a connection set")
            if not slice_.contains(t):
                raise ValueError(f"connection element {t!r} lies outside the vertex group")
            if t.images in seen:
                raise ValueError(f"duplicate connection element {t!r}")
            seen.add(t.images)
        for t in connection:
            if t.inverse().images not in seen:
                raise ValueError(f"connection set is not inverse-closed: missing {t.inverse()!r}")
        self.slice = slice_
        self.connection = list(connection)
        self.dim = slice_.order
        self._rows: np.ndarray | None = None

    @property
    def valency(self) -> int:
        return len(self.connection)

    def one_norm(self) -> int:
        """Max absolute column sum; for a 0/1 adjacency this is the valency."""
        return self.valency

    def prefix(self, count: int) -> "CayleyOperator":
        """Operator of the first ``count`` connection elements, validated like any
        other; its neighbor table is a row-slice view of this operator's."""
        if not 0 <= count <= self.valency:
            raise ValueError(f"need 0 <= count <= {self.valency}, got count = {count}")
        op = CayleyOperator(self.slice, self.connection[:count])
        op._rows = self._neighbor_rows()[:count]
        return op

    def _neighbor_rows(self) -> np.ndarray:
        """(valency, dim); row j holds index(t_j * g) for every vertex g."""
        if self._rows is None:
            self._rows = _neighbor_table(self.slice, self.connection)
        return self._rows

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a vector of length {self.dim}, got shape {x.shape}")
        y = np.zeros(self.dim, dtype=np.float64)
        buf = np.empty(self.dim, dtype=np.float64)
        for row in self._neighbor_rows():
            # every entry is a rank below dim = len(x), so "clip" never clips; it
            # skips the bounds check and the copy take() adds under mode="raise"
            np.take(x, row, out=buf, mode="clip")
            y += buf
        return y

    def neighbors(self, vertex: int) -> list[int]:
        """Sorted indices of t * g over the connection, g the vertex at ``vertex``."""
        if not 0 <= vertex < self.dim:
            raise ValueError(f"vertex {vertex} outside 0..{self.dim - 1}")
        return sorted(int(row[vertex]) for row in self._neighbor_rows())

    def dense(self) -> np.ndarray:
        if self.dim > DENSE_ORDER_LIMIT:
            raise SizeLimitError(
                f"dense adjacency is capped at order {DENSE_ORDER_LIMIT}, got {self.dim}"
            )
        a = np.zeros((self.dim, self.dim), dtype=np.int32)
        src = np.arange(self.dim)
        for row in self._neighbor_rows():
            a[src, row] += 1
        if not np.array_equal(a, a.T):
            raise VerificationError("dense Cayley adjacency is not symmetric", dim=self.dim)
        return a

    def index_of(self, perm: Permutation) -> int:
        return self.slice.rank(perm)

    def vertex_at(self, index: int) -> Permutation:
        return self.slice.unrank(index)

    def images_of(self, point: int) -> np.ndarray:
        """sigma(point) for every vertex sigma, 1-based values."""
        if not 1 <= point <= self.slice.degree:
            raise ValueError(f"point {point} outside 1..{self.slice.degree}")
        return _member_matrix(self.slice)[:, point - 1].astype(np.int64) + 1


def cayley_adjacency(slice_: GroupSlice, connection: list[Permutation]) -> CayleyOperator:
    """Adjacency operator of Cay(slice, connection); validates that the
    connection is identity-free, duplicate-free, inverse-closed, and inside
    the vertex group."""
    return CayleyOperator(slice_, connection)
