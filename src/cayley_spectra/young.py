"""Integer partitions, their conjugates, dimensions, and rim hooks.

Partitions come from the iterative ZS1 generator, dimensions from
Frobenius' beta-set formula, and rim hooks from one bead rule on the abacus:
:func:`_bead_moves` for the characters, and the same rule walked once down a
decreasing beta-set for the eigenvalues (``spectra._eigenvalue``).
Everything is computed afresh on every call; nothing is memoized.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from itertools import combinations, starmap
from math import factorial, prod
from operator import add, sub

Partition = tuple[int, ...]


def validate_partition(parts) -> Partition:
    """Normalize to a tuple; parts must be positive and non-increasing."""
    lam = tuple(int(p) for p in parts)
    for i, p in enumerate(lam):
        # name the first bad part, not the whole tuple, which may be huge
        if p < 1:
            raise ValueError(
                f"partition parts must be positive integers, got {_clip(str(p))} at index {i}"
            )
        if i and lam[i - 1] < p:
            raise ValueError(
                "partition parts must be non-increasing, got "
                f"{_clip(str(p))} after {_clip(str(lam[i - 1]))} at index {i}"
            )
    return lam


def _clip(text: str, limit: int = 20) -> str:
    """``text`` cut to its first ``limit`` characters, marked with "..." when cut."""
    return text if len(text) <= limit else text[:limit] + "..."


def _clip_int(value: int) -> str:
    """``value`` cut by :func:`_clip` (its sign not counted), or its size past the str() limit."""
    try:
        return _clip(str(value), 20 + (value < 0))
    except ValueError:
        return f"a {value.bit_length()}-bit integer"


def _partitions(n: int) -> Iterator[Partition]:
    # ZS1 (Zoghbi & Stojmenovic 1998): x[:m] is the current partition and
    # x[h] its last part above 1.  Each step lowers x[h] by one and refills
    # the freed cells, plus the trailing ones, with parts as large as allowed.
    if n == 0:
        yield ()
        return
    x = [1] * n  # every cell past h holds 1 throughout
    x[0] = n
    m, h = 1, 0
    yield (n,)
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            m += 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h  # the freed cell plus the trailing ones
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[:m])


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of ``n`` in reverse lexicographic order: [n] first, [1^n] last.

    Built afresh on each call by the iterative ZS1 generator; nothing is memoized.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return list(_partitions(n))


def _conjugate(lam: Partition) -> Partition:
    conj = []
    rows = len(lam)
    for c in range(lam[0] if lam else 0):
        while lam[rows - 1] <= c:  # the last row counted stops short of column c
            rows -= 1
        conj.append(rows)
    return tuple(conj)


def transpose(lam) -> Partition:
    """Conjugate partition (reflect the diagram across the main diagonal)."""
    return _conjugate(validate_partition(lam))


def beta_set(lam: Partition) -> list[int]:
    """Bead positions of ``lam``: row r (0-based) of an r-row shape carries the
    bead lam[r] + rows-1-r (James & Kerber 1981, 2.7)."""
    return list(map(add, lam, range(len(lam) - 1, -1, -1)))


def _dimension_from_beads(beads, n: int) -> int:
    """f of the shape of n boxes whose strictly decreasing beta-set is ``beads``, by
    Frobenius: f = n! prod_{i<j} (b_i - b_j) / prod_i b_i! (James & Kerber 1981, 2.7)."""
    num = factorial(n) * prod(starmap(sub, combinations(beads, 2)))
    den = prod(map(factorial, beads))
    q, r = divmod(num, den)
    if r:  # the bead factorials always divide; anything else is a bug
        raise ArithmeticError(f"bead factorials {den} do not divide {num} for beads {list(beads)}")
    return q


def dimension(lam) -> int:
    """Number of standard Young tableaux of shape ``lam``, by Frobenius' beta-set formula."""
    lam = validate_partition(lam)
    return _dimension_from_beads(beta_set(lam), sum(lam))


def _bead_moves(beads, length: int) -> Iterator[tuple[int, int]]:
    """Each rim hook of this length as a bead move (b, b - length): bead b moves
    to a free, non-negative position (James & Kerber 1981, 2.7).  ``beads`` is
    any collection of bead positions; a long one should be a set, since every
    candidate target is looked up in it."""
    for b in beads:
        target = b - length
        if target >= 0 and target not in beads:
            yield b, target


_PART_TOKEN = re.compile(r"^(\d+)(?:\^(\d+))?$")


def _parse_runs(text: str) -> list[tuple[int, int]]:
    """The (part, exponent) pairs of "2,1^4"-style text, not yet expanded."""
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1].strip()
    if not s:
        raise ValueError("empty partition string")
    runs = []
    for position, token in enumerate(s.split(","), start=1):
        token = token.strip()
        m = _PART_TOKEN.match(token)
        if not m:
            raise ValueError(f"bad partition token {_clip(token)!r} at position {position}")
        part, exponent = int(m.group(1)), int(m.group(2) or 1)
        if part < 1 or exponent < 1:  # so that part * exponent bounds the expansion
            raise ValueError(f"bad partition token {_clip(token)!r} at position {position}")
        runs.append((part, exponent))
    return runs


def parse_partition(text: str) -> Partition:
    """Parse "5,1" or the exponent shorthand "2,1^4" (surrounding [] allowed)."""
    return validate_partition([part for part, exponent in _parse_runs(text) for _ in range(exponent)])


def format_partition(lam) -> str:
    """Serialize as a plain comma-separated part list, e.g. "5,1"."""
    return ",".join(str(p) for p in validate_partition(lam))
