"""Spectra of the Cayley graphs Cay(Sym(n), C(n,k)), where C(n,k) is the
conjugacy class of all (n-k)-cycles.

Because the connection set is a full conjugacy class, every irreducible
character chi of Sym(n) contributes one eigenvalue

    xi_chi = chi(sigma) / chi(1) * |C(n,k)|      (sigma any (n-k)-cycle)

with multiplicity chi(1)^2.  All arithmetic is exact; a non-integral
eigenvalue is impossible here and is surfaced as a hard failure.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from functools import partial
from math import comb, factorial, perm
from operator import itemgetter
from typing import Callable, NamedTuple

from .errors import SizeLimitError
from .young import (
    Partition,
    _clip,
    _clip_int,
    _conjugate,
    _dimension_from_beads,
    beta_set,
    enumerate_partitions,
    format_partition,
    validate_partition,
)

DEFAULT_MAX_N = 14
MAX_N_ENV_VAR = "CAYLEY_SPECTRA_MAX_N"

# Defaults of the numpy routes (eigensolve, permutations), kept here so that
# the CLI parser can show them without loading numpy.

#: dense adjacency matrices stop being reasonable past this order
DENSE_ORDER_LIMIT = 1000

#: Lanczos residual tolerance, relative to ||A||_1
DEFAULT_TOL = 1e-9

#: seed of the Lanczos start vector
DEFAULT_SEED = 0x5EED


def class_size(n: int, k: int) -> int:
    """|C(n,k)|: the number of (n-k)-cycles in Sym(n), C(n,k choose) * (n-k-1)!.

    This is also the valency of the Cayley graph.  Requires 0 <= k <= n-2 so
    that an (n-k)-cycle actually moves something.
    """
    _check_range(n, k)
    return comb(n, k) * factorial(n - k - 1)


def _check_range(n: int, k: int) -> None:
    if not 0 <= k <= n - 2:
        raise ValueError(f"need 0 <= k <= n-2, got n = {_clip_int(n)}, k = {_clip_int(k)}")


def resolve_max_n() -> int:
    """Size bound for full-spectrum enumeration: the CAYLEY_SPECTRA_MAX_N
    environment variable (an integer of at least 1), else 14."""
    env = os.environ.get(MAX_N_ENV_VAR)
    if env is not None:
        try:
            bound = int(env)
        except ValueError as exc:
            # int() refuses a well-formed decimal only past the interpreter's digit limit
            if re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", env):
                raise ValueError(
                    f"{MAX_N_ENV_VAR} is too long to read as an integer ({len(env)} characters), "
                    f"got {_clip(env)!r}"
                ) from exc
            raise ValueError(f"{MAX_N_ENV_VAR} must be an integer, got {_clip(env)!r}") from exc
        if bound < 1:  # no spectrum lies below n = 1, and the cap messages echo the bound
            raise ValueError(f"{MAX_N_ENV_VAR} must be at least 1, got {_clip(env)!r}")
        return bound
    return DEFAULT_MAX_N


def _transpose_sign(n: int, k: int) -> int:
    """Sign of an (n-k)-cycle: the factor from chi^lam to chi^lam' on it."""
    return (-1) ** (n - k + 1)


def eigenvalue_for(lam, n: int, k: int) -> int:
    """Exact eigenvalue contributed by the shape ``lam``, from its beta-set alone."""
    lam = validate_partition(lam)
    if sum(lam) != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    _check_range(n, k)
    return _eigenvalue(beta_set(lam), n - k)


def _eigenvalue(beads, m: int) -> int:
    """chi(sigma) |C| / f for the shape whose strictly decreasing beta-set is
    ``beads`` (any sequence of ints) and the class C of m-cycles:
    (1/m) sum_i [b_i]_m prod_{j != i} (b_i - m - b_j) / (b_i - b_j), with
    [b]_m = b(b-1)...(b-m+1).  Term i peels the m-rim hook that moves bead b_i
    to the free position b_i - m, and takes both dimensions from Frobenius'
    formula (James & Kerber 1981, 2.7).  One downward pass: it stops at the
    first bead below m and skips a bead whose target is occupied."""
    num, den = 0, 1  # the running sum over i, as one fraction
    for b in beads:
        target = b - m
        if target < 0:
            break  # the beads decrease, so no later bead has a target either
        if target in beads:
            continue
        term_num, term_den = perm(b, m), 1
        for other in beads:
            if other != b:
                term_num *= target - other
                term_den *= b - other
        num, den = num * term_den + term_num * den, den * term_den
    value, r = divmod(num, den * m)
    if r:
        raise ArithmeticError(f"non-integral eigenvalue for beads {list(beads)} on {m}-cycles: internal bug")
    return value


# The records are named tuples, not dataclasses: dataclasses would import
# inspect, dis, ast and tokenize into every command's start.
class SpectrumEntry(NamedTuple):
    partition: Partition
    eigenvalue: int
    multiplicity: int


class _ShapeTable:
    """The half of full_spectrum at one n that does not depend on k: the shapes
    in ZS1 order, each conjugate pair {lam, lam'} as the indices (i, j) of its
    first and second shape in that order (i == j when lam is self-conjugate),
    and per pair the beta-set of lam and (f^lam)^2.  Built whole by the constructor.

    The beads are bytes, one byte per bead: no bead exceeds n, the hook length
    of cell (1, 1), and bytes() raises ValueError past 255 rather than wrap."""

    def __init__(self, n: int):
        from array import array  # here, like csv: what builds no table (the numpy routes) never loads it

        # enumerate_partitions yields valid shapes only, so no call below revalidates
        shapes = enumerate_partitions(n)
        index = {lam: i for i, lam in enumerate(shapes)}
        seen = bytearray(len(shapes))  # set at the second shape of each pair
        pairs = array("l")  # i0, j0, i1, j1, ...
        beads, squares = [], []
        for i, lam in enumerate(shapes):
            if seen[i]:
                continue
            j = index[_conjugate(lam)]
            seen[j] = 1
            pairs.extend((i, j))
            b = beta_set(lam)
            beads.append(bytes(b))
            squares.append(_dimension_from_beads(b, n) ** 2)
        self.n, self.shapes, self.pairs, self.beads, self.squares = n, shapes, pairs, beads, squares


#: the shape table of the last n that full_spectrum ran at; see _shape_table
_last_table: _ShapeTable | None = None


def _shape_table(n: int) -> _ShapeTable:
    """The shape table at n: the one kept from the last call if it is at n, else
    a new one that replaces it.  A sweep over k at one n thus builds one table,
    and at most one table is alive at any time."""
    global _last_table
    table = _last_table
    if table is None or table.n != n:
        table = _last_table = None  # drop the old table before the new one is built
        table = _last_table = _ShapeTable(n)  # published only once whole
    return table


def full_spectrum(n: int, k: int, max_n: int | None = None) -> list[SpectrumEntry]:
    """Entire spectrum of Cay(Sym(n), C(n,k)), one entry per shape, sorted by
    eigenvalue descending (ties broken by shape enumeration order).

    One pass per conjugate pair {lam, lam'}: f^lam' = f^lam, and chi^lam' is
    chi^lam times the sign (-1)^(m-1) of an m-cycle, m = n - k (James & Kerber
    1981, 2.7).  A shape whose largest hook, its first bead lam_1 + len(lam) - 1,
    is shorter than m has no m-rim hook, so its eigenvalue is 0 without a bead
    scan.  The shapes, the pairs, the beads and the dimensions come from the
    shape table at n, which later calls at the same n reuse.

    The result is checked against the exact trace identities of the adjacency
    matrix A: tr I = n!, tr A = 0 (no (n-k)-cycle is the identity) and
    tr A^2 = n! |C(n,k)| (each vertex has |C(n,k)| closed 2-walks).
    """
    bound = resolve_max_n() if max_n is None else max_n
    if n > bound:
        raise SizeLimitError(
            f"full_spectrum is capped at n <= {_clip_int(bound)} (override with {MAX_N_ENV_VAR}), "
            f"got n = {_clip_int(n)}"
        )
    c = class_size(n, k)  # also the range check on k
    m = n - k
    sign = _transpose_sign(n, k)
    table = _shape_table(n)
    shapes = table.shapes
    entries: list[SpectrumEntry | None] = [None] * len(shapes)
    # (tr I, tr A, tr A^2), summed per pair: a zero eigenvalue adds to tr I only
    trace0 = trace1 = trace2 = 0
    entry = partial(tuple.__new__, SpectrumEntry)  # skips the named tuple's Python-level __new__
    pairs = iter(table.pairs)
    for i, j, beads, square in zip(pairs, pairs, table.beads, table.squares):
        value = _eigenvalue(beads, m) if beads[0] >= m else 0
        entries[i] = entry((shapes[i], value, square))
        copies, twin_sign = 1, 0  # lam' as a second copy, with its sign
        if j != i:
            entries[j] = entry((shapes[j], sign * value, square))
            copies, twin_sign = 2, sign
        trace0 += copies * square
        if value:
            trace1 += (1 + twin_sign) * square * value
            trace2 += copies * square * value * value
    traces = (trace0, trace1, trace2)
    expected = (factorial(n), 0, factorial(n) * c)
    if traces != expected:
        raise ArithmeticError(
            f"spectrum of n = {n}, k = {k} fails the trace identities: "
            f"(tr I, tr A, tr A^2) = {traces}, expected {expected}"
        )
    entries.sort(key=itemgetter(1), reverse=True)  # by eigenvalue; stable, reverse too: ties keep shape order
    return entries


class Lambda2(NamedTuple):
    value: int
    witnesses: tuple[Partition, ...]


def lambda2(n: int, k: int) -> Lambda2:
    """Largest eigenvalue strictly below the valency, with every shape attaining it."""
    entries = full_spectrum(n, k)  # first: its cap comes before any factorial
    c = entries[0].eigenvalue  # the valency, the trivial shape's eigenvalue, is the largest
    below = [e for e in entries if e.eigenvalue < c]
    if not below:  # tr A = 0 forces some eigenvalue below the valency
        raise ArithmeticError(f"no eigenvalue below the valency {c} for n = {n}, k = {k}")
    top = below[0].eigenvalue
    return Lambda2(top, tuple(e.partition for e in below if e.eigenvalue == top))


# ---------------------------------------------------------------------------
# closed forms for the fourteen low-dimension shapes

def _binom(a: int, b: int) -> int:
    """Binomial coefficient as the degree-b polynomial a(a-1)...(a-b+1)/b!.

    Unlike math.comb this is defined for negative upper index (C(-1,2) = 1),
    which the k = 0, 1 closed forms rely on; for 0 <= a < b it is still 0.
    """
    if b < 0:
        raise ValueError(f"lower index must be non-negative, got {b}")
    num = 1
    for i in range(b):
        num *= a - i
    q, r = divmod(num, factorial(b))
    if r:  # b! divides any product of b consecutive integers
        raise ArithmeticError(f"{b}! does not divide the falling factorial of {a}")
    return q


class _ShapeRule(NamedTuple):
    shape_id: str
    min_n: int
    build: Callable[[int], Partition]
    ratio: Callable[[int, int], Fraction]  # eigenvalue / valency, sign included


def _rules() -> dict[str, _ShapeRule]:
    r_n1_1 = lambda n, k: Fraction(k - 1, n - 1)
    r_n2_2 = lambda n, k: Fraction(_binom(k, 2) - k, _binom(n, 2) - n)
    r_n2_11 = lambda n, k: Fraction(_binom(k - 1, 2), _binom(n - 1, 2))
    r_n3_3 = lambda n, k: Fraction(_binom(k, 3) - _binom(k, 2), _binom(n, 3) - _binom(n, 2))
    r_n3_111 = lambda n, k: Fraction(_binom(k - 1, 3), _binom(n - 1, 3))
    r_n3_21 = lambda n, k: Fraction(k * (k - 2) * (k - 4), n * (n - 2) * (n - 4))

    def flip(ratio):
        return lambda n, k: _transpose_sign(n, k) * ratio(n, k)

    rules = [
        _ShapeRule("n", 1, lambda n: (n,), lambda n, k: Fraction(1)),
        _ShapeRule("1^n", 1, lambda n: (1,) * n, lambda n, k: Fraction((-1) ** (n - k - 1))),
        _ShapeRule("n-1,1", 3, lambda n: (n - 1, 1), r_n1_1),
        _ShapeRule("2,1^(n-2)", 3, lambda n: (2,) + (1,) * (n - 2), flip(r_n1_1)),
        _ShapeRule("n-2,2", 5, lambda n: (n - 2, 2), r_n2_2),
        _ShapeRule("2^2,1^(n-4)", 5, lambda n: (2, 2) + (1,) * (n - 4), flip(r_n2_2)),
        _ShapeRule("n-2,1^2", 4, lambda n: (n - 2, 1, 1), r_n2_11),
        _ShapeRule("3,1^(n-3)", 4, lambda n: (3,) + (1,) * (n - 3), flip(r_n2_11)),
        _ShapeRule("n-3,3", 7, lambda n: (n - 3, 3), r_n3_3),
        _ShapeRule("2^3,1^(n-6)", 7, lambda n: (2, 2, 2) + (1,) * (n - 6), flip(r_n3_3)),
        _ShapeRule("n-3,1^3", 5, lambda n: (n - 3, 1, 1, 1), r_n3_111),
        _ShapeRule("4,1^(n-4)", 5, lambda n: (4,) + (1,) * (n - 4), flip(r_n3_111)),
        _ShapeRule("n-3,2,1", 6, lambda n: (n - 3, 2, 1), r_n3_21),
        _ShapeRule("3,2,1^(n-5)", 6, lambda n: (3, 2) + (1,) * (n - 5), flip(r_n3_21)),
    ]
    return {rule.shape_id: rule for rule in rules}


TABLE1_SHAPES: dict[str, _ShapeRule] = _rules()
TABLE1_SHAPE_IDS: tuple[str, ...] = tuple(TABLE1_SHAPES)


def concrete_shape(shape_id: str, n: int) -> Partition:
    """Instantiate one of the fourteen symbolic shapes at a concrete n."""
    rule = TABLE1_SHAPES.get(shape_id)
    if rule is None:
        raise ValueError(f"unknown shape {shape_id!r}; choose one of {', '.join(TABLE1_SHAPE_IDS)}")
    if n < rule.min_n:
        raise ValueError(f"shape {shape_id!r} needs n >= {rule.min_n}, got n = {n}")
    return validate_partition(rule.build(n))


def closed_form_table1(shape_id: str, n: int, k: int) -> int:
    """Closed-form eigenvalue for one of the fourteen low-dimension shapes.

    Exact rational evaluation; a non-integral value raises ArithmeticError,
    also under ``python -O``.  The forms are only *guaranteed* to match the
    character recursion for 3k+1 < n and for k in {0, 1}; see
    :func:`in_asserted_regime`.  Outside it a form need not be an integer,
    e.g. 5/3 for 'n-2,1^2' at n = 5, k = 3.
    """
    concrete_shape(shape_id, n)  # validates the shape id and its minimal n
    value = TABLE1_SHAPES[shape_id].ratio(n, k) * class_size(n, k)
    if value.denominator != 1:
        raise ArithmeticError(f"closed form for {shape_id!r} non-integral at n={n}, k={k}: {value}")
    return int(value)


def in_asserted_regime(n: int, k: int) -> bool:
    """Where the closed forms are proven to equal the character eigenvalues."""
    return 3 * k + 1 < n or k <= 1


# ---------------------------------------------------------------------------
# predicate checks and the lambda2 = (k-1)/(n-1) * valency sweep

class HypothesisFlags(NamedTuple):
    in_main_theorem_range: bool
    unique_rimhook_range: bool
    sqrtkfact_bound_holds: bool


def hypothesis_check(n: int, k: int) -> HypothesisFlags:
    """Predicate triple for the pair (n, k), decided on exact integers only.

    * ``unique_rimhook_range``: 3k+1 < n.
    * ``sqrtkfact_bound_holds``: k! (n-1)^2 <= 9 C(n,3)^2 (the square of
      sqrt(k!) <= 3/(n-1) * C(n,3)), that is k! <= n^2 (n-2)^2 / 4.
    * ``in_main_theorem_range``: k = 2 is its own small case; for k >= 3 it is
      k <= 2 log_{k/e}(n(n-2)/(2e)) - 1, that is (k/e)^((k+1)/2) <= n(n-2)/(2e),
      or 4 k^(k+1) < n^2 (n-2)^2 e^(k-1), decided by :func:`_below_e_power`.
      The right side grows with n, so once the flag holds it holds for every
      larger n.

    Past k = 4 b, b the bit length of n, both bounds fail without k! or k^k
    being built: n^2 (n-2)^2 < n^4 < 2^(4b) <= 2^(k-1), while k! >= 2^(k-1)
    and, as k > 4b >= 8 makes k/e > 2, 4 k^(k+1) / e^(k-1) > (k/e)^(k-1) > 2^(k-1).
    At the cutoff itself k! and k^k stay affordable: n = 10^4300 - 1, the longest n
    the CLI reads, at k = 57,140 takes 0.08 s on a 2-core host.
    """
    if n < 3 or not 0 <= k <= n - 2:
        raise ValueError(f"need n >= 3 and 0 <= k <= n-2, got n = {_clip_int(n)}, k = {_clip_int(k)}")
    unique = 3 * k + 1 < n
    if k > 4 * n.bit_length():
        return HypothesisFlags(False, unique, False)
    sqrt_bound = factorial(k) * (n - 1) ** 2 <= 9 * comb(n, 3) ** 2
    in_range = k == 2 or k > 2 and _below_e_power(4 * k ** (k + 1), (n * (n - 2)) ** 2, k - 1)
    return HypothesisFlags(in_range, unique, sqrt_bound)


def _below_e_power(a: int, b: int, p: int) -> bool:
    """Whether a < b e^p (integers, b > 0, p >= 1), in integers; e^p is irrational.
    First 2 < e < 3, which settles every pair far from the tie.  Then the partial
    sums of e^p = sum_i p^i / i! scaled by J!, A_J = J A_{J-1} + p^J, below e^p J!;
    once J + 2 > p the rest times J! is below p^(J+1) (J+2) / ((J+1) (J+2-p)).
    A step of the sums costs products by small integers only; the bounds, two
    full products, are compared at J = p-1, 2(p-1), 4(p-1), ..."""
    if a <= b << p:
        return True
    if a >= b * 3**p:
        return False
    partial = scale = power = 1  # A_J, J! and p^J at J = 0
    j, check = 0, max(p - 1, 1)
    while True:
        j += 1
        power *= p
        partial = j * partial + power
        scale *= j
        if j == check:
            check *= 2
            if a * scale <= b * partial:
                return True
            tail = -(-power * p * (j + 2) // ((j + 1) * (j + 2 - p)))  # rounded up
            if a * scale >= b * (partial + tail):
                return False


class ConjectureRecord(NamedTuple):
    n: int
    k: int
    expected: int
    value: int
    witnesses: tuple[Partition, ...]
    value_matches: bool
    witness_found: bool

    @property
    def ok(self) -> bool:
        return self.value_matches and self.witness_found


def _conjecture_task(n: int, k: int) -> ConjectureRecord:
    expected = Fraction((k - 1) * class_size(n, k), n - 1)
    if expected.denominator != 1:
        raise ArithmeticError(f"(k-1)/(n-1) * valency is not an integer at n = {n}, k = {k}")
    result = lambda2(n, k)
    return ConjectureRecord(
        n=n,
        k=k,
        expected=int(expected),
        value=result.value,
        witnesses=result.witnesses,
        value_matches=result.value == int(expected),
        witness_found=(n - 1, 1) in result.witnesses,
    )


def conjecture_check(n_max: int) -> list[ConjectureRecord]:
    """Sweep 4 <= n <= n_max, 2 <= k <= n-2: does the second eigenvalue equal
    (k-1)/(n-1) * valency, with [n-1,1] among the witnesses?"""
    if n_max < 4:  # below n = 4 there is no pair to check, and an empty sweep proves nothing
        raise ValueError(f"conjecture_check needs n_max >= 4, got n_max = {_clip_int(n_max)}")
    if n_max > resolve_max_n():
        raise SizeLimitError(
            f"conjecture_check is capped at n <= {_clip_int(resolve_max_n())} "
            f"(override with {MAX_N_ENV_VAR}), got n_max = {_clip_int(n_max)}"
        )
    return [_conjecture_task(n, k) for n in range(4, n_max + 1) for k in range(2, n - 1)]


# ---------------------------------------------------------------------------
# serialization

def spectrum_to_json(n: int, k: int, entries: list[SpectrumEntry]) -> str:
    """Machine format; arbitrarily large integers travel as decimal strings."""
    return json.dumps(
        {
            "n": n,
            "k": k,
            "valency": str(class_size(n, k)),
            "entries": [
                {
                    "partition": format_partition(e.partition),
                    "eigenvalue": str(e.eigenvalue),
                    "multiplicity": str(e.multiplicity),
                }
                for e in entries
            ],
        }
    )


def spectrum_to_csv(entries: list[SpectrumEntry]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["partition", "eigenvalue", "multiplicity"])
    for e in entries:
        writer.writerow([format_partition(e.partition), str(e.eigenvalue), str(e.multiplicity)])
    return buf.getvalue()
