"""Spectra of the Cayley graphs Cay(Sym(n), C(n,k)), where C(n,k) is the
conjugacy class of all (n-k)-cycles.

Because the connection set is a full conjugacy class, every irreducible
character chi of Sym(n) contributes one eigenvalue

    xi_chi = chi(sigma) / chi(1) * |C(n,k)|      (sigma any (n-k)-cycle)

with multiplicity chi(1)^2.  All arithmetic is exact; a non-integral
eigenvalue is impossible here and is surfaced as a hard failure.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod
from typing import Callable

from .errors import SizeLimitError
from .young import (
    Partition,
    beta_set,
    dimension,
    enumerate_partitions,
    format_partition,
    validate_partition,
)

DEFAULT_MAX_N = 14
MAX_N_ENV_VAR = "CAYLEY_SPECTRA_MAX_N"


def class_size(n: int, k: int) -> int:
    """|C(n,k)|: the number of (n-k)-cycles in Sym(n), C(n,k choose) * (n-k-1)!.

    This is also the valency of the Cayley graph.  Requires 0 <= k <= n-2 so
    that an (n-k)-cycle actually moves something.
    """
    if not 0 <= k <= n - 2:
        raise ValueError(f"need 0 <= k <= n-2, got n = {n}, k = {k}")
    return comb(n, k) * factorial(n - k - 1)


def resolve_max_n(explicit: int | None = None) -> int:
    """Size bound for full-spectrum enumeration: explicit argument, else the
    CAYLEY_SPECTRA_MAX_N environment variable, else 14."""
    if explicit is not None:
        return explicit
    env = os.environ.get(MAX_N_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"{MAX_N_ENV_VAR} must be an integer, got {env!r}") from exc
    return DEFAULT_MAX_N


def eigenvalue_for(lam, n: int, k: int) -> int:
    """Exact eigenvalue contributed by the shape ``lam``, from its beta-set alone."""
    lam = validate_partition(lam)
    if sum(lam) != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    class_size(n, k)  # the range check on k
    return _eigenvalue(lam, n - k)


def _eigenvalue(lam: Partition, m: int) -> int:
    """chi(sigma) |C| / f for the validated shape ``lam`` and the class C of
    m-cycles: (1/m) sum_i [b_i]_m prod_{j != i} (b_i - m - b_j) / (b_i - b_j)
    over the beta-set b, with [b]_m = b(b-1)...(b-m+1).  Term i peels the
    m-rim hook that moves bead b_i to the free position b_i - m, and takes both
    dimensions from Frobenius' formula (James & Kerber 1981, 2.7)."""
    beads = beta_set(lam)
    num, den = 0, 1  # the running sum over i, as one fraction
    for b in beads:
        target = b - m
        if target < 0 or target in beads:
            continue
        term_num, term_den = prod(range(b, target, -1)), 1
        for other in beads:
            if other != b:
                term_num *= target - other
                term_den *= b - other
        num, den = num * term_den + term_num * den, den * term_den
    value, r = divmod(num, den * m)
    if r:
        raise ArithmeticError(f"non-integral eigenvalue for shape {lam} on {m}-cycles: internal bug")
    return value


@dataclass(frozen=True)
class SpectrumEntry:
    partition: Partition
    eigenvalue: int
    multiplicity: int


def full_spectrum(n: int, k: int, max_n: int | None = None) -> list[SpectrumEntry]:
    """Entire spectrum of Cay(Sym(n), C(n,k)), one entry per shape, sorted by
    eigenvalue descending (ties broken by shape enumeration order).

    The result is checked against the exact trace identities of the adjacency
    matrix A: tr I = n!, tr A = 0 (no (n-k)-cycle is the identity) and
    tr A^2 = n! |C(n,k)| (each vertex has |C(n,k)| closed 2-walks).
    """
    bound = resolve_max_n(max_n)
    if n > bound:
        raise SizeLimitError(
            f"full_spectrum is capped at n <= {bound} (override with {MAX_N_ENV_VAR}), got n = {n}"
        )
    c = class_size(n, k)  # also the range check on k
    shapes = enumerate_partitions(n)
    entries = [SpectrumEntry(lam, _eigenvalue(lam, n - k), dimension(lam) ** 2) for lam in shapes]
    traces = tuple(sum(e.multiplicity * e.eigenvalue**p for e in entries) for p in range(3))
    expected = (factorial(n), 0, factorial(n) * c)
    if traces != expected:
        raise ArithmeticError(
            f"spectrum of n = {n}, k = {k} fails the trace identities: "
            f"(tr I, tr A, tr A^2) = {traces}, expected {expected}"
        )
    entries.sort(key=lambda e: -e.eigenvalue)  # stable: ties keep shape order
    return entries


@dataclass(frozen=True)
class Lambda2:
    value: int
    witnesses: tuple[Partition, ...]


def lambda2(n: int, k: int, max_n: int | None = None) -> Lambda2:
    """Largest eigenvalue strictly below the valency, with every shape attaining it."""
    c = class_size(n, k)
    below = [e for e in full_spectrum(n, k, max_n=max_n) if e.eigenvalue < c]
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


@dataclass(frozen=True)
class _ShapeRule:
    shape_id: str
    min_n: int
    build: Callable[[int], Partition]
    ratio: Callable[[int, int], Fraction]  # eigenvalue / valency, sign included


def _transpose_sign(n: int, k: int) -> int:
    return (-1) ** (n - k + 1)


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

    Exact rational evaluation, asserted integral.  The forms are only
    *guaranteed* to match the character recursion for 3k+1 < n and for
    k in {0, 1}; see :func:`in_asserted_regime`.
    """
    concrete_shape(shape_id, n)  # validates the shape id and its minimal n
    rule = TABLE1_SHAPES[shape_id]
    value = rule.ratio(n, k) * class_size(n, k)
    if value.denominator != 1:
        raise ArithmeticError(f"closed form for {shape_id!r} non-integral at n={n}, k={k}: {value}")
    return int(value)


def in_asserted_regime(n: int, k: int) -> bool:
    """Where the closed forms are proven to equal the character eigenvalues."""
    return 3 * k + 1 < n or k <= 1


def low_dimension_partitions(n: int) -> list[Partition]:
    """The fourteen concrete shapes at n (those valid at this n, deduplicated)."""
    out: dict[Partition, None] = {}
    for shape_id, rule in TABLE1_SHAPES.items():
        if n >= rule.min_n:
            out[validate_partition(rule.build(n))] = None
    return list(out)


# ---------------------------------------------------------------------------
# predicate checks and the lambda2 = (k-1)/(n-1) * valency sweep

@dataclass(frozen=True)
class HypothesisFlags:
    in_main_theorem_range: bool
    unique_rimhook_range: bool
    sqrtkfact_bound_holds: bool


def hypothesis_check(n: int, k: int) -> HypothesisFlags:
    """Predicate triple for the pair (n, k).

    * ``unique_rimhook_range``: 3k+1 < n, exact integers.
    * ``sqrtkfact_bound_holds``: k! (n-1)^2 <= 9 C(n,3)^2, exact integers
      (the square of sqrt(k!) <= 3/(n-1) * C(n,3)).
    * ``in_main_theorem_range``: k = 2 is its own small case; for k >= 3 it is
      k <= 2 log_{k/e}(n(n-2)/(2e)) - 1, that is (k/e)^((k+1)/2) <= n(n-2)/(2e),
      decided exactly as 4 k^(k+1) < n^2 (n-2)^2 e^(k-1).  The right side grows
      with n, so once the flag holds it holds for every larger n.
    """
    if n < 3 or not 0 <= k <= n - 2:
        raise ValueError(f"need n >= 3 and 0 <= k <= n-2, got n = {n}, k = {k}")
    unique = 3 * k + 1 < n
    sqrt_bound = factorial(k) * (n - 1) ** 2 <= 9 * comb(n, 3) ** 2
    in_range = k == 2 or (k > 2 and _below_e_power(4 * k ** (k + 1), (n * (n - 2)) ** 2, k - 1))
    return HypothesisFlags(in_range, unique, sqrt_bound)


def _below_e_power(a: int, b: int, p: int) -> bool:
    """Whether a < b e^p (integers, b > 0, p >= 1), from bounds s_j < e < s_j + 1/(j j!)
    with s_j = sum_{i<=j} 1/i!, refined until they separate; e^p is irrational."""
    term = lower = Fraction(1)
    j = 0
    while True:
        j += 1
        term /= j
        lower += term
        if a <= b * lower**p:
            return True
        if a >= b * (lower + term / j) ** p:
            return False


@dataclass(frozen=True)
class ConjectureRecord:
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
        raise ValueError(f"conjecture_check needs n_max >= 4, got n_max = {n_max}")
    if n_max > resolve_max_n(None):
        raise SizeLimitError(
            f"conjecture_check is capped at n <= {resolve_max_n(None)} "
            f"(override with {MAX_N_ENV_VAR}), got n_max = {n_max}"
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["partition", "eigenvalue", "multiplicity"])
    for e in entries:
        writer.writerow([format_partition(e.partition), str(e.eigenvalue), str(e.multiplicity)])
    return buf.getvalue()
