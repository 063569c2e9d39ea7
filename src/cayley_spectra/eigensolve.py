"""Dense and iterative symmetric eigensolvers with a-posteriori certificates.

The iterative path is Lanczos with full reorthogonalization: the graphs here
carry eigenvalues of enormous multiplicity, and without reorthogonalization
ghost copies pollute the Ritz values long before the genuinely second
eigenvalue converges.  The Ritz values are the eigenvalues of the projected
matrix Q A Q^T on the orthonormal basis Q, however Q was built (Parlett, The
Symmetric Eigenvalue Problem, ch. 11 and 13).  Every reported extremal value
is certified after the fact by its residual ||A v - theta v|| <= tol *
||A||_1, and values within 1e-6 of an integer are additionally reported as
exact integers once the certificate holds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SizeLimitError, VerificationError
from .permutations import (
    DENSE_ORDER_LIMIT,
    CayleyOperator,
    GroupSlice,
    Permutation,
    alternating_group,
    cayley_adjacency,
    enumerate_class_cycles,
    t_filtration,
)
from .quotient import quotient_lambda2_recursive
from .spectra import class_size

DEFAULT_TOL = 1e-9
DEFAULT_SEED = 0x5EED
MAX_LANCZOS_ITERATIONS = 500
INTEGRALITY_TOL = 1e-6


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


@dataclass(frozen=True)
class DenseSpectrum:
    values: np.ndarray  # descending
    integers: tuple[int, ...] | None  # present when integrality was requested


def dense_spectrum(source, assume_integral: bool = False) -> DenseSpectrum:
    """All eigenvalues of a symmetric matrix or materializable operator,
    descending.  With ``assume_integral`` every eigenvalue is rounded and the
    rounding error checked below 1e-8."""
    if isinstance(source, np.ndarray):
        op = MatrixOperator(source)
    else:
        op = source
    if op.dim > DENSE_ORDER_LIMIT:
        raise SizeLimitError(f"dense spectra are capped at order {DENSE_ORDER_LIMIT}, got {op.dim}")
    a = np.asarray(op.dense(), dtype=np.float64)
    values = np.linalg.eigvalsh(a)[::-1]
    integers = None
    if assume_integral:
        rounded = np.rint(values)
        worst = float(np.abs(values - rounded).max())
        if worst >= 1e-8:
            raise VerificationError(
                f"spectrum declared integral but an eigenvalue is {worst:.3e} from an integer"
            )
        integers = tuple(int(v) for v in rounded)
    return DenseSpectrum(values=values, integers=integers)


@dataclass(frozen=True)
class ExtremalResult:
    values: tuple[float, ...]  # descending Ritz values
    integers: tuple[int | None, ...]  # rounded where certified and near-integral
    residuals: tuple[float, ...]  # ||A v - theta v||_2 per value
    iterations: int
    converged: bool
    dim: int
    norm_bound: float
    tol: float
    seed: int


def _product(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    # einsum without `optimize` never calls BLAS: a threaded BLAS product on these
    # long vectors leaves its idle threads spinning through the next matvec
    return np.einsum(subscripts, *operands)


def _norm(v: np.ndarray) -> float:
    return float(np.sqrt(_product("i,i", v, v)))


def _check_symmetry(op, rng: np.random.Generator, norm_bound: float) -> None:
    x = rng.standard_normal(op.dim)
    y = rng.standard_normal(op.dim)
    ax, ay = op.matvec(x), op.matvec(y)
    gap = abs(float(_product("i,i", ax, y)) - float(_product("i,i", x, ay)))
    scale = norm_bound * _norm(x) * _norm(y)
    if gap > 1e-10 * max(scale, 1.0):
        raise VerificationError(
            "operator is not symmetric", gap=gap, scale=scale
        )


def extremal_eigenvalues(
    op,
    count: int = 2,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    max_iterations: int = MAX_LANCZOS_ITERATIONS,
) -> ExtremalResult:
    """Top ``count`` eigenvalues of a symmetric operator by Lanczos.

    The two passes that orthogonalize A q_j against the basis Q sum their
    coefficients into column j of the upper triangle of H = Q A Q^T, and the
    Ritz pairs are the eigenpairs of H (Rayleigh-Ritz on the reorthogonalized
    basis).  Deterministic for a fixed seed: the start vector is drawn from
    numpy's seeded generator.  On breakdown the iteration restarts from a
    fresh random direction, so exhausted spectra still expose multiple
    copies.  Non-convergence is reported, never silent.
    """
    dim = op.dim
    if not 1 <= count <= dim:
        raise ValueError(f"need 1 <= count <= dim, got count = {count}, dim = {dim}")
    if not 0 < tol < 1:
        raise ValueError(f"need 0 < tol < 1, got tol = {tol!r}")
    if max_iterations < count:
        raise ValueError(
            f"need max_iterations >= count, got max_iterations = {max_iterations}, count = {count}"
        )
    norm_bound = float(op.one_norm())
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(dim)
    _check_symmetry(op, rng, norm_bound)

    budget = min(max_iterations, dim)
    basis = np.empty((budget, dim), dtype=np.float64)
    columns: list[np.ndarray] = []  # column j of H's upper triangle, rows 0..j
    target = tol * max(norm_bound, 1e-300)
    breakdown_tol = max(norm_bound, 1.0) * 1e-13

    j = 0
    while j < budget:
        for _ in range(2):
            vec = vec - _product("ij,i->j", basis[:j], _product("ij,j->i", basis[:j], vec))
        nrm = _norm(vec)
        if nrm <= breakdown_tol * 10:
            break  # the whole space is spanned
        basis[j] = vec / nrm

        w = op.matvec(basis[j])
        column = np.zeros(j + 1)
        for _ in range(2):
            coefficients = _product("ij,j->i", basis[: j + 1], w)
            w -= _product("ij,i->j", basis[: j + 1], coefficients)
            column += coefficients
        columns.append(column)
        b = _norm(w)
        j += 1

        if j >= count:
            _, vectors = _top_ritz_pairs(columns, count)
            if np.all(b * np.abs(vectors[-1]) <= target):
                break
        vec = w if b > breakdown_tol else rng.standard_normal(dim)

    theta, vectors = _top_ritz_pairs(columns, count)
    values: list[float] = []
    residuals: list[float] = []
    integers: list[int | None] = []
    for value, s in zip(theta.tolist(), vectors.T):
        ritz_vector = _product("ij,i->j", basis[:j], s)
        ritz_vector /= _norm(ritz_vector)
        residual = _norm(op.matvec(ritz_vector) - value * ritz_vector)
        certified = residual <= target
        values.append(value)
        residuals.append(residual)
        nearest = round(value)
        integers.append(nearest if certified and abs(value - nearest) < INTEGRALITY_TOL else None)
    return ExtremalResult(
        values=tuple(values),
        integers=tuple(integers),
        residuals=tuple(residuals),
        iterations=j,
        converged=all(r <= target for r in residuals),
        dim=dim,
        norm_bound=norm_bound,
        tol=tol,
        seed=seed,
    )


def _top_ritz_pairs(columns: list[np.ndarray], count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` largest eigenvalues, descending, and their eigenvectors
    (columns) of the symmetric H whose upper triangle holds ``columns``."""
    h = np.zeros((len(columns), len(columns)))
    for j, column in enumerate(columns):
        h[: j + 1, j] = column
    theta, vectors = np.linalg.eigh(h, UPLO="U")
    return theta[::-1][:count], vectors[:, ::-1][:, :count]


# ---------------------------------------------------------------------------
# the recursive 5-cycle certification pipeline on Alt(8)

RECURSIVE_DEGREE = 8
RECURSIVE_CYCLE_LENGTH = 5
RECURSIVE_MAX_K = 4

LAMBDA2_FORMULA = "n*(n-2)*(n-3)*(n-4)*(n-6)/5"


def five_cycle_lambda2_formula(n: int) -> int:
    """Closed form n(n-2)(n-3)(n-4)(n-6)/5 for the 5-cycle class, n >= 7."""
    if n < 7:
        raise ValueError(f"the 5-cycle closed form needs n >= 7, got {n}")
    value = Fraction(n * (n - 2) * (n - 3) * (n - 4) * (n - 6), 5)
    if value.denominator != 1:
        raise ArithmeticError(f"the 5-cycle closed form is not an integer at n = {n}: {value}")
    return int(value)


@dataclass(frozen=True)
class RecursiveCheckRow:
    k: int
    valency: int
    lambda1_numeric: float
    lambda2_numeric: float
    lambda1: int | None
    lambda2: int | None
    rhs_exact: int
    residuals: tuple[float, float]
    iterations: int
    passed: bool


@dataclass(frozen=True)
class RecursiveCertificate:
    rows: tuple[RecursiveCheckRow, ...]
    tol: float
    seed: int
    lambda2_formula: str

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_json(self) -> str:
        return json.dumps(
            {
                "graphs": f"Cay(Alt({RECURSIVE_DEGREE}), 5-cycles with support covering 1..k)",
                "tol": self.tol,
                "seed": self.seed,
                "rows": [
                    {
                        "k": row.k,
                        "valency": str(row.valency),
                        "lambda1_numeric": row.lambda1_numeric,
                        "lambda2_numeric": row.lambda2_numeric,
                        "lambda1": None if row.lambda1 is None else str(row.lambda1),
                        "lambda2": None if row.lambda2 is None else str(row.lambda2),
                        "rhs_exact": str(row.rhs_exact),
                        "residuals": list(row.residuals),
                        "iterations": row.iterations,
                        "pass": row.passed,
                    }
                    for row in self.rows
                ],
                "certified_lambda2_formula": self.lambda2_formula if self.passed else None,
                "pass": self.passed,
            }
        )


def _depth(t: Permutation) -> int:
    """Largest k <= RECURSIVE_MAX_K with {1..k} inside the support of ``t``."""
    support = t.support()
    depth = 0
    while depth < RECURSIVE_MAX_K and depth + 1 in support:
        depth += 1
    return depth


def filtration_operators(group: GroupSlice, cycles: list[Permutation]) -> list[CayleyOperator]:
    """Operators of Cay(group, T_k ∩ group) for k = 0..RECURSIVE_MAX_K, where
    T_k = ``t_filtration(cycles, k)``.

    The level-0 connection is sorted stably by depth, deepest first, so every
    T_k is a prefix of it and all levels share one neighbor table.
    """
    connection = sorted((t for t in cycles if group.contains(t)), key=_depth, reverse=True)
    full = cayley_adjacency(group, connection)
    counts = [len(t_filtration(connection, k)) for k in range(RECURSIVE_MAX_K + 1)]
    return [full.prefix(count) for count in counts]


def verify_recursive_5cycles(
    tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED
) -> RecursiveCertificate:
    """Numerically certify the five filtered 5-cycle Cayley graphs on Alt(8).

    For k = 0..4 the vertex set is Alt(8) and the connection set keeps the
    5-cycles whose support covers {1..k}.  A Lanczos run produces the top two
    eigenvalues; the second must match, after integer promotion, the exact
    coset-count difference

        |T_k fixing k+1| - |T_k sending k+2 to k+1|

    and the first must match the valency.  Any mismatch raises
    :class:`VerificationError` with the offending k and both values.
    """
    group = alternating_group(RECURSIVE_DEGREE)
    cycles = enumerate_class_cycles(RECURSIVE_DEGREE, RECURSIVE_CYCLE_LENGTH)
    rows: list[RecursiveCheckRow] = []
    for k, operator in enumerate(filtration_operators(group, cycles)):
        result = extremal_eigenvalues(operator, count=2, tol=tol, seed=seed)
        rhs = quotient_lambda2_recursive(operator.connection, group, k)
        lam1, lam2 = result.integers
        passed = (
            result.converged
            and lam1 is not None
            and lam2 is not None
            and lam1 == operator.valency
            and lam2 == rhs
        )
        row = RecursiveCheckRow(
            k=k,
            valency=operator.valency,
            lambda1_numeric=result.values[0],
            lambda2_numeric=result.values[1],
            lambda1=lam1,
            lambda2=lam2,
            rhs_exact=rhs,
            residuals=(result.residuals[0], result.residuals[1]),
            iterations=result.iterations,
            passed=passed,
        )
        rows.append(row)
        if not passed:
            raise VerificationError(
                f"recursive check failed at k = {k}: numeric lambda2 = {result.values[1]!r} "
                f"(lambda1 = {result.values[0]!r}) vs exact coset count {rhs}",
                k=k,
                numeric=result.values,
                exact=rhs,
                rows=tuple(rows),
            )
    certificate = RecursiveCertificate(
        rows=tuple(rows), tol=tol, seed=seed, lambda2_formula=LAMBDA2_FORMULA
    )
    # the certified formula must reproduce the k = 0 row it was verified on
    formula = five_cycle_lambda2_formula(RECURSIVE_DEGREE)
    if formula != rows[0].lambda2:
        raise VerificationError(
            f"the closed form {LAMBDA2_FORMULA} gives {formula} at n = {RECURSIVE_DEGREE}, "
            f"but the certified k = 0 lambda2 is {rows[0].lambda2}",
            formula=formula,
            certified=rows[0].lambda2,
        )
    return certificate
