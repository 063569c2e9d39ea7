"""Dense and iterative eigensolvers plus the 5-cycle certification helpers.

Fixtures with hand-checkable spectra: the complete graph K4 (3, -1, -1, -1),
the 6-cycle (2, 1, 1, -1, -1, -2), and Cay(Sym(5), 4-cycles) whose exact
spectrum comes from the character route.
"""

from fractions import Fraction

import numpy as np
import pytest

from cayley_spectra.eigensolve import (
    DEFAULT_SEED,
    MatrixOperator,
    dense_spectrum,
    extremal_eigenvalues,
    filtration_operators,
    five_cycle_lambda2_formula,
)
from cayley_spectra.errors import SizeLimitError, VerificationError
from cayley_spectra.permutations import (
    alternating_group,
    cayley_adjacency,
    enumerate_class_cycles,
    symmetric_group,
    t_filtration,
)

K4 = np.ones((4, 4)) - np.eye(4)


def ring(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1
    return a


def gamma51():
    return cayley_adjacency(symmetric_group(5), enumerate_class_cycles(5, 4))


def test_dense_spectrum_k4():
    d = dense_spectrum(K4, assume_integral=True)
    assert list(d.integers) == [3, -1, -1, -1]
    assert np.allclose(d.values, [3, -1, -1, -1])


def test_dense_spectrum_gamma31():
    op = cayley_adjacency(symmetric_group(3), enumerate_class_cycles(3, 2))
    d = dense_spectrum(op, assume_integral=True)
    assert list(d.integers) == [3, 0, 0, 0, 0, -3]


def test_dense_spectrum_descending_without_rounding():
    d = dense_spectrum(np.diag([0.5, -0.25, 2.0]))
    assert d.integers is None
    assert np.allclose(d.values, [2.0, 0.5, -0.25])


def test_dense_spectrum_integrality_failure():
    with pytest.raises(VerificationError):
        dense_spectrum(np.diag([0.5, 0.25]), assume_integral=True)


def test_dense_spectrum_order_cap():
    with pytest.raises(SizeLimitError):
        dense_spectrum(np.eye(1001))


def test_extremal_k4():
    res = extremal_eigenvalues(MatrixOperator(K4), count=2)
    assert res.converged
    assert res.integers == (3, -1)
    assert all(r <= res.tol * res.norm_bound for r in res.residuals)


def test_extremal_ring6():
    res = extremal_eigenvalues(MatrixOperator(ring(6)), count=2)
    assert res.converged
    assert res.integers == (2, 1)


def test_extremal_gamma51():
    res = extremal_eigenvalues(gamma51(), count=2)
    assert res.converged
    assert res.integers == (30, 6)
    assert res.iterations <= 60


def test_extremal_seed_independent_result():
    a = extremal_eigenvalues(gamma51(), count=2, seed=DEFAULT_SEED)
    b = extremal_eigenvalues(gamma51(), count=2, seed=12345)
    assert a.integers == b.integers
    assert np.allclose(a.values, b.values, atol=1e-7)


def test_extremal_reports_non_convergence():
    res = extremal_eigenvalues(gamma51(), count=2, max_iterations=3)
    assert not res.converged
    assert res.iterations == 3


def test_extremal_restarts_after_breakdown():
    # every start vector is an eigenvector of I: the second value needs a restart
    res = extremal_eigenvalues(MatrixOperator(np.eye(3)), count=2)
    assert res.converged
    assert res.integers == (1, 1)
    assert res.iterations == 2


@pytest.mark.parametrize("count", [3, 4])
def test_extremal_restarts_expose_repeated_eigenvalues(count):
    # the Krylov space of K4 has dimension 2, so each further -1 is a restart
    res = extremal_eigenvalues(MatrixOperator(K4), count=count)
    assert res.converged
    assert res.integers == (3, -1, -1, -1)[:count]
    assert all(r <= res.tol * res.norm_bound for r in res.residuals)


class CountingOperator(MatrixOperator):
    def __init__(self, matrix):
        super().__init__(matrix)
        self.matvecs = 0

    def matvec(self, x):
        self.matvecs += 1
        return super().matvec(x)


@pytest.mark.parametrize("max_iterations", [0, 1, -3])
def test_extremal_rejects_budget_below_count(max_iterations):
    op = CountingOperator(K4)
    with pytest.raises(ValueError, match="max_iterations"):
        extremal_eigenvalues(op, count=2, max_iterations=max_iterations)
    assert op.matvecs == 0


def test_extremal_rejects_asymmetric_operator():
    bad = np.zeros((5, 5))
    bad[0, 1] = 1.0
    with pytest.raises(VerificationError):
        extremal_eigenvalues(MatrixOperator(bad), count=1)


def test_extremal_count_validation():
    with pytest.raises(ValueError):
        extremal_eigenvalues(MatrixOperator(K4), count=0)
    with pytest.raises(ValueError):
        extremal_eigenvalues(MatrixOperator(K4), count=5)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0, 1.0])
def test_extremal_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol"):
        extremal_eigenvalues(gamma51(), count=2, tol=tol)


def test_matrix_operator_requires_square():
    with pytest.raises(ValueError):
        MatrixOperator(np.ones((2, 3)))


def test_five_cycle_formula():
    assert five_cycle_lambda2_formula(8) == 384
    assert five_cycle_lambda2_formula(12) == Fraction(12 * 10 * 9 * 8 * 6, 5)
    assert five_cycle_lambda2_formula(12) == 10368
    with pytest.raises(ValueError):
        five_cycle_lambda2_formula(6)


def test_filtration_levels_are_prefixes_of_one_table():
    group = alternating_group(8)
    cycles = enumerate_class_cycles(8, 5)
    operators = filtration_operators(group, cycles)
    table = operators[0]._neighbor_rows()
    x = np.random.default_rng(3).standard_normal(group.order)
    assert len(operators) == 5
    for k, op in enumerate(operators):
        connection = [t for t in t_filtration(cycles, k) if group.contains(t)]
        fresh = cayley_adjacency(group, connection)
        rows = op._neighbor_rows()
        assert np.shares_memory(rows, table)
        position = {t: i for i, t in enumerate(op.connection)}
        assert sorted(position.values()) == list(range(len(connection)))
        # the same rows as the fresh build, matched element by element
        assert np.array_equal(rows[[position[t] for t in connection]], fresh._neighbor_rows())
        # the sums run in another order: at most 1344 terms of size ~4, so 1e-9 is loose
        assert np.allclose(op.matvec(x), fresh.matvec(x), rtol=0, atol=1e-9)
