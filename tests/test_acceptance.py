"""Acceptance gate: one test per headline claim, one PASS/FAIL line each.

Run with `pytest -v` — each criterion is a separate test whose verdict line
is also printed explicitly (visible with -s and in failure reports).
Tolerances are stated inline; everything not explicitly floating-point is
compared exactly.
"""

import json
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from cayley_spectra.characters import mn_character
from cayley_spectra.cli import main as cli_main
from cayley_spectra.eigensolve import (
    dense_spectrum,
    five_cycle_lambda2_formula,
    verify_recursive_5cycles,
)
from cayley_spectra.permutations import (
    cayley_adjacency,
    enumerate_class_cycles,
    symmetric_group,
)
from cayley_spectra.spectra import (
    TABLE1_SHAPES,
    class_size,
    closed_form_table1,
    concrete_shape,
    eigenvalue_for,
    full_spectrum,
    lambda2,
)
from cayley_spectra.young import dimension, enumerate_partitions, transpose
from oracles import conjugacy_class_size, coset_cells, enumerate_rim_hooks, verify_equitable


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_1_lambda2_formula_reproduction():
    """lambda2 = (k-1)/(n-1) * valency with [n-1,1] among the witnesses, exact."""
    with criterion("lambda2 formula 3<=n<=10"):
        for n in range(3, 11):
            for k in range(2, n - 1):
                r = lambda2(n, k)
                expected = Fraction((k - 1) * class_size(n, k), n - 1)
                assert expected.denominator == 1
                assert r.value == expected
                assert (n - 1, 1) in r.witnesses, (n, k)


@pytest.mark.slow
def test_1_optional_extension_to_14():
    with criterion("lambda2 formula extension 11<=n<=14"):
        for n in range(11, 15):
            for k in range(2, n - 1):
                r = lambda2(n, k)
                assert r.value == Fraction((k - 1) * class_size(n, k), n - 1)
                assert (n - 1, 1) in r.witnesses, (n, k)


def test_2_full_and_almost_full_support_cases():
    """Closed values for k = 0 and k = 1, parity-split, 5 <= n <= 10, exact."""
    with criterion("k<=1 closed values"):
        for n in range(5, 11):
            v0 = lambda2(n, 0).value
            assert v0 == (factorial(n - 2) if n % 2 == 0 else 2 * factorial(n - 3)), n
            v1 = lambda2(n, 1).value
            assert v1 == (
                3 * (n - 3) * factorial(n - 5)
                if n % 2 == 0
                else 2 * (n - 2) * factorial(n - 4)
            ), n


def test_3_recursive_5cycle_certification(capsys):
    """Five filtered 5-cycle graphs on Alt(8): Lanczos at tol 1e-9, integer
    promotion within 1e-6, coset-count second eigenvalue matched exactly."""
    with criterion("recursive 5-cycle certification"):
        report = verify_recursive_5cycles()
        assert report.passed
        table = [(row.k, int(row.lambda1), int(row.lambda2)) for row in report.rows]
        assert table == [
            (0, 1344, 384),
            (1, 840, 300),
            (2, 480, 216),
            (3, 240, 138),
            (4, 96, 72),
        ]
        for row in report.rows:
            assert row.lambda2 == row.rhs_exact
            assert abs(row.lambda1_numeric - float(row.valency)) < 1e-6
            assert abs(row.lambda2_numeric - float(row.rhs_exact)) < 1e-6
        # the CLI front door agrees and exits 0
        code = cli_main(["verify-recursive-5cycles", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [r["rhs_exact"] for r in doc["rows"]] == ["384", "300", "216", "138", "72"]
        assert all(r["pass"] for r in doc["rows"])


def test_4_five_cycle_formula():
    """n(n-2)(n-3)(n-4)(n-6)/5: value at n=8 and identity with the [n-1,1]
    closed form at k = n-5, both as exact rationals."""
    with criterion("5-cycle lambda2 formula"):
        assert five_cycle_lambda2_formula(8) == 384
        for n in range(8, 13):
            assert five_cycle_lambda2_formula(n) == closed_form_table1("n-1,1", n, n - 5), n


def test_5_known_value_oracles():
    """Spot values from independent earlier computations of these graphs."""
    with criterion("known lambda2 oracles"):
        assert lambda2(6, 4).value == comb(6, 2) - 6 == 9
        assert lambda2(8, 4).value == 8 * 6 * 5 * 3 // 4 == 180
        assert lambda2(7, 4).value == 7 * 5 * 3 // 3 == 35


def _dense_matches_characters(n, k):
    op = cayley_adjacency(symmetric_group(n), enumerate_class_cycles(n, n - k))
    d = dense_spectrum(op, assume_integral=True)
    expected = []
    for e in full_spectrum(n, k):
        expected.extend([int(e.eigenvalue)] * e.multiplicity)
    expected.sort(reverse=True)
    assert list(d.integers) == expected
    assert float(np.abs(d.values - np.array(expected, dtype=float)).max()) <= 1e-8


def test_6_brute_force_equivalence():
    """Dense adjacency spectrum == character spectrum, multiset with
    multiplicities f^2, tolerance 1e-8 before rounding; n <= 5 here."""
    with criterion("brute-force equivalence n<=5"):
        for n in (3, 4, 5):
            for k in range(n - 1):
                _dense_matches_characters(n, k)


@pytest.mark.slow
def test_6_brute_force_equivalence_n6():
    with criterion("brute-force equivalence n=6"):
        for k in range(5):
            _dense_matches_characters(6, k)


def test_7_property_suites():
    """Structural identities, all exact."""
    with criterion("property suites"):
        # character-table row orthogonality, n <= 8
        for n in range(1, 9):
            types = enumerate_partitions(n)
            sizes = [conjugacy_class_size(t) for t in types]
            rows = {lam: [mn_character(lam, t) for t in types] for lam in types}
            for lam in types:
                for mu in types:
                    s = sum(z * a * b for z, a, b in zip(sizes, rows[lam], rows[mu]))
                    assert s == (factorial(n) if lam == mu else 0)
        # rim-hook uniqueness under 3k+1 < n, n <= 18
        for n in range(4, 19):
            for k in range((n - 1) // 3):
                if 3 * k + 1 >= n:
                    continue
                for lam in enumerate_partitions(n):
                    assert len(enumerate_rim_hooks(lam, n - k)) <= 1
        # sum of squared dimensions
        for n in range(1, 13):
            assert sum(dimension(lam) ** 2 for lam in enumerate_partitions(n)) == factorial(n)
        # trace, second moment, bipartite symmetry, transpose pairing
        for n in range(2, 8):
            for k in range(n - 1):
                entries = full_spectrum(n, k)
                assert sum(e.multiplicity * e.eigenvalue for e in entries) == 0
                assert sum(e.multiplicity * e.eigenvalue**2 for e in entries) == (
                    factorial(n) * class_size(n, k)
                )
                values = {e.partition: e.eigenvalue for e in entries}
                sign = (-1) ** (n - k - 1)
                for lam, xi in values.items():
                    assert values[transpose(lam)] == sign * xi
                if (n - k) % 2 == 0:
                    flat = sorted(
                        v for e in entries for v in [e.eigenvalue] * e.multiplicity
                    )
                    assert flat == sorted(-v for v in flat)
        # equitable coset partitions at n = 4, 5
        for n in (4, 5):
            for k in range(n - 1):
                op = cayley_adjacency(symmetric_group(n), enumerate_class_cycles(n, n - k))
                assert verify_equitable(op, coset_cells(op, 1))


def test_8_closed_form_table_agreement():
    """All fourteen closed forms equal the recursion-computed eigenvalue,
    6 <= n <= 14, every k with 3k+1 < n, exact."""
    with criterion("closed-form table agreement"):
        for n in range(6, 15):
            for k in range(n - 1):
                if 3 * k + 1 >= n:
                    continue
                for shape_id, rule in TABLE1_SHAPES.items():
                    if n < rule.min_n:
                        continue
                    lam = concrete_shape(shape_id, n)
                    assert closed_form_table1(shape_id, n, k) == eigenvalue_for(lam, n, k), (
                        shape_id,
                        n,
                        k,
                    )
