"""Dense and iterative eigensolvers plus the 5-cycle certification helpers.

Fixtures with hand-checkable spectra: the complete graph K4 (3, -1, -1, -1),
the 6-cycle (2, 1, 1, -1, -1, -2), and Cay(Sym(5), 4-cycles) whose exact
spectrum comes from the character route.
"""

import functools
import itertools
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from cayley_spectra import eigensolve
from cayley_spectra.eigensolve import (
    DEFAULT_SEED,
    RECURSIVE_SUBGROUP,
    dense_spectrum,
    extremal_eigenvalues,
    filtration_operators,
    five_cycle_lambda2_formula,
)
from cayley_spectra.errors import SizeLimitError, VerificationError
from cayley_spectra.permutations import (
    CayleyOperator,
    Permutation,
    _compose,
    _factor_rows,
    _RankLookup,
    _split,
    alternating_group,
    cayley_adjacency,
    enumerate_class_cycles,
    symmetric_group,
)
from cayley_spectra.quotient import quotient_lambda2_recursive
from oracles import MatrixOperator, members, t_filtration

K4 = np.ones((4, 4)) - np.eye(4)


def ring(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1
    return a


def gamma51():
    return cayley_adjacency(symmetric_group(5), enumerate_class_cycles(5, 4))


def test_dense_spectrum_k4():
    d = dense_spectrum(MatrixOperator(K4), assume_integral=True)
    assert list(d.integers) == [3, -1, -1, -1]
    assert np.allclose(d.values, [3, -1, -1, -1])


def test_dense_spectrum_gamma31():
    op = cayley_adjacency(symmetric_group(3), enumerate_class_cycles(3, 2))
    d = dense_spectrum(op, assume_integral=True)
    assert list(d.integers) == [3, 0, 0, 0, 0, -3]


def test_dense_spectrum_descending_without_rounding():
    d = dense_spectrum(MatrixOperator(np.diag([0.5, -0.25, 2.0])))
    assert d.integers is None
    assert np.allclose(d.values, [2.0, 0.5, -0.25])


def test_dense_spectrum_integrality_failure():
    with pytest.raises(VerificationError):
        dense_spectrum(MatrixOperator(np.diag([0.5, 0.25])), assume_integral=True)


def test_dense_spectrum_order_cap():
    with pytest.raises(SizeLimitError):
        dense_spectrum(MatrixOperator(np.eye(1001)))


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


def test_extremal_returns_two_values_by_default():
    res = extremal_eigenvalues(MatrixOperator(K4))
    assert len(res.values) == len(res.residuals) == 2
    assert res.integers == (3, -1)


def test_extremal_accepts_tol_of_float64_eps():
    # eps is the smallest tolerance accepted; the run need not converge to it
    res = extremal_eigenvalues(MatrixOperator(K4), count=2, tol=np.finfo(np.float64).eps)
    assert res.tol == np.finfo(np.float64).eps


def test_extremal_accepts_a_budget_equal_to_count():
    res = extremal_eigenvalues(MatrixOperator(K4), count=2, max_iterations=2)
    assert res.iterations == 2 and len(res.values) == 2


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


@pytest.mark.parametrize(
    "operator, restarts",
    [(gamma51, 0), (lambda: MatrixOperator(np.eye(3)), 1)],
    ids=["gamma51", "identity-restart"],
)
def test_extremal_orthogonalizes_a_new_start_only_after_a_breakdown(monkeypatch, operator, restarts):
    # A q_j is orthogonalized twice against the basis; the next step takes it as
    # it is, and only a fresh random start needs its own two passes
    projections = []
    product = eigensolve._product

    def counting(subscripts, *operands):
        projections.append(subscripts == "ij,j->i")
        return product(subscripts, *operands)

    monkeypatch.setattr(eigensolve, "_product", counting)
    res = extremal_eigenvalues(operator(), count=2)
    assert res.converged
    assert sum(projections) == 2 * res.iterations + 2 * restarts


ALT8_SUBGROUP = [Permutation.parse(h, degree=8) for h in RECURSIVE_SUBGROUP]

#: Lanczos seeds: the default, then those of the alt8-certify benchmark,
#: random.Random(s).getrandbits(32) for s = 0..9
ALT8_SEEDS = [DEFAULT_SEED] + [random.Random(s).getrandbits(32) for s in range(10)]


#: Lanczos iterations per level k = 0..4 for each of ALT8_SEEDS, in order
ALT8_ITERATIONS = [
    (7, 12, 14, 16, 19),
    (7, 12, 14, 16, 18),
    (7, 13, 14, 16, 18),
    (7, 12, 14, 16, 18),
    (7, 13, 14, 16, 18),
    (7, 13, 14, 16, 18),
    (7, 12, 14, 16, 18),
    (7, 12, 14, 16, 18),
    (7, 13, 14, 16, 18),
    (7, 12, 14, 16, 18),
    (7, 12, 14, 16, 17),
]


@functools.cache
def alt8_certificate(seed):
    return eigensolve.verify_recursive_5cycles(seed=seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", ALT8_SEEDS)
def test_alt8_certificate_iterations_and_values_per_seed(seed):
    cert = alt8_certificate(seed)
    assert cert.passed
    assert (cert.vertices, cert.subgroup) == (
        840, "right cosets of ⟨(1 2 3 4)(5 6 7 8), (1 2)(5 6)⟩"
    )
    assert tuple(row.iterations for row in cert.rows) == ALT8_ITERATIONS[ALT8_SEEDS.index(seed)]
    assert [(row.lambda1, row.lambda2) for row in cert.rows] == [
        (1344, 384), (840, 300), (480, 216), (240, 138), (96, 72)
    ]
    assert all(r <= cert.tol * row.valency for row in cert.rows for r in row.residuals)


@pytest.mark.slow
def test_alt8_residuals_stop_at_half_the_target():
    # Lanczos stops when its residual estimates reach half of tol * valency, so
    # the certified residuals keep a margin below the target on every seed
    ratios = [
        r / (cert.tol * row.valency)
        for cert in map(alt8_certificate, ALT8_SEEDS)
        for row in cert.rows
        for r in row.residuals
    ]
    assert max(ratios) <= 0.55


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
def test_extremal_stops_at_half_the_target(tol):
    # eigenvalues t^3 on [0, 1]: slow enough convergence that the step before
    # the stop is already inside the target but not yet inside half of it
    op = MatrixOperator(np.diag(np.linspace(0, 1, 300) ** 3))
    res = extremal_eigenvalues(op, count=2, tol=tol)
    shorter = extremal_eigenvalues(op, count=2, tol=tol, max_iterations=res.iterations - 1)
    target = tol * res.norm_bound
    assert res.converged and max(res.residuals) <= 0.5 * target
    assert shorter.converged and max(shorter.residuals) > 0.5 * target


class CountingOperator(MatrixOperator):
    def __init__(self, matrix):
        super().__init__(matrix)
        self.matvecs = 0

    def matvec(self, x):
        self.matvecs += 1
        return super().matvec(x)


def test_extremal_rejects_a_negative_seed_before_any_matvec():
    op = CountingOperator(K4)
    with pytest.raises(ValueError, match=r"^need seed >= 0, got -1$"):
        extremal_eigenvalues(op, count=2, seed=-1)
    assert op.matvecs == 0


def test_extremal_seeds_with_random_random_and_leaves_numpy_random_unused(monkeypatch):
    # the start vector and the two symmetry-check vectors are the first 3 * dim
    # draws of random.Random(seed), shifted by -1/2
    class Recording(MatrixOperator):
        def matvec(self, x):
            seen.append(np.array(x))
            return super().matvec(x)

    seen = []
    monkeypatch.delattr(np, "random")
    extremal_eigenvalues(Recording(ring(6)), count=2, seed=7)
    rng = random.Random(7)
    start, x, y = (np.array([rng.random() for _ in range(6)]) - 0.5 for _ in range(3))
    assert np.array_equal(seen[0], x) and np.array_equal(seen[1], y)
    assert np.allclose(seen[2], start / np.linalg.norm(start), rtol=0, atol=1e-15)


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


@pytest.mark.parametrize(
    "tol", [float("nan"), float("inf"), 0.0, -1.0, 1.0, 1e-300, np.finfo(np.float64).eps / 2]
)
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
    heads, tails, pairs = operators[0]._factor_rows()
    x = np.random.default_rng(3).standard_normal(operators[0].dim)
    assert len(operators) == 5
    for k, op in enumerate(operators):
        assert op.dim == group.order // 24
        connection = [t for t in t_filtration(cycles, k) if group.contains(t)]
        fresh = cayley_adjacency(group, connection, ALT8_SUBGROUP)
        level_heads, level_tails, level_pairs = op._factor_rows()
        assert np.shares_memory(level_heads, heads)
        assert np.shares_memory(level_tails, tails)
        assert np.shares_memory(level_pairs, pairs)
        position = {t: i for i, t in enumerate(op.connection)}
        assert sorted(position.values()) == list(range(len(connection)))
        # the same rows as the fresh build, matched element by element
        rows = _compose(level_heads, level_tails, level_pairs)
        fresh_rows = _compose(*fresh._factor_rows())
        assert np.array_equal(rows[[position[t] for t in connection]], fresh_rows)
        # the sums run in another order: at most 1344 terms of size ~4, so 1e-9 is loose
        assert np.allclose(op.matvec(x), fresh.matvec(x), rtol=0, atol=1e-9)


@pytest.mark.slow
def test_alt9_levels_keep_the_standard_lambda2():
    # the largest degree whose member keys the int32 ranks must hold: 7560 cosets
    group = alternating_group(9)
    operators = filtration_operators(group, enumerate_class_cycles(9, 5))
    found = []
    for k, op in enumerate(operators):
        assert op.dim == 7560
        result = extremal_eigenvalues(op, count=2)
        assert result.converged
        assert result.integers[1] == quotient_lambda2_recursive(op.connection, group, k)
        found.append(tuple(result.integers))
    assert found == [(3024, 1134), (1680, 750), (840, 450), (360, 234), (120, 96)]


@pytest.mark.parametrize("n, length", [(7, 3), (7, 5), (8, 5)])
def test_levels_take_their_prefix_counts_from_the_depths(n, length):
    group = alternating_group(n)
    cycles = enumerate_class_cycles(n, length)
    connection, counts = eigensolve._levels(group, cycles)
    assert connection == sorted(
        (t for t in cycles if group.contains(t)), key=eigensolve._depth, reverse=True
    )
    assert counts == [len(t_filtration(connection, k)) for k in range(eigensolve.RECURSIVE_MAX_K + 1)]
    for k, count in enumerate(counts):
        # T_k is exactly the prefix: the members of depth >= k come first
        assert connection[:count] == t_filtration(connection, k)


def test_recursive_check_names_an_integer_mismatch(monkeypatch):
    exact = eigensolve.quotient_lambda2_recursive
    monkeypatch.setattr(
        eigensolve, "quotient_lambda2_recursive", lambda *args: exact(*args) + 1
    )
    with pytest.raises(VerificationError) as info:
        eigensolve.verify_recursive_5cycles()
    message = str(info.value)
    assert message.startswith("recursive check failed at k = 0: integer mismatch: lambda1 = 1344 ")
    assert "vs valency 1344, lambda2 = 384 (numeric 38" in message
    assert message.endswith(") vs exact coset count 385")
    assert "converge" not in message
    assert info.value.context["exact"] == 385


def test_alt8_levels_match_the_composed_table():
    group = alternating_group(8)
    operators = filtration_operators(group, enumerate_class_cycles(8, 5))
    table = _compose(*_factor_rows(group, operators[0].connection, ALT8_SUBGROUP))
    x = np.random.default_rng(5).standard_normal(operators[0].dim)
    expected = np.zeros(operators[0].dim)
    done = 0
    for op in reversed(operators):  # each level's connection extends the next level's
        for row in table[done : op.valency]:
            expected += x[row]
        done = op.valency
        assert np.allclose(op.matvec(x), expected, rtol=0, atol=1e-9)


def test_alt8_levels_gather_each_factor_once():
    group = alternating_group(8)
    operators = filtration_operators(group, enumerate_class_cycles(8, 5))
    x = np.random.default_rng(5).standard_normal(operators[0].dim)
    matvec = CayleyOperator.matvec.__code__
    gathers, factors = [], []
    for op in operators:
        op.matvec(x)  # the first call builds the factor rows and the grouping
        calls = []

        def count_gathers(frame, event, arg):
            # ndarray.take is a C method, so a profile hook sees every call the matvec makes
            if event == "c_call" and frame.f_code is matvec and arg.__name__ == "take":
                calls.append(1)

        sys.setprofile(count_gathers)
        try:
            op.matvec(x)
        finally:
            sys.setprofile(None)
        gathers.append(len(calls))
        _, _, pairs = op._factor_rows()
        heads = {head for head in pairs[:, 0].tolist() if head >= 0}
        factors.append(len(heads) + len(set(pairs[:, 1].tolist())))
    # one gather per distinct head and tail; one per element would be 1344, 840, 480, 240, 96
    assert gathers == factors == [174, 112, 112, 92, 56]


def test_alt8_levels_share_one_partner_sum_per_support():
    group = alternating_group(8)
    operators = filtration_operators(group, enumerate_class_cycles(8, 5))
    sums, adds = [], []
    for op in operators:
        _, tail_table, pairs = op._factor_rows()
        tail_cycles = {}
        for t, (_, tail) in zip(op.connection, pairs.tolist()):
            tail_cycles[tail] = _split(t.cycles())[1]
        _, groups = op._grouping()
        sums.append(len(groups))
        adds.append(sum(len(slots) - 1 for slots, _, _ in groups))
        # groups in order of their first tail, tails ascending inside a group
        assert [tails[0] for _, tails, _ in groups] == sorted(tails[0] for _, tails, _ in groups)
        assert [tail for _, tails, _ in groups for tail in tails] == sorted(tail_cycles)
        for _, tails, rows in groups:
            # the matvec gathers through views of the tails' own rows, prepared once
            assert len(rows) == len(tails)
            for tail, row in zip(tails, rows):
                assert np.shares_memory(row, tail_table) and np.array_equal(row, tail_table[tail])
            # exactly the two orientations (c d e) and (c e d) of one support
            assert len(tails) == 2
            (first,), (second,) = (tail_cycles[tail] for tail in tails)
            assert len(first) == 3 and first != second and set(first) == set(second)
    # one partner sum per tail would be 70, 70, 70, 50, 26 sums and 1274, 770, 410, 190, 70 adds
    assert sums == [35, 35, 35, 25, 13]
    assert adds == [637, 385, 205, 95, 35]


def test_alt8_matvec_equals_a_per_tail_loop_bit_for_bit():
    group = alternating_group(8)
    operators = filtration_operators(group, enumerate_class_cycles(8, 5))
    x = np.random.default_rng(11).standard_normal(operators[0].dim)
    for op in operators:
        heads, tails, pairs = op._factor_rows()
        expected = np.zeros(op.dim)
        for tail in sorted(set(pairs[:, 1].tolist())):
            v = np.zeros(op.dim)
            for head, other in pairs.tolist():
                if other == tail:
                    v += x if head < 0 else x[heads[head]]
            expected += v[tails[tail]]
        assert np.array_equal(op.matvec(x), expected)


def test_alt8_coset_matvec_lifts_to_the_full_matvec_bit_for_bit():
    # A lift(x) = lift(M x) on every level: the coset operator adds the same
    # terms in the same order as the operator on all of Alt(8), so the bits agree
    group = alternating_group(8)
    operators = filtration_operators(group, enumerate_class_cycles(8, 5))
    full = cayley_adjacency(group, operators[0].connection)
    lift = _RankLookup(group, ALT8_SUBGROUP).vertex_of
    assert np.bincount(lift).tolist() == [24] * operators[0].dim
    x = np.random.default_rng(13).standard_normal(operators[0].dim)
    for op in operators:
        level = full.prefix(op.valency)
        assert level.dim == 24 * op.dim == group.order
        assert np.array_equal(level.matvec(x[lift]), op.matvec(x)[lift])


def _distinct(values, gap=1e-6):
    values = np.sort(values)
    return values[np.concatenate([[True], np.diff(values) > gap])]


def test_alt8_coset_levels_have_the_full_groups_distinct_eigenvalues_and_the_certified_top_two():
    # 840 cosets fit the dense oracle: each level has the distinct-eigenvalue
    # count of the full Alt(8) graph's minimal polynomial, and its top two
    # values are the (lambda1, lambda2) that Lanczos certified
    group = alternating_group(8)
    operators = filtration_operators(group, enumerate_class_cycles(8, 5))
    cert = alt8_certificate(DEFAULT_SEED)
    counts = []
    for op, row in zip(operators, cert.rows):
        values = dense_spectrum(op).values
        counts.append(len(_distinct(values)))
        assert np.allclose(values[:2], [row.lambda1, row.lambda2], rtol=0, atol=1e-8), row.k
    assert counts == [7, 14, 28, 44, 23]


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("length", [3, 5])
def test_coset_operator_keeps_every_distinct_eigenvalue(n, length):
    group = alternating_group(n)
    involution = Permutation.from_cycles(n, [(n - 3, n - 2), (n - 1, n)])
    cycles = [t for t in enumerate_class_cycles(n, length) if group.contains(t)]
    for k in range(4):
        connection = t_filtration(cycles, k)
        full = dense_spectrum(cayley_adjacency(group, connection)).values
        cosets = dense_spectrum(cayley_adjacency(group, connection, [involution])).values
        assert len(cosets) == len(full) // 2
        expected = _distinct(full)
        got = _distinct(cosets)
        assert len(got) == len(expected) and np.allclose(got, expected, rtol=0, atol=1e-8), (n, length, k)


def klein_placement(group, connection, klein):
    """Where t r_c lands for every connection element t and coset c of the
    Klein group K = <a, b> acting on the right, r_c the smallest member of c:
    arrays (cosets, elements) with t_j r_c = r_cosets[j, c] * k, k element
    number elements[j, c] of (1, a, b, ab).  Composed one at a time."""
    a, b = klein
    elements = [Permutation.identity(group.degree), a, b, a * b]
    smallest = sorted({min(g * h for h in elements) for g in members(group)})
    place = {(r * h).images: (c, i) for c, r in enumerate(smallest) for i, h in enumerate(elements)}
    found = [
        [place[tuple(t.images[v - 1] for v in r.images)] for r in smallest] for t in connection
    ]
    placement = np.array(found, dtype=np.intp).reshape(len(connection), len(smallest), 2)
    return placement[..., 0], placement[..., 1]


def klein_blocks(cosets, elements):
    """A on the whole group split by the characters e of K: on the functions
    with f(g k) = e(k) f(g) it is the matrix B_e[c', c] = sum of e(k) over the
    t with t r_c = r_c' k.  The four blocks together carry every eigenvalue
    of A, and the block of the trivial e is the coset graph."""
    source = np.broadcast_to(np.arange(cosets.shape[1]), cosets.shape)
    blocks = []
    for sign_a, sign_b in itertools.product((1, -1), repeat=2):
        character = np.array([1, sign_a, sign_b, sign_a * sign_b])
        block = np.zeros((cosets.shape[1],) * 2)
        np.add.at(block, (cosets, source), character[elements])
        assert np.array_equal(block, block.T)
        blocks.append(block)
    return blocks


def test_klein_blocks_carry_the_whole_spectrum():
    group = alternating_group(6)
    klein = [Permutation.parse(h, degree=6) for h in ("(3 4)(5 6)", "(3 5)(4 6)")]
    connection = [t for t in enumerate_class_cycles(6, 5) if group.contains(t)]
    blocks = klein_blocks(*klein_placement(group, connection, klein))
    union = np.sort(np.concatenate([np.linalg.eigvalsh(block) for block in blocks]))
    full = np.sort(dense_spectrum(cayley_adjacency(group, connection)).values)
    assert np.allclose(union, full, rtol=0, atol=1e-8)


@pytest.mark.slow
@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("length", [3, 5])
def test_klein_cosets_keep_every_distinct_eigenvalue(n, length):
    group = alternating_group(n)
    klein = [
        Permutation.from_cycles(n, [(n - 3, n - 2), (n - 1, n)]),
        Permutation.from_cycles(n, [(n - 3, n - 1), (n - 2, n)]),
    ]
    cycles = [t for t in enumerate_class_cycles(n, length) if group.contains(t)]
    cosets, elements = klein_placement(group, cycles, klein)
    for k in range(4):
        kept = set(t_filtration(cycles, k))
        level = [j for j, t in enumerate(cycles) if t in kept]
        blocks = klein_blocks(cosets[level], elements[level])
        op = cayley_adjacency(group, [cycles[j] for j in level], klein)
        assert op.dim == group.order // 4
        assert np.array_equal(op.dense(), blocks[0])
        expected = _distinct(np.concatenate([np.linalg.eigvalsh(block) for block in blocks]))
        got = _distinct(dense_spectrum(op).values)
        assert len(got) == len(expected) and np.allclose(got, expected, rtol=0, atol=1e-8), (n, length, k)
