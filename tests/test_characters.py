"""Character values via the hook-removal recursion.

Cross-checks: a reference recursion that peels cycles in the opposite order
(so the rim-hook sequences explored are genuinely different), the hook length
formula on the identity column, and the two classical orthogonality relations
weighted by brute-counted class sizes.
"""

import itertools
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from cayley_spectra.characters import mn_character
from cayley_spectra.errors import SizeLimitError
from cayley_spectra.spectra import DEFAULT_MAX_N, MAX_N_ENV_VAR, _eigenvalue, class_size
from cayley_spectra.young import beta_set, dimension, enumerate_partitions, transpose
from oracles import (
    centralizer_order,
    character_table,
    conjugacy_class_size,
    cycle_type_sign,
    enumerate_rim_hooks,
    remove_rim_hook,
)


@lru_cache(maxsize=None)
def mn_smallest_first(lam, tau):
    """Reference recursion peeling the SMALLEST cycle first."""
    if not tau:
        return 1 if not lam else 0
    length = tau[-1]
    rest = tau[:-1]
    total = 0
    for hook in enumerate_rim_hooks(lam, length):
        total += (-1) ** hook.leg_length * mn_smallest_first(
            remove_rim_hook(lam, hook), rest
        )
    return total


def character_on_long_cycle(lam, n, k):
    """Reference: the character on an (n-k)-cycle as one Murnaghan-Nakayama
    peel, each (n-k)-rim hook weighted by the dimension of what it leaves."""
    return sum(
        (-1) ** hook.leg_length * dimension(remove_rim_hook(lam, hook))
        for hook in enumerate_rim_hooks(lam, n - k)
    )


def brute_cycle_type(images):
    """Cycle type of a permutation given as a 1-based image tuple."""
    n = len(images)
    seen = [False] * (n + 1)
    lengths = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        p = start
        while not seen[p]:
            seen[p] = True
            p = images[p - 1]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def test_frozen_examples():
    assert mn_character((3, 2), (3, 1, 1)) == -1
    assert mn_character((3, 2), (5,)) == 0
    assert mn_character((2, 2, 1), (4, 1)) == 1
    assert mn_character((4, 1), (2, 2, 1)) == 0
    assert mn_character((2, 1), (1, 1, 1)) == 2


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        mn_character((3, 1), (5,))


def test_mn_character_size_cap(monkeypatch):
    n = DEFAULT_MAX_N + 1
    monkeypatch.delenv(MAX_N_ENV_VAR, raising=False)
    with pytest.raises(SizeLimitError, match=f"n <= {DEFAULT_MAX_N}"):
        mn_character((1,) * n, (1,) * n)
    monkeypatch.setenv(MAX_N_ENV_VAR, str(n))
    assert mn_character((1,) * n, (1,) * n) == 1


def test_agrees_with_opposite_peeling_order():
    for n in range(1, 11):
        types = enumerate_partitions(n)
        for lam in enumerate_partitions(n):
            for tau in types:
                assert mn_character(lam, tau) == mn_smallest_first(lam, tau), (lam, tau)


def test_identity_column_is_dimension():
    for n in range(1, 11):
        one = (1,) * n
        for lam in enumerate_partitions(n):
            assert mn_character(lam, one) == dimension(lam)


def test_character_on_long_cycle_matches_general_recursion():
    for n in range(2, 11):
        for k in range(n - 1):
            tau = (n - k,) + (1,) * k
            for lam in enumerate_partitions(n):
                assert character_on_long_cycle(lam, n, k) == mn_character(lam, tau)


def test_eigenvalue_matches_single_peel_oracle():
    # the beta-set formula against chi * |C| / f with chi from the single peel
    for n in range(2, 15):
        for k in range(n - 1):
            c = class_size(n, k)
            for lam in enumerate_partitions(n):
                want = Fraction(character_on_long_cycle(lam, n, k) * c, dimension(lam))
                assert _eigenvalue(beta_set(lam), n - k) == want, (lam, k)


def test_transpose_twist():
    """chi^{lam'}(tau) = sign(tau) * chi^lam(tau)."""
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            mu = transpose(lam)
            for tau in enumerate_partitions(n):
                assert mn_character(mu, tau) == cycle_type_sign(tau) * mn_character(lam, tau)


def test_sign_of_cycle_types():
    assert cycle_type_sign((1, 1, 1)) == 1
    assert cycle_type_sign((2, 1)) == -1
    assert cycle_type_sign((5,)) == 1
    assert cycle_type_sign((4, 1)) == -1
    assert cycle_type_sign((3, 2)) == -1  # one even cycle


def test_class_sizes_against_exhaustive_count():
    for n in range(1, 7):
        counts = {}
        for images in itertools.permutations(range(1, n + 1)):
            t = brute_cycle_type(images)
            counts[t] = counts.get(t, 0) + 1
        for tau, count in counts.items():
            assert conjugacy_class_size(tau) == count, tau
            assert centralizer_order(tau) == factorial(n) // count, tau
        assert sum(counts.values()) == factorial(n)


def test_row_orthogonality():
    for n in range(1, 9):
        types = enumerate_partitions(n)
        sizes = [conjugacy_class_size(t) for t in types]
        shapes = enumerate_partitions(n)
        chars = {lam: [mn_character(lam, t) for t in types] for lam in shapes}
        for lam in shapes:
            for mu in shapes:
                total = sum(
                    z * a * b for z, a, b in zip(sizes, chars[lam], chars[mu])
                )
                assert total == (factorial(n) if lam == mu else 0), (lam, mu)


def test_column_orthogonality():
    for n in range(1, 7):
        types = enumerate_partitions(n)
        shapes = enumerate_partitions(n)
        for s in types:
            for t in types:
                total = sum(mn_character(lam, s) * mn_character(lam, t) for lam in shapes)
                assert total == (centralizer_order(s) if s == t else 0), (s, t)


def test_character_table_n2():
    assert character_table(2) == [[1, 1], [-1, 1]]


def test_character_table_n3():
    # rows and columns both in reverse-lex order: (3), (2,1), (1,1,1)
    assert character_table(3) == [
        [1, 1, 1],
        [-1, 0, 2],
        [1, -1, 1],
    ]


def test_thread_safety_smoke():
    jobs = [
        (lam, tau)
        for lam in enumerate_partitions(7)
        for tau in enumerate_partitions(7)
    ]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda j: mn_character(*j), jobs))
    assert results == [mn_character(lam, tau) for lam, tau in jobs]
