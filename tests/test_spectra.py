"""Eigenvalues of Cay(Sym(n), (n-k)-cycles) through character ratios.

Exact arithmetic throughout: eigenvalues are Fractions that must reduce to
integers, and every identity asserted here is checked with ==, not approx.
"""

import ast
import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from math import comb, factorial

import pytest

import cayley_spectra.spectra as spectra
from cayley_spectra.errors import SizeLimitError
from cayley_spectra.permutations import enumerate_class_cycles
from cayley_spectra.spectra import (
    DEFAULT_MAX_N,
    MAX_N_ENV_VAR,
    TABLE1_SHAPE_IDS,
    TABLE1_SHAPES,
    SpectrumEntry,
    class_size,
    closed_form_table1,
    concrete_shape,
    conjecture_check,
    eigenvalue_for,
    full_spectrum,
    hypothesis_check,
    in_asserted_regime,
    lambda2,
    spectrum_to_csv,
    spectrum_to_json,
)
from cayley_spectra.young import beta_set, dimension, enumerate_partitions, format_partition, transpose


def test_class_size_formula():
    assert class_size(3, 1) == 3
    assert class_size(5, 1) == 30
    assert class_size(6, 2) == 90
    assert class_size(8, 3) == 1344
    assert class_size(4, 0) == 6


def test_class_size_against_enumeration():
    for n in range(2, 7):
        for k in range(n - 1):
            assert class_size(n, k) == len(enumerate_class_cycles(n, n - k))


def test_class_size_validates_range():
    for n, k in ((3, -1), (3, 2), (1, 0)):
        with pytest.raises(ValueError):
            class_size(n, k)


def test_eigenvalue_examples():
    assert eigenvalue_for((6,), 6, 2) == 90
    assert eigenvalue_for((5, 1), 6, 2) == 18
    assert eigenvalue_for((2, 2, 1), 5, 1) == 6
    assert eigenvalue_for((1, 1, 1), 3, 1) == -3


def test_eigenvalue_for_validates_k():
    with pytest.raises(ValueError):
        eigenvalue_for((3, 1), 4, 3)
    with pytest.raises(ValueError):
        eigenvalue_for((3, 1), 4, -1)


def test_eigenvalue_for_validates_shape():
    with pytest.raises(ValueError, match="non-increasing"):
        eigenvalue_for((1, 3), 4, 1)
    with pytest.raises(ValueError, match="not a partition of 5"):
        eigenvalue_for((3, 1), 5, 1)


def test_full_spectrum_3_1():
    entries = full_spectrum(3, 1)
    assert [(e.partition, e.eigenvalue, e.multiplicity) for e in entries] == [
        ((3,), 3, 1),
        ((2, 1), 0, 4),
        ((1, 1, 1), -3, 1),
    ]


def test_full_spectrum_4_2_distinct_values():
    values = sorted({int(e.eigenvalue) for e in full_spectrum(4, 2)}, reverse=True)
    assert values == [6, 2, 0, -2, -6]


def test_spectrum_entries_are_integers_with_squared_multiplicities():
    for n in range(2, 8):
        for k in range(n - 1):
            entries = full_spectrum(n, k)
            assert len(entries) == len(enumerate_partitions(n))
            for e in entries:
                assert isinstance(e.eigenvalue, int)
                assert e.multiplicity == dimension(e.partition) ** 2
            assert sum(e.multiplicity for e in entries) == factorial(n)


def test_trace_and_second_moment():
    """No loops: trace 0.  Closed 2-walks: n! * valency."""
    for n in range(2, 8):
        for k in range(n - 1):
            entries = full_spectrum(n, k)
            assert sum(e.multiplicity * e.eigenvalue for e in entries) == 0
            assert sum(e.multiplicity * e.eigenvalue**2 for e in entries) == factorial(
                n
            ) * class_size(n, k)


def test_every_row_matches_its_own_shape():
    # full_spectrum pairs conjugates and skips shapes without a long enough
    # hook; eigenvalue_for and dimension compute each shape on its own
    for n in range(2, 15):
        shapes = enumerate_partitions(n)
        for k in range(n - 1):
            values = {lam: eigenvalue_for(lam, n, k) for lam in shapes}
            rows = [(e.partition, e.eigenvalue, e.multiplicity) for e in full_spectrum(n, k)]
            in_order = sorted(shapes, key=lambda lam: -values[lam])  # stable, like full_spectrum
            assert rows == [(lam, values[lam], dimension(lam) ** 2) for lam in in_order], (n, k)


#: the grids of the benchmark's exact workloads: short cycles at n = 18..22,
#: and k = 4..0 at n = 30..34
EXACT_DEEP = [(n, n - d) for n in (18, 20, 22) for d in (2, 3, 5)]
EXACT_WIDE = [(30, 4), (31, 3), (32, 2), (33, 1), (34, 0)]


def spectrum_digest(grid):
    h = hashlib.sha256()
    for n, k in grid:
        for e in full_spectrum(n, k, max_n=34):
            h.update(f"{n} {k} {format_partition(e.partition)} {e.eigenvalue} {e.multiplicity}\n".encode())
    return h.hexdigest()


def test_full_spectrum_digests_on_the_benchmark_grids():
    # any rewrite of full_spectrum must reproduce every row of both grids, in
    # order, byte for byte
    assert spectrum_digest(EXACT_DEEP) == "9e0e152e32ef245b92c682c55d577d2a47248a4ebae31c7c2d5a19ea58c24c11"
    assert spectrum_digest(EXACT_WIDE) == "a7a50320d60a78fd37bd52609b0e3ea7aeff615cd0202d27b612fc33d390195a"


def test_full_spectrum_rejects_a_wrong_eigenvalue(monkeypatch):
    # one eigenvalue off by one must trip the trace identities, which are
    # explicit raises and so also hold under python -O
    import cayley_spectra.spectra as spectra

    peel = spectra._eigenvalue  # full_spectrum's per-pair eigenvalue, from the stored beads

    def off_by_one(beads, m):
        return peel(beads, m) + (list(beads) == beta_set((4, 2)))

    monkeypatch.setattr(spectra, "_eigenvalue", off_by_one)
    with pytest.raises(ArithmeticError, match="trace identities"):
        full_spectrum(6, 2)


# --- the shape table: the k-independent half of full_spectrum, kept per n


@pytest.mark.parametrize("walk", [range(2, 15), range(14, 1, -1)], ids=["n-up", "n-down"])
def test_a_warm_table_gives_the_spectra_of_new_ones(walk):
    for n in walk:
        other = n - 1 if n > 2 else n + 1
        new = []
        for k in range(n - 1):
            full_spectrum(other, 0)  # replaces the table at n ...
            new.append(full_spectrum(n, k))  # ... so that this call builds it afresh
        table = spectra._last_table
        warm = [full_spectrum(n, k) for k in range(n - 1)]
        assert spectra._last_table is table
        assert warm == new, n


def test_one_table_per_n_and_never_two_alive(monkeypatch):
    full_spectrum(9, 2)
    table = spectra._last_table
    lambda2(9, 5)
    assert spectra._last_table is table and table.n == 9
    old = weakref.ref(table)
    del table

    # the table at 9 must be gone before the one at 10 is started
    alive_during_build = []
    zs1 = spectra.enumerate_partitions

    def enumerate_after_the_drop(n):
        gc.collect()
        alive_during_build.append(old() is not None)
        return zs1(n)

    monkeypatch.setattr(spectra, "enumerate_partitions", enumerate_after_the_drop)
    full_spectrum(10, 2)
    gc.collect()
    assert alive_during_build == [False] and old() is None
    assert spectra._last_table.n == 10


def test_a_failed_build_publishes_no_table(monkeypatch):
    full_spectrum(7, 1)

    def broken(beads, n):
        raise ArithmeticError("bead factorials do not divide")

    monkeypatch.setattr(spectra, "_dimension_from_beads", broken)
    with pytest.raises(ArithmeticError, match="bead factorials"):
        full_spectrum(8, 1)
    assert spectra._last_table is None
    monkeypatch.undo()
    assert full_spectrum(8, 1)[0].eigenvalue == class_size(8, 1)


CORRUPT_ONE_SQUARE = """
import cayley_spectra.spectra as spectra
spectra.full_spectrum(8, 3)
spectra._last_table.squares[1] += 1
try:
    spectra.full_spectrum(8, 3)
except ArithmeticError as exc:
    print(exc)
"""


def run_child(flags, script):
    # in a child, so that a corrupted table never reaches another test
    src = os.path.dirname(os.path.dirname(spectra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, *flags, "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (child.returncode, child.stderr) == (0, "")
    return child.stdout


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_wrong_stored_square_trips_the_trace_identities(flags):
    out = run_child(flags, CORRUPT_ONE_SQUARE)
    assert out.startswith("spectrum of n = 8, k = 3 fails the trace identities: ")


def test_the_table_keeps_each_pairs_beads():
    # the beta-set of each pair's first shape, one byte per bead
    for n in range(1, 15):
        table = spectra._shape_table(n)
        firsts = [table.shapes[i] for i in table.pairs[::2]]
        assert len(table.beads) == len(firsts), n
        for lam, beads in zip(firsts, table.beads):
            assert type(beads) is bytes and list(beads) == beta_set(lam), (n, lam)
            assert all(a > b for a, b in zip(beads, beads[1:])), (n, lam)


#: every stored bead at n = 8 moved by one, each in turn: the spectrum either
#: comes out right or full_spectrum raises ArithmeticError, never a wrong one
CORRUPT_ONE_BEAD = """
import collections
import cayley_spectra.spectra as spectra
right = spectra.full_spectrum(8, 3)
table = spectra._last_table
outcomes = collections.Counter()
for p, beads in enumerate(list(table.beads)):
    for pos in range(len(beads)):
        for delta in (-1, 1):  # no bead at n = 8 is 0, so each stays a byte
            wrong = bytearray(beads)
            wrong[pos] += delta
            table.beads[p] = bytes(wrong)
            try:
                outcomes["right" if spectra.full_spectrum(8, 3) == right else "wrong"] += 1
            except ArithmeticError as exc:
                message = str(exc)
                outcomes["trace identities" if "trace identities" in message else message.split(" for ")[0]] += 1
            table.beads[p] = beads
print(sorted(outcomes.items()))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_wrong_stored_bead_raises_or_changes_nothing(flags):
    outcomes = dict(ast.literal_eval(run_child(flags, CORRUPT_ONE_BEAD)))
    assert "wrong" not in outcomes
    assert set(outcomes) == {"right", "trace identities", "non-integral eigenvalue"}
    assert sum(outcomes.values()) == 64  # 32 beads over 12 pairs, each moved up and down


def test_bipartite_symmetry_when_cycle_is_even_length():
    # even cycle length = odd permutation = bipartite graph = symmetric spectrum
    for n in range(2, 8):
        for k in range(n - 1):
            if (n - k) % 2 != 0:
                continue
            values = sorted(
                v for e in full_spectrum(n, k) for v in [e.eigenvalue] * e.multiplicity
            )
            assert values == sorted(-v for v in values)


def test_transpose_pairing():
    for n in range(2, 8):
        for k in range(n - 1):
            sign = (-1) ** (n - k - 1)
            by_shape = {e.partition: e.eigenvalue for e in full_spectrum(n, k)}
            for lam, value in by_shape.items():
                assert by_shape[transpose(lam)] == sign * value


def test_top_entry_is_valency_with_trivial_witness():
    for n in range(2, 8):
        for k in range(n - 1):
            entries = full_spectrum(n, k)
            assert entries[0].eigenvalue == class_size(n, k)
            assert (n,) in {
                e.partition for e in entries if e.eigenvalue == class_size(n, k)
            }


def test_lambda2_known_values():
    assert lambda2(5, 1).value == 6
    assert lambda2(5, 1).witnesses == ((2, 2, 1),)
    r = lambda2(6, 2)
    assert r.value == 18
    assert set(r.witnesses) == {(5, 1), (2, 2, 2)}
    assert lambda2(6, 4).value == 9
    assert lambda2(7, 4).value == 35
    assert lambda2(8, 4).value == 180


def test_lambda2_strictly_below_valency():
    for n in range(3, 8):
        for k in range(n - 1):
            r = lambda2(n, k)
            c = class_size(n, k)
            assert r.value < c
            spectrum_values = {e.eigenvalue for e in full_spectrum(n, k)}
            assert r.value == max(v for v in spectrum_values if v < c)


def test_size_cap_and_env_override(monkeypatch):
    monkeypatch.setenv(MAX_N_ENV_VAR, "4")
    with pytest.raises(SizeLimitError):
        full_spectrum(5, 1)
    monkeypatch.delenv(MAX_N_ENV_VAR)
    with pytest.raises(SizeLimitError):
        full_spectrum(DEFAULT_MAX_N + 1, 1)
    monkeypatch.setenv(MAX_N_ENV_VAR, str(DEFAULT_MAX_N + 1))
    entries = full_spectrum(DEFAULT_MAX_N + 1, 1)
    assert entries[0].eigenvalue == class_size(DEFAULT_MAX_N + 1, 1)


# --- closed forms -------------------------------------------------------


def test_closed_forms_match_frozen_values():
    assert closed_form_table1("n", 6, 2) == 90
    assert closed_form_table1("1^n", 6, 2) == -90
    assert closed_form_table1("n-1,1", 6, 2) == 18
    assert closed_form_table1("2,1^(n-2)", 6, 2) == -18
    # k = 0 anchors (odd/even n)
    assert closed_form_table1("n-2,1^2", 7, 0) == 2 * factorial(4)
    assert closed_form_table1("n-1,1", 6, 0) == -factorial(4)


def test_closed_form_unknown_shape():
    with pytest.raises(ValueError):
        closed_form_table1("n-4,4", 12, 1)


def test_closed_form_minimum_n():
    with pytest.raises(ValueError):
        concrete_shape("n-3,2,1", 5)
    assert concrete_shape("n-3,2,1", 6) == (3, 2, 1)
    with pytest.raises(ValueError):
        closed_form_table1("2^3,1^(n-6)", 6, 1)
    assert concrete_shape("2^3,1^(n-6)", 7) == (2, 2, 2, 1)


def test_concrete_shapes_at_n8():
    expected = {
        "n": (8,),
        "1^n": (1,) * 8,
        "n-1,1": (7, 1),
        "2,1^(n-2)": (2,) + (1,) * 6,
        "n-2,2": (6, 2),
        "2^2,1^(n-4)": (2, 2, 1, 1, 1, 1),
        "n-2,1^2": (6, 1, 1),
        "3,1^(n-3)": (3, 1, 1, 1, 1, 1),
        "n-3,3": (5, 3),
        "2^3,1^(n-6)": (2, 2, 2, 1, 1),
        "n-3,1^3": (5, 1, 1, 1),
        "4,1^(n-4)": (4, 1, 1, 1, 1),
        "n-3,2,1": (5, 2, 1),
        "3,2,1^(n-5)": (3, 2, 1, 1, 1),
    }
    assert set(TABLE1_SHAPE_IDS) == set(expected)
    for shape_id, lam in expected.items():
        assert concrete_shape(shape_id, 8) == lam
        # transpose partner present in the table
        assert transpose(lam) in {concrete_shape(s, 8) for s in TABLE1_SHAPE_IDS}


def test_in_asserted_regime():
    assert in_asserted_regime(8, 2)
    assert in_asserted_regime(8, 0)
    assert in_asserted_regime(5, 1)
    assert not in_asserted_regime(8, 3)
    assert not in_asserted_regime(7, 2)


def test_low_dimension_census():
    """Every shape of dimension below 3*C(n,3) appears in the 14-shape list."""
    for n in range(19, 23):
        lows = {rule.build(n) for rule in TABLE1_SHAPES.values() if n >= rule.min_n}
        assert len(lows) == 14
        bound = 3 * comb(n, 3)
        for lam in enumerate_partitions(n):
            if dimension(lam) < bound:
                assert lam in lows, (n, lam)
            else:
                assert lam not in lows, (n, lam)


# --- hypothesis flags ----------------------------------------------------


def test_hypothesis_flags_frozen():
    f = hypothesis_check(10, 3)
    assert (f.in_main_theorem_range, f.unique_rimhook_range, f.sqrtkfact_bound_holds) == (
        True,
        False,
        True,
    )
    f = hypothesis_check(7, 2)
    assert (f.in_main_theorem_range, f.unique_rimhook_range, f.sqrtkfact_bound_holds) == (
        True,
        False,
        True,
    )
    f = hypothesis_check(8, 2)
    assert (f.in_main_theorem_range, f.unique_rimhook_range, f.sqrtkfact_bound_holds) == (
        True,
        True,
        True,
    )
    f = hypothesis_check(12, 10)
    assert (f.in_main_theorem_range, f.unique_rimhook_range, f.sqrtkfact_bound_holds) == (
        False,
        False,
        False,
    )


def test_main_theorem_range_thresholds():
    # the first n at which the range holds for k = 2..10; it then stays true
    first = {}
    for k in range(2, 11):
        flags = [hypothesis_check(n, k).in_main_theorem_range for n in range(k + 2, 401)]
        first[k] = k + 2 + flags.index(True)
        assert all(flags[first[k] - k - 2:]), k
    assert list(first.values()) == [4, 5, 6, 7, 11, 17, 28, 48, 85]
    assert not any(hypothesis_check(n, k).in_main_theorem_range for n in range(3, 30) for k in (0, 1))


def test_hypothesis_unique_rimhook_matches_definition():
    for n in range(3, 16):
        for k in range(n - 1):
            assert hypothesis_check(n, k).unique_rimhook_range == (3 * k + 1 < n)


def test_hypothesis_sqrtkfact_matches_inequality():
    for n in range(3, 16):
        for k in range(n - 1):
            holds = factorial(k) * (n - 1) ** 2 <= 9 * comb(n, 3) ** 2
            assert hypothesis_check(n, k).sqrtkfact_bound_holds == holds


def flags(n, k):
    f = hypothesis_check(n, k)
    return f.in_main_theorem_range, f.unique_rimhook_range, f.sqrtkfact_bound_holds


def direct_flags(n, k):
    """flags(n, k) straight from the three inequalities, with no cutoff."""
    in_range = k == 2 or k > 2 and spectra._below_e_power(4 * k ** (k + 1), (n * (n - 2)) ** 2, k - 1)
    return in_range, 3 * k + 1 < n, factorial(k) * (n - 1) ** 2 <= 9 * comb(n, 3) ** 2


def test_hypothesis_flags_flip_at_most_once_in_n():
    for k in range(399):
        ns = range(max(3, k + 2), 401)
        column = [flags(n, k) for n in ns]
        assert [f[1] for f in column] == [3 * k + 1 < n for n in ns], k
        for index in (0, 2):
            # both bounds grow with n, so each flips from false to true at most once
            flag = [f[index] for f in column]
            assert flag == sorted(flag), (k, index)
            # and the flip, or its absence, is where the inequality puts it
            flip = flag.index(True) if True in flag else len(flag)
            for i in range(max(flip - 1, 0), min(flip + 1, len(ns))):
                assert column[i] == direct_flags(ns[i], k), (ns[i], k)


# n = 23 is the first n whose range 0 <= k <= n-2 reaches past the cutoff 4 bits(n)
@pytest.mark.parametrize(
    "n", [23, 64, 400, 10**6, 10**50, 10**400], ids=["23", "64", "400", "1e6", "1e50", "1e400"]
)
def test_hypothesis_cutoff_fails_both_bounds_without_building_k_factorial(n, monkeypatch):
    cutoff = 4 * n.bit_length()
    calls = []
    exact_factorial = spectra.factorial
    monkeypatch.setattr(spectra, "factorial", lambda k: calls.append(k) or exact_factorial(k))
    assert flags(n, cutoff) == (False, 3 * cutoff + 1 < n, False)
    assert calls == [cutoff]  # decided by the exact comparison
    assert direct_flags(n, cutoff) == flags(n, cutoff)

    def refuse(*args):
        raise AssertionError("past the cutoff no exact comparison runs")

    monkeypatch.setattr(spectra, "factorial", refuse)
    monkeypatch.setattr(spectra, "_below_e_power", refuse)
    assert flags(n, cutoff + 1) == (False, 3 * cutoff + 4 < n, False)


def test_hypothesis_decides_huge_pairs_without_huge_integers():
    # k past the cutoff 4 bits(n): k! and k^k dwarf n^4 and are never built
    assert flags(10**400, 10**399) == (False, True, False)
    assert flags(10**400, 500) == (True, True, True)


# --- conjecture sweep ----------------------------------------------------


def test_conjecture_check_small_range():
    records = conjecture_check(7)
    assert all(r.ok for r in records)
    assert len(records) == sum(n - 3 for n in range(4, 8))
    by_pair = {(r.n, r.k): r for r in records}
    assert by_pair[(6, 2)].value == 18
    assert by_pair[(6, 2)].expected == 18
    assert (5, 1) in by_pair[(6, 2)].witnesses


def test_conjecture_expected_value_formula():
    for r in conjecture_check(8):
        assert r.expected == Fraction((r.k - 1) * class_size(r.n, r.k), r.n - 1)


# --- serialization -------------------------------------------------------


def test_spectrum_json_schema():
    entries = full_spectrum(6, 2)
    doc = json.loads(spectrum_to_json(6, 2, entries))
    assert doc["n"] == 6 and doc["k"] == 2
    assert doc["valency"] == "90"
    assert doc["entries"][0] == {"partition": "6", "eigenvalue": "90", "multiplicity": "1"}
    by_partition = {e["partition"]: e for e in doc["entries"]}
    assert by_partition["5,1"]["eigenvalue"] == "18"
    assert by_partition["5,1"]["multiplicity"] == "25"
    # decimal strings for every big integer
    for e in doc["entries"]:
        int(e["eigenvalue"])
        int(e["multiplicity"])


def test_spectrum_csv_schema():
    entries = full_spectrum(4, 1)
    rows = list(csv.reader(io.StringIO(spectrum_to_csv(entries))))
    assert rows[0] == ["partition", "eigenvalue", "multiplicity"]
    assert len(rows) == 1 + len(entries)
    assert rows[1] == ["4", "8", "1"]
    parsed = {r[0]: (int(r[1]), int(r[2])) for r in rows[1:]}
    assert parsed["2,2"] == (-4, 4)


@pytest.mark.parametrize(
    "shape, message",
    [((2, 3), "non-increasing"), ((3, 0), "positive"), ((3, -1), "positive")],
    ids=["increasing", "zero-part", "negative-part"],
)
def test_spectrum_writers_reject_a_malformed_partition(shape, message):
    # a caller's own entries are validated: a malformed shape is never written out
    entries = [*full_spectrum(4, 1), SpectrumEntry(shape, 0, 1)]
    with pytest.raises(ValueError, match=message):
        spectrum_to_json(4, 1, entries)
    with pytest.raises(ValueError, match=message):
        spectrum_to_csv(entries)
