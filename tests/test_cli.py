"""Command-line behavior: exact output lines, formats, exit codes."""

import csv
import decimal
import functools
import io
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial

import pytest

from cayley_spectra import cli, eigensolve, spectra
from cayley_spectra.cli import main

SRC = os.path.dirname(os.path.dirname(cli.__file__))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lambda2_line(capsys):
    code, out, err = run(capsys, "lambda2", "--n", "6", "--k", "2")
    assert code == 0 and err == ""
    assert out.startswith("18  witnesses: [5,1]")
    assert out == "18  witnesses: [5,1] [2,2,2]\n"


def test_lambda2_json(capsys):
    code, out, _ = run(capsys, "lambda2", "--n", "5", "--k", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 5, "k": 1, "lambda2": "6", "witnesses": ["2,2,1"]}


def test_char_value(capsys):
    code, out, _ = run(capsys, "char", "--partition", "3,2", "--type", "3,1,1")
    assert code == 0
    assert out == "-1\n"


@pytest.mark.parametrize("shape, cycle_type", [("1^995", "1^995"), ("10^10", "1^100")])
def test_char_size_cap(capsys, monkeypatch, shape, cycle_type):
    # both exceed the default cap; without it the second runs past 20 s
    monkeypatch.delenv("CAYLEY_SPECTRA_MAX_N", raising=False)
    code, out, err = run(capsys, "char", "--partition", shape, "--type", cycle_type)
    assert code == 2
    assert out == ""
    assert err.startswith("error: mn_character is capped at n <= 14") and err.count("\n") == 1


def test_char_rejects_a_huge_exponent_with_a_short_line(capsys, monkeypatch):
    # the size mismatch used to print both 30-million-part tuples: 90 MB of stderr
    monkeypatch.delenv("CAYLEY_SPECTRA_MAX_N", raising=False)
    code, out, err = run(capsys, "char", "--partition", "1^30000000", "--type", "1")
    assert (code, out) == (2, "")
    assert err == (
        "error: mn_character is capped at n <= 14 (override with CAYLEY_SPECTRA_MAX_N), "
        "got n = 30000000\n"
    )


@pytest.mark.parametrize(
    "shape, message",
    [
        ("1," * 60000 + "x", "error: bad partition token 'x' at position 60001\n"),
        (
            "1," * 60000 + "2",
            "error: partition parts must be non-increasing, got 2 after 1 at index 60000\n",
        ),
        ("3," + "x" * 10000, "error: bad partition token 'xxxxxxxxxxxxxxxxxxxx...' at position 2\n"),
    ],
    ids=["bad-token", "increasing", "long-token"],
)
def test_char_partition_errors_name_the_bad_part_only(capsys, monkeypatch, shape, message):
    # these messages used to echo the whole argument or its tuple, 120,000 bytes for the first
    monkeypatch.setenv("CAYLEY_SPECTRA_MAX_N", "100000")
    code, out, err = run(capsys, "char", "--partition", shape, "--type", "1")
    assert (code, out, err) == (2, "", message)
    assert err.count("\n") == 1 and len(err.encode()) < 200


NINES = "9" * 4000


@pytest.mark.parametrize(
    "env, argv, message",
    [
        (
            None,
            ("char", "--partition", NINES, "--type", "1"),
            "error: mn_character is capped at n <= 14 (override with CAYLEY_SPECTRA_MAX_N), "
            "got n = 99999999999999999999...\n",
        ),
        (
            None,
            ("char", "--partition", f"{NINES}^{NINES}", "--type", "1"),
            "error: mn_character is capped at n <= 14 (override with CAYLEY_SPECTRA_MAX_N), "
            "got n = a 26576-bit integer\n",
        ),
        (
            "100000",
            ("char", "--partition", "1^5000", "--type", "1^4999"),
            "error: size mismatch: |(1, 1, 1, 1, 1, 1, 1...| = 5000 but |(1, 1, 1, 1, 1, 1, 1...| = 4999\n",
        ),
        (
            "x" * 100000,
            ("lambda2", "--n", "5", "--k", "1"),
            "error: CAYLEY_SPECTRA_MAX_N must be an integer, got 'xxxxxxxxxxxxxxxxxxxx...'\n",
        ),
        (
            "9" * 5000,
            ("lambda2", "--n", "5", "--k", "1"),
            "error: CAYLEY_SPECTRA_MAX_N is too long to read as an integer (5000 characters), "
            "got '99999999999999999999...'\n",
        ),
        (
            " -9_" + "9" * 4999 + " ",
            ("lambda2", "--n", "5", "--k", "1"),
            "error: CAYLEY_SPECTRA_MAX_N is too long to read as an integer (5004 characters), "
            "got ' -9_9999999999999999...'\n",
        ),
        ("1__2", ("lambda2", "--n", "5", "--k", "1"), "error: CAYLEY_SPECTRA_MAX_N must be an integer, got '1__2'\n"),
        ("0", ("lambda2", "--n", "5", "--k", "1"), "error: CAYLEY_SPECTRA_MAX_N must be at least 1, got '0'\n"),
        ("-1", ("lambda2", "--n", "5", "--k", "1"), "error: CAYLEY_SPECTRA_MAX_N must be at least 1, got '-1'\n"),
        (
            f"-{NINES}",
            ("lambda2", "--n", "5", "--k", "1"),
            "error: CAYLEY_SPECTRA_MAX_N must be at least 1, got '-9999999999999999999...'\n",
        ),
    ],
    ids=[
        "cap-4000-digits",
        "cap-past-the-digit-limit",
        "size-mismatch",
        "non-integer-max-n",
        "5000-digit-max-n",
        "signed-5000-digit-max-n",
        "double-underscore-max-n",
        "zero-max-n",
        "negative-max-n",
        "negative-4000-digit-max-n",
    ],
)
def test_size_errors_clip_what_they_echo(capsys, monkeypatch, env, argv, message):
    # these messages used to echo the whole size, both tuples or the whole variable:
    # 4,088 bytes for the first and 100,055 for the last
    if env is None:
        monkeypatch.delenv("CAYLEY_SPECTRA_MAX_N", raising=False)
    else:
        monkeypatch.setenv("CAYLEY_SPECTRA_MAX_N", env)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", message)
    assert err.count("\n") == 1 and len(err.encode()) < 200


def _limit_address_space():
    # 1 GB: far below the 8 GB that 1^1000000000 would take if it were expanded
    resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))


@pytest.mark.parametrize(
    "shape, message",
    [
        ("1^1000000000", "mn_character is capped at n <= 14 (override with CAYLEY_SPECTRA_MAX_N), got n = 1000000000"),
        ("0^1000000000", "bad partition token '0^1000000000' at position 1"),
    ],
    ids=["unit-parts", "zero-parts"],
)
def test_char_rejects_an_exponent_too_large_for_memory(shape, message):
    # in a child with a small address space, so that expanding the exponent
    # fails there instead of exhausting the host
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("CAYLEY_SPECTRA_MAX_N", None)
    start = time.perf_counter()
    cli = subprocess.run(
        [sys.executable, "-m", "cayley_spectra.cli", "char", "--partition", shape, "--type", "1"],
        env=env, capture_output=True, text=True, preexec_fn=_limit_address_space, timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert (cli.returncode, cli.stdout, cli.stderr) == (2, "", f"error: {message}\n")


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "6", "--k", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["valency"] == "90"
    assert {"partition": "5,1", "eigenvalue": "18", "multiplicity": "25"} in doc["entries"]


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "4", "--k", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["partition", "eigenvalue", "multiplicity"]
    assert ["2,2", "-4", "4"] in rows


def test_spectrum_table_mentions_valency(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "4", "--k", "2")
    assert code == 0
    assert "valency 6" in out


def test_quotient_csv(capsys):
    code, out, _ = run(capsys, "quotient", "--n", "5", "--k", "1", "--format", "csv")
    assert code == 0
    assert out == "6,6,6,6,6\n" * 5


def test_quotient_json(capsys):
    code, out, _ = run(capsys, "quotient", "--n", "6", "--k", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["eigenvalues"] == {"top": "90", "second": "18"}
    assert doc["second_multiplicity"] == 5


def test_conjecture_pass(capsys):
    code, out, _ = run(capsys, "conjecture", "--n-max", "5")
    assert code == 0
    assert "fail" in out.splitlines()[-1]
    assert "0 fail" in out.splitlines()[-1]


@pytest.mark.parametrize("n_max", ["2", "3", "-5"])
def test_conjecture_rejects_an_empty_sweep(capsys, n_max):
    code, out, err = run(capsys, "conjecture", "--n-max", n_max)
    assert code == 2
    assert out == ""
    assert err == f"error: conjecture_check needs n_max >= 4, got n_max = {n_max}\n"


def test_table1_regime_note(capsys):
    code, out, _ = run(capsys, "table1", "--n", "8", "--k", "3")
    assert code == 0
    assert "outside" in out.splitlines()[0]


def test_table1_runs_at_every_small_pair(capsys):
    # 468 (n, k, shape) triples with n <= 40 have a non-integral closed form, all outside the regime
    for n in range(2, 15):
        for k in range(n - 1):
            for fmt in ("table", "json"):
                code, _, err = run(capsys, "table1", "--n", str(n), "--k", str(k), "--format", fmt)
                assert (code, err) == (0, ""), (n, k, fmt)


def test_table1_prints_a_fraction_outside_the_regime(capsys):
    code, out, _ = run(capsys, "table1", "--n", "5", "--k", "3")
    assert code == 0
    assert "n-2,1^2        3,1,1                5/3\n" in out
    assert "3,1^(n-3)      3,1,1                -5/3\n" in out
    code, out, _ = run(capsys, "table1", "--n", "5", "--k", "3", "--format", "json")
    assert code == 0
    rows = {row["shape"]: row["eigenvalue"] for row in json.loads(out)["rows"]}
    assert (rows["n-2,1^2"], rows["n-1,1"], rows["n-3,3"]) == ("5/3", "5", None)


def test_table1_fails_on_a_fraction_inside_the_regime(capsys, monkeypatch):
    rule = spectra.TABLE1_SHAPES["n-1,1"]
    halved = rule._replace(ratio=lambda n, k: Fraction(1, 2 * spectra.class_size(n, k)))
    monkeypatch.setitem(spectra.TABLE1_SHAPES, "n-1,1", halved)
    code, out, err = run(capsys, "table1", "--n", "8", "--k", "1")
    assert (code, out) == (1, "")
    assert err == (
        "verification failure: closed form for 'n-1,1' non-integral at n=8, k=1 "
        "inside the asserted regime: 1/2\n"
    )


def test_hypothesis_output(capsys):
    code, out, _ = run(capsys, "hypothesis", "--n", "8", "--k", "2")
    assert code == 0
    assert out == (
        "in_main_theorem_range: true\n"
        "unique_rimhook_range: true\n"
        "sqrtkfact_bound_holds: true\n"
    )


NINES = "9" * 4300  # the longest n the parser reads as an integer


@pytest.mark.parametrize(
    "n, k, unique",
    [
        # k! and 4 k^(k+1) at k = 5e7 would be integers of hundreds of megabytes
        ("100000000", 50000000, "false"),
        # the largest k that builds them: the cutoff 4 bits(n) of the longest n
        (NINES, 4 * int(NINES).bit_length(), "true"),
    ],
    ids=["n=1e8", "n=10^4300-1"],
)
def test_hypothesis_decides_a_huge_pair_at_once(capsys, n, k, unique):
    start = time.perf_counter()
    code, out, err = run(capsys, "hypothesis", "--n", n, "--k", str(k))
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert out == (
        "in_main_theorem_range: false\n"
        f"unique_rimhook_range: {unique}\n"
        "sqrtkfact_bound_holds: false\n"
    )


def main_theorem_flip(k):
    """The least n with 4 k^(k+1) < n^2 (n-2)^2 e^(k-1), in decimal arithmetic
    carried 50 digits past the left side: n(n-2) = (n-1)^2 - 1 must pass the
    square root of 4 k^(k+1) / e^(k-1)."""
    left = 4 * k ** (k + 1)
    with decimal.localcontext() as context:
        context.prec = len(str(left)) + 50
        root = (decimal.Decimal(left) / decimal.Decimal(k - 1).exp()).sqrt()
        return int((root + 1).sqrt()) + 2


@pytest.mark.parametrize("side", [-1, 0], ids=["below", "at"])
def test_hypothesis_decides_either_side_of_the_k_800_flip_at_once(capsys, side):
    # n has 495 digits: the pair lies about 1/n from the tie, so that e^799 must be
    # bounded to about 500 digits
    k = 800
    n = main_theorem_flip(k) + side
    start = time.perf_counter()
    code, out, err = run(capsys, "hypothesis", "--n", str(n), "--k", str(k))
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    sqrt_bound = factorial(k) * (n - 1) ** 2 <= 9 * comb(n, 3) ** 2
    assert out == (
        f"in_main_theorem_range: {str(side == 0).lower()}\n"
        "unique_rimhook_range: true\n"
        f"sqrtkfact_bound_holds: {str(sqrt_bound).lower()}\n"
    )


def test_hypothesis_rejects_k_past_n_minus_2(capsys):
    code, out, err = run(capsys, "hypothesis", "--n", "10", "--k", "12")
    assert code == 2
    assert out == ""
    assert err == "error: need n >= 3 and 0 <= k <= n-2, got n = 10, k = 12\n"


def test_verify_rejects_nan_tolerance(capsys):
    code, out, err = run(capsys, "verify-recursive-5cycles", "--tol", "nan")
    assert code == 2
    assert out == ""
    assert err == "error: need 0 < tol < 1, got tol = nan\n"


def test_bruteforce_match(capsys):
    code, out, _ = run(capsys, "bruteforce", "--n", "4", "--k", "1")
    assert code == 0
    assert out.startswith("MATCH")


def test_bruteforce_cap(capsys):
    code, out, err = run(capsys, "bruteforce", "--n", "7", "--k", "1")
    assert code == 2
    assert out == ""
    assert "n <= 6" in err


@pytest.mark.parametrize("n, k", [("3", "2"), ("0", "0"), ("7", "9")])
def test_bruteforce_names_k_out_of_range(capsys, n, k):
    # the cycle length n - k used to be reported as m, or as a bad degree
    code, out, err = run(capsys, "bruteforce", "--n", n, "--k", k)
    assert (code, out) == (2, "")
    assert err == f"error: need 0 <= k <= n-2, got n = {n}, k = {k}\n"


def test_usage_error_bad_k(capsys):
    code, _, err = run(capsys, "spectrum", "--n", "3", "--k", "5")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("n", ["0", "-4"])
def test_usage_error_table1_without_a_cycle_class(capsys, n):
    # no shape applies at these n, so the range check must come before the rows
    code, out, err = run(capsys, "table1", "--n", n, "--k", "0")
    assert (code, out) == (2, "")
    assert err == f"error: need 0 <= k <= n-2, got n = {n}, k = 0\n"


def test_verify_table_names_its_vertices(capsys):
    code, out, err = run(capsys, "verify-recursive-5cycles")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "vertices: 840 right cosets of ⟨(1 2 3 4)(5 6 7 8), (1 2)(5 6)⟩"
    assert lines[1].split() == ["k", "valency", "lambda1", "lambda2", "rhs_exact", "status"]
    assert [line.split()[-1] for line in lines[2:7]] == ["PASS"] * 5
    assert lines[7].endswith(": n*(n-2)*(n-3)*(n-4)*(n-6)/5")


def test_verify_rejects_a_negative_seed(capsys):
    code, out, err = run(capsys, "verify-recursive-5cycles", "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: need seed >= 0, got -1\n"


def test_verify_names_the_unreached_tolerance(capsys, monkeypatch):
    # 3 iterations cannot reach 1e-12 * valency: the failure is convergence, not a value
    monkeypatch.setattr(
        eigensolve,
        "extremal_eigenvalues",
        functools.partial(eigensolve.extremal_eigenvalues, max_iterations=3),
    )
    code, out, err = run(capsys, "verify-recursive-5cycles", "--tol", "1e-12")
    assert (code, out) == (1, "")
    assert err.startswith(
        "FAIL: recursive check failed at k = 0: Lanczos did not converge in 3 iterations: "
        "residuals ("
    )
    assert err.endswith(") vs target tol * valency = 1.344e-09\n")
    assert "coset count" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("quotient", "--n", "20000", "--k", "0"),  # 4e8 entries; 19998! has 77,329 digits
        ("quotient", "--n", "3000", "--k", "0"),  # 2998! has 9,124 digits
        ("table1", "--n", "3000", "--k", "1"),
    ],
)
def test_integers_past_the_str_digit_limit_are_a_usage_error(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    n, k = argv[2], argv[4]
    assert err == (
        f"error: n = {n}, k = {k} gives an integer longer than the interpreter's "
        f"{sys.get_int_max_str_digits()}-digit limit for int-to-str conversion\n"
    )


BEYOND_INT64 = "9223372036854775810"  # past the largest argument of math.factorial
TOO_LONG = f"{sys.get_int_max_str_digits()}-digit limit for int-to-str conversion"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("lambda2", "--n", "1000000", "--k", "1"),
            "full_spectrum is capped at n <= 14 (override with CAYLEY_SPECTRA_MAX_N), got n = 1000000",
        ),
        (("bruteforce", "--n", "1000000", "--k", "1"), "brute force is capped at n <= 6, got n = 1000000"),
        (
            ("table1", "--n", "1000000", "--k", "1"),
            f"n = 1000000, k = 1 gives an integer longer than the interpreter's {TOO_LONG}",
        ),
        (
            ("quotient", "--n", "1000000", "--k", "1"),
            f"n = 1000000, k = 1 gives an integer longer than the interpreter's {TOO_LONG}",
        ),
        (
            ("lambda2", "--n", BEYOND_INT64, "--k", "1"),
            f"full_spectrum is capped at n <= 14 (override with CAYLEY_SPECTRA_MAX_N), got n = {BEYOND_INT64}",
        ),
        (("bruteforce", "--n", BEYOND_INT64, "--k", "1"), f"brute force is capped at n <= 6, got n = {BEYOND_INT64}"),
        (
            ("table1", "--n", BEYOND_INT64, "--k", "1"),
            f"n = {BEYOND_INT64}, k = 1 gives an integer longer than the interpreter's {TOO_LONG}",
        ),
        (
            ("quotient", "--n", BEYOND_INT64, "--k", "1"),
            f"n = {BEYOND_INT64}, k = 1 gives an integer longer than the interpreter's {TOO_LONG}",
        ),
    ],
    ids=lambda value: "-".join(value[:3]) if isinstance(value, tuple) else "",
)
def test_huge_pairs_are_refused_before_the_valency_is_built(capsys, monkeypatch, argv, message):
    # the valency (n-k-1)! C(n, k) has millions of digits at n = 1e6, and math.factorial
    # refuses an argument past 2^63 - 1 with an OverflowError
    monkeypatch.delenv("CAYLEY_SPECTRA_MAX_N", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--n", NINES, "--k", "1"),
        ("spectrum", "--n", "5", "--k", NINES),
        ("lambda2", "--n", NINES, "--k", "1"),
        ("conjecture", "--n-max", NINES),
        ("conjecture", "--n-max", f"-{NINES}"),
        ("table1", "--n", NINES, "--k", "1"),
        ("table1", "--n", "5", "--k", NINES),
        ("quotient", "--n", NINES, "--k", "1"),
        ("quotient", "--n", "5", "--k", f"-{NINES}"),
        ("bruteforce", "--n", NINES, "--k", "1"),
        ("hypothesis", "--n", "5", "--k", NINES),
        ("hypothesis", "--n", NINES, "--k", f"-{NINES}"),
    ],
    ids=lambda argv: "-".join(a if len(a) < 20 else f"{a[0]}{len(a)}" for a in argv),
)
def test_error_lines_clip_a_4300_digit_argument(capsys, monkeypatch, argv):
    monkeypatch.delenv("CAYLEY_SPECTRA_MAX_N", raising=False)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 200
    assert "9" * 21 not in err


@pytest.mark.parametrize(
    "k, shown",
    [("99999999999999999999", "99999999999999999999"), ("-99999999999999999999", "-99999999999999999999"),
     ("999999999999999999999", "99999999999999999999..."), ("-999999999999999999999", "-99999999999999999999...")],
    ids=["20-digits", "minus-20-digits", "21-digits", "minus-21-digits"],
)
def test_error_lines_clip_past_20_digits(capsys, k, shown):
    code, out, err = run(capsys, "hypothesis", "--n", "5", "--k", k)
    assert (code, out, err) == (2, "", f"error: need n >= 3 and 0 <= k <= n-2, got n = 5, k = {shown}\n")


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_quotient_matrix_text_is_capped(capsys, fmt):
    # 10^6 entries of 2,562 digits: about 2.5 GB of text before the cap
    start = time.perf_counter()
    code, out, err = run(capsys, "quotient", "--n", "1000", "--k", "0", "--format", fmt)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        f"error: the quotient matrix at n = 1000, k = 0 would print up to 2563000000 bytes, "
        f"past the {cli.QUOTIENT_TEXT_LIMIT}-byte cap; --format json prints its two entries\n"
    )


def test_quotient_json_is_not_capped(capsys):
    code, out, _ = run(capsys, "quotient", "--n", "1000", "--k", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["order"], doc["diagonal"], len(doc["off_diagonal"])) == (1000, "0", 2562)


def test_usage_error_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main(["does-not-exist"])
    assert info.value.code == 2


def test_size_limit_is_usage_error(capsys):
    code, _, err = run(capsys, "spectrum", "--n", "20", "--k", "1")
    assert code == 2
    assert "20" in err
