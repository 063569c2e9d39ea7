"""Checks of the program's outputs against arithmetic done here, apart from it.

Nothing in this file imports cayley_spectra or compares against a stored copy
of an earlier output.  Valencies, partition counts, dimensions and eigenvalues
come from classical formulas:

* the valency |C(n,k)| = C(n,k) (n-k-1)!;
* trace identities of a loopless Cayley graph on Sym(n):
  sum mult = n!, sum mult*xi = 0 and sum mult*xi^2 = n! |C|;
* the eigenvalues of [n], [1^n] and [n-1,1];
* full spectra by content sums (transpositions, 3-cycles) and by the
  Murnaghan-Nakayama rule worked out by hand for n-cycles (only hooks survive)
  and (n-1)-cycles (only near-hooks survive);
* lambda2 where it is proven: the k in {0, 1} values of Siemons and Zalesski,
  (k-1)/(n-1) |C| in the main theorem's range, n(n-3)/2 for transpositions and
  n(n-2)(n-3)(n-4)(n-6)/5 for 5-cycles.

Run as a script, it feeds every check an input with one value off by one and
exits non-zero unless each check rejects it.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from fractions import Fraction
from functools import cache
from math import comb, factorial

ALT8_DEGREE = 8
ALT8_CYCLE = 5
ALT8_LEVELS = range(5)


class CheckFailed(Exception):
    """A program output disagrees with an independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# arithmetic of our own

def valency(n: int, k: int) -> int:
    """Number of (n-k)-cycles in Sym(n)."""
    return comb(n, k) * factorial(n - k - 1)


def cycle_sign(length: int) -> int:
    return -1 if (length - 1) % 2 else 1


@cache
def partition_count(n: int) -> int:
    """p(n) by counting partitions with parts at most m, m = 1..n."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def partitions(n: int, largest: int | None = None):
    """All partitions of n as non-increasing tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for row in lam if row > c) for c in range(lam[0])) if lam else ()


def hook_dimension(lam: tuple[int, ...]) -> int:
    """f^lam by the hook length formula."""
    cols = conjugate(lam)
    product = 1
    for r, row in enumerate(lam):
        for c in range(row):
            product *= (row - c - 1) + (cols[c] - r - 1) + 1
    return factorial(sum(lam)) // product


def contents(lam: tuple[int, ...]) -> list[int]:
    return [c - r for r, row in enumerate(lam) for c in range(row)]


def hook_leg(lam: tuple[int, ...]) -> int | None:
    """r when lam = (n-r, 1^r), else None."""
    if all(part == 1 for part in lam[1:]):
        return len(lam) - 1
    return None


def exact_eigenvalue(lam: tuple[int, ...], n: int, k: int) -> int | None:
    """The eigenvalue of shape lam where a closed rule gives every shape, else None."""
    c = valency(n, k)
    if k == n - 2:  # transpositions: the content sum
        return sum(contents(lam))
    if k == n - 3:  # 3-cycles: sum of squared contents minus C(n,2)
        return sum(x * x for x in contents(lam)) - n * (n - 1) // 2
    if k == 0:  # n-cycles: chi = (-1)^r on hooks, 0 elsewhere
        r = hook_leg(lam)
        return 0 if r is None else (-1) ** r * c // comb(n - 1, r)
    if k == 1:  # (n-1)-cycles: peel the fixed point first
        r = hook_leg(lam)
        if r is not None:
            if r == 0:
                return c
            return (-1) ** n * c if r == n - 1 else 0
        if len(lam) >= 2 and lam[1] == 2 and all(p == 1 for p in lam[2:]):
            b = len(lam) - 2
            return (-1) ** (b + 1) * c // hook_dimension(lam)
        return 0
    return None


def expected_lambda2(n: int, k: int) -> int | None:
    """lambda2 where the paper or a classical result proves it, else None."""
    c = valency(n, k)
    if k == n - 2:
        return n * (n - 3) // 2
    if k == n - 5 and n >= 7:
        return n * (n - 2) * (n - 3) * (n - 4) * (n - 6) // 5
    if k == 0 and n >= 5:
        return factorial(n - 2) if n % 2 == 0 else 2 * factorial(n - 3)
    if k == 1 and n >= 6:
        return 3 * (n - 3) * factorial(n - 5) if n % 2 == 0 else 2 * (n - 2) * factorial(n - 4)
    if 2 <= k <= 4 and 3 * k + 1 < n:
        return (k - 1) * c // (n - 1)
    return None


def main_theorem_range(n: int, k: int) -> bool:
    """k <= min(n, 2 log_{k/e}(n(n-2)/(2e)) - 1), with k = 2 its own case."""
    if k == 2:
        return True
    if k < 2 or k > n:
        return False
    arg = n * (n - 2) / (2 * math.e)
    return arg > 1 and k <= min(n, 2 * math.log(arg) / math.log(k / math.e) - 1)


# ---------------------------------------------------------------------------
# whole spectra: entries are (partition, eigenvalue, multiplicity) triples

def check_shapes_listed(n: int, k: int, entries) -> None:
    """One entry per partition of n, multiplicity (f^lam)^2, eigenvalues descending."""
    shapes = [lam for lam, _, _ in entries]
    require(len(shapes) == partition_count(n), f"({n},{k}): {len(shapes)} shapes, p(n) = {partition_count(n)}")
    require(len(set(shapes)) == len(shapes), f"({n},{k}): a shape is listed twice")
    for lam, _, mult in entries:
        require(sum(lam) == n and all(a >= b >= 1 for a, b in zip(lam, lam[1:] + (1,))),
                f"({n},{k}): {lam} is not a partition of n")
        require(mult == hook_dimension(lam) ** 2, f"({n},{k}): multiplicity of {lam} is {mult}")
    values = [xi for _, xi, _ in entries]
    require(values == sorted(values, reverse=True), f"({n},{k}): eigenvalues are not in descending order")


def check_traces(n: int, k: int, entries) -> None:
    """sum mult = n!, sum mult*xi = 0, sum mult*xi^2 = n! |C|."""
    c = valency(n, k)
    require(sum(m for _, _, m in entries) == factorial(n), f"({n},{k}): multiplicities do not sum to n!")
    require(sum(m * xi for _, xi, m in entries) == 0, f"({n},{k}): trace of A is not 0")
    require(sum(m * xi * xi for _, xi, m in entries) == factorial(n) * c,
            f"({n},{k}): trace of A^2 is not n! |C|")


def check_special_shapes(n: int, k: int, entries) -> None:
    """[n] -> |C|, [1^n] -> sign |C|, [n-1,1] -> (k-1)/(n-1) |C|."""
    c = valency(n, k)
    by_shape = {lam: xi for lam, xi, _ in entries}
    require(by_shape.get((n,)) == c, f"({n},{k}): eigenvalue of [n] is {by_shape.get((n,))}, not {c}")
    sign_c = cycle_sign(n - k) * c
    require(by_shape.get((1,) * n) == sign_c, f"({n},{k}): eigenvalue of [1^n] is not {sign_c}")
    standard = Fraction((k - 1) * c, n - 1)
    require(by_shape.get((n - 1, 1)) == standard, f"({n},{k}): eigenvalue of [n-1,1] is not {standard}")


def check_exact_entries(n: int, k: int, entries) -> None:
    """Every entry against the closed rule, where one exists for this k."""
    for lam, xi, _ in entries:
        want = exact_eigenvalue(lam, n, k)
        if want is None:
            return
        require(xi == want, f"({n},{k}): eigenvalue of {lam} is {xi}, the closed rule gives {want}")


def lambda2_of(n: int, k: int, entries) -> tuple[int, set]:
    c = valency(n, k)
    below = [xi for _, xi, _ in entries if xi < c]
    require(bool(below), f"({n},{k}): no eigenvalue below the valency")
    top = max(below)
    return top, {lam for lam, xi, _ in entries if xi == top}


def check_lambda2(n: int, k: int, value: int, witnesses) -> None:
    """lambda2 against the proven value; [n-1,1] among the witnesses for k >= 2."""
    want = expected_lambda2(n, k)
    if want is not None:
        require(value == want, f"({n},{k}): lambda2 is {value}, proven value {want}")
    if k >= 2:
        require((n - 1, 1) in set(witnesses), f"({n},{k}): [n-1,1] is not among the lambda2 witnesses")


def check_spectrum(n: int, k: int, entries) -> int:
    """Every check on one full spectrum; returns lambda2."""
    entries = [(tuple(lam), int(xi), int(m)) for lam, xi, m in entries]
    check_shapes_listed(n, k, entries)
    check_traces(n, k, entries)
    check_special_shapes(n, k, entries)
    check_exact_entries(n, k, entries)
    value, witnesses = lambda2_of(n, k, entries)
    check_lambda2(n, k, value, witnesses)
    return value


# ---------------------------------------------------------------------------
# the Alt(8) certificate

@cache
def five_cycles(degree: int = ALT8_DEGREE, length: int = ALT8_CYCLE) -> tuple[dict[int, int], ...]:
    """Every `length`-cycle on 1..degree as a point -> image map (moved points only)."""
    out = []
    for support in itertools.combinations(range(1, degree + 1), length):
        for tail in itertools.permutations(support[1:]):
            cycle = (support[0],) + tail
            out.append({cycle[i]: cycle[(i + 1) % length] for i in range(length)})
    return tuple(out)


def alt8_level(k: int) -> tuple[int, int]:
    """(valency, coset-count lambda2) of level k, counted over 5-cycles covering {1..k}."""
    level = [t for t in five_cycles() if all(p in t for p in range(1, k + 1))]
    fixing = sum(1 for t in level if k + 1 not in t)
    moving = sum(1 for t in level if t.get(k + 2) == k + 1)
    return len(level), fixing - moving


def check_alt8(certificate: dict, tol: float) -> None:
    """lambda1 = covering 5-cycle count, lambda2 = coset-count difference,
    every residual at most tol * valency, and 384 at level 0."""
    rows = certificate["rows"]
    require([row["k"] for row in rows] == list(ALT8_LEVELS), "Alt(8): levels are not k = 0..4")
    require(certificate["tol"] == tol, f"Alt(8): tolerance {certificate['tol']} is not {tol}")
    for row in rows:
        k = row["k"]
        count, lam2 = alt8_level(k)
        require(row["lambda1"] is not None and int(row["lambda1"]) == count,
                f"Alt(8) k={k}: lambda1 {row['lambda1']} is not the {count} covering 5-cycles")
        require(int(row["valency"]) == count, f"Alt(8) k={k}: valency {row['valency']} is not {count}")
        require(row["lambda2"] is not None and int(row["lambda2"]) == lam2,
                f"Alt(8) k={k}: lambda2 {row['lambda2']} is not the coset-count difference {lam2}")
        require(int(row["rhs_exact"]) == lam2, f"Alt(8) k={k}: exact right-hand side is not {lam2}")
        for residual in row["residuals"]:
            require(residual <= tol * count, f"Alt(8) k={k}: residual {residual} exceeds tol * valency")
        require(row["pass"] is True, f"Alt(8) k={k}: the row does not pass")
    require(int(rows[0]["lambda2"]) == 8 * 6 * 5 * 4 * 2 // 5, "Alt(8): level 0 lambda2 is not 384")
    require(certificate["pass"] is True, "Alt(8): the certificate does not pass")


# ---------------------------------------------------------------------------
# the command line: one check per subcommand, on its parsed output

def parse_shape(text: str) -> tuple[int, ...]:
    parts: list[int] = []
    for token in text.strip("[]").split(","):
        base, _, exponent = token.partition("^")
        parts.extend([int(base)] * (int(exponent) if exponent else 1))
    return tuple(parts)


def _option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _cli_spectrum(argv, out):
    n, k = int(_option(argv, "--n")), int(_option(argv, "--k"))
    doc = json.loads(out)
    require((doc["n"], doc["k"]) == (n, k) and int(doc["valency"]) == valency(n, k),
            f"spectrum {n} {k}: header does not match")
    check_spectrum(n, k, [(parse_shape(e["partition"]), int(e["eigenvalue"]), int(e["multiplicity"]))
                          for e in doc["entries"]])


def _cli_lambda2(argv, out):
    n, k = int(_option(argv, "--n")), int(_option(argv, "--k"))
    doc = json.loads(out)
    value, witnesses = int(doc["lambda2"]), {parse_shape(w) for w in doc["witnesses"]}
    require(expected_lambda2(n, k) is not None, f"lambda2 {n} {k}: no proven value to check against")
    check_lambda2(n, k, value, witnesses)
    if exact_eigenvalue((n,), n, k) is not None:
        want = {lam for lam in partitions(n) if exact_eigenvalue(lam, n, k) == value}
        require(witnesses == want, f"lambda2 {n} {k}: witnesses differ from the closed rule's")


def _cli_conjecture(argv, out):
    n_max = int(_option(argv, "--n-max"))
    doc = json.loads(out)
    pairs = [(r["n"], r["k"]) for r in doc["records"]]
    require(pairs == [(n, k) for n in range(3, n_max + 1) for k in range(2, n - 1)],
            f"conjecture {n_max}: the sweep does not cover 3 <= n <= n_max, 2 <= k <= n-2")
    for r in doc["records"]:
        n, k, value = r["n"], r["k"], int(r["lambda2"])
        witnesses = {parse_shape(w) for w in r["witnesses"]}
        standard = (k - 1) * valency(n, k) // (n - 1)
        require(int(r["expected"]) == standard, f"conjecture ({n},{k}): expected is not {standard}")
        require(r["pass"] == (value == standard and (n - 1, 1) in witnesses),
                f"conjecture ({n},{k}): pass flag does not follow from the record")
        if expected_lambda2(n, k) is not None:
            check_lambda2(n, k, value, witnesses)
    require(doc["pass"] == all(r["pass"] for r in doc["records"]), f"conjecture {n_max}: overall flag")


def _cli_table1(argv, out):
    n, k = int(_option(argv, "--n")), int(_option(argv, "--k"))
    doc = json.loads(out)
    rows = {parse_shape(r["partition"]): int(r["eigenvalue"]) for r in doc["rows"] if r["partition"]}
    require(len(rows) >= 3, f"table1 {n} {k}: fewer than three shapes")
    entries = [(lam, xi, None) for lam, xi in rows.items()]
    c, sign = valency(n, k), cycle_sign(n - k)
    require(rows[(n,)] == c and rows[(1,) * n] == sign * c, f"table1 {n} {k}: trivial or sign row")
    require(rows[(n - 1, 1)] * (n - 1) == (k - 1) * c, f"table1 {n} {k}: [n-1,1] row")
    for lam, xi in rows.items():
        if conjugate(lam) in rows:
            require(rows[conjugate(lam)] == sign * xi, f"table1 {n} {k}: {lam} and its conjugate disagree")
    check_exact_entries(n, k, entries)


def _cli_quotient(argv, out):
    n, k = int(_option(argv, "--n")), int(_option(argv, "--k"))
    m, c = n - k, valency(n, k)
    doc = json.loads(out)
    diagonal = comb(n - 1, m) * factorial(m - 1)  # m-cycles fixing the point 1
    off = comb(n - 2, m - 2) * factorial(m - 2)  # m-cycles sending 2 to 1
    require(doc["order"] == n and int(doc["diagonal"]) == diagonal and int(doc["off_diagonal"]) == off,
            f"quotient {n} {k}: entries are not ({diagonal}, {off})")
    require(int(doc["eigenvalues"]["top"]) == c, f"quotient {n} {k}: top eigenvalue is not {c}")
    require(int(doc["eigenvalues"]["second"]) * (n - 1) == (k - 1) * c and doc["second_multiplicity"] == n - 1,
            f"quotient {n} {k}: second eigenvalue is not (k-1)/(n-1) |C| with multiplicity n-1")


def _cli_char(argv, out):
    lam, tau = parse_shape(_option(argv, "--partition")), parse_shape(_option(argv, "--type"))
    n = sum(lam)
    if lam == (n - 1, 1):
        want = tau.count(1) - 1  # fixed points minus one
    elif lam == (1,) * n:
        want = -1 if (n - len(tau)) % 2 else 1  # the sign
    elif tau == (1,) * n:
        want = hook_dimension(lam)
    else:
        raise CheckFailed(f"char {lam} {tau}: no independent rule for this pair")
    require(int(out) == want, f"char {lam} on {tau}: {out.strip()}, expected {want}")


def _cli_bruteforce(argv, out):
    n = int(_option(argv, "--n"))
    require(out.startswith(f"MATCH: {factorial(n)} eigenvalues agree"), f"bruteforce {n}: {out.strip()}")


def _cli_hypothesis(argv, out):
    n, k = int(_option(argv, "--n")), int(_option(argv, "--k"))
    doc = json.loads(out)
    require(doc["unique_rimhook_range"] == (3 * k + 1 < n), f"hypothesis {n} {k}: unique rim-hook flag")
    require(doc["sqrtkfact_bound_holds"] == (factorial(k) * (n - 1) ** 2 <= 9 * comb(n, 3) ** 2),
            f"hypothesis {n} {k}: sqrt(k!) bound flag")
    require(doc["in_main_theorem_range"] == main_theorem_range(n, k), f"hypothesis {n} {k}: range flag")


CLI_CHECKS = {
    "spectrum": _cli_spectrum,
    "lambda2": _cli_lambda2,
    "conjecture": _cli_conjecture,
    "table1": _cli_table1,
    "quotient": _cli_quotient,
    "char": _cli_char,
    "bruteforce": _cli_bruteforce,
    "hypothesis": _cli_hypothesis,
}


def check_cli(argv: list[str], expect_usage_error: bool, returncode: int, out: str, err: str) -> None:
    """One command's exit code and output."""
    require("Traceback" not in err, f"{' '.join(argv)}: traceback on stderr")
    if expect_usage_error:
        require(returncode == 2 and err.startswith("error: ") and not out,
                f"{' '.join(argv)}: expected exit 2 with a message, got {returncode}")
        return
    require(returncode == 0, f"{' '.join(argv)}: exit {returncode}: {err.strip()}")
    CLI_CHECKS[argv[0]](argv, out)


# ---------------------------------------------------------------------------
# self-test: every check must reject an input with one value off by one

def closed_spectrum(n: int, k: int) -> list[tuple[tuple[int, ...], int, int]]:
    """A whole spectrum from the closed rules, sorted as the program sorts it."""
    entries = [(lam, exact_eigenvalue(lam, n, k), hook_dimension(lam) ** 2) for lam in partitions(n)]
    order = {lam: i for i, lam in enumerate(partitions(n))}
    return sorted(entries, key=lambda e: (-e[1], order[e[0]]))


def _bumped(entries, shape, d_value=1, d_mult=0):
    return [(lam, xi + d_value, m + d_mult) if lam == shape else (lam, xi, m) for lam, xi, m in entries]


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except CheckFailed:
        return True
    return False


def self_test() -> list[str]:
    """Names of the checks that accepted a broken input (empty when all is well)."""
    missed = []
    for n, k in [(9, 7), (9, 6), (9, 0), (10, 0), (9, 1), (10, 1)]:
        good = closed_spectrum(n, k)
        check_spectrum(n, k, good)  # the closed rules must pass their own checks
        value, witnesses = lambda2_of(n, k, good)
        witness = min(witnesses)
        cases = {
            "shapes_listed": (check_shapes_listed, _bumped(good, witness, 0, 1)),
            "traces": (check_traces, _bumped(good, witness)),
            "special_shapes": (check_special_shapes, _bumped(good, (n - 1, 1))),
            "exact_entries": (check_exact_entries, _bumped(good, witness)),
            "spectrum": (check_spectrum, _bumped(good, witness)),
        }
        for name, (check, broken) in cases.items():
            if not _rejects(check, n, k, broken):
                missed.append(f"{name} ({n},{k})")
        if expected_lambda2(n, k) is not None and not _rejects(check_lambda2, n, k, value + 1, witnesses):
            missed.append(f"lambda2 value ({n},{k})")
        if k >= 2 and not _rejects(check_lambda2, n, k, value, witnesses - {(n - 1, 1)}):
            missed.append(f"lambda2 witness ({n},{k})")
    rows = []
    for k in ALT8_LEVELS:
        count, lam2 = alt8_level(k)
        rows.append({"k": k, "valency": str(count), "lambda1": str(count), "lambda2": str(lam2),
                     "rhs_exact": str(lam2), "residuals": [0.0, 0.0], "pass": True})
    certificate = {"tol": 1e-9, "rows": rows, "pass": True}
    check_alt8(certificate, 1e-9)
    for field in ("lambda1", "lambda2"):
        broken = json.loads(json.dumps(certificate))
        broken["rows"][2][field] = str(int(broken["rows"][2][field]) + 1)
        if not _rejects(check_alt8, broken, 1e-9):
            missed.append(f"alt8 {field}")
    broken = json.loads(json.dumps(certificate))
    broken["rows"][3]["residuals"][1] = 1e-9 * 240 * 1.01
    if not _rejects(check_alt8, broken, 1e-9):
        missed.append("alt8 residual")
    for argv, out in [(["char", "--partition", "6,1", "--type", "3,1^4"], "3"),
                      (["char", "--partition", "1^7", "--type", "3,2,2"], "1"),
                      (["char", "--partition", "4,2,1", "--type", "1^7"], "35")]:
        CLI_CHECKS["char"](argv, out)
        if not _rejects(CLI_CHECKS["char"], argv, str(int(out) + 1)):
            missed.append(f"cli char {argv[2]}")
    return missed


if __name__ == "__main__":
    failures = self_test()
    for name in failures:
        print(f"check accepted a broken input: {name}", file=sys.stderr)
    print("self-test: every check rejected its broken input" if not failures else "self-test FAILED")
    sys.exit(1 if failures else 0)
