"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import count
from math import factorial

from . import quotient, spectra
from .characters import _check_cap, mn_character
from .errors import SizeLimitError, VerificationError
from .spectra import DEFAULT_SEED, DEFAULT_TOL, DENSE_ORDER_LIMIT
from .young import _clip_int, _parse_runs, format_partition, parse_partition

# numpy, eigensolve and permutations are imported inside the two commands that
# build arrays: every other command is exact integer work and starts faster

#: largest degree whose whole group fits a dense adjacency matrix
BRUTEFORCE_MAX_N = next(n for n in count(1) if factorial(n + 1) > DENSE_ORDER_LIMIT)

#: largest matrix text (64 MiB) that `quotient --format table|csv` prints
QUOTIENT_TEXT_LIMIT = 64 * 2**20


def _bracket(lam) -> str:
    return "[" + format_partition(lam) + "]"


def _check_printable(n: int, k: int, values) -> None:
    """Reject (n, k), before any output, when one of the integers to print has
    more decimal digits than ``str()`` converts under the interpreter's limit."""
    limit = sys.get_int_max_str_digits()
    if limit and any(abs(v) >= 10**limit for v in values):
        raise ValueError(
            f"n = {_clip_int(n)}, k = {_clip_int(k)} gives an integer longer than the interpreter's "
            f"{limit}-digit limit for int-to-str conversion"
        )


def _check_valency_printable(n: int, k: int) -> None:
    """Check (n, k), then refuse it like :func:`_check_printable` when the valency
    that table1 and quotient print is too long, from (n-k-1)! >= 2^(n-k-2) and
    C(n, j) >= (n/j)^j, j = min(k, n-k), before building it."""
    spectra._check_range(n, k)
    j = min(k, n - k)
    bits = n - k - 2 + (j * ((n // j).bit_length() - 1) if j else 0)
    # 2^bits <= valency, cut at 2^(4 limit), which is past 10^limit
    _check_printable(n, k, [1 << min(bits, 4 * sys.get_int_max_str_digits())])


def cmd_spectrum(args) -> int:
    entries = spectra.full_spectrum(args.n, args.k)
    if args.format == "json":
        print(spectra.spectrum_to_json(args.n, args.k, entries))
    elif args.format == "csv":
        print(spectra.spectrum_to_csv(entries), end="")
    else:
        c = spectra.class_size(args.n, args.k)
        print(f"Cay(Sym({args.n}), {args.n - args.k}-cycles): valency {c}")
        labels = [format_partition(e.partition) for e in entries]
        width = max(map(len, labels))
        print(f"{'partition':<{width + 2}}{'eigenvalue':>14}  multiplicity")
        for label, e in zip(labels, entries):
            print(f"{label:<{width + 2}}{e.eigenvalue:>14}  {e.multiplicity}")
    return 0


def cmd_lambda2(args) -> int:
    result = spectra.lambda2(args.n, args.k)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": args.n,
                    "k": args.k,
                    "lambda2": str(result.value),
                    "witnesses": [format_partition(w) for w in result.witnesses],
                }
            )
        )
    else:
        print(f"{result.value}  witnesses: " + " ".join(_bracket(w) for w in result.witnesses))
    return 0


def cmd_conjecture(args) -> int:
    records = spectra.conjecture_check(args.n_max)
    failed = [r for r in records if not r.ok]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n_max": args.n_max,
                    "records": [
                        {
                            "n": r.n,
                            "k": r.k,
                            "lambda2": str(r.value),
                            "expected": str(r.expected),
                            "witnesses": [format_partition(w) for w in r.witnesses],
                            "pass": r.ok,
                        }
                        for r in records
                    ],
                    "pass": not failed,
                }
            )
        )
    else:
        for r in records:
            status = "PASS" if r.ok else "FAIL"
            print(
                f"n={r.n} k={r.k}: lambda2={r.value} expected={r.expected} "
                f"witnesses={' '.join(_bracket(w) for w in r.witnesses)} {status}"
            )
        print(f"checked {len(records)} pairs: {len(records) - len(failed)} pass, {len(failed)} fail")
    return 1 if failed else 0


def cmd_table1(args) -> int:
    _check_valency_printable(args.n, args.k)  # before any row
    c = spectra.class_size(args.n, args.k)
    asserted = spectra.in_asserted_regime(args.n, args.k)
    rows = []
    for shape_id, rule in spectra.TABLE1_SHAPES.items():
        if args.n < rule.min_n:
            rows.append((shape_id, None, None))
            continue
        lam = spectra.concrete_shape(shape_id, args.n)
        # exact: outside the asserted regime a closed form may be a fraction, printed as such
        value = rule.ratio(args.n, args.k) * c
        if asserted and value.denominator != 1:
            raise VerificationError(
                f"closed form for {shape_id!r} non-integral at n={args.n}, k={args.k} "
                f"inside the asserted regime: {value}"
            )
        rows.append((shape_id, lam, value))
    _check_printable(
        args.n,
        args.k,
        [part for _, _, value in rows if value is not None for part in (value.numerator, value.denominator)],
    )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": args.n,
                    "k": args.k,
                    "asserted_regime": asserted,
                    "rows": [
                        {
                            "shape": shape_id,
                            "partition": None if lam is None else format_partition(lam),
                            "eigenvalue": None if value is None else str(value),
                        }
                        for shape_id, lam, value in rows
                    ],
                }
            )
        )
    else:
        regime = "asserted (3k+1 < n or k <= 1)" if asserted else "reported only (outside proven regime)"
        print(f"closed forms at n={args.n}, k={args.k}: {regime}")
        for shape_id, lam, value in rows:
            if lam is None:
                print(f"{shape_id:<14} (needs n >= {spectra.TABLE1_SHAPES[shape_id].min_n})")
            else:
                print(f"{shape_id:<14} {format_partition(lam):<20} {value}")
    return 0


def cmd_quotient(args) -> int:
    _check_valency_printable(args.n, args.k)
    q = quotient.quotient_matrix_gamma(args.n, args.k)
    top, second = quotient.quotient_eigenvalues_gamma(args.n, args.k)
    _check_printable(args.n, args.k, [q.diagonal, q.off_diagonal, top, second])
    if args.format != "json":
        # n rows of n entries, each at most the longer entry's digits and one separator
        size = q.order**2 * (max(len(str(q.diagonal)), len(str(q.off_diagonal))) + 1)
        if size > QUOTIENT_TEXT_LIMIT:
            raise SizeLimitError(
                f"the quotient matrix at n = {_clip_int(args.n)}, k = {_clip_int(args.k)} would print "
                f"up to {_clip_int(size)} bytes, "
                f"past the {QUOTIENT_TEXT_LIMIT}-byte cap; --format json prints its two entries"
            )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": args.n,
                    "k": args.k,
                    "order": q.order,
                    "diagonal": str(q.diagonal),
                    "off_diagonal": str(q.off_diagonal),
                    "eigenvalues": {"top": str(top), "second": str(second)},
                    "second_multiplicity": q.order - 1,
                }
            )
        )
    elif args.format == "csv":
        print(q.to_csv(), end="")
    else:
        print(q.provenance)
        print(q.to_csv(), end="")
        print(f"eigenvalues: {top} (x1), {second} (x{q.order - 1})")
    return 0


def cmd_char(args) -> int:
    # the cap, checked on the unexpanded text: 1^1000000000 is a short argument
    for text in (args.partition, args.type):
        _check_cap(sum(part * exponent for part, exponent in _parse_runs(text)))
    print(mn_character(parse_partition(args.partition), parse_partition(args.type)))
    return 0


def cmd_bruteforce(args) -> int:
    spectra._check_range(args.n, args.k)  # before the cap, which names no k
    if args.n > BRUTEFORCE_MAX_N:
        raise ValueError(f"brute force is capped at n <= {BRUTEFORCE_MAX_N}, got n = {_clip_int(args.n)}")
    # the array modules first: permutations loads numpy with one BLAS thread
    from . import eigensolve
    from .permutations import cayley_adjacency, enumerate_class_cycles, symmetric_group

    import numpy as np

    op = cayley_adjacency(
        symmetric_group(args.n), enumerate_class_cycles(args.n, args.n - args.k)
    )
    dense = eigensolve.dense_spectrum(op, assume_integral=True)
    expanded: list[int] = []
    for entry in spectra.full_spectrum(args.n, args.k):
        expanded.extend([entry.eigenvalue] * entry.multiplicity)
    expanded.sort(reverse=True)
    deviation = float(np.abs(dense.values - np.array(expanded, dtype=np.float64)).max())
    if list(dense.integers) == expanded and deviation <= 1e-8:
        print(f"MATCH: {len(expanded)} eigenvalues agree (max deviation {deviation:.2e})")
        return 0
    print(f"MISMATCH: adjacency spectrum deviates from character spectrum by {deviation:.2e}")
    return 1


def cmd_verify(args) -> int:
    from . import eigensolve

    try:
        report = eigensolve.verify_recursive_5cycles(tol=args.tol, seed=args.seed)
    except VerificationError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(report.to_json())
    else:
        print(f"vertices: {report.vertices} {report.subgroup}")
        print(" k  valency  lambda1       lambda2       rhs_exact  status")
        for row in report.rows:
            print(
                f"{row.k:>2}  {row.valency:>7}  {row.lambda1_numeric:<12.6f}  "
                f"{row.lambda2_numeric:<12.6f}  {row.rhs_exact:>9}  "
                f"{'PASS' if row.passed else 'FAIL'}"
            )
        print(f"certified second-eigenvalue formula for the 5-cycle class (n >= 7): {report.lambda2_formula}")
    return 0 if report.passed else 1


def cmd_hypothesis(args) -> int:
    flags = spectra.hypothesis_check(args.n, args.k)
    payload = {
        "in_main_theorem_range": flags.in_main_theorem_range,
        "unique_rimhook_range": flags.unique_rimhook_range,
        "sqrtkfact_bound_holds": flags.sqrtkfact_bound_holds,
    }
    if args.format == "json":
        print(json.dumps({"n": args.n, "k": args.k} | payload))
    else:
        for name, value in payload.items():
            print(f"{name}: {str(value).lower()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley-spectra",
        description="Exact spectra of the (n-k)-cycle Cayley graphs of Sym(n), "
        "with quotient, brute-force, and Lanczos certification pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_nk(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("spectrum", help="full eigenvalue/multiplicity table")
    add_nk(p)
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("lambda2", help="largest eigenvalue strictly below the valency")
    add_nk(p)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_lambda2)

    p = sub.add_parser("conjecture", help="sweep lambda2 against (k-1)/(n-1) * valency")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("table1", help="closed forms for the fourteen low-dimension shapes")
    add_nk(p)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("quotient", help="point-stabilizer coset quotient matrix")
    add_nk(p)
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("char", help="one character value by the hook-removal recursion")
    p.add_argument("--partition", required=True, help='shape, e.g. "3,2"')
    p.add_argument("--type", required=True, help='cycle type, e.g. "3,1,1"')
    p.set_defaults(func=cmd_char)

    p = sub.add_parser(
        "bruteforce", help=f"dense adjacency spectrum vs character spectrum (n <= {BRUTEFORCE_MAX_N})"
    )
    add_nk(p)
    p.set_defaults(func=cmd_bruteforce)

    p = sub.add_parser(
        "verify-recursive-5cycles",
        help="certify the filtered 5-cycle graphs on Alt(8) by Lanczos + coset counts",
    )
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hypothesis", help="range predicates for a pair (n, k)")
    add_nk(p)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_hypothesis)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VerificationError, ArithmeticError) as exc:  # ArithmeticError: a failed exact identity
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
