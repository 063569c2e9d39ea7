"""Package-wide invariants: checks that survive ``python -O`` and a numpy-only
runtime."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cayley_spectra

PACKAGE_DIR = Path(cayley_spectra.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so every invariant must be an explicit raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(MODULES) > 1
    assert found == []


def run_python(*args, check=True):
    path = os.pathsep.join([str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=check
    )


def test_cli_import_leaves_scipy_unloaded():
    out = run_python("-c", "import cayley_spectra.cli, sys; print('scipy' in sys.modules)")
    assert out.stdout == "False\n"


#: triggers each explicit invariant raise and prints the ones that fired; run
#: under python -O, where an assert in their place would be stripped
INVARIANTS_UNDER_O = """
import sys
import cayley_spectra.spectra as spectra
from cayley_spectra.errors import VerificationError
from cayley_spectra.permutations import (
    Permutation, _neighbor_table, alternating_group, cayley_adjacency, enumerate_class_cycles
)

assert False, "asserts are stripped under -O"
fired = []
peel = spectra._eigenvalue
spectra._eigenvalue = lambda lam, m: peel(lam, m) + (lam == (4, 2))
try:
    spectra.full_spectrum(6, 2)
except ArithmeticError as exc:
    fired.append("trace identities" in str(exc))
try:
    _neighbor_table(alternating_group(5), [Permutation.from_cycles(5, [(1, 2)])])
except VerificationError as exc:
    fired.append("does not stabilize" in str(exc))
op = cayley_adjacency(alternating_group(5), enumerate_class_cycles(5, 3))
op.connection[0] = Permutation.from_cycles(5, [(1, 2)])  # past the constructor's check
try:
    op.matvec([1.0] * op.dim)
except VerificationError as exc:
    fired.append("does not stabilize" in str(exc))
print(sys.flags.optimize, fired)
"""


def test_invariants_fire_under_python_O(monkeypatch):
    monkeypatch.delenv("CAYLEY_SPECTRA_MAX_N", raising=False)
    out = run_python("-O", "-c", INVARIANTS_UNDER_O)
    assert out.stdout == "1 [True, True, True]\n"
    usage_errors = {
        ("verify-recursive-5cycles", "--tol", "nan"): "error: need 0 < tol < 1, got tol = nan\n",
        ("char", "--partition", "1^995", "--type", "1^995"): "error: mn_character is capped at n <= 14 "
        "(override with CAYLEY_SPECTRA_MAX_N), got n = 995\n",
        ("conjecture", "--n-max", "2"): "error: conjecture_check needs n_max >= 4, got n_max = 2\n",
        ("verify-recursive-5cycles", "--tol", "1e-300"): "error: need tol >= float64 eps = "
        "2.220446049250313e-16, got tol = 1e-300\n",
        ("quotient", "--n", "3000", "--k", "0"): "error: n = 3000, k = 0 gives an integer longer "
        "than the interpreter's 4300-digit limit for int-to-str conversion\n",
    }
    for argv, message in usage_errors.items():
        cli = run_python("-O", "-m", "cayley_spectra.cli", *argv, check=False)
        assert (cli.returncode, cli.stdout, cli.stderr) == (2, "", message), argv


def test_char_walks_a_thousand_cycles_without_recursion(monkeypatch):
    # one cycle per step of the Murnaghan-Nakayama rule: 995 of them must not
    # reach the interpreter's recursion limit once the cap allows them
    monkeypatch.setenv("CAYLEY_SPECTRA_MAX_N", "2000")
    cli = run_python(
        "-m", "cayley_spectra.cli", "char", "--partition", "1^995", "--type", "1^995", check=False
    )
    assert (cli.returncode, cli.stdout) == (0, "1\n")
    assert "Traceback" not in cli.stderr
