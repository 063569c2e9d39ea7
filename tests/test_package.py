"""Package-wide invariants: checks that survive ``python -O`` and a numpy-only
runtime."""

import ast
import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import cayley_spectra

PACKAGE_DIR = Path(cayley_spectra.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_no_memo_tables_in_package():
    # a table the package keeps must be hit by a benchmark workload, as the shape
    # table of spectra.full_spectrum is; the functools memo tables never were
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and node.module == "functools"
        and {alias.name for alias in node.names} & {"cache", "lru_cache"}
        or isinstance(node, ast.Attribute)
        and ast.unparse(node) in ("functools.cache", "functools.lru_cache")
    ]
    assert found == []


def defined_names(tree):
    """The names that a module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (target.id for target in targets if isinstance(target, ast.Name))


def referenced_names(tree):
    """Every name that code in ``tree`` reads, imports or takes as an attribute;
    docstrings and comments are no code, so they do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def readme_library_block():
    """The Python code block of the README's Library section."""
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Library\n.*?```python\n(.*?)```", text, re.S | re.M).group(1)


def test_every_export_runs_in_the_package_or_is_documented():
    # a name that only the tests call is a test oracle: it belongs in tests/oracles.py
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    home = {name: module for module, tree in trees.items() for name in defined_names(tree)}
    used = {module: set(referenced_names(tree)) for module, tree in trees.items()}
    library = readme_library_block()
    idle = [
        name
        for name in cayley_spectra.__all__
        if name != "__version__"  # package metadata, read by no code
        and not any(name in used[m] for m in trees if m not in (home[name], "__init__"))
        and not re.search(rf"\b{name}\b", library)
    ]
    assert idle == []


#: modules that the exact routes import; they must not load numpy when imported
EXACT_MODULES = ("__init__", "cli", "quotient", "spectra", "characters", "young", "errors")
ARRAY_MODULES = ("numpy", "cayley_spectra.eigensolve", "cayley_spectra.permutations")


def import_time_imports(tree, into_functions=False):
    """(line, module names) of each import run when the module is imported:
    not those under ``if TYPE_CHECKING:``, nor, unless ``into_functions``,
    those inside a function."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not into_functions:
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            for branch in node.orelse:
                yield from import_time_imports(branch, into_functions)
            continue
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["cayley_spectra" if node.level else "", node.module]))
            yield node.lineno, [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            yield from import_time_imports(node, into_functions)


def exact_imports_of(banned_modules, names=EXACT_MODULES, into_functions=False):
    """``file:line module`` of each import-time import of a banned module (or a
    submodule of one) in the modules ``names``; with ``into_functions``, of
    each import inside a function too."""
    return [
        f"{name}.py:{line} {module}"
        for name in names
        for line, modules in import_time_imports(
            ast.parse((PACKAGE_DIR / f"{name}.py").read_text()), into_functions
        )
        for module in modules
        if any(module == banned or module.startswith(banned + ".") for banned in banned_modules)
    ]


def test_exact_modules_import_no_array_module():
    # numpy costs every fresh interpreter about 0.1 s; only the array routes may load it
    assert exact_imports_of(ARRAY_MODULES) == []


def test_exact_route_modules_import_no_array_module_even_in_a_function():
    # the import-time test above misses an import inside a function; of the exact
    # modules only __init__ (its lazy names) and cli (the array commands) may defer one
    modules = ("quotient", "spectra", "characters", "young", "errors")
    assert exact_imports_of(ARRAY_MODULES, modules, into_functions=True) == []


def test_exact_modules_defer_dataclasses_and_csv():
    # dataclasses brings inspect, dis, ast and tokenize, about 12 ms of every
    # command's start; csv serves only the csv formats, which import it themselves
    assert exact_imports_of(("dataclasses", "csv")) == []


#: math's floating-point functions and constants; the exact modules decide in integers
FLOAT_MATH = frozenset(
    ("lgamma", "gamma", "log", "log2", "log10", "log1p", "exp", "expm1", "sqrt", "pow",
     "inf", "nan", "isclose", "isinf", "isnan", "isfinite")
)


def test_exact_modules_use_no_floating_point_math():
    # a float comparison would make a printed claim rest on rounding; isqrt and
    # the integer functions (comb, factorial, perm, prod) stay allowed
    found = []
    for name in EXACT_MODULES:
        for node in ast.walk(ast.parse((PACKAGE_DIR / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                used = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value) == "math":
                used = [node.attr]
            else:
                continue
            found += [f"{name}.py:{node.lineno} math.{fn}" for fn in used if fn in FLOAT_MATH]
    assert found == []


def run_python(*args, check=True, env=None):
    path = os.pathsep.join([str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ if env is None else env, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=check
    )


def test_cli_import_leaves_scipy_unloaded():
    out = run_python("-c", "import cayley_spectra.cli, sys; print('scipy' in sys.modules)")
    assert out.stdout == "False\n"


def test_alt8_certification_leaves_numpy_random_unloaded():
    out = run_python(
        "-c",
        "import sys; from cayley_spectra import eigensolve; "
        "assert eigensolve.verify_recursive_5cycles().passed; print('numpy.random' in sys.modules)",
    )
    assert out.stdout == "False\n"


def test_cli_import_leaves_dataclasses_inspect_and_csv_unloaded():
    out = run_python(
        "-c",
        "import cayley_spectra.cli, sys; "
        "print([m for m in ('dataclasses', 'inspect', 'csv') if m in sys.modules])",
    )
    assert out.stdout == "[]\n"


#: imports the modules named in argv in turn and prints, as JSON, the process's
#: thread count, whether os.environ is as it was, and every variable set or unset meanwhile
BLAS_START = """
import json, os, sys
touched = set()
putenv, unsetenv = os.putenv, os.unsetenv
os.putenv = lambda key, value: touched.add(os.fsdecode(key)) or putenv(key, value)
os.unsetenv = lambda key: touched.add(os.fsdecode(key)) or unsetenv(key)
before = dict(os.environ)
for name in sys.argv[1:]:
    __import__(name)
threads = len(os.listdir("/proc/self/task"))
print(json.dumps({"threads": threads, "unchanged": dict(os.environ) == before, "touched": sorted(touched)}))
"""

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_start(*modules, **variables) -> dict:
    """BLAS_START's record for ``modules``, run with no thread variable set but ``variables``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    return json.loads(run_python("-c", BLAS_START, *modules, env=env | variables).stdout)


needs_proc_tasks = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads in Linux /proc/self/task"
)


@needs_proc_tasks
@pytest.mark.parametrize("module", ["cayley_spectra.eigensolve", "cayley_spectra.permutations"])
def test_array_modules_load_numpy_on_one_blas_thread(module):
    # OpenBLAS reads the variable once, when numpy loads it; it is gone again after the import
    plain = blas_start("numpy")
    assert blas_start(module) == {
        "threads": 1,
        "unchanged": True,
        "touched": sorted(set(plain["touched"]) | {"OPENBLAS_NUM_THREADS"}),
    }


@needs_proc_tasks
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_preset_blas_thread_count_is_kept(variable):
    plain = blas_start("numpy", **{variable: "2"})
    assert plain["unchanged"] and "OPENBLAS_NUM_THREADS" not in plain["touched"]
    assert blas_start("cayley_spectra.eigensolve", **{variable: "2"}) == plain


@needs_proc_tasks
def test_numpy_loaded_first_keeps_its_blas_threads():
    plain = blas_start("numpy")
    assert plain["unchanged"] and "OPENBLAS_NUM_THREADS" not in plain["touched"]
    assert blas_start("numpy", "cayley_spectra.eigensolve") == plain


@needs_proc_tasks
def test_package_import_leaves_the_environment_alone():
    expected = {"threads": 1, "unchanged": True, "touched": []}
    assert blas_start("cayley_spectra") == expected
    assert blas_start("cayley_spectra.cli") == expected


#: each exact record: module, name, field order, one instance's values and the
#: repr that instance had when the records were frozen dataclasses
RECORDS = [
    ("spectra", "SpectrumEntry", ("partition", "eigenvalue", "multiplicity"), ((3, 1), 1, 9),
     "SpectrumEntry(partition=(3, 1), eigenvalue=1, multiplicity=9)"),
    ("spectra", "Lambda2", ("value", "witnesses"), (6, ((4, 1),)),
     "Lambda2(value=6, witnesses=((4, 1),))"),
    ("spectra", "_ShapeRule", ("shape_id", "min_n", "build", "ratio"), ("n", 1, len, abs),
     "_ShapeRule(shape_id='n', min_n=1, build=<built-in function len>, ratio=<built-in function abs>)"),
    ("spectra", "HypothesisFlags",
     ("in_main_theorem_range", "unique_rimhook_range", "sqrtkfact_bound_holds"), (True, False, True),
     "HypothesisFlags(in_main_theorem_range=True, unique_rimhook_range=False, sqrtkfact_bound_holds=True)"),
    ("spectra", "ConjectureRecord",
     ("n", "k", "expected", "value", "witnesses", "value_matches", "witness_found"),
     (5, 2, 6, 6, ((4, 1),), True, True),
     "ConjectureRecord(n=5, k=2, expected=6, value=6, witnesses=((4, 1),), value_matches=True, witness_found=True)"),
    ("quotient", "QuotientMatrix", ("order", "diagonal", "off_diagonal", "provenance"), (3, 0, 1, "p"),
     "QuotientMatrix(order=3, diagonal=0, off_diagonal=1, provenance='p')"),
]


@pytest.mark.parametrize("module, name, fields, values, text", RECORDS, ids=[r[1] for r in RECORDS])
def test_exact_records_keep_fields_repr_and_immutability(module, name, fields, values, text):
    cls = getattr(import_module(f"cayley_spectra.{module}"), name)
    record = cls(*values)
    assert cls._fields == fields
    assert repr(record) == text
    assert record == cls(**dict(zip(fields, values)))
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no __dict__ to take a new attribute


#: runs CLI commands in one fresh interpreter and prints whether numpy was loaded after each group
NUMPY_AFTER_COMMANDS = """
import contextlib, io, sys
from cayley_spectra.cli import main

def loaded_after(*commands):
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(argv.split()) for argv in commands]
    return codes, "numpy" in sys.modules

print(loaded_after(
    "spectrum --n 6 --k 2", "lambda2 --n 7 --k 1", "conjecture --n-max 6", "table1 --n 8 --k 2",
    "quotient --n 6 --k 2", "char --partition 3,2 --type 3,1,1", "hypothesis --n 8 --k 2",
))
print(loaded_after("bruteforce --n 4 --k 1"))
"""


def test_only_the_array_commands_load_numpy():
    out = run_python("-c", NUMPY_AFTER_COMMANDS)
    assert out.stdout == "([0, 0, 0, 0, 0, 0, 0], False)\n([0], True)\n"


#: imports the package in a fresh interpreter and resolves every exported name
LAZY_EXPORTS = """
import sys
import cayley_spectra as cs
print("numpy" in sys.modules)
missing = [name for name in cs.__all__ if getattr(cs, name, None) is None]
print(missing, "numpy" in sys.modules)
star = {}
exec("from cayley_spectra import *", star)
print(sorted(set(cs.__all__) - set(star)))
print(cs.dense_spectrum is cs.eigensolve.dense_spectrum, cs.GroupSlice is cs.permutations.GroupSlice)
try:
    cs.no_such_name
except AttributeError as exc:
    print(exc)
"""


def test_package_exports_resolve_lazily():
    out = run_python("-c", LAZY_EXPORTS)
    assert out.stdout.splitlines() == [
        "False",
        "[] True",
        "[]",
        "True True",
        "module 'cayley_spectra' has no attribute 'no_such_name'",
    ]


def test_cli_defaults_match_the_numpy_routes():
    from cayley_spectra import cli, eigensolve, permutations

    args = cli.build_parser().parse_args(["verify-recursive-5cycles"])
    assert (args.tol, args.seed) == (eigensolve.DEFAULT_TOL, eigensolve.DEFAULT_SEED)
    assert permutations.DENSE_ORDER_LIMIT == 1000
    assert cli.BRUTEFORCE_MAX_N == 6


#: triggers each explicit invariant raise and prints the ones that fired; run
#: under python -O, where an assert in their place would be stripped
INVARIANTS_UNDER_O = """
import contextlib, io, sys
from math import factorial
import cayley_spectra.spectra as spectra
import cayley_spectra.young as young
from cayley_spectra.cli import main
from cayley_spectra.errors import VerificationError
from cayley_spectra.permutations import (
    Permutation, _compose, _factor_rows, alternating_group, cayley_adjacency, enumerate_class_cycles
)

assert False, "asserts are stripped under -O"
fired = []
peel = spectra._eigenvalue
spectra._eigenvalue = lambda beads, m: peel(beads, m) + (list(beads) == [5, 2])  # the beads of (4, 2)
try:
    spectra.full_spectrum(6, 2)
except ArithmeticError as exc:
    fired.append("trace identities" in str(exc))
spectra._eigenvalue = peel

def cli_fails_traces(name, wrong):
    # a wrong f^lambda or a wrong conjugate sign must end in the trace identities,
    # which the CLI reports as a verification failure (exit 1), not a traceback
    right = getattr(spectra, name)
    setattr(spectra, name, wrong(right))
    spectra._last_table = None  # the shape table at n = 6 is built again, with a wrong f^lambda
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["spectrum", "--n", "6", "--k", "2"])
    setattr(spectra, name, right)
    return code == 1 and err.getvalue().startswith(
        "verification failure: spectrum of n = 6, k = 2 fails the trace identities"
    )

fired.append(cli_fails_traces("_dimension_from_beads", lambda f: lambda b, n: f(b, n) + (b == [5, 2])))
fired.append(cli_fails_traces("_transpose_sign", lambda s: lambda n, k: -s(n, k)))
try:
    spectra._eigenvalue([2, 1, 5], 2)  # no beta-set: the beads do not decrease
except ArithmeticError as exc:
    fired.append("non-integral eigenvalue" in str(exc))
young.factorial = lambda x: factorial(x) + (x == 4)  # f(2,2) = 4! (3-2) / (3! 2!) with 4! read as 25
try:
    young.dimension((2, 2))
except ArithmeticError as exc:
    fired.append("do not divide" in str(exc))
young.factorial = factorial
try:
    _compose(*_factor_rows(alternating_group(5), [Permutation.from_cycles(5, [(1, 2)])]))
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
    assert out.stdout == "1 [True, True, True, True, True, True, True]\n"
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
