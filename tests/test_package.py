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


def test_cli_import_leaves_scipy_unloaded():
    path = os.pathsep.join([str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", "import cayley_spectra.cli, sys; print('scipy' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "False\n"
