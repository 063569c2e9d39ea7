"""Exact spectra of normal Cayley graphs on Sym(n) generated by (n-k)-cycles.

The headline objects: symmetric-group characters via the hook-removal
recursion, eigenvalues chi(sigma)/f * |class| from beta-sets with multiplicity
f^2, closed forms for the fourteen low-dimension shapes, quotient matrices of
the point-stabilizer coset partition, dense brute-force spectra, and a
Lanczos certification pipeline for the filtered 5-cycle graphs on Alt(8).

The reference routines that only the tests compare against (hook lengths,
tableau counts, character tables, rim-hook cells, equitable-partition checks,
vertex numbering) live in ``tests/oracles.py``, not here.

The exact routes need no arrays. The names of the two array routes,
``eigensolve`` and ``permutations``, load on first use, so that importing the
package does not import numpy.
"""

from importlib import import_module

from .characters import mn_character
from .errors import SizeLimitError, VerificationError
from .quotient import (
    QuotientMatrix,
    quotient_eigenvalues_gamma,
    quotient_lambda2_recursive,
    quotient_matrix_gamma,
)
from .spectra import (
    HypothesisFlags,
    Lambda2,
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
from .young import (
    dimension,
    enumerate_partitions,
    format_partition,
    parse_partition,
    transpose,
)

__version__ = "0.1.0"

#: name -> the numpy-backed submodule that defines it, imported on first lookup
_LAZY = {
    **dict.fromkeys(
        (
            "dense_spectrum",
            "extremal_eigenvalues",
            "five_cycle_lambda2_formula",
            "verify_recursive_5cycles",
        ),
        "eigensolve",
    ),
    **dict.fromkeys(
        (
            "CayleyOperator",
            "GroupSlice",
            "Permutation",
            "alternating_group",
            "cayley_adjacency",
            "enumerate_class_cycles",
            "symmetric_group",
        ),
        "permutations",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups bypass this hook
    return value


__all__ = [
    "CayleyOperator",
    "GroupSlice",
    "HypothesisFlags",
    "Lambda2",
    "Permutation",
    "QuotientMatrix",
    "SizeLimitError",
    "SpectrumEntry",
    "VerificationError",
    "alternating_group",
    "cayley_adjacency",
    "class_size",
    "closed_form_table1",
    "concrete_shape",
    "conjecture_check",
    "dense_spectrum",
    "dimension",
    "eigenvalue_for",
    "enumerate_class_cycles",
    "enumerate_partitions",
    "extremal_eigenvalues",
    "five_cycle_lambda2_formula",
    "format_partition",
    "full_spectrum",
    "hypothesis_check",
    "in_asserted_regime",
    "lambda2",
    "mn_character",
    "parse_partition",
    "quotient_eigenvalues_gamma",
    "quotient_lambda2_recursive",
    "quotient_matrix_gamma",
    "spectrum_to_csv",
    "spectrum_to_json",
    "symmetric_group",
    "transpose",
    "verify_recursive_5cycles",
    "__version__",
]
