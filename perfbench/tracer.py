"""Spans around the package's layers, recorded from outside the package.

`install` replaces each traced function under every name the package's modules
bind it to, so a caller that looks the name up at call time reaches the
wrapper.  Spans (name, start, end, parent) are kept in flat arrays in memory
and written out by `Tracer.dump` when the traced process ends.  A layer's self
time is its span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import os
import sys
import weakref
from array import array
from time import perf_counter

PACKAGE = "cayley_spectra"

#: (module, attribute) of each traced function, and its span name
TRACED = [
    ("young", "enumerate_rim_hooks", "young.enumerate_rim_hooks"),
    ("young", "remove_rim_hook", "young.remove_rim_hook"),
    ("young", "enumerate_partitions", "young.enumerate_partitions"),
    ("young", "dimension", "young.dimension"),
    ("characters", "mn_character", "characters.mn_character"),
    ("spectra", "eigenvalue_for", "spectra.eigenvalue_for"),
    ("spectra", "full_spectrum", "spectra.full_spectrum"),
    ("eigensolve", "dense_spectrum", "eigensolve.dense_spectrum"),
    ("eigensolve", "extremal_eigenvalues", "eigensolve.extremal_eigenvalues"),
    ("permutations", "_member_matrix", "permutations.members"),
    ("permutations", "cayley_adjacency", "permutations.cayley_adjacency"),
    ("permutations", "coset_count", "permutations.coset_count"),
    ("quotient", "quotient_lambda2_recursive", "quotient.quotient_lambda2_recursive"),
]

#: per-layer metric -> (kind, span name); kinds: total time, self time, call count
SPAN_METRICS = {
    "young.enumerate_rim_hooks_calls": ("calls", "young.enumerate_rim_hooks"),
    "young.enumerate_rim_hooks_s": ("total", "young.enumerate_rim_hooks"),
    "young.remove_rim_hook_s": ("total", "young.remove_rim_hook"),
    "characters.mn_character_calls": ("calls", "characters.mn_character"),
    "characters.mn_character_s": ("total", "characters.mn_character"),
    "young.enumerate_partitions_s": ("total", "young.enumerate_partitions"),
    "young.dimension_calls": ("calls", "young.dimension"),
    "young.dimension_s": ("total", "young.dimension"),
    "spectra.eigenvalue_for_calls": ("calls", "spectra.eigenvalue_for"),
    "spectra.eigenvalue_for_self_s": ("self", "spectra.eigenvalue_for"),
    "spectra.full_spectrum_s": ("total", "spectra.full_spectrum"),
    "eigensolve.dense_spectrum_s": ("total", "eigensolve.dense_spectrum"),
    "permutations.members_s": ("total", "permutations.members"),
    "permutations.cayley_adjacency_s": ("total", "permutations.cayley_adjacency"),
    "permutations.first_matvec_s": ("total", "permutations.first_matvec"),
    "permutations.matvec_calls": ("calls", "permutations.matvec"),
    "permutations.matvec_s": ("total", "permutations.matvec"),
    "eigensolve.extremal_eigenvalues_s": ("total", "eigensolve.extremal_eigenvalues"),
    "eigensolve.extremal_eigenvalues_self_s": ("self", "eigensolve.extremal_eigenvalues"),
    "quotient.quotient_lambda2_recursive_s": ("total", "quotient.quotient_lambda2_recursive"),
    "permutations.coset_count_calls": ("calls", "permutations.coset_count"),
}

class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._open: list[int] = []
        self.rim_hook_keys: set = set()
        self.table_mb = 0.0
        self.lanczos_iterations = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._open.pop()

    def wrap(self, fn, name):
        """`fn` inside a span; `name` is a string or a function of the call's arguments."""
        pick = name if callable(name) else (lambda *args: name)

        def traced(*args, **kwargs):
            index = self.open(pick(*args))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of every span recorded so far."""
        count = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        child_time = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                child_time[self.parent[i]] += duration[i]
        totals = {name: {"calls": 0, "total": 0.0, "self": 0.0} for name in self.names}
        for i in range(count):
            entry = totals[self.names[self.name_of[i]]]
            entry["calls"] += 1
            entry["total"] += duration[i]  # no traced function calls itself
            entry["self"] += duration[i] - child_time[i]
        out = {}
        for metric, (kind, name) in SPAN_METRICS.items():
            out[metric] = totals.get(name, {kind: 0})[kind]
        out["young.enumerate_rim_hooks_distinct"] = len(self.rim_hook_keys)
        out["permutations.neighbor_table_mb"] = self.table_mb
        out["eigensolve.lanczos_iterations"] = self.lanczos_iterations
        return out

    def dump(self, path: str, label: str) -> None:
        """Append every span as one tab-separated line: pid, label, id, parent, name, start, end."""
        pid = os.getpid()
        with open(path, "a", encoding="utf-8") as out:
            for i in range(len(self.start)):
                out.write(f"{pid}\t{label}\t{i}\t{self.parent[i]}\t{self.names[self.name_of[i]]}\t"
                          f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def _rebind(original, replacement) -> None:
    """Point every package-module name bound to `original` at `replacement`."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == PACKAGE or module_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer of TRACED, the operator's matvec, and the counters.

    A function the package no longer has is skipped, so its metrics read 0.
    """
    for module, attr, name in TRACED:
        original = getattr(sys.modules.get(f"{PACKAGE}.{module}"), attr, None)
        if original is None:
            continue
        wrapped = tracer.wrap(original, name)
        if attr == "enumerate_rim_hooks":
            wrapped = _counting_rim_hooks(tracer, wrapped)
        elif attr == "extremal_eigenvalues":
            wrapped = _counting_iterations(tracer, wrapped)
        _rebind(original, wrapped)

    operator_class = getattr(sys.modules.get(f"{PACKAGE}.permutations"), "CayleyOperator", None)
    if operator_class is None:
        return
    seen = weakref.WeakSet()

    def matvec_name(op, *args):
        if op in seen:
            return "permutations.matvec"
        seen.add(op)
        tracer.table_mb = max(tracer.table_mb, op.valency * op.dim * 4 / 1e6)
        return "permutations.first_matvec"

    operator_class.matvec = tracer.wrap(operator_class.matvec, matvec_name)


def _counting_rim_hooks(tracer: Tracer, wrapped):
    def counted(lam, length):
        tracer.rim_hook_keys.add((tuple(lam), length))
        return wrapped(lam, length)

    return counted


def _counting_iterations(tracer: Tracer, wrapped):
    def counted(*args, **kwargs):
        result = wrapped(*args, **kwargs)
        tracer.lanczos_iterations += result.iterations
        return result

    return counted
