"""One fresh interpreter of a benchmark run.

    session.py setup                            import the package, print the time
    session.py run WORKLOAD SEED [TRACE_FILE]   one round of a library workload
    session.py cli TRACE_FILE ARGV...           one traced command of the CLI

The package is imported first, before anything of the benchmark, so the
import time printed is that of a fresh interpreter.  A round prints one JSON
line last: when the import ended and the operations ended (both on the
system-wide monotonic clock), the CPU time at that point, each operation's
wall time, the failed operations, the check failures and, when traced, the
per-layer metrics.  The checks run after the operations have ended.
"""

import sys
import time

_import_start = time.perf_counter()
if sys.argv[1] == "cli":
    import cayley_spectra.cli as _package
else:
    import cayley_spectra as _package
_ready = time.monotonic()
_import_s = time.perf_counter() - _import_start

import json  # noqa: E402
import resource  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def exact_round(cs, grid):
    """One full_spectrum call per (n, k); returns latencies, failures and the check step."""
    latencies, failed, outputs = [], 0, []
    for n, k in grid:
        start = time.perf_counter()
        try:
            entries = cs.full_spectrum(n, k, max_n=workloads.EXACT_MAX_N)
        except Exception as exc:  # a failed operation is counted, and the round goes on
            failed += 1
            print(f"full_spectrum({n}, {k}) failed: {exc!r}", file=sys.stderr)
            continue
        latencies.append(time.perf_counter() - start)
        outputs.append((n, k, entries))

    def check():
        for n, k, entries in outputs:
            checks.check_spectrum(n, k, [(e.partition, e.eigenvalue, e.multiplicity) for e in entries])

    return latencies, failed, check


def alt8_round(cs, seed):
    start = time.perf_counter()
    lanczos_seed = workloads.lanczos_seed(seed)
    try:
        report = cs.verify_recursive_5cycles(seed=lanczos_seed)
    except Exception as exc:
        print(f"verify_recursive_5cycles failed: {exc!r}", file=sys.stderr)
        return [], 1, lambda: None
    latency = time.perf_counter() - start

    def check():
        checks.require(report.seed == lanczos_seed, "Alt(8): certificate seed is not the one passed")
        checks.check_alt8(json.loads(report.to_json()), workloads.ALT8_TOL)

    return [latency], 0, check


def run_round(workload: str, seed: int, trace_file: str | None) -> dict:
    spans = None
    if trace_file:
        spans = tracer.Tracer()
        tracer.install(spans)
    if workload == "exact-deep":
        latencies, failed, check = exact_round(_package, workloads.EXACT_DEEP)
    elif workload == "exact-wide":
        latencies, failed, check = exact_round(_package, workloads.EXACT_WIDE)
    elif workload == "alt8-certify":
        latencies, failed, check = alt8_round(_package, seed)
    else:
        raise SystemExit(f"unknown library workload {workload!r}")
    result = {
        "ready": _ready,
        "end": time.monotonic(),
        "cpu_s": cpu_seconds(),
        "ops": latencies,
        "failed": failed,
        "import_s": _import_s,
    }
    try:
        check()
        result["errors"] = []
    except checks.CheckFailed as exc:
        result["errors"] = [str(exc)]
    if spans is not None:
        result["layers"] = spans.metrics()
        spans.dump(trace_file, f"{workload}:{seed}")
    return result


def traced_command(trace_file: str, argv: list[str]) -> int:
    """Run one CLI command with the layers wrapped; spans go to trace_file."""
    spans = tracer.Tracer()
    tracer.install(spans)
    try:
        return _package.main(argv)
    finally:
        layers = spans.metrics()
        spans.dump(trace_file, " ".join(argv))
        with open(trace_file + ".layers", "a", encoding="utf-8") as out:
            out.write(json.dumps({"ready": _ready, "import_s": _import_s, "layers": layers}) + "\n")


def main() -> int:
    mode = sys.argv[1]
    if mode == "setup":
        print(json.dumps({"ready": _ready}))
        return 0
    if mode == "run":
        workload, seed = sys.argv[2], int(sys.argv[3])
        trace_file = sys.argv[4] if len(sys.argv) > 4 else None
        print(json.dumps(run_round(workload, seed, trace_file)))
        return 0
    if mode == "cli":
        return traced_command(sys.argv[2], sys.argv[3:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
