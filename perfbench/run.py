"""Benchmark of cayley-spectra: four workloads, checked outputs, optional tracing.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is exact-deep, exact-wide, cli-session, alt8-certify, or all (each in
turn).  A run first makes SETUP_SAMPLES fresh interpreters that only import
the package, then repeats whole rounds of the workload until --seconds have
passed, each round in fresh interpreters, and checks every output with
checks.py.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones of a traced run.  Spans
of a traced run are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SESSION = str(HERE / "session.py")
OUT_DIR = HERE / "out"

#: fresh interpreters per run that only import the package; setup_s is their median
SETUP_SAMPLES = 7

#: no child may outlive the 180 s a run is given
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_s": "s",
}

PER_LAYER = {
    **{name: "count" if name.endswith("_calls") else "s" for name in tracer.SPAN_METRICS},
    "young.enumerate_rim_hooks_distinct": "count",
    "permutations.neighbor_table_mb": "MB",
    "eigensolve.lanczos_iterations": "count",
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_scipy_s": "s",
    "cli.command_s": "s",
    "trace.wall_s": "s",
}


class RunFailed(Exception):
    """A child process of the benchmark itself broke (not an operation of the program)."""


def child_env() -> dict[str, str]:
    """The caller's environment with the checkout's src first and the program's size cap at its default."""
    env = dict(os.environ)
    env.pop("CAYLEY_SPECTRA_MAX_N", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(args: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run `python args` in the checkout; return the monotonic times around it and its result."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return start, time.monotonic(), proc


def last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunFailed(f"{' '.join(proc.args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_sample() -> float:
    start, _, proc = spawn([SESSION, "setup"])
    return last_json(proc)["ready"] - start


def import_split(module: str) -> tuple[float, float]:
    """Seconds spent importing numpy and scipy under `import module`, from -X importtime.

    A numpy or scipy module counts only where no numpy or scipy module imported it,
    so numpy modules that scipy pulls in count towards scipy.
    """
    _, _, proc = spawn(["-X", "importtime", "-c", f"import {module}"])
    if proc.returncode != 0:
        raise RunFailed(f"import {module} failed: {proc.stderr.strip()[-2000:]}")
    rows = []  # post-order: every module is listed after the modules it imported
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip().split(".")[0]))
    totals = {"numpy": 0, "scipy": 0}
    ancestors: list[tuple[int, str]] = []
    for depth, cumulative, top in reversed(rows):  # reversed post-order visits parents first
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if top in totals and all(a_top not in totals for _, a_top in ancestors):
            totals[top] += cumulative
        ancestors.append((depth, top))
    return totals["numpy"] / 1e6, totals["scipy"] / 1e6


def library_round(workload: str, seed: int, trace_file: str | None) -> dict:
    args = [SESSION, "run", workload, str(seed)] + ([trace_file] if trace_file else [])
    start, _, proc = spawn(args)
    result = last_json(proc)
    return {
        "wall_s": result["end"] - start,
        "cpu_s": result["cpu_s"],
        "ops": result["ops"],
        "attempted": len(result["ops"]) + result["failed"],
        "failed": result["failed"],
        "errors": result["errors"],
        "layers": result.get("layers"),
        "import_s": result["import_s"],
    }


def cli_round(seed: int, trace_file: str | None) -> dict:
    cpu_before = children_cpu_s()
    if trace_file:
        Path(trace_file + ".layers").unlink(missing_ok=True)
    runs = []
    for argv, usage_error in workloads.cli_order(seed):
        args = [SESSION, "cli", trace_file, *argv] if trace_file else ["-m", "cayley_spectra.cli", *argv]
        runs.append((argv, usage_error, *spawn(args)))
    wall = runs[-1][3] - runs[0][2]
    cpu = children_cpu_s() - cpu_before
    ops, failed, errors = [], 0, []
    for argv, usage_error, start, end, proc in runs:
        if proc.returncode != (2 if usage_error else 0) or "Traceback" in proc.stderr:
            failed += 1
            print(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
            continue
        ops.append(end - start)
        try:
            checks.check_cli(argv, usage_error, proc.returncode, proc.stdout, proc.stderr)
        except checks.CheckFailed as exc:
            errors.append(str(exc))
    layers = None
    if trace_file:
        with open(trace_file + ".layers", encoding="utf-8") as lines:
            commands = [json.loads(line) for line in lines]
        if len(commands) != len(runs):
            raise RunFailed(f"{len(runs)} traced commands wrote {len(commands)} layer records")
        layers = {name: sum(c["layers"][name] for c in commands) for name in commands[0]["layers"]}
        layers["cli.import_s"] = median(c["import_s"] for c in commands)
        layers["cli.command_s"] = median(run[3] - c["ready"] for run, c in zip(runs, commands))
    return {"wall_s": wall, "cpu_s": cpu, "ops": ops, "attempted": len(runs), "failed": failed,
            "errors": errors, "layers": layers}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    trace_file = None
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = str(OUT_DIR / f"trace-{workload}-{seed}.tsv")
        Path(trace_file).unlink(missing_ok=True)
    setups = [] if trace else [setup_sample() for _ in range(SETUP_SAMPLES)]
    rounds = []
    start = last = time.monotonic()
    # whole rounds only: another one starts when it should end within `seconds`
    while not rounds or 2 * time.monotonic() - last - start <= seconds:
        last = time.monotonic()
        if workload == "cli-session":
            rounds.append(cli_round(seed, trace_file))
        else:
            rounds.append(library_round(workload, seed, trace_file))
    errors = [e for r in rounds for e in r["errors"]]
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    ops = [op for r in rounds for op in r["ops"]]
    if trace:
        layers = {name: median(r["layers"][name] for r in rounds) for name in rounds[0]["layers"]}
        numpy_s, scipy_s = import_split("cayley_spectra.cli" if workload == "cli-session" else "cayley_spectra")
        layers["cli.import_numpy_s"], layers["cli.import_scipy_s"] = numpy_s, scipy_s
        if workload != "cli-session":
            layers["cli.import_s"] = median(r["import_s"] for r in rounds)
            layers["cli.command_s"] = 0.0
        layers["trace.wall_s"] = median(r["wall_s"] for r in rounds)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {
            "wall_s": median(r["wall_s"] for r in rounds),
            "cpu_s": median(r["cpu_s"] for r in rounds),
            "setup_s": median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6,
            "latency_p50_s": median(ops) if ops else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cayley_spectra" / "__init__.py").is_file():
        print(f"no cayley_spectra package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    missed = checks.self_test()
    if missed:
        print(f"a check accepted a broken input: {', '.join(missed)}", file=sys.stderr)
        return 1
    if args.workload == "all":  # each workload in its own process, so peak RSS is its own
        status = 0
        for name in workloads.WORKLOADS:
            proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(args.trace)],
                                  capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            print(f"{name}: {proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else 'no result'}")
            status = status or proc.returncode
        return status
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
