"""Benchmark of the rskcheck CLI on three workloads, with the seed as an argument.

    python3 bench/run.py --workload {count-sweep,suite-mix,queries} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is taken from its `src`.
With --trace 0 the benchmark repeats whole rounds of the workload until S
seconds have passed, checks every output against `reference`, and prints
the end-to-end metrics. With --trace 1 it prints the per-layer metrics
instead: the layer timings of `layers`, then one untraced and one traced
round (see `tracer`), whose difference is the tracing overhead. The last
line of stdout is the result as one JSON object; the line before it
records the host. Scratch files and traces go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import selftest
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("count-sweep", "suite-mix", "queries")
WORKERS = min(2, os.cpu_count() or 1)
CALL_TIMEOUT_S = 150
# -S: the program needs only the standard library, so its interpreters skip
# site-packages, whose start-up hooks belong to the host and not the program.
PYTHON = [sys.executable, "-S"]
SETUP_ARGV = [*PYTHON, "-c", "import rskcheck.cli as cli; cli.build_parser()"]
SETUP_FIRST = 5
SETUP_EVERY_S = 2.0
CLI = [*PYTHON, "-m", "rskcheck"]


@dataclass
class Round:
    seconds: float
    latencies: list[float]
    attempted: int
    failed: int
    perms: int


def run_cli(argv: list[str], cwd: Path) -> tuple[int, str, str]:
    """Run one program call in its own process group; kill the group on error."""
    proc = subprocess.Popen(
        argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=CALL_TIMEOUT_S)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def timed_cli(argv: list[str], cwd: Path) -> tuple[float, int, str, str]:
    start = time.perf_counter()
    rc, out, err = run_cli(argv, cwd)
    return time.perf_counter() - start, rc, out, err


def setup_sample(cwd: Path) -> float:
    """Time to start an interpreter, import the CLI and build its parser."""
    seconds, rc, _, err = timed_cli(SETUP_ARGV, cwd)
    if rc != 0:
        raise RuntimeError(f"set-up failed: {err.strip()}")
    return seconds


def sweep_round(workload: str, cli: list[str], cwd: Path) -> Round:
    """One verify call with a fresh --out file; each report is one operation."""
    suites, pairs = wl.SWEEPS[workload]
    out_file = cwd / "verify.jsonl"
    argv = [*cli, "verify", *suites, "--workers", str(WORKERS), "--json", "--out", str(out_file)]
    seconds, rc, out, _ = timed_cli(argv, cwd)
    out_text = out_file.read_text(encoding="utf-8") if out_file.exists() else ""
    out_file.unlink(missing_ok=True)
    failed = wl.check_sweep(pairs, WORKERS, rc, out, out_text)
    perms = sum(wl.perms_visited(check, n) for check, n in pairs)
    return Round(seconds, [seconds], len(pairs), failed, perms)


def queries_round(queries: list[dict], cli: list[str], cwd: Path) -> Round:
    """Every query once, one call at a time; each call is one operation."""
    start = time.perf_counter()
    latencies, results = [], []
    for q in queries:
        seconds, *result = timed_cli([*cli, *q["argv"]], cwd)
        latencies.append(seconds)
        results.append(result)
    seconds = time.perf_counter() - start
    failed = sum(not wl.check_query(q, *result) for q, result in zip(queries, results))
    perms = sum(wl.perms_in_query(q) for q in queries)
    return Round(seconds, latencies, len(queries), failed, perms)


def round_runner(workload: str, seed: int, cwd: Path):
    if workload == "queries":
        queries = wl.make_queries(seed)
        return lambda cli: queries_round(queries, cli, cwd)
    return lambda cli: sweep_round(workload, cli, cwd)


def end_to_end(workload: str, seed: int, seconds: float, cwd: Path) -> tuple[list[Round], dict]:
    run_cli(SETUP_ARGV, cwd)  # fills the bytecode cache of a fresh checkout
    # Set-up is sampled through the whole run, so that its median covers
    # the same stretch of machine time as the workload's.
    setup = [setup_sample(cwd) for _ in range(SETUP_FIRST)]
    run_round = round_runner(workload, seed, cwd)
    rounds: list[Round] = []
    start = last_setup = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            setup.append(setup_sample(cwd))
            last_setup = time.perf_counter()
        rounds.append(run_round(CLI))
    latencies = [x for r in rounds for x in r.latencies]
    wall = statistics.median(r.seconds for r in rounds)
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "perms_per_s": (rounds[0].perms / wall, "perm/s"),
        "query_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "query_ms_p90": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    return rounds, metrics


def traced(workload: str, seed: int, cwd: Path) -> tuple[list[Round], dict, dict]:
    import layers
    import tracer

    sys.path.insert(0, str(SRC))
    metrics = layers.layer_metrics(seed, WORKERS)
    run_round = round_runner(workload, seed, cwd)
    plain = run_round(CLI)
    span_dir = cwd / "spans"
    span_dir.mkdir()
    with_spans = run_round([*PYTHON, str(BENCH / "tracer.py"), str(span_dir)])
    metrics["trace.overhead_s"] = (with_spans.seconds - plain.seconds, "s")
    processes = tracer.load(span_dir)
    trace = {
        "untraced_s": plain.seconds,
        "traced_s": with_spans.seconds,
        "layers": tracer.layer_table(processes),
        "lockstep_stop_step": layers.lockstep_stops(seed),
        "processes": processes,
    }
    return [plain, with_spans], metrics, trace


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "rskcheck" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'rskcheck'} is missing", file=sys.stderr)
        return 2
    problems = selftest.failures()
    if problems:
        print("error: the benchmark's own checks are broken: " + "; ".join(problems), file=sys.stderr)
        return 1
    os.environ["PYTHONPATH"] = str(SRC)
    # Calls use the bytecode cache, as an installed package would.
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    OUT.mkdir(exist_ok=True)
    cwd = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            rounds, metrics, trace = traced(args.workload, args.seed, cwd)
        else:
            rounds, metrics = end_to_end(args.workload, args.seed, args.seconds, cwd)
            trace = None
    finally:
        shutil.rmtree(cwd, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    host = {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "workers": WORKERS,
        "round_seconds": [r.seconds for r in rounds],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps({"host": host, **result}, indent=1), encoding="utf-8")
    if trace is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps({"host": host, **trace}), encoding="utf-8")
        print("layer self time: " + json.dumps(trace["layers"]))
        print("lockstep stop step over sampled S_9: " + json.dumps(trace["lockstep_stop_step"]))
    print("host: " + json.dumps(host))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
