"""Benchmark of gdmopt convergence studies, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--max-level L]

Run from the root of a source checkout; gdmopt is imported from its
src/ directory, in fresh worker processes (bench/worker.py).  Every
pass runs the workload's tables up to its TIMED_MAX_LEVEL (workloads.py)
or to --max-level, so that an untraced run holds several passes.

The host's speed wanders by 20-50% within seconds, so times are reported
at reference speed (calibration.py): each is rescaled by a fixed kernel
timed on the same core beside it, and the whole run is pinned to one
core.  The raw times are printed too.  The run

1. starts SETUP_SAMPLES fresh interpreters that import gdmopt and build
   the workload's cases, half before and half after the passes, times
   the kernel before and after each, and reports the median set-up time
   at reference speed (setup_s);
2. with --trace 0, runs untraced passes over the workload, one process
   each, while another pass still fits into S seconds (at least one),
   and reports the median pass time at reference speed (ref_wall_s),
   from the kernel samples taken during the pass, and the peak resident
   memory of the pass process (peak_rss_mb);
3. with --trace 1, runs one untraced and one traced pass, neither
   sampled, and reports the per-layer metrics of the traced one, with
   the tracing overhead; the spans go to bench/out/;
4. checks every table of every pass against bench/golden/ and every
   CSV against the same table of the run's first pass (byte identity).

The seed only shuffles the order of the tables within each pass.  The
last line of stdout is one JSON object: correct, attempted, failed
(operations: study levels, diagnostics rows, cross-check pairs) and the
metrics, each with its unit.  failed_frac, failed over attempted, is
printed by name on the line before it.

Beside this file: workloads.py (workload plans, golden tolerances and
checks), worker.py (one pass or one set-up sample per process),
calibration.py (the speed kernel), tracer.py (spans and per-layer
metrics), golden/ (outputs of the commit recorded in baseline.json,
rewritten by make_golden.py), selfcheck.py (a fast check of the
benchmark itself) and baseline.json (measured figures of that commit).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibration
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

# Import time drifts with the machine's load over tens of seconds, so the
# samples are split between the start and the end of the run.
SETUP_SAMPLES = 8
# Every run must end well inside three minutes, whatever its workload.
DEADLINE_S = 170.0
# The workloads are single-process and serial: one BLAS thread, and
# GDMOPT_THREADS=1 so levels run one after the other, as by default.
BLAS_THREADS = "1"
GDMOPT_THREADS = "1"
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here: no sources, or a worker crashed."""


def environment():
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": BLAS_THREADS,
        "gdmopt_threads": GDMOPT_THREADS,
    }


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["GDMOPT_THREADS"] = GDMOPT_THREADS
    for var in BLAS_VARIABLES:
        env[var] = BLAS_THREADS
    return env


def run_worker(args, timeout):
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=worker_env(),
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def quartiles(values):
    """(median, first quartile, third quartile, sample count)."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


class Checker:
    """Counts failed operations of each pass against goldens and pass 0."""

    def __init__(self, workload, max_level, golden):
        self.tables = {t["golden"]: t for t in workloads.plan(workload, max_level)}
        self.golden = golden
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, outputs):
        for key, table in self.tables.items():
            output = outputs.get(key)
            n = workloads.operations(table)
            bad = workloads.check_table(table, output, self.golden)
            csv = None if output is None else output.get("csv")
            if csv is not None:
                if self.first.setdefault(key, csv) != csv:
                    bad = n
            self.attempted += n
            self.failed += bad
            if bad:
                self.failures.append((key, bad, output))

    def fail_all(self):
        self.check({})


def pin_to_one_core():
    """Pin this process and its workers to one core, so that the speed
    kernel and the work it rescales always share a core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure_setup(workload, deadline, samples):
    """(raw, at reference speed) wall times of fresh set-up processes."""
    raw, ref = [], []
    for _ in range(samples):
        before = calibration.kernel_s()
        start = time.perf_counter()
        run_worker(["setup", workload], timeout=max(1.0, deadline - time.perf_counter()))
        raw.append(time.perf_counter() - start)
        ref.append(calibration.rescale(raw[-1], [before, calibration.kernel_s()]))
    return raw, ref


def run_passes(workload, seed, seconds, trace, max_level, checker, deadline):
    """Worker passes of one run; a traced run makes one untraced, one traced."""
    passes = []
    window = time.perf_counter()
    while True:
        index = len(passes)
        traced = trace and index == 1
        args = ["pass", workload, "--seed", str(seed), "--pass", str(index),
                "--max-level", str(max_level)]
        if traced:
            OUT.mkdir(exist_ok=True)
            args += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.json")]
        elif not trace:
            args.append("--calibrate")
        begun = time.perf_counter()
        try:
            stdout = run_worker(args, timeout=max(1.0, deadline - begun))
        except (BenchError, subprocess.TimeoutExpired) as exc:
            checker.fail_all()
            print(f"pass {index} failed: {exc}", file=sys.stderr)
            return passes
        result = json.loads(stdout.strip().split("\n")[-1])
        result["elapsed_s"] = time.perf_counter() - begun
        result["traced"] = traced
        passes.append(result)
        checker.check(result["outputs"])
        if trace:
            if traced:
                return passes
            continue
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if time.perf_counter() - window + typical > seconds:
            return passes


def layer_metrics(passes, env, out):
    """Per-layer metrics of the traced pass; writes the trace summary."""
    layers, per_level = passes[1]["layers"], passes[1]["per_level"]
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layers.items()}
    overhead = passes[1]["wall_s"] - passes[0]["wall_s"]
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}", file=out)
    OUT.mkdir(exist_ok=True)
    summary = OUT / f"trace-{env['workload']}-seed{env['seed']}.json"
    summary.write_text(json.dumps({
        "env": env, "untraced_wall_s": passes[0]["wall_s"],
        "traced_wall_s": passes[1]["wall_s"], "metrics": metrics, "per_level": per_level,
    }, indent=1, sort_keys=True))
    print(f"per-level layer split in {summary.relative_to(ROOT)}", file=out)
    return metrics


def end_to_end_metrics(passes, setup, out):
    """Medians of the passes and set-up samples; raw times are printed only."""
    metrics = {}
    kernel = [k for p in passes for k in p["kernel_s"]]
    for name, values, unit, reported in (
            ("raw_wall_s", [p["wall_s"] for p in passes], "s", False),
            ("ref_wall_s", [p["ref_wall_s"] for p in passes], "s", True),
            ("peak_rss_mb", [p["peak_rss_mb"] for p in passes], "MB", True),
            ("raw_setup_s", setup[0], "s", False),
            ("setup_s", setup[1], "s", True),
            ("kernel_s", kernel, "s", False)):
        med, q1, q3, n = quartiles(values)
        print(f"{name} median {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={n})", file=out)
        if reported:
            metrics[name] = {"value": med, "unit": unit}
    return metrics


def benchmark(workload, seed, seconds, trace, max_level=None, golden=None, out=None):
    """One benchmark run; prints its report to out and returns the result."""
    out = sys.stdout if out is None else out
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "gdmopt" / "__init__.py").is_file():
        raise BenchError(f"no gdmopt sources under {ROOT / 'src'}")
    golden = workloads.load_golden(workload) if golden is None else golden
    if max_level is None:
        max_level = workloads.TIMED_MAX_LEVEL[workload]
    checker = Checker(workload, max_level, golden)
    env = dict(environment(), workload=workload, seed=seed, trace=int(trace),
               max_level=max_level)
    print("env " + json.dumps(env), file=out)

    pin_to_one_core()
    calibration.kernel_s()  # first call pays for allocation and caches
    first = measure_setup(workload, deadline, SETUP_SAMPLES // 2)
    passes = run_passes(workload, seed, seconds, trace, max_level, checker, deadline)
    last = measure_setup(workload, deadline, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    setup = (first[0] + last[0], first[1] + last[1])

    for key, bad, output in checker.failures:
        detail = "" if output is None else output.get("error", output.get("stderr", ""))
        print(f"FAILED {key}: {bad} operation(s) {detail}".rstrip(), file=sys.stderr)
    if passes:
        print(f"order of pass 0: {', '.join(passes[0]['order'])}", file=out)
    print(f"failed_frac {checker.failed / checker.attempted:.6g} frac ({checker.failed} of "
          f"{checker.attempted} operations failed)", file=out)
    if trace:
        metrics = layer_metrics(passes, env, out) if len(passes) == 2 else {}
    else:
        metrics = end_to_end_metrics(passes, setup, out) if passes else {}
    result = {
        "correct": checker.failed == 0 and bool(metrics),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), file=out)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-level", type=int, default=None,
                        help="highest level to run (default: the workload's TIMED_MAX_LEVEL)")
    args = parser.parse_args(argv)
    try:
        benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.max_level)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
