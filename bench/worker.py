"""One benchmark process: `setup` or one `pass` over a workload.

    python3 bench/worker.py setup WORKLOAD
    python3 bench/worker.py pass WORKLOAD --seed N --pass K [--max-level L]
                            [--calibrate | --spans PATH]

`setup` imports gdmopt and builds the workload's case objects, then
exits; run.py times the whole process.  `pass` runs every table of
the workload once, in an order shuffled from (seed, pass), through the
public entry points of gdmopt, and prints one JSON line with the pass
time, the peak resident memory of this process and each table's output.
With --calibrate it samples the core's speed during the pass
(calibration.py) and adds the pass time at reference speed; with
--spans it traces the pass instead and writes the spans to PATH.
gdmopt is imported from the src/ directory next to bench/ only.
"""

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calibration
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_gdmopt():
    sys.path.insert(0, str(SRC))
    import gdmopt

    if Path(gdmopt.__file__).resolve().parent != SRC / "gdmopt":
        raise SystemExit(f"gdmopt imported from {gdmopt.__file__}, not from {SRC}")
    return gdmopt


def run_cli(gdmopt, args):
    """gdmopt's CLI with stdout captured; returns its exit code and CSV."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gdmopt.cli.main(args)
    return {"exit": code, "csv": out.getvalue(), "stderr": err.getvalue()}


def run_pair(gdmopt, case_name, scheme, level):
    """Criterion 07 on one mesh: PDAS beside the projected-gradient reference."""
    case = gdmopt.get_case(case_name)
    gd = gdmopt.build_scheme(scheme, case.build_mesh(scheme, 2 ** level), case.bc)
    problem = case.build_problem(gd)
    a = gdmopt.solve_kkt_pdas(problem)
    b = gdmopt.solve_kkt_reference(problem)
    agreement = max(float(np.max(np.abs(x - y))) for x, y in ((a.u, b.u), (a.y, b.y), (a.p, b.p)))
    return {"record": {
        "dofs": int(gd.n_dofs),
        "pdas_iters": int(a.iterations),
        "agreement": agreement,
        "norm_y": float(np.linalg.norm(a.y)),
        "norm_p": float(np.linalg.norm(a.p)),
        "norm_u": float(np.linalg.norm(a.u)),
    }}


def run_table(gdmopt, table):
    case, scheme, (lo, hi) = table["case"], table["scheme"], table["levels"]
    if table["kind"] == "crosscheck":
        return run_pair(gdmopt, case, scheme, lo)
    args = ["--case", case, "--scheme", scheme, "--levels", f"{lo}..{hi}"]
    if table["kind"] == "diagnostics":
        args.append("--diagnostics")
    return run_cli(gdmopt, args)


def run_pass(workload, seed, pass_index, max_level, spans_path, calibrate):
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install_linalg()
    gdmopt = import_gdmopt()
    if tracer is not None:
        tracer.install(gdmopt)
    tables = workloads.plan(workload, max_level)
    random.Random(f"{seed}:{pass_index}").shuffle(tables)

    outputs = {}
    sampler = calibration.Sampler() if calibrate else None
    with sampler or contextlib.nullcontext():
        start = time.perf_counter()
        if tracer is not None:
            tracer.begin("cli.pass")
        for table in tables:
            if tracer is not None:
                tracer.table, tracer.level = table["golden"], None
                tracer.begin("cli.table")
            try:
                outputs[table["golden"]] = run_table(gdmopt, table)
            except (Exception, SystemExit):  # one broken table must not end the pass
                outputs[table["golden"]] = {"error": traceback.format_exc()}
            finally:
                if tracer is not None:
                    tracer.end()
        if tracer is not None:
            tracer.end()
        wall = time.perf_counter() - start

    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "order": [t["golden"] for t in tables],
        "outputs": outputs,
    }
    if sampler is not None:
        result["kernel_s"] = sampler.samples
        result["ref_wall_s"] = calibration.rescale(wall - sampler.inside_s, sampler.samples)
    if tracer is not None:
        result["layers"], result["per_level"] = tracer.metrics()
        Path(spans_path).write_text(json.dumps({
            "workload": workload, "seed": seed, "pass": pass_index,
            "fields": ["name", "start", "end", "parent", "table", "level"],
            "spans": tracer.spans,
        }))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    parser.add_argument("--max-level", type=int, default=None)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--spans", default=None)
    group.add_argument("--calibrate", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        gdmopt = import_gdmopt()
        for name in workloads.cases_of(args.workload):
            gdmopt.get_case(name)
        return 0
    result = run_pass(args.workload, args.seed, args.pass_index, args.max_level, args.spans,
                      args.calibrate)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
