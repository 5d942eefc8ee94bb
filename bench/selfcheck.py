"""Fast self-check of the benchmark, with every workload clipped to level 4.

    python3 bench/selfcheck.py

For each workload it runs the benchmark untraced and traced and requires
that every metric named in BENCHMARK.json is printed, with its unit,
and that no operation fails.  It then moves one golden value by one unit
in its fourth significant digit and requires the benchmark to count a
failed operation.  Exits 1 with the reasons when any check fails.
"""

import io
import json
import math
import sys

import run
import workloads

MAX_LEVEL = 4


def last_json(text):
    return json.loads(text.strip().split("\n")[-1])


def check_metrics(result, declared, where):
    problems = []
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"{where}: metrics {sorted(metrics)} != {sorted(declared)}")
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{where}: {name} has unit {m.get('unit')!r}, not {unit!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} has no finite value")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    return problems


def shift_fourth_digit(text):
    """Golden CSV with the first err_y value moved by one unit in its 4th digit."""
    lines = text.split("\n")
    fields = lines[1].split(",")
    column = lines[0].split(",").index("err_y")
    value = float(fields[column])
    fields[column] = f"{value + 10.0 ** (math.floor(math.log10(abs(value))) - 3):.9e}"
    lines[1] = ",".join(fields)
    return "\n".join(lines)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, declared in ((False, end_to_end), (True, per_layer)):
            out = io.StringIO()
            max_level = min(MAX_LEVEL, workloads.TIMED_MAX_LEVEL[workload])
            run.benchmark(workload, seed=1, seconds=0, trace=trace, max_level=max_level, out=out)
            where = f"{workload} trace={int(trace)}"
            problems += check_metrics(last_json(out.getvalue()), declared, where)
            print(f"{where}: checked", flush=True)

    workload = "study-lshape-p1"
    golden = workloads.load_golden(workload)
    key = workloads.plan(workload)[0]["golden"]
    golden[key] = shift_fourth_digit(golden[key])
    print(f"{key}: golden err_y moved in its 4th digit; a FAILED line is expected", flush=True)
    out = io.StringIO()
    run.benchmark(workload, seed=1, seconds=0, trace=False, max_level=MAX_LEVEL,
                  golden=golden, out=out)
    corrupted = last_json(out.getvalue())
    if not corrupted["failed"] / corrupted["attempted"] > 0 or corrupted["correct"]:
        problems.append(f"a corrupted golden value went unnoticed: {corrupted}")

    for problem in problems:
        print(problem, file=sys.stderr)
    print("selfcheck " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
