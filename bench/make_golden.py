"""Write bench/golden/ from one untraced pass of every workload.

    python3 bench/make_golden.py

Run it only on the commit whose outputs define the goldens; a change to
the goldens is a change to what the benchmark accepts as correct.
"""

import json

import run
import workloads


def main():
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    crosscheck = {}
    for workload in workloads.WORKLOADS:
        stdout = run.run_worker(["pass", workload], timeout=600)
        outputs = json.loads(stdout.strip().split("\n")[-1])["outputs"]
        for key, output in sorted(outputs.items()):
            if "error" in output or output.get("exit", 0) != 0:
                raise SystemExit(f"{key} failed; no golden written:\n{output}")
            if "record" in output:
                crosscheck[key] = output["record"]
            else:
                (workloads.GOLDEN_DIR / f"{key}.csv").write_text(output["csv"])
    path = workloads.GOLDEN_DIR / "crosscheck.json"
    path.write_text(json.dumps(crosscheck, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
