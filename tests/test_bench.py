"""The traced benchmark pass runs against the current source.

bench/tracer.py wraps gdmopt entry points by name: ``postprocess``,
``OptimalControlProblem.assembled``, ``TestCase.build_mesh`` and every
case closure it lists.  A traced pass of each workload, clipped to level
4, must exit cleanly and meet every golden, so a rename in the package
that the benchmark relies on fails here.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
MAX_LEVEL = 4


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_pass_meets_goldens(tmp_path, workload):
    spans = tmp_path / "s.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "pass", workload,
         "--max-level", str(MAX_LEVEL), "--spans", str(spans)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    golden = workloads.load_golden(workload)
    failed = {}
    for table in workloads.plan(workload, MAX_LEVEL):
        output = result["outputs"].get(table["golden"])
        bad = workloads.check_table(table, output, golden)
        if bad:
            failed[table["golden"]] = (bad, output)
    assert not failed, failed
    assert result["layers"] and json.loads(spans.read_text())["spans"]


@pytest.mark.parametrize("case,scheme", [("example1", "hmm"), ("example1", "p1"),
                                         ("example3-neumann", "ncp1")])
def test_multi_block_diagnostics_meet_goldens(case, scheme):
    # The traced passes above stop at level 4, where every diagnostics
    # point set fits one block.  At level 6 (and at level 5 on the hybrid
    # scheme's pieces and the Neumann meshes) the piece, face and cell
    # rules span several blocks, and the rows still meet the golden rows
    # of those levels.
    from gdmopt import cli
    from gdmopt.analysis import render_diagnostics_csv

    levels = (5, 6)
    rows, failure = cli.run_table(case, scheme, levels, diagnostics=True)
    assert failure is None
    golden = (workloads.GOLDEN_DIR / f"diagnostics_{case}_{scheme}_3-7.csv").read_text()
    assert workloads.check_csv(render_diagnostics_csv(rows), golden, levels) == []
