"""Workload plans, golden files and the golden comparison of the benchmark.

A workload is a list of tables.  A table is one `gdmopt` study, one
diagnostics table, or one PDAS/reference cross-check pair, and each row
of it (a study level, a diagnostics level, a pair) is one operation.
This module imports neither numpy nor gdmopt, so run.py can plan and
check a pass without paying for either.
"""

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Floats must agree with the golden value to |a - b| <= RTOL * |b| + ATOL.
# RTOL is ten times below a change in the fourth significant digit
# (>= 1e-4 relative) and wide enough for a solver change that keeps the
# PDAS/reference agreement well inside 1e-8; ATOL only absorbs round-off
# sized values, such as the conformity defect of the conforming scheme.
RTOL = 1e-5
ATOL = 1e-12

# Criterion 07 of the acceptance gate: PDAS and the projected-gradient
# reference agree to this max-norm distance on state, adjoint and control.
AGREEMENT_TOL = 1e-8

# Columns compared exactly in study and diagnostics CSVs.
EXACT_COLUMNS = {"level", "dofs", "pdas_iters"}

# Every (case, scheme, level) of criterion 07: meshes with at most 500 DOFs.
CROSSCHECK_PAIRS = [
    ("example1", "p1", 2), ("example1", "p1", 3), ("example1", "p1", 4),
    ("example1", "ncp1", 2), ("example1", "ncp1", 3),
    ("example1", "hmm", 2), ("example1", "hmm", 3),
    ("example3-neumann", "p1", 2), ("example3-neumann", "p1", 3),
    ("example3-neumann", "p1", 4),
    ("example3-neumann", "ncp1", 2), ("example3-neumann", "ncp1", 3),
    ("example3-neumann", "hmm", 2), ("example3-neumann", "hmm", 3),
]

# kind, case, scheme, (first level, last level)
WORKLOADS = {
    "study-lshape-p1": [("study", "example2-lshape", "p1", (4, 7))],
    "study-neumann": [
        ("study", "example3-neumann", "ncp1", (4, 7)),
        ("study", "example3-neumann", "hmm", (4, 6)),
    ],
    "diagnostics": [
        ("diagnostics", "example1", "p1", (3, 7)),
        ("diagnostics", "example1", "ncp1", (3, 7)),
        ("diagnostics", "example1", "hmm", (3, 7)),
        ("diagnostics", "example3-neumann", "ncp1", (3, 7)),
    ],
    "crosscheck": [
        ("crosscheck", case, scheme, (level, level))
        for case, scheme, level in CROSSCHECK_PAIRS
    ],
}


# Highest level a benchmark run times, per workload.  The machine's speed
# wanders by 10-30% over seconds to minutes, so a run repeats passes of a
# few seconds and reports their median; a pass of the full ranges above
# (8-17 s) would fit once into a run.  The goldens keep the full ranges;
# `run.py --max-level` raises the cap, e.g. to trace level 7.
TIMED_MAX_LEVEL = {
    "study-lshape-p1": 6,
    "study-neumann": 6,
    "diagnostics": 6,
    "crosscheck": 2,
}


def table_key(kind, case, scheme, levels):
    return f"{kind}_{case}_{scheme}_{levels[0]}-{levels[1]}"


def plan(workload, max_level=None):
    """Tables of a workload as dicts; max_level clips the level ranges.

    Clipping keeps the first level, so a clipped table's rows are a
    prefix of the full table's rows and share its golden file.
    """
    tables = []
    for kind, case, scheme, levels in WORKLOADS[workload]:
        lo, hi = levels[0], levels[1] if max_level is None else min(levels[1], max_level)
        if hi >= lo:
            tables.append({
                "kind": kind, "case": case, "scheme": scheme, "levels": [lo, hi],
                "golden": table_key(kind, case, scheme, levels),
            })
    return tables


def cases_of(workload):
    return sorted({case for _, case, _, _ in WORKLOADS[workload]})


def operations(table):
    lo, hi = table["levels"]
    return hi - lo + 1


def load_golden(workload):
    """Golden outputs of a workload's tables, keyed by golden name."""
    golden = {}
    for table in plan(workload):
        key = table["golden"]
        if table["kind"] == "crosscheck":
            records = json.loads((GOLDEN_DIR / "crosscheck.json").read_text())
            golden[key] = records[key]
        else:
            golden[key] = (GOLDEN_DIR / f"{key}.csv").read_text()
    return golden


def _close(value, expected):
    return abs(value - expected) <= RTOL * abs(expected) + ATOL


def _field_ok(column, value, expected):
    if column in EXACT_COLUMNS or expected == "" or value == "":
        return value == expected
    try:
        return _close(float(value), float(expected))
    except ValueError:
        return False


def check_csv(text, golden_text, levels):
    """Failed operations (levels) of one study or diagnostics CSV.

    The CSV must hold one row per level of the range, each matching the
    golden row of that level field by field.
    """
    golden_lines = golden_text.strip().split("\n")
    header = golden_lines[0].split(",")
    expected = {int(line.split(",")[0]): line.split(",") for line in golden_lines[1:]}
    lines = text.strip().split("\n") if text else []
    rows = {}
    if lines and lines[0] == golden_lines[0]:
        for line in lines[1:]:
            fields = line.split(",")
            try:
                rows.setdefault(int(fields[0]), fields)
            except ValueError:
                pass
    failed = []
    for level in range(levels[0], levels[1] + 1):
        row, want = rows.get(level), expected.get(level)
        ok = (
            row is not None and want is not None and len(row) == len(want)
            and all(_field_ok(c, v, w) for c, v, w in zip(header, row, want))
        )
        if not ok:
            failed.append(level)
    # Header plus one row per level: extra or repeated rows fail too.
    if len(lines) != levels[1] - levels[0] + 2 and not failed:
        failed.append(levels[1])
    return failed


def check_pair(record, golden_record):
    """True when a cross-check pair matches its golden record."""
    return (
        record["dofs"] == golden_record["dofs"]
        and record["pdas_iters"] == golden_record["pdas_iters"]
        and record["agreement"] <= AGREEMENT_TOL
        and all(_close(record[k], golden_record[k]) for k in ("norm_y", "norm_p", "norm_u"))
    )


def check_table(table, output, golden):
    """Number of failed operations of one table output against the golden."""
    n = operations(table)
    if output is None or "error" in output:
        return n
    want = golden[table["golden"]]
    if table["kind"] == "crosscheck":
        return 0 if check_pair(output["record"], want) else n
    if output["exit"] != 0:
        # A failed level ends the study; everything from it on is lost.
        return max(1, len(check_csv(output["csv"], want, table["levels"])))
    return len(check_csv(output["csv"], want, table["levels"]))
