"""End-to-end CLI behaviour: exit codes, CSV shape, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gdmopt
from gdmopt import assembly, cases, cli, control
from gdmopt.cli import MAX_LEVEL, build_parser, main, run_table
from gdmopt.gd_core import compute_sd_upper

HEADER = (
    "level,h,dofs,err_y,err_grad_y,err_p,err_grad_p,err_u,err_u_tilde,"
    "eoc_y,eoc_grad_y,eoc_p,eoc_grad_p,eoc_u,eoc_u_tilde,pdas_iters"
)

# Column indices that do not depend on neighbouring levels.
LEVEL_LOCAL = [0, 1, 2, 3, 4, 5, 6, 7, 8, 15]


def run_cli(tmp_path, args, name="out.csv"):
    path = tmp_path / name
    code = main(args + ["--out", str(path)])
    return code, path.read_text()


def test_study_csv_shape(tmp_path):
    code, text = run_cli(
        tmp_path, ["--case", "example1", "--scheme", "p1", "--levels", "2..3"]
    )
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "2"
    assert first[9] == ""  # no EOC on the first row
    second = lines[2].split(",")
    assert all(second[i] != "" for i in range(9, 15))
    # Errors shrink from level 2 to level 3.
    assert float(second[3]) < float(first[3])


def test_stdout_default(capsys):
    code = main(["--case", "example1", "--scheme", "ncp1", "--levels", "2..2"])
    assert code == 0
    captured = capsys.readouterr().out
    assert captured.startswith(HEADER)
    assert len(captured.strip().split("\n")) == 2


def test_single_level_argument(tmp_path):
    code, text = run_cli(
        tmp_path, ["--case", "example1", "--scheme", "p1", "--levels", "3"]
    )
    assert code == 0
    assert len(text.strip().split("\n")) == 2


# Explicit ids keep each row's id when rows are added or removed; a new
# row takes the next free number.
USAGE_ERRORS = {
    "args0": ["--case", "example1", "--scheme", "bogus"],
    "args1": ["--case", "bogus", "--scheme", "p1"],
    "args2": ["--case", "example1"],
    "args3": ["--case", "example1", "--scheme", "p1", "--levels", "4..2"],
    "args4": ["--case", "example1", "--scheme", "p1", "--levels", "x..y"],
    "args5": ["--case", "example1", "--scheme", "p1", "--shift", "0.2"],
    "args6": ["--case", "example1", "--scheme", "hmm", "--shift", "0.6"],
    "args7": ["--case", "example1", "--scheme", "hmm", "--shift", "-0.1"],
    "args8": ["--case", "example2-lshape", "--scheme", "hmm", "--shift", "0.2"],
    # The solver options are constants now: their former flags are rejected.
    "args9": ["--case", "example1", "--scheme", "p1", "--pdas-max-iter", "0"],
    "args10": ["--case", "example1", "--scheme", "p1", "--pdas-max-iter", "50"],
    "args11": ["--case", "example1", "--scheme", "p1", "--pdas-tol", "1e-8"],
    "args12": ["--case", "example1", "--scheme", "p1", "--pdas-tol", "inf"],
    "args13": ["--case", "example1", "--scheme", "p1", "--levels", "2..11"],
    "args14": ["--case", "example1", "--scheme", "p1", "--levels", "11"],
    "args15": ["--case", "example1", "--scheme", "p1", "--levels", "0..3"],
    "args16": ["--case", "example1", "--scheme", "hmm", "--levels", "1"],
    "args17": ["--case", "example1", "--scheme", "p1", "--levels", "2..5",
               "--out", "/nonexistent/dir/x.csv"],
}


@pytest.mark.parametrize("args", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_errors_exit_2(args, monkeypatch):
    # Usage errors are reported before any level runs.
    def no_work(*_args, **_kwargs):
        raise AssertionError("work started despite a usage error")

    monkeypatch.setattr(cli, "run_table", no_work)
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2


def test_option_surface_is_documented():
    # The flags the README documents, and no others.
    options = {opt for action in build_parser()._actions for opt in action.option_strings}
    assert options == {"-h", "--help", "--case", "--scheme", "--levels", "--shift",
                       "--out", "--diagnostics"}


def test_level_cap_checked_while_parsing():
    parser = build_parser()
    base = ["--case", "example1", "--scheme", "p1", "--levels"]
    assert parser.parse_args(base + [f"2..{MAX_LEVEL}"]).levels == (2, MAX_LEVEL)
    with pytest.raises(SystemExit):
        parser.parse_args(base + [str(MAX_LEVEL + 1)])


def test_deterministic_output(tmp_path):
    args = ["--case", "example1", "--scheme", "hmm", "--levels", "2..3",
            "--shift", "0.3"]
    _, a = run_cli(tmp_path, args, "a.csv")
    _, b = run_cli(tmp_path, args, "b.csv")
    assert a == b


def test_rows_independent_of_level_range(tmp_path):
    # Level-local columns must not change when a level is run alone.
    args = ["--case", "example1", "--scheme", "ncp1"]
    _, combined = run_cli(tmp_path, args + ["--levels", "2..4"], "c.csv")
    rows = [line.split(",") for line in combined.strip().split("\n")[1:]]
    for level, row in zip((2, 3, 4), rows):
        _, single = run_cli(
            tmp_path, args + ["--levels", f"{level}..{level}"], f"s{level}.csv"
        )
        srow = single.strip().split("\n")[1].split(",")
        for i in LEVEL_LOCAL:
            assert srow[i] == row[i]


def test_diagnostics_table(tmp_path):
    code, text = run_cli(
        tmp_path,
        ["--case", "example1", "--scheme", "ncp1", "--levels", "2..4",
         "--diagnostics"],
    )
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "level,h,c_d,w_d_y,s_d_y,s_d_p"
    assert len(lines) == 4
    # Consistency defects decay under refinement for this scheme.
    sd = [float(line.split(",")[4]) for line in lines[1:]]
    assert sd[2] < sd[1] < sd[0]


def test_solver_failure_partial_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(control, "PDAS_MAX_ITER", 1)
    code, text = run_cli(
        tmp_path,
        ["--case", "example1", "--scheme", "p1", "--levels", "2..4"],
    )
    assert code == 1
    lines = text.strip().split("\n")
    assert lines[0] == HEADER
    marker = lines[-1].split(",")
    assert marker[3] == "FAILED"
    assert len(marker) == 16
    assert "solver failure" in capsys.readouterr().err


def test_diagnostics_failure_partial_csv(tmp_path, capsys, monkeypatch):
    # Without a conjugate-gradient step, S_D's misfit solve fails on the
    # first row: the table ends with a marker row, as a study does.
    monkeypatch.setattr(assembly, "CG_MAX_STEPS", 0)
    code, text = run_cli(
        tmp_path,
        ["--case", "example1", "--scheme", "ncp1", "--levels", "2..3",
         "--diagnostics"],
    )
    assert code == 1
    lines = text.strip().split("\n")
    assert lines[0] == "level,h,c_d,w_d_y,s_d_y,s_d_p"
    assert len(lines) == 2
    marker = lines[1].split(",")
    assert marker[0] == "2" and marker[2] == "FAILED"
    assert len(marker) == 6
    assert "solver failure: level 2" in capsys.readouterr().err


@pytest.mark.parametrize("diagnostics,step", [
    (False, "solve_kkt_pdas"), (True, "compute_cd"), (False, "build_mesh"), (True, "build_mesh"),
    (False, "build_scheme"), (True, "build_scheme"),
], ids=["study", "diagnostics", "study-mesh", "diagnostics-mesh", "study-scheme",
        "diagnostics-scheme"])
def test_memory_error_ends_table(tmp_path, capsys, monkeypatch, diagnostics, step):
    # Memory running out inside a level ends the table as a solver
    # failure does, with the cause on stderr.  A patched step raises
    # MemoryError at the second level; nothing is allocated.  A level
    # whose mesh was not built has no h: its field stays empty.  A level
    # whose scheme build fails has its mesh, and so its h.
    owner = cases.TestCase if step == "build_mesh" else cli
    real, calls = getattr(owner, step), []

    def fail_second(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise MemoryError
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, step, fail_second)
    args = ["--case", "example1", "--scheme", "p1", "--levels", "2..4"]
    code, text = run_cli(tmp_path, args + ["--diagnostics"] * diagnostics)
    assert code == 1
    lines = text.strip().split("\n")
    assert len(lines) == 3 and lines[1].startswith("2,")
    marker = lines[2].split(",")
    assert marker[0] == "3" and marker[3 if not diagnostics else 2] == "FAILED"
    err = capsys.readouterr().err
    where = "level 3: " if step == "build_mesh" else "level 3 (h="
    assert err.startswith("out of memory: " + where) and "MemoryError" in err
    assert (marker[1] == "") == (step == "build_mesh")


def test_run_diagnostics_keeps_rows_before_failure(monkeypatch):
    def sd_then_cap(*args):
        value = compute_sd_upper(*args)
        monkeypatch.setattr(assembly, "CG_MAX_STEPS", 0)
        return value

    monkeypatch.setattr(cli, "compute_sd_upper", sd_then_cap)
    rows, failure = run_table("example1", "p1", (2, 4), diagnostics=True)
    assert [row[0] for row in rows] == [2]
    assert failure is not None and failure.level == 3
    assert "conjugate gradients reached backward error" in str(failure)


def test_run_study_failure_reports(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(control, "PDAS_MAX_ITER", 1)
        reports, failure = run_table("example1", "p1", (2, 4))
    assert reports == []
    assert failure is not None and failure.level == 2
    reports, failure = run_table("example1", "p1", (2, 3))
    assert failure is None and len(reports) == 2
    assert np.isfinite(reports[0].err_y)


def test_module_entry_point(capsys):
    # python -m gdmopt runs the same main() without any warning.
    args = ["--case", "example1", "--scheme", "p1", "--levels", "2..2"]
    env = dict(os.environ, PYTHONPATH=str(Path(gdmopt.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-W", "error", "-m", "gdmopt", *args],
                         capture_output=True, text=True, env=env, check=False)
    assert run.returncode == 0
    assert run.stderr == ""
    assert main(args) == 0
    assert run.stdout == capsys.readouterr().out
