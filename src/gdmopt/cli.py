"""Command line driver for convergence studies and diagnostics tables.

Runs a (case, scheme, level range) table and writes it as CSV: the
error/EOC table of a study, or with --diagnostics the per-level
coercivity, conformity-defect and consistency-defect numbers.  One level
driver, run_table, builds each level's mesh and discretisation, passes
them to the table's row function (run_level or diagnostics_row) and ends
the table at the first level that fails.  Level l uses a mesh with 2^l
subdivisions per direction.  Output is deterministic: repeated runs with
the same configuration are byte-identical.
"""

import argparse
import functools
import sys

from .analysis import compute_errors, render_csv, render_diagnostics_csv, sample_level
from .assembly import SolverError
from .cases import CASE_NAMES, get_case
from .control import postprocess, solve_kkt_pdas
from .gd_core import compute_cd, compute_sd_upper, compute_wd
from .schemes import SCHEMES, build_scheme

DEFAULT_LEVELS = (2, 6)

# Highest study level accepted: the L-shape mesh at level 10 has 6.3M
# cells, and each further level quadruples that.
MAX_LEVEL = 10


class LevelFailure(Exception):
    """Solver breakdown, or memory running out, at one study or diagnostics
    level; carries the mesh size (None if the mesh was not built) and the
    reason, "out of memory" or "solver failure"."""

    def __init__(self, level, h, cause):
        where = f"level {level}" if h is None else f"level {level} (h={h:.3e})"
        super().__init__(f"{where}: {str(cause) or type(cause).__name__}")
        self.level = level
        self.h = h
        self.reason = "out of memory" if isinstance(cause, MemoryError) else "solver failure"


def run_level(case, gd, level):
    """Error report of one study level on the discretisation gd.

    The exact fields are sampled once per point set of the level: the
    loads are summed as they are sampled, and what the error report reads
    is kept.
    """
    exact = sample_level(gd, case.fields)
    problem = case.build_problem(gd, loads=exact.loads)
    solution = solve_kkt_pdas(problem)
    return compute_errors(
        gd, exact, solution.y, solution.p, solution.u,
        functools.partial(postprocess, problem),
        level=level, pdas_iters=solution.iterations,
    )


def diagnostics_row(case, gd, level):
    """Coercivity / conformity / consistency row of one level:
    (level, h, C_D, W_D of y, S_D of y, S_D of p)."""
    cd, wd = compute_cd(gd), compute_wd(gd, case.grad_y)
    # The adjoint of every case equals its state, so the state's S_D
    # serves both columns.
    sd = compute_sd_upper(gd, case.y, case.grad_y)
    return (level, gd.mesh.h, cd, wd, sd, sd)


def run_table(case_name, scheme, levels=DEFAULT_LEVELS, shift=0.0, diagnostics=False):
    """Rows of a study (run_level) or diagnostics (diagnostics_row) table,
    level by level in order, up to the first failed level.

    Returns (rows, failure) where failure is None or the LevelFailure of
    the level at which a solve broke down or memory ran out.  Levels run
    independently, so rows are identical whether levels are run together
    or one at a time.
    """
    case = get_case(case_name)
    row = diagnostics_row if diagnostics else run_level
    rows = []
    for level in range(levels[0], levels[1] + 1):
        # The previous level's mesh and discretisation are freed first.
        mesh = gd = None
        try:
            mesh = case.build_mesh(scheme, 2 ** level, shift=shift)
            gd = build_scheme(scheme, mesh, case.bc)
            rows.append(row(case, gd, level))
        except (SolverError, MemoryError) as exc:
            return rows, LevelFailure(level, None if mesh is None else mesh.h, exc)
    return rows, None


def _levels_arg(text):
    try:
        if ".." in text:
            a, _, b = text.partition("..")
            lo, hi = int(a), int(b)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}") from None
    if lo < DEFAULT_LEVELS[0]:
        # Coarser meshes leave some schemes too few unknowns for an error
        # ratio or a diagnostics row.
        raise argparse.ArgumentTypeError(f"levels below {DEFAULT_LEVELS[0]} are not supported")
    if hi < lo:
        raise argparse.ArgumentTypeError("level range must satisfy A <= B")
    if hi > MAX_LEVEL:
        raise argparse.ArgumentTypeError(f"levels above {MAX_LEVEL} are not supported")
    return lo, hi


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gdmopt",
        description="Convergence studies for gradient-scheme discretisations "
                    "of box-constrained elliptic optimal control problems.",
    )
    parser.add_argument("--case", required=True, choices=CASE_NAMES,
                        help="benchmark problem to run")
    parser.add_argument("--scheme", required=True, choices=SCHEMES,
                        help="gradient discretisation")
    parser.add_argument("--levels", type=_levels_arg, default=DEFAULT_LEVELS,
                        metavar="A..B", help="inclusive level range (default 2..6)")
    parser.add_argument("--shift", type=float, default=0.0,
                        help="cell-point shift factor for hmm on Cartesian meshes")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="CSV output path (default: stdout)")
    parser.add_argument("--diagnostics", action="store_true",
                        help="emit the per-level diagnostics table instead")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 0.0 <= args.shift < 0.5:
        parser.error("--shift must lie in [0, 0.5)")
    if args.shift != 0.0 and args.scheme != "hmm":
        parser.error("--shift applies only to --scheme hmm")
    if args.shift != 0.0 and args.case == "example2-lshape":
        parser.error("--shift requires a Cartesian-capable case")
    if args.out is not None:
        # Appending creates a missing file but leaves an existing one intact.
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            parser.error(f"--out {args.out} is not writable: {exc.strerror}")

    rows, failure = run_table(args.case, args.scheme, args.levels, shift=args.shift,
                              diagnostics=args.diagnostics)
    render = render_diagnostics_csv if args.diagnostics else render_csv
    text = render(rows, failure=None if failure is None else (failure.level, failure.h))
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if failure is not None:
        print(f"{failure.reason}: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
