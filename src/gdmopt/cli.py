"""Command line driver for convergence studies and diagnostics tables.

Runs a (case, scheme, level range) study, writes the error/EOC table as
CSV, and optionally a per-level diagnostics table with the coercivity,
conformity-defect and consistency-defect numbers.  Level l uses a mesh
with 2^l subdivisions per direction.  Output is deterministic: repeated
runs with the same configuration are byte-identical.
"""

import argparse
import math
import sys

from .analysis import compute_errors, render_csv, render_diagnostics_csv, sample_level
from .assembly import SolverError
from .cases import CASE_NAMES, get_case
from .control import DEFAULT_PDAS_MAX_ITER, DEFAULT_PDAS_TOL, postprocess, solve_kkt_pdas
from .gd_core import compute_cd, compute_sd_upper, compute_wd
from .schemes import SCHEMES, build_scheme

DEFAULT_LEVELS = (2, 6)

# Highest study level accepted: the L-shape mesh at level 10 has 6.3M
# cells, and each further level quadruples that.
MAX_LEVEL = 10


class LevelFailure(Exception):
    """Solver breakdown at one study or diagnostics level; carries the mesh
    size."""

    def __init__(self, level, h, cause):
        super().__init__(f"level {level} (h={h:.3e}): {cause}")
        self.level = level
        self.h = h


def run_level(case, scheme, level, shift=0.0, pdas_max_iter=DEFAULT_PDAS_MAX_ITER,
              pdas_tol=DEFAULT_PDAS_TOL):
    """Solve one study level and return its error report.

    The exact fields are sampled once per point set of the level and
    serve both the loads and the error report.
    """
    mesh = case.build_mesh(scheme, 2 ** level, shift=shift)
    gd = build_scheme(scheme, mesh, case.bc)
    exact = sample_level(gd, case.fields)
    problem = case.build_problem(gd, source=exact.source, target=exact.target)
    try:
        solution = solve_kkt_pdas(problem, max_iter=pdas_max_iter, tol=pdas_tol)
    except SolverError as exc:
        raise LevelFailure(level, mesh.h, exc) from exc
    post = postprocess(problem, solution, exact.post_p)
    return compute_errors(
        gd, exact, solution.y, solution.p, solution.u, post,
        level=level, pdas_iters=solution.iterations,
    )


def run_study(case_name, scheme, levels=DEFAULT_LEVELS, shift=0.0,
              pdas_max_iter=DEFAULT_PDAS_MAX_ITER, pdas_tol=DEFAULT_PDAS_TOL):
    """Run the levels of a study in order, up to the first failed one.

    Returns (reports, failure) where failure is None or the LevelFailure
    of the level whose solve broke down.  Levels run independently, so
    rows are identical whether levels are run together or one at a time.
    """
    case = get_case(case_name)
    reports = []
    for level in range(levels[0], levels[1] + 1):
        try:
            reports.append(run_level(case, scheme, level, shift=shift,
                                     pdas_max_iter=pdas_max_iter, pdas_tol=pdas_tol))
        except LevelFailure as exc:
            return reports, exc
    return reports, None


def run_diagnostics(case_name, scheme, levels=DEFAULT_LEVELS, shift=0.0):
    """Per-level coercivity / conformity / consistency table rows, up to
    the first failed level.

    Returns (rows, failure) as run_study does: failure is None or the
    LevelFailure of the level whose solve broke down.
    """
    case = get_case(case_name)
    rows = []
    for level in range(levels[0], levels[1] + 1):
        mesh = case.build_mesh(scheme, 2 ** level, shift=shift)
        gd = build_scheme(scheme, mesh, case.bc)
        try:
            cd, wd = compute_cd(gd), compute_wd(gd, case.grad_y)
            # The adjoint of every case equals its state, so the state's
            # S_D serves both columns.
            sd = compute_sd_upper(gd, case.y, case.grad_y)
        except SolverError as exc:
            return rows, LevelFailure(level, mesh.h, exc)
        rows.append((level, mesh.h, cd, wd, sd, sd))
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
    parser.add_argument("--pdas-max-iter", type=int, default=DEFAULT_PDAS_MAX_ITER,
                        help="active-set iterations allowed per level (default %(default)s)")
    parser.add_argument("--pdas-tol", type=float, default=DEFAULT_PDAS_TOL,
                        help="relative tolerance of the inner CG solves (default %(default)s)")
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
    if args.pdas_max_iter < 1:
        parser.error("--pdas-max-iter must be at least 1")
    if not (math.isfinite(args.pdas_tol) and args.pdas_tol > 0.0):
        parser.error("--pdas-tol must be positive and finite")
    if args.out is not None:
        # Appending creates a missing file but leaves an existing one intact.
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            parser.error(f"--out {args.out} is not writable: {exc.strerror}")

    if args.diagnostics:
        rows, failure = run_diagnostics(args.case, args.scheme, args.levels,
                                        shift=args.shift)
        render = render_diagnostics_csv
    else:
        rows, failure = run_study(
            args.case, args.scheme, args.levels, shift=args.shift,
            pdas_max_iter=args.pdas_max_iter, pdas_tol=args.pdas_tol,
        )
        render = render_csv
    text = render(rows, failure=None if failure is None else (failure.level, failure.h))
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if failure is not None:
        print(f"solver failure: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
