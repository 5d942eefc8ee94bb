"""Gradient-scheme solvers for box-constrained elliptic optimal control.

Builds gradient discretisations (conforming P1, non-conforming P1, and
hybrid mimetic mixed) of second-order elliptic problems on triangular
and Cartesian meshes, solves the discrete optimality systems of
box-constrained control problems with a primal-dual active-set method,
and measures errors, convergence orders and discretisation diagnostics.
"""

from .analysis import (
    CSV_HEADER,
    DIAGNOSTICS_HEADER,
    ErrorReport,
    compute_eoc,
    compute_errors,
    emit_csv,
    emit_diagnostics_csv,
    eoc_slope,
    render_csv,
    render_diagnostics_csv,
)
from .assembly import (
    SolverError,
    assemble_load,
    solve_pde,
    solve_spd,
)
from .cases import CASE_NAMES, TestCase, get_case
from .cli import main, run_diagnostics, run_study
from .control import (
    KKTSolution,
    OptimalControlProblem,
    postprocess,
    project_box,
    project_onto_cells,
    projection_identity_gap,
    solve_kkt_pdas,
    solve_kkt_reference,
    variational_inequality_gap,
)
from .gd_core import (
    GradientDiscretisation,
    compute_cd,
    compute_sd_upper,
    compute_wd,
)
from .mesh import (
    MeshQuality,
    PolytopalMesh,
    build_cartesian_mesh,
    build_lshape_triangulation,
    build_unit_square_triangulation,
    quality,
    uniform_refine,
)
from .schemes import SCHEMES, build_scheme, make_conforming_p1, make_hmm, make_ncp1

__version__ = "0.1.0"

__all__ = [
    "CASE_NAMES",
    "CSV_HEADER",
    "DIAGNOSTICS_HEADER",
    "ErrorReport",
    "GradientDiscretisation",
    "KKTSolution",
    "MeshQuality",
    "OptimalControlProblem",
    "PolytopalMesh",
    "SCHEMES",
    "SolverError",
    "TestCase",
    "assemble_load",
    "build_cartesian_mesh",
    "build_lshape_triangulation",
    "build_scheme",
    "build_unit_square_triangulation",
    "compute_cd",
    "compute_eoc",
    "compute_errors",
    "compute_sd_upper",
    "compute_wd",
    "emit_csv",
    "emit_diagnostics_csv",
    "eoc_slope",
    "get_case",
    "main",
    "make_conforming_p1",
    "make_hmm",
    "make_ncp1",
    "postprocess",
    "project_box",
    "project_onto_cells",
    "projection_identity_gap",
    "quality",
    "render_csv",
    "render_diagnostics_csv",
    "run_diagnostics",
    "run_study",
    "solve_kkt_pdas",
    "solve_kkt_reference",
    "solve_pde",
    "solve_spd",
    "uniform_refine",
    "variational_inequality_gap",
]
