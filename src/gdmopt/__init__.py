"""Gradient-scheme solvers for box-constrained elliptic optimal control.

Builds gradient discretisations (conforming P1, non-conforming P1, and
hybrid mimetic mixed) of second-order elliptic problems on triangular
and Cartesian meshes, solves the discrete optimality systems of
box-constrained control problems with a primal-dual active-set method,
and measures errors, convergence orders and discretisation diagnostics.
"""

from . import cli
from .analysis import compute_errors
from .assembly import SolverError, assemble_load, solve_pde
from .cases import TestCase, get_case
from .control import (
    KKTSolution,
    OptimalControlProblem,
    postprocess,
    solve_kkt_pdas,
    solve_kkt_reference,
)
from .gd_core import GradientDiscretisation, compute_cd, compute_sd_upper, compute_wd
from .mesh import build_cartesian_mesh, build_lshape_triangulation, build_unit_square_triangulation
from .schemes import build_scheme

__version__ = "0.1.0"

__all__ = [
    "GradientDiscretisation",
    "KKTSolution",
    "OptimalControlProblem",
    "SolverError",
    "TestCase",
    "assemble_load",
    "build_cartesian_mesh",
    "build_lshape_triangulation",
    "build_scheme",
    "build_unit_square_triangulation",
    "cli",
    "compute_cd",
    "compute_errors",
    "compute_sd_upper",
    "compute_wd",
    "get_case",
    "postprocess",
    "solve_kkt_pdas",
    "solve_kkt_reference",
    "solve_pde",
]
