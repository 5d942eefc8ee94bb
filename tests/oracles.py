"""Quantities the tests check that the method itself never computes.

The point of each unknown, the function reconstruction of a DOF vector
at given points, its gradient seminorm, and the two optimality-system
residuals of a computed KKT solution:
``solve_kkt_pdas`` meets the projection formula by construction, and
these measure how well a returned solution does.
"""

import math

import numpy as np

from gdmopt.analysis import affine_at, centroid_offsets
from gdmopt.control import project_box


def dof_points(gd):
    """Point of each unknown: its vertex for conforming p1, its face
    centre for non-conforming p1, and its cell point or face centre for
    the hybrid scheme (cells first)."""
    mesh = gd.mesh
    if gd.cell_centred:
        points = np.vstack([mesh.cell_point, mesh.face_center])
    else:
        points = mesh.vertices if gd.n_dofs == len(mesh.vertices) else mesh.face_center
    return points[gd.free]


def value_at(gd, vec, cells, pts):
    """Function reconstruction of a DOF vector at points inside cells."""
    return affine_at(gd.cell_coefficients(vec), cells, centroid_offsets(gd.mesh, cells, pts))


def gradient_norm(gd, vec):
    """L2 norm of the gradient reconstruction, summed piece by piece
    (no cancellation, unlike the quadratic form of gd.gradient_gram)."""
    g = gd.gradient_table(vec)
    return math.sqrt(float(gd.piece_area @ (g ** 2).sum(1)))


def variational_inequality_gap(problem, solution, trial):
    """Inner product of the control-equation residual with (trial - u).

    Nonnegative (up to solver tolerance) for every admissible trial
    control exactly when the discrete variational inequality holds.
    """
    residual = problem.control_weight * (solution.u - problem.candidate(solution.p))
    return float(residual @ (trial - solution.u))


def projection_identity_gap(problem, solution):
    """Max-norm residual of the discrete projection identity."""
    candidate = project_box(problem.candidate(solution.p),
                            problem.lower, problem.upper)
    return float(np.max(np.abs(solution.u - candidate)))
