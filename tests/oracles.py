"""Quantities the tests check that the method itself never computes.

The function reconstruction of a DOF vector at given points, its
gradient seminorm, the dense control coupling, and the two
optimality-system residuals of a computed KKT solution:
``solve_kkt_pdas`` meets the projection formula by construction, and
these measure how well a returned solution does.
"""

import math

import numpy as np

from gdmopt.analysis import affine_at, centroid_offsets
from gdmopt.control import project_box


def value_at(gd, vec, cells, pts):
    """Function reconstruction of a DOF vector at points inside cells."""
    return affine_at(gd.cell_coefficients(vec), cells, centroid_offsets(gd.mesh, cells, pts))


def gradient_norm(gd, vec):
    """L2 norm of the gradient reconstruction, summed piece by piece
    (no cancellation, unlike the quadratic form of gd.gradient_gram)."""
    g = gd.gradient_table(vec)
    return math.sqrt(float(gd.piece_area @ (g ** 2).sum(1)))


def dense_coupling(problem):
    """The coupling B = V^T diag(area) of a control problem as a dense
    array, with V the cell means of the function reconstruction."""
    return problem.gd.value_center.T.toarray() * problem.gd.mesh.cell_area


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
