"""Quantities the tests check that the method itself never computes.

The gradient seminorm of a DOF vector, and the two optimality-system
residuals of a computed KKT solution: ``solve_kkt_pdas`` meets the
projection formula by construction, and these measure how well a
returned solution does.
"""

import math

import numpy as np

from gdmopt.control import project_box


def gradient_norm(gd, vec):
    """L2 norm of the gradient reconstruction, summed piece by piece
    (no cancellation, unlike the quadratic form of gd.gradient_gram())."""
    g = gd.gradient_table(vec)
    return math.sqrt(float(gd.piece_area @ (g ** 2).sum(1)))


def variational_inequality_gap(problem, solution, trial):
    """Inner product of the control-equation residual with (trial - u).

    Nonnegative (up to solver tolerance) for every admissible trial
    control exactly when the discrete variational inequality holds.
    """
    asm = problem.assembled()
    residual = asm.control_weight * (solution.u - asm.candidate(solution.p))
    return float(residual @ (trial - solution.u))


def projection_identity_gap(problem, solution):
    """Max-norm residual of the discrete projection identity."""
    asm = problem.assembled()
    candidate = project_box(asm.candidate(solution.p),
                            problem.lower, problem.upper)
    return float(np.max(np.abs(solution.u - candidate)))
