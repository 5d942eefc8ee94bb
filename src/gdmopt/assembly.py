"""Assembly of discrete elliptic systems and direct sparse solves."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .analysis import cell_quadrature, function_rule

# Backward error accepted from a direct solve, after refinement:
# ||b - A x||_inf <= SOLVE_TOL * (||A||_inf ||x||_inf + ||b||_inf).
SOLVE_TOL = 1e-12

# Iterative refinement steps a checked solve may take.
REFINE_STEPS = 3


class SolverError(RuntimeError):
    """A linear or optimisation solve failed its accuracy contract."""


def check_symmetry(a, tol=1e-12):
    """Raise if a sparse matrix is not symmetric to the given tolerance."""
    skew = (a - a.T).tocoo()
    worst = np.abs(skew.data).max() if skew.nnz else 0.0
    scale = np.abs(a.data).max() if a.nnz else 1.0
    if worst > tol * max(scale, 1.0):
        raise SolverError(f"matrix not symmetric: |A - A^T| reaches {worst:.3e}")


class SPDFactor:
    """Sparse factorisation of a symmetric positive definite matrix.

    The LU factors use a minimum-degree ordering of A^T + A with diagonal
    pivots (SuperLU's symmetric mode), which roughly halves the fill of
    the default column ordering on stiffness matrices.  Every solve is
    checked: it refines iteratively until the backward error meets
    ``tol`` and raises SolverError when it cannot, or when the factors
    produce non-finite values.
    """

    def __init__(self, a, tol=SOLVE_TOL):
        check_symmetry(a)
        self.matrix = sp.csc_matrix(a)
        self.tol = tol
        try:
            self._lu = spla.splu(
                self.matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise SolverError(f"sparse factorisation failed: {exc}") from exc
        self._norm = np.asarray(abs(self.matrix).sum(axis=1)).max(initial=0.0)

    def solve(self, b, x0=None):
        """Solution of A x = b, refined to the backward-error tolerance.

        The refinement starts from the approximation x0 when it is given
        and finite: an x0 that already meets the tolerance costs one
        product and no factor solve.  Otherwise it starts from zero.
        """
        b = np.asarray(b, dtype=float)
        bnorm = np.abs(b).max(initial=0.0)
        if x0 is None or not np.all(np.isfinite(x0)):
            x, r = np.zeros_like(b), b
        else:
            x = np.array(x0, dtype=float)
            r = b - self.matrix @ x
        solves = 0
        while True:
            err = np.abs(r).max(initial=0.0)
            scale = self._norm * np.abs(x).max(initial=0.0) + bnorm
            if err <= self.tol * scale:
                return x
            if solves > REFINE_STEPS:
                raise SolverError(
                    f"backward error {err / scale:.3e} exceeds {self.tol:.1e} "
                    f"after {REFINE_STEPS} refinement steps"
                )
            x = x + self._lu.solve(r)
            solves += 1
            if not np.all(np.isfinite(x)):
                raise SolverError("sparse solve produced non-finite values")
            r = b - self.matrix @ x


def assemble_load(gd, volume_source=None, boundary_source=None):
    """Load vector on the unknowns of gd for function sources.

    Volume sources use the rule ``analysis.function_rule(gd)`` of the
    error measurement protocol; a volume source is a callable or its
    values at that rule's points.  Boundary sources (Neumann only) are
    callables, sampled at the points of ``gd.boundary_quadrature()`` (a
    3-point Gauss rule per boundary face).
    """
    if boundary_source is not None and gd.bc == "dirichlet":
        raise ValueError("boundary source supplied under Dirichlet conditions")
    out = np.zeros(gd.n_free)
    if volume_source is not None:
        cells, pts, wts = cell_quadrature(gd.mesh, function_rule(gd))
        vals = volume_source(pts) if callable(volume_source) else volume_source
        vals = np.asarray(vals, dtype=float)
        if vals.shape != (len(pts),):
            raise ValueError(f"volume source has shape {vals.shape}, not ({len(pts)},)")
        out += gd.value_load(cells, pts, wts, vals)
    if boundary_source is not None:
        pts = gd.boundary_quadrature()[1]
        out += gd.boundary_load(np.asarray(boundary_source(pts), dtype=float))
    return out


def solve_pde(gd, volume_source=None, boundary_source=None, diffusion=None,
              reaction=0.0, extra_load=None):
    """Solve one elliptic problem; returns the vector of unknowns.

    extra_load, if given, is added to the assembled load; like it, it is
    indexed by unknown.  The solve is checked (see SPDFactor) and raises
    SolverError on an asymmetric or singular form.
    """
    a = gd.stiffness(diffusion=diffusion, reaction=reaction)
    b = assemble_load(gd, volume_source, boundary_source)
    if extra_load is not None:
        b = b + extra_load
    return SPDFactor(a).solve(b)
