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

# Conjugate-gradient steps SPDFactor.cg_solve may take.  The factored
# matrix preconditions a nearby one to a condition number of a few (the
# diagnostics' misfit systems take 2-9 steps), so the cap is only hit
# when the two matrices are far apart or the system is broken.
CG_MAX_STEPS = 100


class SolverError(RuntimeError):
    """A linear or optimisation solve failed its accuracy contract."""


def check_symmetry(a):
    """Raise if |A - A^T| exceeds 1e-12 max(1, |A|) in some entry."""
    skew = (a - a.T).tocoo()
    worst = np.abs(skew.data).max() if skew.nnz else 0.0
    scale = np.abs(a.data).max() if a.nnz else 1.0
    if worst > 1e-12 * max(scale, 1.0):
        raise SolverError(f"matrix not symmetric: |A - A^T| reaches {worst:.3e}")


class SPDFactor:
    """Sparse factorisation of a symmetric positive definite matrix.

    The LU factors use a minimum-degree ordering of A^T + A with diagonal
    pivots (SuperLU's symmetric mode), which roughly halves the fill of
    the default column ordering on stiffness matrices.  Every solve is
    checked: it refines iteratively until the backward error meets
    SOLVE_TOL and raises SolverError when it cannot, or when the factors
    produce non-finite values.
    """

    def __init__(self, a):
        check_symmetry(a)
        self.matrix = sp.csc_matrix(a)
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
            if err <= SOLVE_TOL * scale:
                return x
            if solves > REFINE_STEPS:
                raise SolverError(
                    f"backward error {err / scale:.3e} exceeds {SOLVE_TOL:.1e} "
                    f"after {REFINE_STEPS} refinement steps"
                )
            x = x + self._lu.solve(r)
            solves += 1
            if not np.all(np.isfinite(x)):
                raise SolverError("sparse solve produced non-finite values")
            r = b - self.matrix @ x

    def cg_solve(self, a, b):
        """Solution of A x = b for an SPD matrix A near the factored one,
        by conjugate gradients preconditioned with the factor.

        It stops on the backward-error contract of solve, checked on the
        true residual: ||b - A x||_inf <= SOLVE_TOL (||A||_inf ||x||_inf +
        ||b||_inf).  A run that has not met it after CG_MAX_STEPS steps
        raises SolverError with the backward error it reached, as does a
        preconditioner that produces non-finite values.  The factor's
        matrix B bounds how fast it converges: when B <= A <= (1 + c) B,
        the preconditioned condition number is at most 1 + c.
        """
        b = np.asarray(b, dtype=float)
        bnorm = np.abs(b).max(initial=0.0)
        anorm = np.asarray(abs(a).sum(axis=1)).max(initial=0.0)
        x, r, d = np.zeros_like(b), b, np.zeros_like(b)
        rz_old = np.inf  # no previous direction: the first one is z
        steps = 0
        while True:
            err = np.abs(r).max(initial=0.0)
            scale = anorm * np.abs(x).max(initial=0.0) + bnorm
            if err <= SOLVE_TOL * scale:
                return x
            if steps == CG_MAX_STEPS:
                raise SolverError(
                    f"conjugate gradients reached backward error {err / scale:.3e}, "
                    f"above {SOLVE_TOL:.1e}, in {CG_MAX_STEPS} steps"
                )
            z = self._lu.solve(r)
            if not np.all(np.isfinite(z)):
                raise SolverError("preconditioner produced non-finite values")
            rz = float(r @ z)
            d = z + (rz / rz_old) * d
            x = x + (rz / float(d @ (a @ d))) * d
            r = b - a @ x
            rz_old = rz
            steps += 1


def assemble_load(gd, volume_source):
    """Load vector on the unknowns of gd for a volume source: a callable,
    its values at the points of ``analysis.function_rule(gd)`` (the rule
    of the error measurement protocol), or None for a zero load.
    """
    out = np.zeros(gd.n_free)
    if volume_source is not None:
        cells, pts, wts = cell_quadrature(gd.mesh, function_rule(gd))
        vals = volume_source(pts) if callable(volume_source) else volume_source
        vals = np.asarray(vals, dtype=float)
        if vals.shape != (len(pts),):
            raise ValueError(f"volume source has shape {vals.shape}, not ({len(pts)},)")
        out += gd.value_load(cells, pts, wts, vals)
    return out


def solve_pde(gd, volume_source, reaction=0.0):
    """Solve -lap y + reaction y = volume_source on gd; returns the vector
    of unknowns.

    The solve is checked (see SPDFactor) and raises SolverError on an
    asymmetric or singular form.
    """
    return SPDFactor(gd.stiffness(reaction)).solve(assemble_load(gd, volume_source))
