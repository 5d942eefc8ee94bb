"""Assembly of discrete elliptic systems and direct sparse solves."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .analysis import function_rule

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


def _inf_norm(v):
    """max |v_i| without an |v| temporary, 0 for an empty v and nan when v
    holds a nan (np.maximum propagates it, as max would not)."""
    return np.maximum(v.max(initial=0.0), -v.min(initial=0.0))


def _matrix_inf_norm(a):
    """||A||_inf = max_i sum_j |a_ij| of a CSR or CSC matrix: |data| on the
    matrix's own index arrays, times a vector of ones, so no copy or
    64-bit cast of its indices is made."""
    absolute = type(a)((np.abs(a.data), a.indices, a.indptr), shape=a.shape)
    return (absolute @ np.ones(a.shape[1])).max(initial=0.0)


def check_symmetry(a):
    """Raise if A holds a non-finite entry or |A - A^T| exceeds 1e-12
    max(1, |A|) in some entry.

    A CSR or CSC matrix in canonical form (sorted indices, no duplicates)
    whose transpose has its pattern is checked on the transpose's data
    alone, without forming A - A^T; any other matrix is checked on
    A - A^T.  A is not modified.
    """
    scale = _inf_norm(a.data)
    if not np.isfinite(scale):
        raise SolverError("matrix has non-finite entries")
    t = a.T.asformat(a.format) if a.format in ("csr", "csc") else None
    if (t is not None and a.has_canonical_format and np.array_equal(t.indptr, a.indptr)
            and np.array_equal(t.indices, a.indices)):
        skew = t.data
        skew -= a.data
    else:
        skew = (a - a.T).tocoo().data
    worst = _inf_norm(skew)
    if not worst <= 1e-12 * max(scale, 1.0):
        raise SolverError(f"matrix not symmetric: |A - A^T| reaches {worst:.3e}")


class SPDFactor:
    """Sparse factorisation of a symmetric positive definite matrix.

    The matrix is kept in CSR format as ``matrix``; a CSR input is kept
    without a copy.  Its three arrays, read as a CSC matrix, are A^T, and
    that is what SuperLU factors, with a minimum-degree ordering of
    A^T + A and diagonal pivots (its symmetric mode), which roughly
    halves the fill of the default column ordering on stiffness
    matrices.  Every factor solve applies the transposed factors
    (trans="T"), so it solves (A^T)^T x = A x = b; SuperLU's transposed
    kernel runs faster than its plain one on these factors.  Every solve
    is checked against A itself: it refines iteratively until the
    backward error meets SOLVE_TOL and raises SolverError when it
    cannot, or when the factors produce non-finite values.
    """

    def __init__(self, a):
        check_symmetry(a)
        self.matrix = m = sp.csr_matrix(a)
        try:
            self._lu = spla.splu(
                sp.csc_matrix((m.data, m.indices, m.indptr), shape=m.shape),
                permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise SolverError(f"sparse factorisation failed: {exc}") from exc
        self._norm = _matrix_inf_norm(m)

    def solve(self, b, x0=None):
        """Solution of A x = b, refined to the backward-error tolerance.

        The refinement starts from the approximation x0 when it is given
        and finite: an x0 that already meets the tolerance costs one
        product and no factor solve.  Otherwise it starts from the factor
        solve of b, or returns zero when b is zero.
        """
        b = np.asarray(b, dtype=float)
        bnorm = _inf_norm(b)
        if x0 is not None and np.all(np.isfinite(x0)):
            x, solves = np.array(x0, dtype=float), 0
        elif bnorm == 0.0:
            return np.zeros_like(b)
        else:
            x, solves = self._lu.solve(b, trans="T"), 1
        while True:
            xnorm = _inf_norm(x)
            if not np.isfinite(xnorm):
                raise SolverError("sparse solve produced non-finite values")
            r = self.matrix @ x
            np.subtract(b, r, out=r)
            err = _inf_norm(r)
            scale = self._norm * xnorm + bnorm
            if err <= SOLVE_TOL * scale:
                return x
            if solves > REFINE_STEPS:
                raise SolverError(
                    f"backward error {err / scale:.3e} exceeds {SOLVE_TOL:.1e} "
                    f"after {REFINE_STEPS} refinement steps"
                )
            x += self._lu.solve(r, trans="T")
            solves += 1

    def cg_solve(self, a, b):
        """Solution of A x = b for an SPD matrix A (CSR or CSC) near the
        factored one, by conjugate gradients preconditioned with the factor.

        It stops on the backward-error contract of solve, checked on the
        true residual: ||b - A x||_inf <= SOLVE_TOL (||A||_inf ||x||_inf +
        ||b||_inf).  A run that has not met it after CG_MAX_STEPS steps
        raises SolverError with the backward error it reached, as does a
        preconditioner that produces non-finite values.  The factor's
        matrix B bounds how fast it converges: when B <= A <= (1 + c) B,
        the preconditioned condition number is at most 1 + c.
        """
        b = np.asarray(b, dtype=float)
        bnorm = _inf_norm(b)
        anorm = _matrix_inf_norm(a)
        x, r, d = np.zeros_like(b), b, np.zeros_like(b)
        rz_old = np.inf  # no previous direction: the first one is z
        steps = 0
        while True:
            err = _inf_norm(r)
            scale = anorm * _inf_norm(x) + bnorm
            if err <= SOLVE_TOL * scale:
                return x
            if steps == CG_MAX_STEPS:
                raise SolverError(
                    f"conjugate gradients reached backward error {err / scale:.3e}, "
                    f"above {SOLVE_TOL:.1e}, in {CG_MAX_STEPS} steps"
                )
            z = self._lu.solve(r, trans="T")
            if not np.all(np.isfinite(z)):
                raise SolverError("preconditioner produced non-finite values")
            rz = float(r @ z)
            d = z + (rz / rz_old) * d
            x = x + (rz / float(d @ (a @ d))) * d
            r = b - a @ x
            rz_old = rz
            steps += 1


def assemble_load(gd, volume_source):
    """Load vector of a volume source (a callable) on the unknowns of gd,
    summed over the points of ``analysis.function_rule(gd)`` (the rule of
    the error measurement protocol) block by block
    (GradientDiscretisation.value_load)."""
    return gd.value_load(function_rule(gd), lambda pts: [
        np.asarray(volume_source(pts), dtype=float)])[0]


def solve_pde(gd, volume_source, reaction=0.0):
    """Solve -lap y + reaction y = volume_source on gd; returns the vector
    of unknowns.

    The solve is checked (see SPDFactor) and raises SolverError on an
    asymmetric or singular form.
    """
    return SPDFactor(gd.stiffness(reaction)).solve(assemble_load(gd, volume_source))
