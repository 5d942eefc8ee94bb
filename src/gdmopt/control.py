"""Box-constrained linear-quadratic optimal control on gradient discretisations.

The discrete problem minimises

    1/2 ||reconstructed state - target||^2 + alpha/2 ||u - u_d||^2
        (+ beta/2 ||u_b||^2 for Neumann boundary control)

over piecewise-constant controls confined to a box, subject to the
discrete elliptic state equation.  Two independent solvers are provided:
a primal-dual active-set iteration that factors the stiffness matrix
once and, per active-set guess, solves the reduced Hessian on the
inactive controls by preconditioned conjugate gradients; and a dense
accelerated projected-gradient reference (FISTA with adaptive restart)
used to cross-check it on small meshes.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .analysis import cell_quadrature
from .assembly import (SolverError, SPDFactor, assemble_load, assemble_stiffness,
                       check_symmetry)

DEFAULT_PDAS_MAX_ITER = 100
DEFAULT_PDAS_TOL = 1e-10

# Conjugate-gradient steps allowed per active-set guess.  Preconditioned
# by the control weights, the reduced Hessian has a condition number
# bounded independently of the mesh size (1 + C_D^4 / alpha for the
# distributed control), so the benchmark cases need 15 steps or fewer.
PCG_MAX_ITER = 500


def project_box(values, lower, upper):
    """Pointwise projection onto the box [lower, upper]."""
    if lower > upper:
        raise ValueError("empty box: lower bound exceeds upper bound")
    return np.clip(values, lower, upper)


def project_onto_cells(mesh, fn, rule="gauss7"):
    """Cell averages of a function under a named quadrature rule."""
    cells, pts, wts = cell_quadrature(mesh, rule)
    vals = np.asarray(fn(pts), dtype=float)
    sums = np.bincount(cells, wts * vals, mesh.n_cells)
    return sums / np.bincount(cells, wts, mesh.n_cells)


class OptimalControlProblem:
    """Data of one discrete control problem on a gradient discretisation.

    Parameters
    ----------
    gd : GradientDiscretisation
    alpha : float
        Distributed control cost weight, positive.
    bounds : (float, float)
        Box constraints; infinite entries disable a side.
    y_target : callable or array
        Desired state, evaluated at quadrature points (see assemble_load).
    volume_source : callable, array or None
        Fixed source of the state equation (see assemble_load).
    boundary_source : callable or None
        Fixed boundary source of the state equation (Neumann only).
    control_target : callable or None
        Distributed control shift u_d (defaults to zero).
    diffusion : callable or None
        2x2 diffusion tensor field; None means the identity.
    reaction : float
        Zero-order coefficient; must be positive for Neumann problems.
    distributed : bool
        Enable the piecewise-constant control on cells (default).
    boundary_control : bool
        Enable a piecewise-constant control on boundary faces (Neumann).
    beta : float
        Boundary control cost weight, positive when boundary_control.
    """

    def __init__(self, gd, alpha, bounds, y_target, volume_source=None,
                 control_target=None, diffusion=None, reaction=0.0,
                 distributed=True, boundary_control=False, beta=1.0,
                 boundary_source=None):
        lower, upper = float(bounds[0]), float(bounds[1])
        if not alpha > 0.0:
            raise ValueError("alpha must be positive")
        if lower > upper:
            raise ValueError("empty box: lower bound exceeds upper bound")
        if gd.bc == "neumann" and not reaction > 0.0:
            raise ValueError("Neumann problems need a positive reaction coefficient")
        if gd.bc == "dirichlet" and (boundary_control or boundary_source is not None):
            raise ValueError("boundary data supplied under Dirichlet conditions")
        if boundary_control and not beta > 0.0:
            raise ValueError("beta must be positive with boundary control")
        if not (distributed or boundary_control):
            raise ValueError("at least one control family must be enabled")
        self.distributed = distributed
        self.gd = gd
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.lower = lower
        self.upper = upper
        self.y_target = y_target
        self.volume_source = volume_source
        self.control_target = control_target
        self.diffusion = diffusion
        self.reaction = float(reaction)
        self.boundary_control = boundary_control
        self.boundary_source = boundary_source
        self._asm = None

    def assembled(self):
        if self._asm is None:
            self._asm = _Assembly(self)
        return self._asm


class _Assembly:
    """Matrices and vectors of a control problem, restricted to free DOFs."""

    def __init__(self, problem):
        gd = problem.gd
        self.stiffness = assemble_stiffness(gd, problem.diffusion, problem.reaction)
        check_symmetry(self.stiffness)
        self.mass = gd.restrict_matrix(gd.mass_matrix())
        self.cell_weight = gd.mesh.cell_area
        self.source_load = gd.restrict(
            assemble_load(gd, problem.volume_source,
                          problem.boundary_source if gd.bc == "neumann" else None)
        )
        self.target_load = gd.restrict(assemble_load(gd, problem.y_target))
        if problem.control_target is None:
            self.control_target_cells = np.zeros(gd.mesh.n_cells)
        else:
            self.control_target_cells = project_onto_cells(
                gd.mesh, problem.control_target
            )
        self.face_weight = None
        # Stacked control vector: cells (distributed) first, then boundary
        # faces, with its coupling to the free DOFs and its cost weights.
        couplings, weights, targets = [], [], []
        if problem.distributed:
            couplings.append(gd.cell_coupling()[gd.free])
            weights.append(problem.alpha * self.cell_weight)
            targets.append(self.control_target_cells)
        if problem.boundary_control:
            self.face_weight = gd.mesh.face_length[gd.boundary_face_ids]
            couplings.append(gd.boundary_coupling()[gd.free])
            weights.append(problem.beta * self.face_weight)
            targets.append(np.zeros(len(self.face_weight)))
        self.control_coupling = sp.hstack(couplings, format="csr")
        self.control_weight = np.concatenate(weights)
        self.control_target = np.concatenate(targets)

    @functools.cached_property
    def stiffness_factor(self):
        return SPDFactor(self.stiffness)


@dataclass(eq=False)
class KKTSolution:
    """State/adjoint DOF vectors and cellwise (facewise) controls."""

    y: np.ndarray
    p: np.ndarray
    u: Optional[np.ndarray]
    u_b: Optional[np.ndarray]
    iterations: int
    active_lower: Optional[np.ndarray]
    active_upper: Optional[np.ndarray]


def cell_adjoint_averages(problem, p_full):
    """Exact cell averages of the reconstructed adjoint."""
    return problem.gd.value_center @ p_full


def face_adjoint_averages(problem, p_full):
    """Exact boundary-face averages of the adjoint trace."""
    return problem.gd.trace_mid @ p_full


def _pcg(apply, rhs, x, inv_weight, tol, max_iter=PCG_MAX_ITER):
    """Conjugate gradients for apply(x) = rhs from the start x, with the
    diagonal preconditioner inv_weight.

    Stops when the preconditioned residual norm is at most tol times that
    of rhs; raises SolverError if max_iter steps do not get there.
    """
    rhs_norm = math.sqrt(rhs @ (inv_weight * rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    r = rhs - apply(x)
    z = inv_weight * r
    rz = float(r @ z)
    d = z
    steps = 0
    while not math.sqrt(rz) <= tol * rhs_norm:
        if steps == max_iter:
            raise SolverError(
                f"conjugate gradients reached relative residual "
                f"{math.sqrt(rz) / rhs_norm:.3e}, above {tol:.1e}, in {max_iter} steps"
            )
        steps += 1
        q = apply(d)
        step = rz / float(d @ q)
        x = x + step * d
        r = r - step * q
        z = inv_weight * r
        rz, rz_old = float(r @ z), rz
        d = z + (rz / rz_old) * d
    return x


def solve_kkt_pdas(problem, max_iter=DEFAULT_PDAS_MAX_ITER, tol=DEFAULT_PDAS_TOL):
    """Primal-dual active-set solve of the discrete optimality system.

    The stiffness matrix K is factored once per problem (and cached on
    its assembly).  Distributed and boundary controls form one stacked
    control u with weights W (alpha * cell areas, beta * face lengths).
    Each iteration pins u at its bounds on the current active sets and
    solves the reduced Hessian system

        (W_I + B_I^T K^-1 M K^-1 B_I) u_I = rhs

    on the inactive controls I by conjugate gradients preconditioned with
    W_I^-1 and warm-started from the previous control, to a relative
    preconditioned residual of tol / 100.  State and adjoint are then
    recomputed from u with two factor solves, and the active sets are
    refreshed from the unclamped candidate control; termination is
    reached when they repeat.  A return to any earlier pair is a cycle
    and raises SolverError with the |A-|/|A+| history.  The returned
    control satisfies the discrete projection identity by construction.
    """
    gd = problem.gd
    asm = problem.assembled()
    lower, upper = problem.lower, problem.upper
    factor = asm.stiffness_factor
    b_mat, w = asm.control_coupling, asm.control_weight
    n_cells = gd.mesh.n_cells if problem.distributed else 0

    def state_adjoint(u):
        y = factor.solve(asm.source_load + b_mat @ u)
        return y, factor.solve(asm.mass @ y - asm.target_load)

    def reduced_hessian(inactive):
        b_in = b_mat[:, inactive]
        w_in = w[inactive]
        return lambda v: w_in * v + b_in.T @ factor.solve(asm.mass @ factor.solve(b_in @ v))

    u = np.zeros(len(w))
    lo = np.zeros(len(w), dtype=bool)
    hi = np.zeros(len(w), dtype=bool)
    # Iteration that used each active-set pair, keyed by its packed bits,
    # and the |A-|/|A+| history for the cycle report.
    key = lambda lo, hi: np.packbits(lo).tobytes() + np.packbits(hi).tobytes()
    seen = {}
    sizes = []
    for it in range(1, max_iter + 1):
        seen[key(lo, hi)] = it
        sizes.append(f"{lo.sum()}/{hi.sum()}")
        inactive = ~(lo | hi)
        pinned = np.where(lo, lower, np.where(hi, upper, 0.0))
        if inactive.any():
            _, p_pinned = state_adjoint(pinned)
            rhs = (w * asm.control_target - b_mat.T @ p_pinned)[inactive]
            pinned[inactive] = _pcg(reduced_hessian(inactive), rhs, u[inactive],
                                    1.0 / w[inactive], 1e-2 * tol)
        u = pinned
        y, p = state_adjoint(u)

        p_full = gd.expand(p)
        parts = []
        if problem.distributed:
            parts.append(asm.control_target_cells
                         - cell_adjoint_averages(problem, p_full) / problem.alpha)
        if problem.boundary_control:
            parts.append(-face_adjoint_averages(problem, p_full) / problem.beta)
        candidate = np.concatenate(parts)
        new_lo = candidate < lower
        new_hi = candidate > upper
        done = bool(np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi))
        if not done and key(new_lo, new_hi) in seen:
            sizes.append(f"{new_lo.sum()}/{new_hi.sum()}")
            raise SolverError(
                f"active sets cycle: iteration {it + 1} would repeat those of "
                f"iteration {seen[key(new_lo, new_hi)]}; "
                f"|A-|/|A+| by iteration: {', '.join(sizes)}"
            )
        lo, hi = new_lo, new_hi
        if done:
            u = project_box(candidate, lower, upper)
            return KKTSolution(
                gd.expand(y), p_full,
                u[:n_cells] if problem.distributed else None,
                u[n_cells:] if problem.boundary_control else None,
                it,
                lo[:n_cells] if problem.distributed else None,
                hi[:n_cells] if problem.distributed else None,
            )
    raise SolverError(f"active-set iteration did not settle in {max_iter} steps")


def _largest_weighted_eig(hess, weight):
    """Largest eigenvalue of hess x = lambda diag(weight) x, for a dense
    symmetric hess and positive weights; only that one is computed."""
    n = len(weight)
    return la.eigh(hess, np.diag(weight), eigvals_only=True,
                   subset_by_index=[n - 1, n - 1])[0]


def solve_kkt_reference(problem, tol=1e-12, max_iter=200000):
    """Accelerated projected-gradient reference solve of the same
    optimality system.

    Assembles the control-to-state map S = K^-1 B densely (only sensible
    on meshes with a few hundred DOFs), and with it the reduced Hessian
    S^T M S and the shift S^T (M y0 - target load), so that B^T p(u) is
    one dense matrix-vector product.  FISTA with gradient-based adaptive
    restart (momentum reset whenever it points against the projected
    gradient step) runs in the control-cost metric with the step
    1 / (1 + largest eigenvalue), until the natural residual
    max|u - P(u_d - W^-1 B^T p)| is at most ``tol`` * max(1, max|u|).
    Shares no code path with the active-set solver beyond problem
    assembly.
    """
    gd = problem.gd
    if gd.n_dofs > 500:
        raise ValueError("reference solver is restricted to at most 500 DOFs")
    asm = problem.assembled()
    lower, upper = problem.lower, problem.upper
    k = asm.stiffness.toarray()
    m = asm.mass.toarray()
    b_all = asm.control_coupling.toarray()
    w_all = asm.control_weight
    u_target = asm.control_target

    cho = la.cho_factor(k)
    y0 = la.cho_solve(cho, asm.source_load)
    state_map = la.cho_solve(cho, b_all)
    hess = state_map.T @ (m @ state_map)
    # K is symmetric, so B^T p(u) = B^T K^-1 (M (y0 + S u) - target load)
    # = hess @ u + shift.
    shift = state_map.T @ (m @ y0 - asm.target_load)
    step = 1.0 / (1.0 + _largest_weighted_eig(hess, w_all))

    # u is the projected iterate, z the extrapolated point the gradient
    # step starts from; their Hessian products are carried along, so
    # an iteration costs the single product hess @ u.
    u = project_box(u_target, lower, upper)
    hu = hess @ u
    z, hz = u, hu
    t = 1.0
    for it in range(1, max_iter + 1):
        candidate = project_box(u_target - (hu + shift) / w_all, lower, upper)
        if np.max(np.abs(u - candidate)) <= tol * max(1.0, np.max(np.abs(u))):
            u = candidate
            break
        u_new = project_box(z - step * ((hz + shift) / w_all + (z - u_target)), lower, upper)
        hu_new = hess @ u_new
        if (z - u_new) @ (w_all * (u_new - u)) > 0.0:
            t = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        z = u_new + beta * (u_new - u)
        hz = hu_new + beta * (hu_new - hu)
        u, hu, t = u_new, hu_new, t_new
    else:
        raise SolverError("projected gradient did not reach stationarity")

    n_cells = gd.mesh.n_cells if problem.distributed else 0
    u_cells = u[:n_cells] if problem.distributed else None
    u_b = u[n_cells:] if problem.boundary_control else None
    y = y0 + state_map @ u
    p = la.cho_solve(cho, m @ y - asm.target_load)
    return KKTSolution(
        gd.expand(y), gd.expand(p), u_cells, u_b, it,
        u_cells <= lower if problem.distributed else None,
        u_cells >= upper if problem.distributed else None,
    )


@dataclass(eq=False)
class PostprocessedControls:
    """Post-processed control pair; cellwise arrays or pointwise closures.

    kind == "cellwise": tilde_u and tilde_u_h are per-cell arrays.
    kind == "pointwise": both are callables (cells, points) -> values.
    tilde_u is None when no exact adjoint closure was given.
    clamp(values, cells=all cells) is the projection formula
    clamp(cell_avg(u_d) - values / alpha) that both are built with.
    """

    kind: str
    tilde_u: Union[np.ndarray, Callable, None]
    tilde_u_h: Union[np.ndarray, Callable]
    clamp: Callable


def postprocess(problem, solution, adjoint=None):
    """Projection-formula controls from the exact and discrete adjoints.

    ``adjoint`` is the exact adjoint closure, if any.  Nodal schemes
    yield pointwise closures clamp(cell_avg(u_d) - adjoint/alpha);
    cell-centred schemes yield cellwise values with the exact adjoint
    sampled at cell centroids, and their discrete post-processed control
    coincides with the optimal control itself.
    """
    gd = problem.gd
    asm = problem.assembled()
    alpha, lower, upper = problem.alpha, problem.lower, problem.upper
    ud = asm.control_target_cells

    def clamp(values, cells=slice(None)):
        return project_box(ud[cells] - values / alpha, lower, upper)

    if gd.sample_policy == "cell_point":
        tilde_u = None if adjoint is None else clamp(adjoint(gd.mesh.cell_centroid))
        tilde_u_h = clamp(cell_adjoint_averages(problem, solution.p))
        return PostprocessedControls("cellwise", tilde_u, tilde_u_h, clamp)

    def tilde_u(cells, pts):
        return clamp(adjoint(pts), cells)

    def tilde_u_h(cells, pts):
        return clamp(gd.value_at(solution.p, cells, pts), cells)

    return PostprocessedControls(
        "pointwise", None if adjoint is None else tilde_u, tilde_u_h, clamp
    )


def variational_inequality_gap(problem, solution, trial_cells, trial_faces=None):
    """Inner product of the control-equation residual with (trial - u).

    Nonnegative (up to solver tolerance) for every admissible trial
    control exactly when the discrete variational inequality holds.
    """
    asm = problem.assembled()
    gap = 0.0
    if problem.distributed:
        d = cell_adjoint_averages(problem, solution.p)
        w = asm.cell_weight
        gap += float(
            w @ (
                (d + problem.alpha * (solution.u - asm.control_target_cells))
                * (trial_cells - solution.u)
            )
        )
    if problem.boundary_control and trial_faces is not None:
        t = face_adjoint_averages(problem, solution.p)
        gap += float(
            asm.face_weight @ ((t + problem.beta * solution.u_b) * (trial_faces - solution.u_b))
        )
    return gap


def projection_identity_gap(problem, solution):
    """Max-norm residual of the discrete projection identity."""
    asm = problem.assembled()
    gap = 0.0
    if problem.distributed:
        d = cell_adjoint_averages(problem, solution.p)
        candidate = project_box(
            asm.control_target_cells - d / problem.alpha, problem.lower, problem.upper
        )
        gap = float(np.max(np.abs(solution.u - candidate)))
    if problem.boundary_control:
        t = face_adjoint_averages(problem, solution.p)
        b_candidate = project_box(-t / problem.beta, problem.lower, problem.upper)
        gap = max(gap, float(np.max(np.abs(solution.u_b - b_candidate))))
    return gap
