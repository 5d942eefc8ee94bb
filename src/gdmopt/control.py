"""Box-constrained linear-quadratic optimal control on gradient discretisations.

The discrete problem minimises

    1/2 ||reconstructed state - target||^2 + alpha/2 ||u - u_d||^2

over piecewise-constant controls confined to a box, subject to the
discrete elliptic state equation.  Two independent solvers are provided:
a primal-dual active-set iteration that factors the stiffness matrix
once and, per active-set guess, solves the reduced Hessian on the
inactive controls by preconditioned conjugate gradients, carrying state
and adjoint along; each such run stops as soon as a bound on the error
of the candidate control (from the CG residual and a Lanczos estimate
of the Hessian's spectrum) proves the next active sets, except for a
final run to full accuracy once they repeat, so the iteration visits the
same active sets as one with exact inner solves.  The second solver is a
dense reference used to cross-check it on small meshes: accelerated
projected gradient (FISTA with adaptive restart) identifies the active
sets, and once they repeat a dense Cholesky solve on their inactive set
is tried as a finish.  Either way it returns only a control that passed
its natural-residual test.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np
import scipy.linalg as la

from .analysis import block_sums, quadrature_blocks
from .assembly import SolverError, SPDFactor, check_symmetry, scaled_transpose

# Active-set iterations solve_kkt_pdas may take; PDAS ends in finitely
# many steps, so this is only a safety net.
PDAS_MAX_ITER = 100

# Relative tolerance tau of the full CG stopping rule of solve_kkt_pdas.
PCG_TOL = 1e-12

# Safety factor on the Lanczos estimate of the largest eigenvalue of
# W^-1/2 B^T K^-1 M K^-1 B W^-1/2 that scales the active-set certificate
# of solve_kkt_pdas: a Ritz value approaches that eigenvalue from below.
LAMBDA_INFLATION = 4.0

# Conjugate-gradient steps allowed per active-set guess.  Preconditioned
# by the control weights, the reduced Hessian has a condition number
# bounded independently of the mesh size (1 + C_D^4 / alpha), so the
# benchmark cases need 15 steps or fewer.
PCG_MAX_ITER = 500

# Stationarity tolerance of solve_kkt_reference, relative to max(1,
# max|u|), and the iterations it may take to reach it.
REFERENCE_TOL = 1e-12
REFERENCE_MAX_ITER = 200000


def project_box(values, lower, upper):
    """Pointwise projection onto the box [lower, upper]; a NaN edge is
    rejected like an empty box."""
    if not lower <= upper:
        raise ValueError("empty box or NaN bound: need lower <= upper")
    return np.clip(values, lower, upper)


def project_onto_cells(mesh, fn):
    """Cell averages of a function under the degree-5 gauss7 rule, which
    is evaluated one block of cells at a time."""
    sums, areas = np.empty((2, mesh.n_cells))
    for block, cells, pts, wts in quadrature_blocks(mesh, "gauss7"):
        sums[block] = block_sums(block, cells, wts * np.asarray(fn(pts), dtype=float))
        areas[block] = block_sums(block, cells, wts)
    return sums / areas


@dataclass(eq=False)
class OptimalControlProblem:
    """Data of one discrete control problem on a gradient discretisation,
    with its matrices and vectors on the unknowns of the discretisation,
    each built on first read and cached.

    The control has one value per cell, with weight W = alpha * area
    (``control_weight``) and the cell average of u_d (``cell_target``);
    the coupling is B = V^T diag(area) (``control_coupling``), with V the
    cell mean of the function reconstruction.  Its transpose
    (``coupling_transpose``) is the row-scaled V, built on each read.

    Parameters
    ----------
    gd : GradientDiscretisation
    alpha : float
        Control cost weight, positive and finite.
    bounds : (float, float)
        Box constraints with lower <= upper, so neither is NaN; infinite
        entries disable a side, but lower < inf and upper > -inf.  Also
        available as ``lower`` and ``upper``.
    loads : (2, n_free) array
        The finite loads of the fixed source of the state equation and of
        the desired state (analysis.sample_level sums them while it
        samples a level).
    control_target : callable or None
        Distributed control shift u_d (defaults to zero).
    reaction : float
        Zero-order coefficient c0 of the state equation -lap y + c0 y =
        f + u; must be positive for Neumann problems.
    """

    gd: Any
    alpha: float
    bounds: tuple
    loads: np.ndarray
    control_target: Optional[Callable] = None
    reaction: float = 0.0

    def __post_init__(self):
        self.lower, self.upper = float(self.bounds[0]), float(self.bounds[1])
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not (self.lower <= self.upper and self.lower < math.inf and self.upper > -math.inf):
            raise ValueError("empty box, NaN bound or no finite control: "
                             "need lower <= upper, lower < inf and upper > -inf")
        if self.gd.bc == "neumann" and not self.reaction > 0.0:
            raise ValueError("Neumann problems need a positive reaction coefficient")
        if np.shape(self.loads) != (2, self.gd.n_free) or not np.isfinite(self.loads).all():
            raise ValueError(f"loads must be finite, of shape (2, {self.gd.n_free}), "
                             f"not of shape {np.shape(self.loads)}")
        self.alpha, self.reaction = float(self.alpha), float(self.reaction)

    @functools.cached_property
    def stiffness(self):
        return self.gd.stiffness(self.reaction)

    @functools.cached_property
    def stiffness_factor(self):
        return SPDFactor(self.stiffness)

    @functools.cached_property
    def cell_target(self):
        if self.control_target is None:
            return np.zeros(self.gd.mesh.n_cells)
        return project_onto_cells(self.gd.mesh, self.control_target)

    @functools.cached_property
    def control_weight(self):
        return self.alpha * self.gd.mesh.cell_area

    @property
    def coupling_transpose(self):
        """B^T = diag(area) V in CSR format, on the index arrays of V."""
        return scaled_transpose(self.gd.value_center, self.gd.mesh.cell_area).T

    @functools.cached_property
    def control_coupling(self):
        return scaled_transpose(self.gd.value_center, self.gd.mesh.cell_area).tocsr()

    def assembled(self):
        """The problem, with its stiffness, the mass matrix, its cell target
        and its coupling built in that order (the mass matrix built first
        raised the peak RSS of an L-shape p1 table 4..7 by about 3.5 MB)."""
        self.stiffness, self.gd.mass_matrix, self.cell_target, self.control_coupling
        return self

    def candidate(self, p):
        """Unclamped control u_d - (cell mean of p) / alpha, for an adjoint
        vector p; its box projection is the optimal control."""
        return self.cell_target - (self.gd.value_center @ p) / self.alpha


@dataclass(eq=False)
class KKTSolution:
    """State and adjoint vectors, on the unknowns of the discretisation,
    and the cellwise control with its active sets.

    history holds one (|A-|, |A+|, cg_steps, certified) record per
    active-set iteration: the sizes of the active sets it solved with,
    its conjugate-gradient steps, and whether the certificate proved its
    outcome (see solve_kkt_pdas).  The reference solver leaves it empty.
    """

    y: np.ndarray
    p: np.ndarray
    u: np.ndarray
    iterations: int
    active_lower: np.ndarray
    active_upper: np.ndarray
    history: list = field(default_factory=list)


def _largest_ritz_value(steps, betas):
    """Largest eigenvalue of the Lanczos tridiagonal of a preconditioned
    CG run: steps[k] is the length of step k and betas[k] the coefficient
    of direction k in direction k + 1 (at least len(steps) - 1 of them).
    It approximates the largest eigenvalue of the preconditioned operator
    from below."""
    steps = np.asarray(steps)
    betas = np.asarray(betas[:len(steps) - 1])
    diag = 1.0 / steps
    diag[1:] += betas / steps[:-1]
    off = np.sqrt(betas) / steps[:-1]
    k = len(steps) - 1
    return la.eigvalsh_tridiagonal(diag, off, select="i", select_range=(k, k))[0]


def solve_kkt_pdas(problem):
    """Primal-dual active-set solve of the discrete optimality system.

    The stiffness matrix K is factored once per problem (and cached on
    the problem).  The cellwise control u has weights W (alpha * cell
    areas), coupling B and candidate c(u) = u_d - W^-1 B^T p(u).  Each
    iteration pins u at its bounds on the current active sets, keeps the
    previous control on the inactive controls I, and solves the reduced
    Hessian system

        H_I u_I = (W_I + G_II) u_I = rhs,   G = B^T K^-1 M K^-1 B,

    by conjugate gradients preconditioned with W_I^-1, from that start.
    One state/adjoint solve of the start gives the initial residual
    W_I (c - u)_I; each step solves s = K^-1 B_I d and t = K^-1 M s and
    adds them to the state and adjoint as it adds d to u_I, so both are
    carried along and the candidate with them.

    Certificate.  With e = u_I - u_I* the CG error, c(u) - c(u*) =
    -W^-1 G_{:,I} e, so by Cauchy-Schwarz and G_ii <= lambda_G w_i

        |c_i(u) - c_i(u*)| <= sqrt(lambda_G / w_i) ||e||_G
                           <= sqrt(lambda_G / w_i) ||r||_{W_I^-1},

    since H_I >= W_I; lambda_G is the largest eigenvalue of
    W^-1/2 G W^-1/2.  It is estimated in iteration 1, whose inactive set
    holds every control, as LAMBDA_INFLATION * (theta - 1), with theta
    the largest Ritz value of the Lanczos tridiagonal built so far; the
    estimate is refreshed after every CG step of iteration 1, and the
    later iterations keep the value it ends with.  From the second CG
    step of iteration 1 on, CG stops as soon as every candidate lies
    farther than its bound from each finite box edge: the next active
    sets are then those an exact solve would give.  When they equal the
    current sets, or those of an earlier iteration, the same CG run goes
    on to the full stopping rule (the exact finish), and the loop ends if
    they still repeat the current ones.  Without a CG step in iteration
    1 there is no estimate and every iteration is exact.

    The full stopping rule is ||r||_{W_I^-1} <= tau (||u_I||_{W_I} -
    ||r||_{W_I^-1}) with tau the constant PCG_TOL.  The bracket is a
    lower bound on ||u_I*||_{W_I}, which is at most ||rhs||_{W_I^-1}, so
    the rule is no looser than a relative residual of tau; a zero start
    of a zero solution meets it at once.  A CG run that has not stopped
    after PCG_MAX_ITER steps raises SolverError with the residual it
    reached.

    The active sets are refreshed from the candidate; termination is
    reached when they repeat, and SolverError is raised if they still
    change after PDAS_MAX_ITER iterations.  A return to any earlier pair
    is a cycle and raises SolverError with the |A-|/|A+| history, unless
    the control u of the (exact) iteration that returns meets the
    projection formula to the CG tolerance, ||u - P(c(u))||_W <= tau
    ||u||_W: the sets then flip only in controls whose candidates lie on
    a bound to rounding (a degenerate box), and u is a solution.  The
    carried state and adjoint are checked against the backward-error
    contract of the factor (refined where they miss it), and the
    returned control is the box projection of their candidate, so it
    satisfies the discrete projection identity by construction.
    """
    problem.assembled()
    lower, upper = problem.lower, problem.upper
    mass, (source_load, target_load) = problem.gd.mass_matrix, problem.loads
    factor = problem.stiffness_factor
    b_mat, w = problem.control_coupling, problem.control_weight
    b_t = problem.coupling_transpose
    root_w = np.sqrt(w)
    lam = None
    # The vectors of the CG steps, one entry per control, updated in
    # place.  The margin to an infinite box edge is inf, so margin keeps
    # inf where no finite edge is measured.
    x, q, z, d, work = (np.empty(len(w)) for _ in range(5))
    margin = np.full(len(w), np.inf)
    edges = [e for e in (lower, upper) if math.isfinite(e)]

    def proven(candidate, rz):
        for i, edge in enumerate(edges):
            gap = work if i else margin
            np.abs(np.subtract(candidate, edge, out=gap), out=gap)
            if i:
                np.minimum(margin, gap, out=margin)
        np.multiply(margin, root_w, out=margin)
        return bool(margin.min() > math.sqrt(lam * rz))

    def unchanged(candidate):
        return bool(np.array_equal(candidate < lower, lo)
                    and np.array_equal(candidate > upper, hi))

    u = np.zeros(len(w))
    lo = np.zeros(len(w), dtype=bool)
    hi = np.zeros(len(w), dtype=bool)
    # Iteration that used each active-set pair, keyed by its packed bits.
    key = lambda lo, hi: np.packbits(lo).tobytes() + np.packbits(hi).tobytes()
    seen = {}
    history = []
    for it in range(1, PDAS_MAX_ITER + 1):
        seen[key(lo, hi)] = it
        free = (~(lo | hi)).astype(float)
        u = np.where(lo, lower, np.where(hi, upper, u))
        y = factor.solve(source_load + b_mat @ u)
        p = factor.solve(mass @ y - target_load)
        candidate = problem.cell_target - (b_t @ p) / w
        # CG vectors are zero on the active controls.
        r = free * w * (candidate - u)
        np.divide(r, w, out=z)
        rz = float(r @ z)
        d[:] = z
        steps, betas = [], []
        certified = False
        while True:
            if it == 1 and steps:
                lam = LAMBDA_INFLATION * max(_largest_ritz_value(steps, betas) - 1.0, 0.0)
            np.multiply(free, u, out=x)
            res, norm = math.sqrt(rz), math.sqrt(x @ np.multiply(w, x, out=work))
            if res <= PCG_TOL * (norm - res):
                exact = True
                break
            # An estimate from a single step is not trusted to certify.
            if (lam is not None and (it > 1 or len(steps) > 1) and not certified
                    and proven(candidate, rz)):
                certified = True
                if not (unchanged(candidate)
                        or key(candidate < lower, candidate > upper) in seen):
                    exact = False
                    break
            if len(steps) == PCG_MAX_ITER:
                raise SolverError(
                    f"conjugate gradients reached relative residual "
                    f"{res / norm if norm else math.inf:.3e}, above {PCG_TOL:.1e}, "
                    f"in {PCG_MAX_ITER} steps"
                )
            s = factor.solve(b_mat @ d)
            t = factor.solve(mass @ s)
            bt = b_t @ t
            np.multiply(w, d, out=q)
            q += bt
            q *= free
            step = rz / float(d @ q)
            # Each update scales its step vector, then adds it.
            u += np.multiply(d, step, out=work)
            s *= step
            y += s
            t *= step
            p += t
            bt *= step
            bt /= w
            candidate -= bt
            q *= step
            r -= q
            np.divide(r, w, out=z)
            rz, rz_old = float(r @ z), rz
            betas.append(rz / rz_old)
            steps.append(step)
            d *= betas[-1]
            d += z
        history.append((int(lo.sum()), int(hi.sum()), len(steps), certified))
        if exact:
            y = factor.solve(source_load + b_mat @ u, x0=y)
            p = factor.solve(mass @ y - target_load, x0=p)
            candidate = problem.candidate(p)
        done = exact and unchanged(candidate)
        new_lo = candidate < lower
        new_hi = candidate > upper
        if not done and key(new_lo, new_hi) in seen:
            # Candidates on a bound to rounding (a degenerate box) flip the
            # sets of an exact iterate that is already a solution.
            gap = u - project_box(candidate, lower, upper)
            done = math.sqrt(gap @ (w * gap)) <= PCG_TOL * math.sqrt(u @ (w * u))
            if not done:
                sizes = [f"{a}/{b}" for a, b, _, _ in history]
                raise SolverError(
                    f"active sets cycle: iteration {it + 1} would repeat those of "
                    f"iteration {seen[key(new_lo, new_hi)]}; "
                    f"|A-|/|A+| by iteration: {', '.join(sizes)}, "
                    f"{new_lo.sum()}/{new_hi.sum()}"
                )
        lo, hi = new_lo, new_hi
        if done:
            return KKTSolution(y, p, project_box(candidate, lower, upper), it,
                               lo, hi, history)
    raise SolverError(f"active-set iteration did not settle in {PDAS_MAX_ITER} steps")


def _largest_weighted_eig(hess, weight):
    """Largest eigenvalue of hess x = lambda diag(weight) x, for a dense
    symmetric hess and positive weights; only that one is computed, as
    the largest of the standard problem for S hess S, S = diag(weight)^-1/2."""
    n = len(weight)
    s = 1.0 / np.sqrt(weight)
    return la.eigh(hess * np.outer(s, s), eigvals_only=True,
                   subset_by_index=[n - 1, n - 1])[0]


def solve_kkt_reference(problem):
    """Accelerated projected-gradient reference solve of the same
    optimality system.

    Assembles the control-to-state map S = K^-1 B densely (only sensible
    on meshes with a few hundred DOFs), and with it the reduced Hessian
    S^T M S and the shift S^T (M y0 - target load), so that B^T p(u) is
    one dense matrix-vector product.  FISTA with gradient-based adaptive
    restart (momentum reset whenever it points against the projected
    gradient step) runs in the control-cost metric with the step
    1 / (1 + largest eigenvalue), until the natural residual
    max|u - P(u_d - W^-1 B^T p)| is at most REFERENCE_TOL * max(1,
    max|u|).

    Verified dense finish.  When the active sets of the raw candidate
    u_d - W^-1 B^T p (entries below lower, entries above upper) equal
    those of the previous iteration, and that pair has not been tried,
    the controls on them are pinned to their bounds and the stationarity
    equations on the inactive set I,

        (W_I + H_II) u_I = W_I u_d,I - shift_I - H_IA u_A,

    are solved by a dense Cholesky factorisation; the box projection of
    that control is returned if it passes the same residual test, and
    otherwise FISTA goes on from its own unchanged state.  So the
    returned u is always one whose natural residual was checked, a FISTA
    iterate or a finish, and the iteration count is that of the FISTA
    loop when it stopped.  SolverError, with the residual reached, is
    raised after REFERENCE_MAX_ITER iterations.  Shares no code path with
    the active-set solver beyond problem assembly.
    """
    if problem.gd.n_dofs > 500:
        raise ValueError("reference solver is restricted to at most 500 DOFs")
    problem.assembled()
    # cho_factor reads one triangle of K only, so asymmetry would go unseen.
    check_symmetry(problem.stiffness)
    lower, upper = problem.lower, problem.upper
    k = problem.stiffness.toarray()
    m = problem.gd.mass_matrix.toarray()
    source_load, target_load = problem.loads
    w, u_target = problem.control_weight, problem.cell_target

    cho = la.cho_factor(k)
    y0 = la.cho_solve(cho, source_load)
    state_map = la.cho_solve(cho, problem.control_coupling.toarray())
    hess = state_map.T @ (m @ state_map)
    # K is symmetric, so B^T p(u) = B^T K^-1 (M (y0 + S u) - target load)
    # = hess @ u + shift.
    shift = state_map.T @ (m @ y0 - target_load)
    step = 1.0 / (1.0 + _largest_weighted_eig(hess, w))

    def residual(u, hu):
        """Raw candidate u_d - W^-1 B^T p(u) and the natural residual
        max|u - P(candidate)| relative to max(1, max|u|)."""
        raw = u_target - (hu + shift) / w
        gap = np.max(np.abs(u - project_box(raw, lower, upper)))
        return raw, gap / max(1.0, np.max(np.abs(u)))

    def finish(lo, hi):
        """Exact minimiser with the controls of lo and hi pinned to their
        bounds, solved densely on the inactive set I, then box-projected."""
        pinned = lo | hi
        free = ~pinned
        u = np.where(lo, lower, np.where(hi, upper, 0.0))
        rhs = w[free] * u_target[free] - shift[free] - hess[np.ix_(free, pinned)] @ u[pinned]
        cho_i = la.cho_factor(np.diag(w[free]) + hess[np.ix_(free, free)])
        u[free] = la.cho_solve(cho_i, rhs)
        return project_box(u, lower, upper)

    # u is the projected iterate, z the extrapolated point the gradient
    # step starts from; their Hessian products are carried along, so
    # an iteration costs the single product hess @ u.  pair is the packed
    # active-set pair of the raw candidate, tried the pairs finished once.
    u = project_box(u_target, lower, upper)
    hu = hess @ u
    z, hz = u, hu
    t = 1.0
    pair, tried = None, set()
    for it in range(1, REFERENCE_MAX_ITER + 1):
        raw, res = residual(u, hu)
        if res <= REFERENCE_TOL:
            break
        lo, hi = raw < lower, raw > upper
        last, pair = pair, np.packbits(np.concatenate((lo, hi))).tobytes()
        if pair == last and pair not in tried:
            tried.add(pair)
            trial = finish(lo, hi)
            if residual(trial, hess @ trial)[1] <= REFERENCE_TOL:
                u = trial
                break
        u_new = project_box(z - step * ((hz + shift) / w + (z - u_target)), lower, upper)
        hu_new = hess @ u_new
        if (z - u_new) @ (w * (u_new - u)) > 0.0:
            t = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        momentum = (t - 1.0) / t_new
        z = u_new + momentum * (u_new - u)
        hz = hu_new + momentum * (hu_new - hu)
        u, hu, t = u_new, hu_new, t_new
    else:
        raise SolverError(
            f"projected gradient reached natural residual {res:.3e} "
            f"relative to max(1, max|u|), above {REFERENCE_TOL:.1e}, "
            f"in {REFERENCE_MAX_ITER} iterations"
        )

    y = y0 + state_map @ u
    p = la.cho_solve(cho, m @ y - target_load)
    return KKTSolution(y, p, u, it, u <= lower, u >= upper)


def postprocess(problem, cells, p, exact_p):
    """Projection-formula controls P(cell_avg(u_d) - p / alpha) at points
    inside cells, such as those of one block of the load rule
    (``analysis.function_rule(gd)``).

    Returns (discrete, exact): the first from p, the reconstructed
    discrete adjoint at the points, the second from ``exact_p``, the exact
    adjoint there.  For cell-centred schemes the discrete one at the
    centroids coincides with the optimal control itself.
    """
    ud = problem.cell_target[cells]
    return tuple(project_box(ud - v / problem.alpha, problem.lower, problem.upper)
                 for v in (p, exact_p))
