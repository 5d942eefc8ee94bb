"""Active-set solver against the projected-gradient reference, plus the
projection/variational-inequality identities of the optimality system."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdmopt import assembly, control
from gdmopt.analysis import cell_quadrature, function_rule
from gdmopt.assembly import SolverError, assemble_load
from gdmopt.cases import get_case
from gdmopt.control import (
    OptimalControlProblem,
    _largest_ritz_value,
    _largest_weighted_eig,
    postprocess,
    project_box,
    project_onto_cells,
    solve_kkt_pdas,
    solve_kkt_reference,
)
from gdmopt.gd_core import GradientDiscretisation
from gdmopt.mesh import build_cartesian_mesh, build_unit_square_triangulation
from gdmopt.schemes import build_scheme
from oracles import projection_identity_gap, value_at, variational_inequality_gap


def target_loads(gd, target):
    """Loads of a zero source and of the desired state target."""
    return np.stack([np.zeros(gd.n_free), assemble_load(gd, target)])


def synthetic_problem(gd, bounds=(0.0, np.inf), alpha=1.0):
    target = lambda pts: np.sin(np.pi * pts[:, 0]) * pts[:, 1]
    shift = lambda pts: 1.0 - pts[:, 0]
    return OptimalControlProblem(gd, alpha=alpha, bounds=bounds,
                                 loads=target_loads(gd, target), control_target=shift)


def case_problem(name, scheme, m):
    case = get_case(name)
    gd = build_scheme(scheme, case.build_mesh(scheme, m), case.bc)
    return case.build_problem(gd)


def compare_solvers(problem, tol=1e-8):
    a = solve_kkt_pdas(problem)
    b = solve_kkt_reference(problem)
    assert np.max(np.abs(a.u - b.u)) <= tol
    assert np.max(np.abs(a.y - b.y)) <= tol
    assert np.max(np.abs(a.p - b.p)) <= tol
    return a, b


def test_project_box():
    vals = np.array([-2.0, 0.5, 3.0])
    np.testing.assert_array_equal(project_box(vals, 0.0, 1.0), [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(project_box(vals, -np.inf, np.inf), vals)
    with pytest.raises(ValueError):
        project_box(vals, 1.0, 0.0)
    # A NaN edge makes no box; np.clip would spread it over every entry.
    for lower, upper in ((np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan)):
        with pytest.raises(ValueError, match="NaN"):
            project_box(vals, lower, upper)


def test_project_onto_cells_linear_oracle():
    # Cell averages of a linear function are its centroid values.
    mesh = build_unit_square_triangulation(3)
    avg = project_onto_cells(mesh, lambda pts: 2.0 * pts[:, 0] - pts[:, 1])
    exact = 2.0 * mesh.cell_centroid[:, 0] - mesh.cell_centroid[:, 1]
    np.testing.assert_allclose(avg, exact, atol=1e-14)


def test_project_onto_cells_rule_agreement():
    # Degree-5 integrand: gauss7 is exact, so its averages coincide with
    # those of the degree10 oracle rule.
    mesh = build_cartesian_mesh(3, shift=0.2)
    fn = lambda pts: pts[:, 0] ** 3 * pts[:, 1] ** 2
    cells, pts, wts = cell_quadrature(mesh, "degree10")
    oracle = (np.bincount(cells, wts * fn(pts), mesh.n_cells)
              / np.bincount(cells, wts, mesh.n_cells))
    np.testing.assert_allclose(project_onto_cells(mesh, fn), oracle, atol=1e-15)


def test_unconstrained_box_single_iteration():
    gd = build_scheme("p1", build_unit_square_triangulation(4), "dirichlet")
    problem = synthetic_problem(gd, bounds=(-np.inf, np.inf))
    sol = solve_kkt_pdas(problem)
    assert sol.iterations == 1
    assert not sol.active_lower.any() and not sol.active_upper.any()
    assert projection_identity_gap(problem, sol) == 0.0


def test_degenerate_box_pins_control():
    gd = build_scheme("p1", build_unit_square_triangulation(4), "dirichlet")
    problem = synthetic_problem(gd, bounds=(2.0, 2.0))
    sol, _ = compare_solvers(problem)
    assert np.all(sol.u == 2.0)


@pytest.mark.parametrize("scheme", ["p1", "ncp1", "hmm"])
def test_pdas_matches_reference_distributed(scheme):
    sol, ref = compare_solvers(case_problem("example1", scheme, 4))
    assert sol.active_lower.any()  # the one-sided box actually binds
    # FISTA's active sets repeat at once, and the dense finish on them
    # passes the residual test.
    assert ref.iterations <= 3


@pytest.mark.parametrize("scheme", ["p1", "ncp1"])
def test_pdas_matches_reference_neumann(scheme):
    compare_solvers(case_problem("example3-neumann", scheme, 4))


def test_variational_inequality_extreme_and_random_trials():
    problem = case_problem("example1", "p1", 4)
    sol = solve_kkt_pdas(problem)
    n = problem.gd.mesh.n_cells
    scale = 1e-9 * (1.0 + float(np.max(np.abs(sol.u))))
    assert variational_inequality_gap(problem, sol, np.zeros(n)) >= -scale
    rng = np.random.default_rng(3)
    for _ in range(10):
        trial = rng.uniform(0.0, 2.0, n)
        assert variational_inequality_gap(problem, sol, trial) >= -scale
    # The solution itself gives a zero gap.
    assert abs(variational_inequality_gap(problem, sol, sol.u)) <= scale


def test_projection_identity_every_scheme():
    for name, schemes in (
        ("example1", ("p1", "ncp1", "hmm")),
        ("example3-neumann", ("p1", "ncp1")),
    ):
        for scheme in schemes:
            problem = case_problem(name, scheme, 4)
            sol = solve_kkt_pdas(problem)
            assert projection_identity_gap(problem, sol) <= 1e-10


def test_postprocess_cell_centred_identity():
    # For the cell-centred scheme the discrete post-processed control is
    # the optimal control itself: same averages, same clamp.
    case = get_case("example1")
    gd = build_scheme("hmm", case.build_mesh("hmm", 4), case.bc)
    problem = case.build_problem(gd)
    sol = solve_kkt_pdas(problem)
    cells, pts, _ = cell_quadrature(gd.mesh, function_rule(gd))
    discrete, _ = postprocess(problem, cells, value_at(gd, sol.p, cells, pts), case.p(pts))
    np.testing.assert_array_equal(discrete, sol.u)


def test_postprocess_pointwise_clamps():
    case = get_case("example1")
    gd = build_scheme("p1", case.build_mesh("p1", 4), case.bc)
    problem = case.build_problem(gd)
    sol = solve_kkt_pdas(problem)
    cells, pts, _ = cell_quadrature(gd.mesh, function_rule(gd))
    for vals in postprocess(problem, cells, value_at(gd, sol.p, cells, pts), case.p(pts)):
        assert np.all(vals >= problem.lower) and np.all(vals <= problem.upper)
        assert vals.shape == (len(pts),)


@pytest.mark.parametrize("scheme", ["p1", "hmm"])
def test_postprocess_clamp_is_projection_formula(scheme):
    # The exact post-processed control is P(cell_avg(u_d) - p / alpha) at
    # the points of the load rule, with both sides of the box reached.
    case = get_case("example1")
    gd = build_scheme(scheme, case.build_mesh(scheme, 3), case.bc)
    problem = case.build_problem(gd)
    cells, pts, _ = cell_quadrature(gd.mesh, function_rule(gd))
    p = case.p(pts)
    sol = solve_kkt_pdas(problem)
    _, exact = postprocess(problem, cells, value_at(gd, sol.p, cells, pts), p)
    ud = problem.assembled().control_target[cells]
    want = project_box(ud - p / problem.alpha, problem.lower, problem.upper)
    assert np.array_equal(exact, want)
    assert (want == problem.lower).any() and (want > problem.lower).any()


def test_unbounded_solution_is_linear_in_data():
    # Without an active box the optimality system is linear, so scaling
    # the data scales the solution.
    gd = build_scheme("ncp1", build_unit_square_triangulation(3), "dirichlet")
    target = lambda pts: np.sin(np.pi * pts[:, 0]) * pts[:, 1]
    make = lambda c: OptimalControlProblem(
        gd, alpha=0.5, bounds=(-np.inf, np.inf),
        loads=target_loads(gd, lambda pts: c * target(pts)),
    )
    base = solve_kkt_pdas(make(1.0))
    scaled = solve_kkt_pdas(make(3.0))
    np.testing.assert_allclose(scaled.u, 3.0 * base.u, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(scaled.y, 3.0 * base.y, rtol=1e-10, atol=1e-12)


def test_pdas_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(control, "PDAS_MAX_ITER", 1)
    problem = case_problem("example1", "p1", 4)
    with pytest.raises(SolverError, match="did not settle in 1 steps"):
        solve_kkt_pdas(problem)


def test_pdas_cycle_raises_with_history(monkeypatch):
    # Candidate controls that alternate between "far below" and "far
    # above" make the active sets flip between all-lower and all-upper
    # for ever.
    calls = []

    def alternating(asm, p):
        calls.append(None)
        sign = -1.0 if len(calls) % 2 else 1.0
        return np.full(len(asm.control_weight), sign * 1e6)

    monkeypatch.setattr(control._Assembly, "candidate", alternating)
    gd = build_scheme("p1", build_unit_square_triangulation(4), "dirichlet")
    problem = synthetic_problem(gd, bounds=(0.0, 1.0))
    n = gd.mesh.n_cells
    with pytest.raises(SolverError) as err:
        solve_kkt_pdas(problem)
    assert len(calls) == 3
    message = str(err.value)
    assert "iteration 4 would repeat those of iteration 2" in message
    assert f"0/0, {n}/0, 0/{n}, {n}/0" in message


@pytest.mark.parametrize("log_alpha,sides,flips", [
    (-1.5, "both", "0/0, 0/1, 2/0, 2/2"), (-1.25, "upper", "0/0, 0/2"),
], ids=["both", "upper"])
def test_pdas_settles_on_a_degenerate_box(log_alpha, sides, flips):
    # Box edges on the unconstrained control's extremes: pairs of
    # candidates sit on a bound to rounding and flip the active sets back
    # to earlier ones.  The iteration that returns is already a solution.
    case = get_case("example3-neumann")
    gd = build_scheme("p1", case.build_mesh("p1", 4), case.bc)
    loads = case.build_problem(gd).loads

    def problem(bounds):
        return OptimalControlProblem(gd, alpha=10.0 ** log_alpha, bounds=bounds, loads=loads,
                                     control_target=case.u_d, reaction=case.reaction)

    free = solve_kkt_pdas(problem((-np.inf, np.inf))).u
    lower, upper = free.min(), free.min() + 0.9999999999999999 * np.ptp(free)
    box = problem((lower if sides == "both" else -np.inf, upper))
    sol, _ = compare_solvers(box)
    assert ", ".join(f"{a}/{b}" for a, b, _, _ in sol.history) == flips


def test_pdas_factors_stiffness_once(monkeypatch):
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(args)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    problem = case_problem("example2-lshape", "p1", 16)
    sol = solve_kkt_pdas(problem)
    assert sol.iterations >= 3
    assert len(calls) == 1
    # The factor is cached with the problem's assembly.
    solve_kkt_pdas(problem)
    assert len(calls) == 1


def test_both_solvers_reject_asymmetric_stiffness(monkeypatch):
    # A stiffness matrix with a skew part, which neither the sparse
    # factor nor cho_factor (it reads one triangle) may accept.
    gd = build_scheme("p1", build_unit_square_triangulation(4), "dirichlet")
    stiffness = GradientDiscretisation.stiffness

    def skewed(self, reaction=0.0):
        a = stiffness(self, reaction)
        upper = sp.diags(self.dof_points[:, 0]) @ sp.triu(a, k=1)
        return (a + upper - upper.T).tocsc()

    with monkeypatch.context() as patch:
        patch.setattr(GradientDiscretisation, "stiffness", skewed)
        for solve in (solve_kkt_pdas, solve_kkt_reference):
            with pytest.raises(SolverError, match="not symmetric"):
                solve(synthetic_problem(gd))
    # Each solve path checks the symmetry of K once.
    calls = []
    check = assembly.check_symmetry

    def counting_check(a, *args):
        calls.append(a.shape)
        return check(a, *args)

    monkeypatch.setattr(assembly, "check_symmetry", counting_check)
    monkeypatch.setattr(control, "check_symmetry", counting_check)
    for solve in (solve_kkt_pdas, solve_kkt_reference):
        calls.clear()
        solve(synthetic_problem(gd))
        assert calls == [(gd.n_free, gd.n_free)]


@settings(derandomize=True, max_examples=50, deadline=None)
# Degenerate boxes, tried on every run: edges on the free control's
# extremes, and lower == upper.
@example(case_name="example3-neumann", scheme="p1", log_alpha=-1.5, cuts=(0.0, 1.0), sides="both")
@example(case_name="example3-neumann", scheme="p1", log_alpha=-1.5, cuts=(0.0, 1.0), sides="upper")
@example(case_name="example3-neumann", scheme="p1", log_alpha=-1.5, cuts=(0.5, 0.5), sides="both")
@example(case_name="example3-neumann", scheme="p1", log_alpha=-1.5, cuts=(0.5, 0.5), sides="upper")
@given(
    case_name=st.sampled_from(["example1", "example3-neumann"]),
    scheme=st.sampled_from(["p1", "ncp1", "hmm"]),
    log_alpha=st.floats(-2.0, 0.0),
    cuts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    sides=st.sampled_from(["both", "lower", "upper"]),
)
def test_pdas_matches_reference_on_random_boxes(case_name, scheme, log_alpha, cuts, sides):
    # The box cuts the range of the unconstrained control, so it binds.
    case = get_case(case_name)
    gd = build_scheme(scheme, case.build_mesh(scheme, 4), case.bc)

    loads = case.build_problem(gd).loads

    def problem(bounds):
        return OptimalControlProblem(
            gd, alpha=10.0 ** log_alpha, bounds=bounds, loads=loads,
            control_target=case.u_d, reaction=case.reaction,
        )

    free = solve_kkt_pdas(problem((-np.inf, np.inf))).u
    lower, upper = free.min() + np.sort(cuts) * np.ptp(free)
    bounds = (lower if sides != "upper" else -np.inf,
              upper if sides != "lower" else np.inf)
    constrained = problem(bounds)
    sol, _ = compare_solvers(constrained)
    assert projection_identity_gap(constrained, sol) <= 1e-10
    # An admissible trial drawn inside the box (clipped to a finite range
    # around the control where a side is open).
    lo = bounds[0] if np.isfinite(bounds[0]) else sol.u.min() - 1.0
    hi = bounds[1] if np.isfinite(bounds[1]) else sol.u.max() + 1.0
    trial = np.random.default_rng(int(1e6 * cuts[0])).uniform(lo, hi, len(sol.u))
    scale = 1e-9 * (1.0 + float(np.max(np.abs(sol.u))))
    assert variational_inequality_gap(constrained, sol, trial) >= -scale


def test_pdas_without_free_dofs():
    # The m=1 triangulation has no interior vertex: the state vanishes
    # and the control is the projected control target.
    gd = build_scheme("p1", build_unit_square_triangulation(1), "dirichlet")
    problem = synthetic_problem(gd, bounds=(0.2, 0.5))
    sol = solve_kkt_pdas(problem)
    assert gd.n_free == 0 and not sol.y.any()
    np.testing.assert_allclose(sol.u, np.clip(problem.assembled().control_target, 0.2, 0.5))


def test_pdas_cg_cap_raises_with_reached_residual(monkeypatch):
    # Iteration 1 of this problem takes 9 steps before its certificate
    # holds, so a cap of 2 is reached first.
    problem = case_problem("example2-lshape", "p1", 16)
    assert solve_kkt_pdas(problem).history[0][2] > 2
    monkeypatch.setattr(control, "PCG_MAX_ITER", 2)
    with pytest.raises(SolverError, match="relative residual .* in 2 steps"):
        solve_kkt_pdas(problem)


def test_pdas_zero_data_returns_zeros_without_cg_steps(monkeypatch):
    # Zero source, target and control shift: the zero start is the
    # solution, and the stopping rule accepts it before any CG step.
    monkeypatch.setattr(control, "PCG_MAX_ITER", 0)
    gd = build_scheme("p1", build_unit_square_triangulation(4), "dirichlet")
    zero = lambda pts: np.zeros(len(pts))
    problem = OptimalControlProblem(gd, alpha=1.0, bounds=(-1.0, 1.0),
                                    loads=target_loads(gd, zero))
    sol = solve_kkt_pdas(problem)
    assert not sol.u.any() and not sol.y.any() and not sol.p.any()
    assert sol.history == [(0, 0, 0, False)]


def test_largest_ritz_value_of_a_complete_cg_run():
    # n steps of preconditioned CG on an n x n system build the whole
    # Lanczos tridiagonal, whose largest eigenvalue is then that of
    # W^-1/2 A W^-1/2.
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    a = q @ np.diag([1.0, 1.5, 2.0, 3.0, 5.0, 9.0]) @ q.T
    weight = rng.uniform(0.5, 2.0, 6)
    x = np.zeros(6)
    r = rng.standard_normal(6)
    z = r / weight
    d, rz = z, r @ z
    steps, betas = [], []
    for _ in range(6):
        q_d = a @ d
        steps.append(rz / (d @ q_d))
        x, r = x + steps[-1] * d, r - steps[-1] * q_d
        z = r / weight
        rz, rz_old = r @ z, rz
        betas.append(rz / rz_old)
        d = z + betas[-1] * d
    scaled = a / np.sqrt(np.outer(weight, weight))
    assert _largest_ritz_value(steps, betas) == pytest.approx(np.linalg.eigvalsh(scaled)[-1],
                                                              rel=1e-8)
    # A shorter run approximates it from below.
    assert _largest_ritz_value(steps[:2], betas[:1]) <= np.linalg.eigvalsh(scaled)[-1]


def test_pdas_solve_count_regression(monkeypatch):
    # With exact inner solves and no carried state this took 134 SuperLU
    # solves (two per CG step, six more per iteration).
    solves = []
    splu = spla.splu

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            solves.append(None)
            return self.lu.solve(rhs)

    monkeypatch.setattr(spla, "splu", lambda *a, **kw: CountingLU(splu(*a, **kw)))
    sol = solve_kkt_pdas(case_problem("example2-lshape", "p1", 16))
    assert sol.iterations == 5
    # 78 solves measured; the margin allows one more CG step in each of
    # the five iterations.
    assert len(solves) <= 78 + 2 * 5
    # The certificate holds in every iteration, the first included (its
    # eigenvalue estimate grows with its own CG run); the last then runs
    # on to the full stopping rule.
    assert [h[3] for h in sol.history] == [True] * 5


def dense_exact_pdas(problem):
    """(|A-|, |A+|) by iteration and the final active sets of the active-set
    iteration with dense, exact inner solves."""
    asm = problem.assembled()
    k = asm.stiffness.toarray()
    m = problem.gd.mass_matrix.toarray()
    source_load, target_load = problem.loads
    w = asm.control_weight
    state_map = np.linalg.solve(k, asm.control_coupling.toarray())
    y0 = np.linalg.solve(k, source_load)
    # B^T p(u) = hess @ u + shift.
    hess = state_map.T @ m @ state_map
    shift = state_map.T @ (m @ y0 - target_load)
    lo = np.zeros(len(w), dtype=bool)
    hi = np.zeros(len(w), dtype=bool)
    history = []
    while len(history) < 50:
        history.append((int(lo.sum()), int(hi.sum())))
        free = ~(lo | hi)
        u = np.where(lo, problem.lower, np.where(hi, problem.upper, 0.0))
        u[free] = np.linalg.solve(np.diag(w[free]) + hess[np.ix_(free, free)],
                                  (w * asm.control_target - shift - hess @ u)[free])
        candidate = asm.control_target - (hess @ u + shift) / w
        new_lo, new_hi = candidate < problem.lower, candidate > problem.upper
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            return history, lo, hi
        lo, hi = new_lo, new_hi
    raise AssertionError("dense active-set oracle did not settle")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    case_name=st.sampled_from(["example1", "example3-neumann"]),
    scheme=st.sampled_from(["p1", "ncp1", "hmm"]),
    log_alpha=st.floats(-3.0, 0.0),
    cuts=st.tuples(st.floats(0.02, 0.98), st.floats(0.02, 0.98)),
    sides=st.sampled_from(["both", "lower", "upper"]),
)
def test_certified_pdas_follows_exact_active_sets(case_name, scheme, log_alpha, cuts, sides):
    # The box cuts the range of the unconstrained control strictly inside,
    # so that no candidate of the first iteration sits on a bound.
    case = get_case(case_name)
    gd = build_scheme(scheme, case.build_mesh(scheme, 8), case.bc)

    loads = case.build_problem(gd).loads

    def problem(bounds):
        return OptimalControlProblem(
            gd, alpha=10.0 ** log_alpha, bounds=bounds, loads=loads,
            control_target=case.u_d, reaction=case.reaction,
        )

    free = solve_kkt_pdas(problem((-np.inf, np.inf))).u
    lower, upper = free.min() + np.sort(cuts) * np.ptp(free)
    constrained = problem((lower if sides != "upper" else -np.inf,
                           upper if sides != "lower" else np.inf))
    history, lo, hi = dense_exact_pdas(constrained)
    sol = solve_kkt_pdas(constrained)
    assert [h[:2] for h in sol.history] == history
    np.testing.assert_array_equal(sol.active_lower, lo)
    np.testing.assert_array_equal(sol.active_upper, hi)


def test_reference_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(control, "REFERENCE_MAX_ITER", 10)
    problem = case_problem("example3-neumann", "p1", 4)
    with pytest.raises(SolverError,
                       match=r"natural residual \d\.\d{3}e\S+ relative .* in 10 iterations"):
        solve_kkt_reference(problem)


def test_reference_converges_fast_on_small_alpha():
    # alpha = 1e-3 makes the problem ill-conditioned in the control-cost
    # metric (largest eigenvalue ~1e3), where a fixed-step projected
    # gradient needs over 20000 iterations and FISTA alone about 1000;
    # the dense finish on FISTA's active sets ends it at 54.
    problem = case_problem("example3-neumann", "p1", 4)
    assert problem.alpha == 1e-3
    sol = solve_kkt_reference(problem)
    assert sol.iterations <= 200


@pytest.mark.parametrize("scheme", ["p1", "ncp1", "hmm"])
def test_reference_never_reaches_pdas_path(monkeypatch, scheme):
    # The reference is an independent check of PDAS: it must solve
    # without the sparse factor, its CG or the certificate's Ritz value.
    problem = case_problem("example3-neumann", scheme, 4)

    def forbidden(*args, **kwargs):
        raise AssertionError("the reference reached the active-set solver's code")

    monkeypatch.setattr(assembly.SPDFactor, "solve", forbidden)
    monkeypatch.setattr(assembly.SPDFactor, "cg_solve", forbidden)
    monkeypatch.setattr(control, "_largest_ritz_value", forbidden)
    sol = solve_kkt_reference(problem)
    scale = max(1.0, float(np.max(np.abs(sol.u))))
    assert projection_identity_gap(problem, sol) <= 2e-12 * scale


@pytest.mark.parametrize("case_name", ["example1", "example3-neumann"])
def test_reference_projection_identity(case_name):
    # The reference stops once max|u - P(candidate(u))| <= 1e-12 max(1,
    # max|u|) and returns that u, so the identity holds to that tolerance
    # plus the round-off of recomputing p (on the Neumann case |u| reaches
    # about 600).
    for scheme in ("p1", "ncp1", "hmm"):
        problem = case_problem(case_name, scheme, 4)
        sol = solve_kkt_reference(problem)
        scale = max(1.0, float(np.max(np.abs(sol.u))))
        assert projection_identity_gap(problem, sol) <= 2e-12 * scale, scheme


def test_reference_rejects_large_meshes():
    problem = case_problem("example1", "p1", 32)
    with pytest.raises(ValueError):
        solve_kkt_reference(problem)


def test_reference_step_eigenvalue_matches_full_eigh():
    # A criterion-07 pair: example1 p1 at level 3 (128 controls).  Only
    # the largest eigenvalue of the reduced Hessian is computed; it must
    # be the last one of the full generalized eigensolve.
    import scipy.linalg as la

    problem = case_problem("example1", "p1", 8)
    asm = problem.assembled()
    state_map = np.linalg.solve(asm.stiffness.toarray(), asm.control_coupling.toarray())
    hess = state_map.T @ (problem.gd.mass_matrix.toarray() @ state_map)
    w = asm.control_weight
    full = la.eigh(hess, np.diag(w), eigvals_only=True)[-1]
    assert _largest_weighted_eig(hess, w) == pytest.approx(full, rel=1e-12)


def test_problem_validations():
    gd = build_scheme("p1", build_unit_square_triangulation(2), "dirichlet")
    loads = np.zeros((2, gd.n_free))
    with pytest.raises(ValueError):
        OptimalControlProblem(gd, alpha=0.0, bounds=(0, 1), loads=loads)
    with pytest.raises(ValueError):
        OptimalControlProblem(gd, alpha=1.0, bounds=(1, 0), loads=loads)
    # A NaN bound makes no box: PDAS would return an all-NaN control and
    # the reference would run to its iteration cap.
    for bounds in ((np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan)):
        with pytest.raises(ValueError, match="NaN"):
            OptimalControlProblem(gd, alpha=1.0, bounds=bounds, loads=loads)
    # Infinite bounds open a side.
    for bounds in ((-np.inf, 1.0), (0.0, np.inf), (-np.inf, np.inf)):
        OptimalControlProblem(gd, alpha=1.0, bounds=bounds, loads=loads)
    gdn = build_scheme("p1", build_unit_square_triangulation(2), "neumann")
    with pytest.raises(ValueError):
        OptimalControlProblem(gdn, alpha=1.0, bounds=(0, 1), loads=np.zeros((2, gdn.n_free)))
    # One row per load, one column per unknown.
    with pytest.raises(ValueError):
        OptimalControlProblem(gd, alpha=1.0, bounds=(0, 1), loads=loads[:1])
    OptimalControlProblem(gd, alpha=1.0, bounds=(0, 1), loads=loads)

