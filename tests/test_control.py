"""Active-set solver against the projected-gradient reference, plus the
projection/variational-inequality identities of the optimality system."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from gdmopt import control
from gdmopt.assembly import SolverError
from gdmopt.cases import get_case
from gdmopt.control import (
    OptimalControlProblem,
    _largest_weighted_eig,
    _pcg,
    postprocess,
    project_box,
    project_onto_cells,
    projection_identity_gap,
    solve_kkt_pdas,
    solve_kkt_reference,
    variational_inequality_gap,
)
from gdmopt.mesh import build_cartesian_mesh, build_unit_square_triangulation
from gdmopt.schemes import build_scheme


def synthetic_problem(gd, bounds=(0.0, np.inf), alpha=1.0, **kw):
    target = lambda pts: np.sin(np.pi * pts[:, 0]) * pts[:, 1]
    shift = lambda pts: 1.0 - pts[:, 0]
    return OptimalControlProblem(
        gd, alpha=alpha, bounds=bounds, y_target=target,
        control_target=shift, **kw,
    )


def case_problem(name, scheme, m):
    case = get_case(name)
    gd = build_scheme(scheme, case.build_mesh(scheme, m), case.bc)
    return case.build_problem(gd)


def compare_solvers(problem, tol=1e-8):
    a = solve_kkt_pdas(problem)
    b = solve_kkt_reference(problem)
    if problem.distributed:
        assert np.max(np.abs(a.u - b.u)) <= tol
    assert np.max(np.abs(a.y - b.y)) <= tol
    assert np.max(np.abs(a.p - b.p)) <= tol
    if problem.boundary_control:
        assert np.max(np.abs(a.u_b - b.u_b)) <= tol
    return a


def test_project_box():
    vals = np.array([-2.0, 0.5, 3.0])
    np.testing.assert_array_equal(project_box(vals, 0.0, 1.0), [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(project_box(vals, -np.inf, np.inf), vals)
    with pytest.raises(ValueError):
        project_box(vals, 1.0, 0.0)


def test_project_onto_cells_linear_oracle():
    # Cell averages of a linear function are its centroid values.
    mesh = build_unit_square_triangulation(3)
    avg = project_onto_cells(mesh, lambda pts: 2.0 * pts[:, 0] - pts[:, 1])
    exact = 2.0 * mesh.cell_centroid[:, 0] - mesh.cell_centroid[:, 1]
    np.testing.assert_allclose(avg, exact, atol=1e-14)


def test_project_onto_cells_rule_agreement():
    # Degree-5 integrand: both rules are exact, so averages coincide.
    mesh = build_cartesian_mesh(3, shift=0.2)
    fn = lambda pts: pts[:, 0] ** 3 * pts[:, 1] ** 2
    a = project_onto_cells(mesh, fn, rule="gauss7")
    b = project_onto_cells(mesh, fn, rule="degree10")
    np.testing.assert_allclose(a, b, atol=1e-15)


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
    sol = compare_solvers(problem)
    assert np.all(sol.u == 2.0)


@pytest.mark.parametrize("scheme", ["p1", "ncp1", "hmm"])
def test_pdas_matches_reference_distributed(scheme):
    sol = compare_solvers(case_problem("example1", scheme, 4))
    assert sol.active_lower.any()  # the one-sided box actually binds


@pytest.mark.parametrize("scheme", ["p1", "ncp1"])
def test_pdas_matches_reference_neumann(scheme):
    compare_solvers(case_problem("example3-neumann", scheme, 4))


def test_pdas_matches_reference_boundary_control():
    gd = build_scheme("p1", build_unit_square_triangulation(4), "neumann")
    problem = synthetic_problem(
        gd, bounds=(-0.4, 0.6), reaction=1.0,
        boundary_control=True, beta=0.05,
    )
    sol = compare_solvers(problem)
    assert sol.u_b is not None and len(sol.u_b) == len(gd.boundary_face_ids)


def test_pure_boundary_control():
    gd = build_scheme("ncp1", build_unit_square_triangulation(3), "neumann")
    problem = synthetic_problem(
        gd, bounds=(-0.4, 0.6), reaction=1.0,
        distributed=False, boundary_control=True, beta=0.05,
    )
    sol = compare_solvers(problem)
    assert sol.u is None
    assert projection_identity_gap(problem, sol) <= 1e-10


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
    post = postprocess(problem, sol, case.p)
    assert post.kind == "cellwise"
    np.testing.assert_array_equal(post.tilde_u_h, sol.u)


def test_postprocess_pointwise_clamps():
    case = get_case("example1")
    gd = build_scheme("p1", case.build_mesh("p1", 4), case.bc)
    problem = case.build_problem(gd)
    sol = solve_kkt_pdas(problem)
    post = postprocess(problem, sol, case.p)
    assert post.kind == "pointwise"
    pts = gd.mesh.cell_centroid
    cells = np.arange(gd.mesh.n_cells)
    for fn in (post.tilde_u, post.tilde_u_h):
        vals = fn(cells, pts)
        assert np.all(vals >= problem.lower - 1e-15)
        assert vals.shape == (gd.mesh.n_cells,)


@pytest.mark.parametrize("scheme", ["p1", "hmm"])
def test_postprocess_clamp_is_projection_formula(scheme):
    # clamp(values, cells) = P(cell_avg(u_d) - values / alpha) on those
    # cells; without an adjoint closure the exact side is left unset.
    case = get_case("example1")
    gd = build_scheme(scheme, case.build_mesh(scheme, 3), case.bc)
    problem = case.build_problem(gd)
    post = postprocess(problem, solve_kkt_pdas(problem))
    assert post.tilde_u is None
    cells = np.arange(0, gd.mesh.n_cells, 3)
    p = case.p(gd.mesh.cell_centroid[cells])
    ud = problem.assembled().control_target_cells[cells]
    want = project_box(ud - p / problem.alpha, problem.lower, problem.upper)
    assert np.array_equal(post.clamp(p, cells), want)
    assert (want == problem.lower).any() and (want > problem.lower).any()


def test_unbounded_solution_is_linear_in_data():
    # Without an active box the optimality system is linear, so scaling
    # the data scales the solution.
    gd = build_scheme("ncp1", build_unit_square_triangulation(3), "dirichlet")
    target = lambda pts: np.sin(np.pi * pts[:, 0]) * pts[:, 1]
    make = lambda c: OptimalControlProblem(
        gd, alpha=0.5, bounds=(-np.inf, np.inf),
        y_target=lambda pts: c * target(pts),
    )
    base = solve_kkt_pdas(make(1.0))
    scaled = solve_kkt_pdas(make(3.0))
    np.testing.assert_allclose(scaled.u, 3.0 * base.u, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(scaled.y, 3.0 * base.y, rtol=1e-10, atol=1e-12)


def test_pdas_iteration_cap_raises():
    problem = case_problem("example1", "p1", 4)
    with pytest.raises(SolverError):
        solve_kkt_pdas(problem, max_iter=1)


def test_pdas_cycle_raises_with_history(monkeypatch):
    # Adjoint averages that alternate between "far above" and "far below"
    # make the active sets flip between all-lower and all-upper for ever.
    calls = []

    def alternating(problem, p_full):
        calls.append(None)
        sign = 1.0 if len(calls) % 2 else -1.0
        return np.full(problem.gd.mesh.n_cells, sign * 1e6)

    monkeypatch.setattr(control, "cell_adjoint_averages", alternating)
    gd = build_scheme("p1", build_unit_square_triangulation(4), "dirichlet")
    problem = synthetic_problem(gd, bounds=(0.0, 1.0))
    n = gd.mesh.n_cells
    with pytest.raises(SolverError) as err:
        solve_kkt_pdas(problem, max_iter=50)
    assert len(calls) == 3
    message = str(err.value)
    assert "iteration 4 would repeat those of iteration 2" in message
    assert f"0/0, {n}/0, 0/{n}, {n}/0" in message


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


@settings(derandomize=True, max_examples=50, deadline=None)
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

    def problem(bounds):
        return OptimalControlProblem(
            gd, alpha=10.0 ** log_alpha, bounds=bounds, y_target=case.y_d,
            volume_source=case.f, control_target=case.u_d, reaction=case.reaction,
            boundary_source=case.f_b if case.bc == "neumann" else None,
        )

    free = solve_kkt_pdas(problem((-np.inf, np.inf))).u
    lower, upper = free.min() + np.sort(cuts) * np.ptp(free)
    bounds = (lower if sides != "upper" else -np.inf,
              upper if sides != "lower" else np.inf)
    constrained = problem(bounds)
    sol = compare_solvers(constrained)
    assert projection_identity_gap(constrained, sol) <= 1e-10


def test_pdas_without_free_dofs():
    # The m=1 triangulation has no interior vertex: the state vanishes
    # and the control is the projected control target.
    gd = build_scheme("p1", build_unit_square_triangulation(1), "dirichlet")
    problem = synthetic_problem(gd, bounds=(0.2, 0.5))
    sol = solve_kkt_pdas(problem)
    assert gd.n_free == 0 and not sol.y.any()
    np.testing.assert_allclose(sol.u, np.clip(problem.assembled().control_target_cells, 0.2, 0.5))


def test_pcg_cap_raises_with_reached_residual():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((20, 20))
    a = q @ q.T + np.eye(20)
    rhs = rng.standard_normal(20)
    weight = np.ones(20)
    x = _pcg(lambda v: a @ v, rhs, np.zeros(20), weight, 1e-12, max_iter=200)
    assert np.linalg.norm(a @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)
    with pytest.raises(SolverError, match="relative residual .* in 2 steps"):
        _pcg(lambda v: a @ v, rhs, np.zeros(20), weight, 1e-12, max_iter=2)


def test_reference_iteration_cap_raises():
    problem = case_problem("example3-neumann", "p1", 4)
    with pytest.raises(SolverError):
        solve_kkt_reference(problem, max_iter=10)


def test_reference_converges_fast_on_small_alpha():
    # alpha = 1e-3 makes the problem ill-conditioned in the control-cost
    # metric (largest eigenvalue ~1e3), where a fixed-step projected
    # gradient needs over 20000 iterations.
    problem = case_problem("example3-neumann", "p1", 4)
    assert problem.alpha == 1e-3
    sol = solve_kkt_reference(problem)
    assert sol.iterations <= 2000


@pytest.mark.parametrize("case_name", ["example1", "example3-neumann"])
def test_reference_projection_identity(case_name):
    # The identity holds to round-off on the scale of the control: on the
    # Neumann case |u| reaches about 600, and B^T p / W carries about 1e-9
    # of absolute round-off.
    problem = case_problem(case_name, "p1", 4)
    sol = solve_kkt_reference(problem)
    scale = max(1.0, float(np.max(np.abs(sol.u))))
    assert projection_identity_gap(problem, sol) <= 1e-10 * scale


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
    hess = state_map.T @ (asm.mass.toarray() @ state_map)
    w = asm.control_weight
    full = la.eigh(hess, np.diag(w), eigvals_only=True)[-1]
    assert _largest_weighted_eig(hess, w) == pytest.approx(full, rel=1e-12)


def test_problem_validations():
    gd = build_scheme("p1", build_unit_square_triangulation(2), "dirichlet")
    target = lambda pts: pts[:, 0]
    with pytest.raises(ValueError):
        OptimalControlProblem(gd, alpha=0.0, bounds=(0, 1), y_target=target)
    with pytest.raises(ValueError):
        OptimalControlProblem(gd, alpha=1.0, bounds=(1, 0), y_target=target)
    with pytest.raises(ValueError):
        OptimalControlProblem(gd, alpha=1.0, bounds=(0, 1), y_target=target,
                              boundary_control=True)
    with pytest.raises(ValueError):
        OptimalControlProblem(gd, alpha=1.0, bounds=(0, 1), y_target=target,
                              distributed=False)
    gdn = build_scheme("p1", build_unit_square_triangulation(2), "neumann")
    with pytest.raises(ValueError):
        OptimalControlProblem(gdn, alpha=1.0, bounds=(0, 1), y_target=target)
    with pytest.raises(ValueError):
        OptimalControlProblem(gdn, alpha=1.0, bounds=(0, 1), y_target=target,
                              reaction=1.0, boundary_control=True, beta=0.0)
