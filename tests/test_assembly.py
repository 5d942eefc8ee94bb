"""Stiffness/load assembly oracles and the direct solver contract."""

import numpy as np
import pytest
import scipy.sparse as sp

from gdmopt.analysis import cell_quadrature
from gdmopt.assembly import (
    SOLVE_TOL,
    SolverError,
    SPDFactor,
    assemble_load,
    check_symmetry,
    solve_pde,
)
from gdmopt.cases import get_case
from gdmopt.gd_core import compute_cd
from gdmopt.mesh import (
    PolytopalMesh,
    build_cartesian_mesh,
    build_lshape_triangulation,
    build_unit_square_triangulation,
)
from gdmopt.schemes import SCHEMES, build_scheme
from oracles import dof_points, gradient_norm, value_at


def make_gd(scheme, m, bc="dirichlet"):
    mesh = (
        build_cartesian_mesh(m) if scheme == "hmm"
        else build_unit_square_triangulation(m)
    )
    return build_scheme(scheme, mesh, bc)


def p1_stiffness_oracle(mesh):
    """Dense conforming-P1 stiffness assembled with explicit loops."""
    n = mesh.n_vertices
    a = np.zeros((n, n))
    for cell in mesh.cells:
        tri = mesh.vertices[cell]
        # Gradients of the barycentric coordinates.
        grads = np.empty((3, 2))
        for i in range(3):
            e = tri[(i + 2) % 3] - tri[(i + 1) % 3]
            grads[i] = [-e[1], e[0]]
        u, v = tri[1] - tri[0], tri[2] - tri[0]
        area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
        grads /= 2.0 * area
        for i in range(3):
            for j in range(3):
                a[cell[i], cell[j]] += area * grads[i] @ grads[j]
    return a


def test_hmm_single_cell_dirichlet_matrix():
    # Frozen by hand: unit cell, centroid point, all face DOFs clamped.
    # Each of the four sub-triangle gradients is -2*sqrt(2)*v_K*n, so the
    # energy is 4 * (1/4) * 8 * v_K^2.
    mesh = build_cartesian_mesh(1)
    gd = build_scheme("hmm", mesh, "dirichlet")
    a = gd.stiffness().toarray()
    np.testing.assert_allclose(a, [[8.0]], rtol=1e-14)


def test_p1_m2_interior_row():
    # One interior vertex on the m=2 criss-cross mesh; the classic
    # five-point stencil gives the diagonal value 4.
    gd = make_gd("p1", 2)
    a = gd.stiffness().toarray()
    np.testing.assert_allclose(a, [[4.0]], rtol=1e-14)


def test_p1_matches_dense_oracle():
    for mesh in (build_unit_square_triangulation(3), build_lshape_triangulation(2)):
        gd = build_scheme("p1", mesh, "dirichlet")
        dense = p1_stiffness_oracle(mesh)[np.ix_(gd.free, gd.free)]
        ours = gd.stiffness().toarray()
        np.testing.assert_allclose(ours, dense, atol=1e-13)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stiffness_symmetric_positive_definite(scheme):
    gd = make_gd(scheme, 3)
    a = gd.stiffness()
    # CSR, the format SPDFactor keeps without a copy.
    assert a.format == "csr"
    check_symmetry(a)
    eigs = np.linalg.eigvalsh(a.toarray())
    assert eigs[0] > 0.0


def reversed_indices(a):
    """A copy of a CSR (CSC) matrix with each row's (column's) entries in
    reverse order, so its indices are unsorted."""
    out = a.copy()
    for j in range(len(a.indptr) - 1):
        span = slice(a.indptr[j], a.indptr[j + 1])
        out.indices[span], out.data[span] = a.indices[span][::-1], a.data[span][::-1]
    out.has_sorted_indices = False
    return out


def test_check_symmetry_finds_every_asymmetry():
    # A canonical matrix whose transpose has its pattern is checked on the
    # transpose's data; a one-sided entry, unsorted indices or duplicate
    # entries take the A - A^T path.  Neither changes the matrix.
    a = make_gd("p1", 4).stiffness()
    data = a.data.copy()
    skewed = a.copy()
    skewed[0, 1] += 1e-6
    one_sided = sp.csc_matrix(a + sp.csc_matrix(([1e-6], ([0], [a.shape[1] - 1])), shape=a.shape))
    for bad in (skewed, one_sided, skewed.tocsc(), reversed_indices(skewed)):
        with pytest.raises(SolverError, match="not symmetric"):
            check_symmetry(bad)
    # Duplicate entries that sum to a symmetric matrix pass.
    dup = sp.csc_matrix((np.array([1.0, 0.5, 0.5, 1.0, 1.0]), np.array([0, 1, 1, 0, 1]),
                         np.array([0, 3, 5])), shape=(2, 2))
    assert not dup.has_canonical_format
    for good in (a, reversed_indices(a), dup):
        check_symmetry(good)
    assert np.array_equal(a.data, data)
    # Non-finite entries are named before any subtraction: a NaN fails no
    # comparison, and inf - inf is NaN with a warning.
    nan_pair, inf_diagonal = a.copy(), a.copy()
    nan_pair[0, 1] = nan_pair[1, 0] = np.nan
    inf_diagonal[0, 0] = np.inf
    one_sided_nan = sp.csc_matrix(
        a + sp.csc_matrix(([np.nan], ([0], [a.shape[1] - 1])), shape=a.shape))
    for bad in (nan_pair, one_sided_nan, inf_diagonal):
        with pytest.raises(SolverError, match="non-finite"):
            check_symmetry(bad)


def test_constant_load_hmm():
    # F = 1 loads each free cell DOF with the cell area and leaves face
    # DOFs untouched (piecewise-constant reconstruction).
    gd = make_gd("hmm", 2)
    load = assemble_load(gd, volume_source=lambda pts: np.ones(len(pts)))
    n_cells = gd.mesh.n_cells
    np.testing.assert_allclose(load[:n_cells], 0.25, rtol=1e-14)
    np.testing.assert_allclose(load[n_cells:], 0.0, atol=1e-15)


def test_constant_load_p1():
    # F = 1: each vertex collects one third of its incident cell areas;
    # the single interior vertex of the m=2 mesh touches 6 cells, and it
    # is the only unknown under Dirichlet conditions.
    one = lambda pts: np.ones(len(pts))
    load = assemble_load(make_gd("p1", 2), volume_source=one)
    assert load.shape == (1,)
    assert load[0] == pytest.approx(6.0 / 3.0 / 8.0, rel=1e-13)
    # Without elimination the loads are a partition of unity.
    total = assemble_load(make_gd("p1", 2, "neumann"), volume_source=one).sum()
    assert total == pytest.approx(1.0, rel=1e-13)


def test_spd_factor_contract():
    rng = np.random.default_rng(1)
    n = 30
    q = rng.standard_normal((n, n))
    a = sp.csc_matrix(q @ q.T + n * np.eye(n))
    x = rng.standard_normal(n)
    b = a @ x
    np.testing.assert_allclose(SPDFactor(a).solve(b), x, rtol=1e-9)
    # Asymmetric input is rejected.
    bad = sp.csc_matrix(q + 10 * np.eye(n))
    with pytest.raises(SolverError):
        SPDFactor(bad)
    # Singular input is rejected.
    sing = sp.csc_matrix((n, n))
    with pytest.raises(SolverError):
        SPDFactor(sing)


def test_spd_factor_solves_a_not_its_transpose():
    # A skew part of 5e-13 relative passes the symmetry check, and a
    # solve of A^T would meet the backward-error contract against A too,
    # so only the solution tells which of A and A^T was solved.
    rng = np.random.default_rng(5)
    n = 40
    q = rng.standard_normal((n, n))
    spd = q @ q.T + n * np.eye(n)
    s = rng.uniform(-1.0, 1.0, (n, n))
    dense = spd + 1.25e-13 * np.abs(spd).max() * (s - s.T)
    a = sp.csr_matrix(dense)
    b = rng.standard_normal(n)
    factor = SPDFactor(a)
    # A CSR input is the factor's matrix, not a copy of it.
    assert np.shares_memory(factor.matrix.data, a.data)
    x = factor.solve(b)
    to_a = np.abs(x - np.linalg.solve(dense, b)).max()
    to_transpose = np.abs(x - np.linalg.solve(dense.T, b)).max()
    assert 10.0 * to_a <= to_transpose


def test_spd_factor_solve_from_approximation():
    rng = np.random.default_rng(2)
    n = 40
    q = rng.standard_normal((n, n))
    a = sp.csc_matrix(q @ q.T + n * np.eye(n))
    b = rng.standard_normal(n)
    factor = SPDFactor(a)
    solves = []
    lu_solve = factor._lu.solve

    class CountingLU:
        def solve(self, rhs, trans="N"):
            solves.append(None)
            return lu_solve(rhs, trans=trans)

    factor._lu = CountingLU()
    a_norm = abs(a).sum(axis=1).max()

    def backward(x):
        return np.abs(b - a @ x).max() / (a_norm * np.abs(x).max() + np.abs(b).max())

    x = factor.solve(b)
    assert backward(x) <= SOLVE_TOL and len(solves) >= 1
    # An approximation that meets the contract is returned as it is.
    solves.clear()
    np.testing.assert_array_equal(factor.solve(b, x0=x), x)
    assert solves == []
    # A perturbed one is refined until it meets it.
    rough = factor.solve(b, x0=x * (1.0 + 1e-6 * rng.standard_normal(n)))
    assert backward(rough) <= SOLVE_TOL and len(solves) >= 1
    # A non-finite one is discarded for a fresh solve.
    solves.clear()
    fresh = factor.solve(b, x0=np.full(n, np.nan))
    np.testing.assert_array_equal(fresh, x)
    assert backward(fresh) <= SOLVE_TOL


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spd_factor_rejects_a_non_finite_right_hand_side(bad):
    # The load is blamed, not the factor, and before any factor solve:
    # with and without an approximation, and in the CG solve.
    rng = np.random.default_rng(3)
    n = 20
    q = rng.standard_normal((n, n))
    a = sp.csr_matrix(q @ q.T + n * np.eye(n))
    factor = SPDFactor(a)

    class NoLU:
        def solve(self, rhs, trans="N"):
            raise AssertionError("factor solve of a non-finite right-hand side")

    factor._lu = NoLU()
    b = rng.standard_normal(n)
    b[7] = bad
    for solve in (lambda: factor.solve(b), lambda: factor.solve(b, x0=np.ones(n)),
                  lambda: factor.cg_solve(a, b)):
        with pytest.raises(SolverError, match="right-hand side has non-finite entries"):
            solve()
    # A NaN source is one way to reach it.
    with pytest.raises(SolverError, match="right-hand side has non-finite entries"):
        solve_pde(make_gd("p1", 3), volume_source=lambda pts: np.full(len(pts), np.nan))


def test_solve_pde_meets_backward_error_on_neumann_level6():
    # The relative residual of this system stalls near 4e-12 however it
    # is refined; the solve is accepted on its backward error instead.
    case = get_case("example3-neumann")
    gd = build_scheme("ncp1", case.build_mesh("ncp1", 64), case.bc)
    x = solve_pde(gd, volume_source=case.f, reaction=case.reaction)
    a = gd.stiffness(reaction=case.reaction)
    b = assemble_load(gd, case.f)
    a_norm = abs(a).sum(axis=1).max()
    backward = np.abs(b - a @ x).max() / (a_norm * np.abs(x).max() + np.abs(b).max())
    assert backward <= SOLVE_TOL


def test_zero_source_zero_solution():
    for scheme in SCHEMES:
        gd = make_gd(scheme, 3)
        psi = solve_pde(gd, volume_source=lambda pts: np.zeros(len(pts)))
        assert np.all(psi == 0.0)


def test_galerkin_residual():
    for scheme in SCHEMES:
        gd = make_gd(scheme, 4)
        f = lambda pts: np.cos(3.0 * pts[:, 0]) + pts[:, 1]
        a = gd.stiffness()
        b = assemble_load(gd, volume_source=f)
        x = SPDFactor(a).solve(b)
        assert np.linalg.norm(b - a @ x) <= 1e-10 * np.linalg.norm(b)


def test_poisson_manufactured_convergence():
    # -lap(y) = 2 pi^2 sin(pi x) sin(pi y), zero boundary values.
    exact = lambda pts: np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    source = lambda pts: 2.0 * np.pi ** 2 * exact(pts)
    errs = []
    for m in (4, 8, 16):
        gd = make_gd("p1", m)
        psi = solve_pde(gd, volume_source=source)
        diff = psi - exact(dof_points(gd))
        errs.append(np.max(np.abs(diff)))
    # Nodal max error decays at second order.
    assert errs[1] / errs[0] == pytest.approx(0.25, abs=0.08)
    assert errs[2] / errs[1] == pytest.approx(0.25, abs=0.08)


def l2_error(gd, vec, exact):
    cells, pts, wts = cell_quadrature(gd.mesh, "gauss7")
    diff = value_at(gd, vec, cells, pts) - exact(pts)
    return np.sqrt(float(wts @ diff ** 2))


def test_neumann_reaction_solve():
    # -lap(y) + y = (2 pi^2 + 1) cos(pi x) cos(pi y) with natural
    # boundary conditions (the exact normal derivative vanishes).
    exact = lambda pts: np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
    source = lambda pts: (2.0 * np.pi ** 2 + 1.0) * exact(pts)
    errs = []
    for m in (4, 8, 16):
        gd = make_gd("p1", m, bc="neumann")
        psi = solve_pde(gd, volume_source=source, reaction=1.0)
        errs.append(l2_error(gd, psi, exact))
    assert errs[1] / errs[0] == pytest.approx(0.25, abs=0.05)
    assert errs[2] / errs[1] == pytest.approx(0.25, abs=0.05)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stability_bound(scheme):
    # Solutions of -lap y = f obey the coercivity bound: gradient norm at
    # most C_D times the L2 norm of the source.
    gd = make_gd(scheme, 4)
    cd = compute_cd(gd)
    rng = np.random.default_rng(42)
    area = gd.mesh.cell_area
    # The load of a cellwise source is its value_center coupling: the
    # basis is affine on each cell, so its mean there is that entry.
    for _ in range(20):
        f_cells = rng.standard_normal(gd.mesh.n_cells)
        psi = SPDFactor(gd.stiffness()).solve(gd.value_center.T @ (area * f_cells))
        fnorm = np.sqrt(float(area @ f_cells ** 2))
        assert gradient_norm(gd, psi) <= cd * fnorm * (1.0 + 1e-10)
