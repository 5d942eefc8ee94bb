"""Acceptance gate: one test per shipped guarantee.

Convergence criteria use least-squares slopes of log(error) against
log(h) over a level window.  The smooth unit-square benchmark is
asymptotic from level 3 onward; the small-alpha benchmarks (the corner
singular case and the Neumann case) carry control data two orders of
magnitude larger than the state, whose second-order error contribution
dominates the energy norms on coarse meshes, so their windows sit at
levels 6..8 where the limiting rates have emerged.
"""

import time

import numpy as np

from gdmopt.analysis import ErrorReport, render_csv
from gdmopt.assembly import SPDFactor, solve_pde
from gdmopt.cases import get_case
from gdmopt.cli import run_table
from gdmopt.control import solve_kkt_pdas, solve_kkt_reference
from gdmopt.gd_core import compute_cd, compute_wd
from gdmopt.mesh import (
    build_cartesian_mesh,
    build_lshape_triangulation,
    build_unit_square_triangulation,
)
from gdmopt.schemes import SCHEMES, build_scheme
from oracles import dof_points, gradient_norm, projection_identity_gap, value_at

_CACHE = {}


def study(case, scheme, levels, shift=0.0):
    key = (case, scheme, levels, shift)
    if key not in _CACHE:
        reports, failure = run_table(case, scheme, levels, shift=shift)
        assert failure is None, f"study broke down: {failure}"
        _CACHE[key] = reports
    return _CACHE[key]


def slopes(reports):
    log_h = np.log([r.h for r in reports])
    return {
        f: float(np.polyfit(log_h, np.log([getattr(r, f) for r in reports]), 1)[0])
        for f in ErrorReport.FIELDS
    }


def check_smooth_thresholds(s):
    assert 0.85 <= s["err_grad_y"] <= 1.15, s
    assert 0.85 <= s["err_grad_p"] <= 1.15, s
    assert s["err_y"] >= 1.8, s
    assert s["err_p"] >= 1.8, s
    assert 0.85 <= s["err_u"] <= 1.15, s
    assert s["err_u_tilde"] >= 1.8, s


def test_criterion_01_smooth_case_conforming_p1_rates():
    check_smooth_thresholds(slopes(study("example1", "p1", (3, 6))))


def test_criterion_02_smooth_case_nonconforming_p1_rates():
    check_smooth_thresholds(slopes(study("example1", "ncp1", (3, 6))))


def test_criterion_03_smooth_case_hmm_centroid_rates():
    check_smooth_thresholds(slopes(study("example1", "hmm", (3, 6))))


def test_criterion_04_hmm_cell_point_shift_degrades_superconvergence():
    base = slopes(study("example1", "hmm", (3, 6)))
    shifted = slopes(study("example1", "hmm", (3, 6), shift=0.3))
    assert shifted["err_y"] <= base["err_y"] - 0.3, (base, shifted)
    assert shifted["err_u_tilde"] <= base["err_u_tilde"] - 0.3, (base, shifted)


def check_corner_thresholds(s):
    assert 0.85 <= s["err_u"] <= 1.15, s
    assert s["err_grad_y"] < 0.95, s
    assert s["err_u_tilde"] < 1.8, s


def test_criterion_05_corner_singular_rates():
    check_corner_thresholds(slopes(study("example2-lshape", "p1", (6, 8))))


def test_criterion_06_neumann_rates():
    for scheme in ("p1", "ncp1"):
        check_smooth_thresholds(slopes(study("example3-neumann", scheme, (6, 8))))
    # hmm has settled by level 5, and its post-processed control
    # superconverges (slope 2.00 on levels 5..7).
    check_smooth_thresholds(slopes(study("example3-neumann", "hmm", (5, 7))))


def test_criterion_07_active_set_solver_matches_reference():
    start = time.perf_counter()
    checked = 0
    for case_name in ("example1", "example3-neumann", "example2-lshape"):
        case = get_case(case_name)
        for scheme in SCHEMES:
            for level in range(2, 6):
                gd = build_scheme(
                    scheme, case.build_mesh(scheme, 2 ** level), case.bc
                )
                if gd.n_dofs > 500:
                    break
                problem = case.build_problem(gd)
                a = solve_kkt_pdas(problem)
                b = solve_kkt_reference(problem)
                assert np.max(np.abs(a.u - b.u)) <= 1e-8
                assert np.max(np.abs(a.y - b.y)) <= 1e-8
                assert np.max(np.abs(a.p - b.p)) <= 1e-8
                # PDAS follows the exact-solve active sets of the reference.
                assert [h[:2] for h in a.history] == [h[:2] for h in b.history]
                assert np.array_equal(a.active_lower, b.active_lower)
                assert np.array_equal(a.active_upper, b.active_upper)
                checked += 1
    assert checked >= 12
    assert time.perf_counter() - start < 30.0


def test_criterion_08_property_suite():
    rng = np.random.default_rng(0)

    # Mesh identities: areas tile the domain, each cell's weighted
    # outward normals sum to zero (closed boundary).
    for mesh, area in (
        (build_unit_square_triangulation(4), 1.0),
        (build_lshape_triangulation(2), 3.0),
        (build_cartesian_mesh(4, shift=0.2), 1.0),
    ):
        assert abs(mesh.cell_area.sum() - area) <= 1e-13
        lengths = mesh.face_length[mesh.cell_faces]
        closed = (mesh.outward_normals() * lengths[:, :, None]).sum(axis=1)
        assert np.abs(closed).max() <= 1e-13

    affine = lambda pts: 0.7 - 1.3 * pts[:, 0] + 0.4 * pts[:, 1]
    slope = np.array([-1.3, 0.4])

    for scheme in SCHEMES:
        mesh = (build_cartesian_mesh(4, shift=0.2) if scheme == "hmm"
                else build_unit_square_triangulation(4))
        gd = build_scheme(scheme, mesh, "neumann")

        # Reconstructions are linear in the DOF vector.
        v, w = rng.standard_normal((2, gd.n_dofs))
        cells = rng.integers(0, mesh.n_cells, 40)
        pts = mesh.cell_centroid[cells]
        combo = 1.3 * v - 0.7 * w
        direct = value_at(gd, combo, cells, pts)
        split = 1.3 * value_at(gd, v, cells, pts) - 0.7 * value_at(gd, w, cells, pts)
        assert np.abs(direct - split).max() <= 1e-12
        gdir = gd.gradient_table(combo)
        gsplit = 1.3 * gd.gradient_table(v) - 0.7 * gd.gradient_table(w)
        assert np.abs(gdir - gsplit).max() <= 1e-12

        # The gradient seminorm is definite on the free DOFs of the
        # Dirichlet space (SPD stiffness).
        gdd = build_scheme(scheme, mesh, "dirichlet")
        eigs = np.linalg.eigvalsh(gdd.stiffness().toarray())
        assert eigs[0] > 0.0

        # Affine exactness: interpolating an affine function reproduces
        # its gradient on every piece; for the stabilised scheme this is
        # exactly the statement that the stabilisation term vanishes.
        g = gd.gradient_table(affine(dof_points(gd)))
        assert np.abs(g - slope).max() <= 1e-12

        # Stability: twenty random cellwise sources per scheme, each
        # loaded exactly through its value_center coupling.
        cd = compute_cd(gdd)
        for _ in range(20):
            f_cells = rng.standard_normal(mesh.n_cells)
            psi = SPDFactor(gdd.stiffness()).solve(gdd.value_center.T @ (mesh.cell_area * f_cells))
            fnorm = np.sqrt(float(mesh.cell_area @ f_cells ** 2))
            assert gradient_norm(gdd, psi) <= cd * fnorm * (1.0 + 1e-10)

    # Face-midpoint continuity of the nonconforming scheme: the two
    # one-sided reconstructions agree at interior face midpoints.
    mesh = build_unit_square_triangulation(4)
    gd = build_scheme("ncp1", mesh, "dirichlet")
    vec = rng.standard_normal(gd.n_free)
    interior = np.flatnonzero(~mesh.boundary_faces)
    left, right = mesh.face_cells[interior, 0], mesh.face_cells[interior, 1]
    mids = mesh.face_center[interior]
    gap = value_at(gd, vec, left, mids) - value_at(gd, vec, right, mids)
    assert np.abs(gap).max() <= 1e-12

    # Projection identity on every active-set solution.
    for case_name, schemes in (
        ("example1", ("p1", "ncp1", "hmm")),
        ("example3-neumann", ("p1", "ncp1")),
    ):
        case = get_case(case_name)
        for scheme in schemes:
            gd = build_scheme(scheme, case.build_mesh(scheme, 8), case.bc)
            problem = case.build_problem(gd)
            sol = solve_kkt_pdas(problem)
            assert projection_identity_gap(problem, sol) <= 1e-10

    # Conforming reconstructions have no integration-by-parts defect.
    smooth_grad = get_case("example1").grad_y
    for bc in ("dirichlet", "neumann"):
        for m in (4, 8):
            gd = build_scheme("p1", build_unit_square_triangulation(m), bc)
            assert compute_wd(gd, smooth_grad) <= 1e-10

    # Max-norm convergence of the cell-centred scheme: cell values
    # approach the exact cell-point samples under refinement, in ratio
    # to the source magnitude.
    exact = lambda pts: np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    source = lambda pts: 2.0 * np.pi ** 2 * exact(pts)
    ratios = []
    for m in (4, 8, 16, 32):
        mesh = build_cartesian_mesh(m)
        gd = build_scheme("hmm", mesh, "dirichlet")
        psi = solve_pde(gd, volume_source=source)
        gap = np.abs(psi[:mesh.n_cells] - exact(mesh.cell_point)).max()
        fmax = np.abs(source(mesh.cell_point)).max()
        ratios.append(gap / fmax)
    assert ratios[0] > ratios[1] > ratios[2] > ratios[3]


def test_criterion_09_repeated_studies_byte_identical():
    first, _ = run_table("example1", "hmm", (2, 4), shift=0.3)
    second, _ = run_table("example1", "hmm", (2, 4), shift=0.3)
    assert render_csv(first) == render_csv(second)


def test_criterion_10_corner_singular_nonconforming_rates():
    # ncp1 shows the reduced corner rates from level 5 on (slopes 1.006,
    # 0.874 and 1.387 on levels 5..7).
    check_corner_thresholds(slopes(study("example2-lshape", "ncp1", (5, 7))))


def test_criterion_11_diagnostics_follow_the_theory():
    # Example1, levels 3..6.  C_D tends to the Poincare constant
    # 1/(pi sqrt 2) of the unit square at order 2: p1 from below, which
    # Rayleigh-Ritz guarantees, ncp1 and hmm from above, as measured.
    # W_D (zero for the conforming p1) and S_D decay at order 1, and the
    # gradient error keeps a fixed ratio to W_D + S_D, the paper's
    # estimate.  The Neumann C_D has no closed form and keeps only its
    # stability band (test_gd_core).
    poincare = 1.0 / (np.pi * np.sqrt(2.0))
    for scheme, sign in (("p1", -1.0), ("ncp1", 1.0), ("hmm", 1.0)):
        rows, failure = run_table("example1", scheme, (3, 6), diagnostics=True)
        assert failure is None, failure
        _, h, cd, wd, sd, _ = np.array(rows, dtype=float).T

        def slope(v):
            return float(np.polyfit(np.log(h), np.log(v), 1)[0])

        gap = cd - poincare
        assert np.all(sign * gap > 0.0), (scheme, gap)
        assert slope(np.abs(gap)) >= 1.8, (scheme, slope(np.abs(gap)))
        if scheme == "p1":
            assert wd.max() <= 1e-12, wd
        else:
            assert 0.9 <= slope(wd) <= 1.1, (scheme, slope(wd))
        assert 0.9 <= slope(sd) <= 1.1, (scheme, slope(sd))
        err = np.array([r.err_grad_y for r in study("example1", scheme, (3, 6))])
        ratio = err / (wd + sd)
        assert ratio.max() / ratio.min() <= 1.1, (scheme, ratio)
