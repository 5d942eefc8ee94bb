"""Consistency of the manufactured benchmarks: finite-difference residuals
of the optimality systems, boundary behaviour, projection structure."""

import numpy as np
import pytest

from gdmopt import cli
from gdmopt.assembly import assemble_load
from gdmopt.cases import CASE_NAMES, Fields, _corner_singular_parts, get_case
from gdmopt.control import project_box
from gdmopt.schemes import SCHEMES, build_scheme


def fd_gradient(fn, pts, h=1e-6):
    out = np.empty((len(pts), 2))
    for k in range(2):
        step = np.zeros(2)
        step[k] = h
        out[:, k] = (fn(pts + step) - fn(pts - step)) / (2.0 * h)
    return out


def fd_laplacian(fn, pts, h=1e-4):
    total = -4.0 * fn(pts)
    for step in ([h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]):
        total = total + fn(pts + np.asarray(step))
    return total / h ** 2


def run_level(case, scheme, level):
    """One study level of case, through cli.run_level on the level's mesh."""
    gd = build_scheme(scheme, case.build_mesh(scheme, 2 ** level), case.bc)
    return cli.run_level(case, gd, level)


def interior_points(case, rng, n=20):
    if case.domain == "lshape":
        pts = rng.uniform(-0.85, 0.85, (20 * n, 2))
        keep = ~((pts[:, 0] > 0.05) & (pts[:, 1] < -0.05))
        keep &= np.hypot(pts[:, 0], pts[:, 1]) > 0.3
        return pts[keep][:n]
    return rng.uniform(0.1, 0.9, (n, 2))


@pytest.mark.parametrize("name", CASE_NAMES)
def test_gradient_closures_match_finite_differences(name):
    case = get_case(name)
    pts = interior_points(case, np.random.default_rng(5))
    for fn, grad in ((case.y, case.grad_y), (case.p, case.grad_p)):
        approx = fd_gradient(fn, pts)
        scale = 1.0 + np.abs(grad(pts)).max()
        assert np.abs(grad(pts) - approx).max() <= 1e-6 * scale


@pytest.mark.parametrize("name", CASE_NAMES)
def test_state_equation_residual(name):
    # -lap(y) + c0*y = f + u pointwise in the interior.
    case = get_case(name)
    pts = interior_points(case, np.random.default_rng(6))
    lhs = -fd_laplacian(case.y, pts) + case.reaction * case.y(pts)
    rhs = case.f(pts) + case.u(pts)
    scale = 1.0 + np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-5 * scale


@pytest.mark.parametrize("name", CASE_NAMES)
def test_adjoint_equation_residual(name):
    # -lap(p) + c0*p = y - y_d pointwise in the interior.
    case = get_case(name)
    pts = interior_points(case, np.random.default_rng(7))
    lhs = -fd_laplacian(case.p, pts) + case.reaction * case.p(pts)
    rhs = case.y(pts) - case.y_d(pts)
    scale = 1.0 + np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-5 * scale


@pytest.mark.parametrize("name", CASE_NAMES)
def test_control_is_projected_adjoint(name):
    case = get_case(name)
    pts = interior_points(case, np.random.default_rng(8), n=50)
    base = case.u_d(pts) if case.u_d is not None else 0.0
    expected = project_box(base - case.p(pts) / case.alpha, *case.bounds)
    np.testing.assert_allclose(case.u(pts), expected, atol=1e-13)


def boundary_samples(domain, n=40):
    t = np.linspace(0.02, 0.98, n)
    if domain == "unit-square":
        z, o = np.zeros(n), np.ones(n)
        edges = [(t, z), (t, o), (z, t), (o, t)]
        normals = [(0, -1), (0, 1), (-1, 0), (1, 0)]
    else:
        # L-shape: outer square edges plus the two re-entrant edges.
        s = 2.0 * t - 1.0  # spans (-1, 1)
        edges = [
            (s, np.full(n, -1.0)), (s, np.full(n, 1.0)),
            (np.full(n, -1.0), s), (np.full(n, 1.0), s),
            (t, np.zeros(n)), (np.zeros(n), -t),
        ]
        normals = [(0, -1), (0, 1), (-1, 0), (1, 0), (0, -1), (1, 0)]
    pts = [np.column_stack(e) for e in edges]
    return pts, normals


def valid_lshape_edge(pts):
    # Drop outer-edge samples that fall in the removed quadrant.
    return ~((pts[:, 0] > 0.0) & (pts[:, 1] < 0.0))


@pytest.mark.parametrize("name", ["example1", "example2-lshape"])
def test_dirichlet_cases_vanish_on_boundary(name):
    case = get_case(name)
    domain = "unit-square" if name == "example1" else "lshape"
    for pts, _ in zip(*boundary_samples(domain)):
        if domain == "lshape":
            pts = pts[valid_lshape_edge(pts)]
        assert np.abs(case.y(pts)).max() <= 1e-12
        assert np.abs(case.p(pts)).max() <= 1e-12


def test_neumann_case_flux_free_boundary():
    case = get_case("example3-neumann")
    pts_list, normals = boundary_samples("unit-square")
    for pts, n in zip(pts_list, normals):
        flux = case.grad_y(pts) @ np.asarray(n, dtype=float)
        assert np.abs(flux).max() <= 1e-12
    assert case.f_b is None


def test_active_sets_realized():
    # The singular case hits both box faces; the Neumann case only its
    # upper face (the state is too small for the lower one); the smooth
    # case touches its single lower bound.  All keep an inactive region.
    rng = np.random.default_rng(9)

    case = get_case("example2-lshape")
    u = case.u(interior_points(case, rng, n=400))
    assert (u == -600.0).any() and (u == -50.0).any()
    assert ((u > -600.0) & (u < -50.0)).any()

    case = get_case("example3-neumann")
    u = case.u(interior_points(case, rng, n=400))
    assert (u == -50.0).any()
    assert not (u == -750.0).any()
    assert ((u > -750.0) & (u < -50.0)).any()

    case = get_case("example1")
    u = case.u(interior_points(case, rng, n=400))
    assert (u == 0.0).any() and (u > 0.0).any()


def test_mesh_families():
    case1 = get_case("example1")
    assert case1.build_mesh("p1", 3).cells.shape[1] == 3
    quad = case1.build_mesh("hmm", 3)
    assert quad.cells.shape[1] == 4
    assert case1.build_mesh("hmm", 3, shift=0.3) is not None
    case2 = get_case("example2-lshape")
    lmesh = case2.build_mesh("p1", 2)
    assert lmesh.n_cells == 6 * 2 ** 2
    assert lmesh.cell_area.sum() == pytest.approx(3.0, rel=1e-14)


def test_shift_rejections():
    with pytest.raises(ValueError):
        get_case("example1").build_mesh("p1", 3, shift=0.2)
    with pytest.raises(ValueError):
        get_case("example2-lshape").build_mesh("hmm", 3, shift=0.2)
    with pytest.raises(ValueError):
        get_case("unknown")


def test_problem_wiring():
    case = get_case("example3-neumann")
    gd = build_scheme("p1", case.build_mesh("p1", 2), case.bc)
    problem = case.build_problem(gd)
    assert problem.reaction == 1.0
    assert problem.lower == -750.0 and problem.upper == -50.0
    case1 = get_case("example1")
    gd1 = build_scheme("p1", case1.build_mesh("p1", 2), case1.bc)
    p1 = case1.build_problem(gd1)
    assert p1.alpha == 1.0 and np.isinf(p1.upper)
    # Without loads a problem takes those of sample_level, which equal
    # the source and target loads summed one at a time.
    for name in CASE_NAMES:
        case = get_case(name)
        for scheme in SCHEMES:
            gd = build_scheme(scheme, case.build_mesh(scheme, 8), case.bc)
            loads = case.build_problem(gd).loads
            assert np.array_equal(loads, [assemble_load(gd, case.f), assemble_load(gd, case.y_d)])


def polar_corner_parts(pts):
    """r^(2/3) g(theta) and its derivatives through the polar angle."""
    x, y = pts[:, 0], pts[:, 1]
    r = np.hypot(x, y)
    t = np.arctan2(y, x)
    t = np.where(t < 0.0, t + 2.0 * np.pi, t)
    g = (1.0 - np.cos(t)) * (1.0 + np.sin(t))
    dg = np.sin(t) + np.cos(t) - np.cos(2.0 * t)
    ddg = np.cos(t) - np.sin(t) + 2.0 * np.sin(2.0 * t)
    with np.errstate(divide="ignore", invalid="ignore"):
        r13 = np.where(r > 0.0, r ** (-1.0 / 3.0), 0.0)
        r43 = np.where(r > 0.0, r ** (-4.0 / 3.0), 0.0)
    val = r ** (2.0 / 3.0) * g
    sx = r13 * (2.0 / 3.0 * g * np.cos(t) - dg * np.sin(t))
    sy = r13 * (2.0 / 3.0 * g * np.sin(t) + dg * np.cos(t))
    lap = r43 * (ddg + (4.0 / 9.0) * g)
    return val, sx, sy, lap


def test_corner_singular_parts_match_polar_form():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, (4000, 2))
    near = rng.uniform(-1e-9, 1e-9, (400, 2))
    t = np.linspace(0.0, 1.0, 50)
    z = np.zeros(50)
    edges = [np.column_stack([t, z]), np.column_stack([z, -t]), np.zeros((1, 2))]
    pts = np.vstack([pts, near] + edges)
    pts = pts[~((pts[:, 0] > 0.0) & (pts[:, 1] < 0.0))]
    for got, want in zip(_corner_singular_parts(pts), polar_corner_parts(pts)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # The corner itself evaluates to zero in every field.
    assert all(part[-1] == 0.0 for part in _corner_singular_parts(np.zeros((1, 2))))
    # Lower orders stop at their derivative and agree bit for bit below it.
    full = _corner_singular_parts(pts)
    for order in (0, 1):
        parts = _corner_singular_parts(pts, order)
        assert all(np.array_equal(a, b) for a, b in zip(parts[:order * 2 + 1], full))
        assert all(a is None for a in parts[order * 2 + 1:])


def test_lshape_level_samples_corner_parts_three_times(monkeypatch):
    # One study level samples the exact solution on three point sets:
    # the gauss7 and gauss3 points and the gradient piece centres.
    from gdmopt import cases

    calls = []

    def counted(pts, *args):
        calls.append(len(pts))
        return real(pts, *args)

    real = cases._corner_singular_parts
    monkeypatch.setattr(cases, "_corner_singular_parts", counted)
    cli.run_table("example2-lshape", "p1", (3, 3))
    assert 0 < len(calls) <= 3


def test_lshape_closures_reevaluate_writeable_points():
    case = get_case("example2-lshape")
    pts = interior_points(case, np.random.default_rng(7))
    first = case.y(pts).copy()
    pts[:, 0] *= 0.5
    fresh = case.y(pts)
    assert not np.array_equal(first, fresh)
    np.testing.assert_array_equal(fresh, get_case("example2-lshape").y(pts.copy()))


@pytest.mark.parametrize("name", CASE_NAMES)
def test_single_closures_match_fields(monkeypatch, name):
    case = get_case(name)
    pts = interior_points(case, np.random.default_rng(12), n=200)
    sample = case.fields(pts)
    for field in Fields._fields:
        assert np.array_equal(getattr(case, field)(pts), getattr(sample, field))

    # Every subset of names a study level asks for (sample_level before
    # the solve, compute_errors after it), on nodal and on cell-centred
    # schemes, gives the same arrays and None for the rest.
    requested = set()

    def record(p, names):
        requested.add(tuple(names))
        return real(p, names)

    real = case.fields
    monkeypatch.setattr(case, "fields", record)
    for scheme in SCHEMES:
        run_level(case, scheme, 3)
    assert len(requested) == 5
    for names in requested:
        part = case.fields(pts, names)
        for field in Fields._fields:
            if field in names:
                assert np.array_equal(getattr(part, field), getattr(sample, field))
            else:
                assert getattr(part, field) is None


@pytest.mark.parametrize("name,scheme,calls", [
    ("example2-lshape", "p1", 3),
    ("example1", "p1", 3),
    ("example1", "ncp1", 3),
    ("example1", "hmm", 4),
])
def test_level_samples_each_point_set_once(monkeypatch, name, scheme, calls):
    # Nodal schemes read the gauss7 and gauss3 points and the gradient
    # piece centres; the cell-centred scheme reads the centroid-rule
    # points instead of the gauss7 ones, and the cell points on top.
    case = get_case(name)
    seen = []

    def counted(pts, *args):
        seen.append(pts)
        return real(pts, *args)

    real = case.fields
    monkeypatch.setattr(case, "fields", counted)
    run_level(case, scheme, 3)
    assert len(seen) == calls
    assert len({id(pts) for pts in seen}) == calls
