"""Reconstruction algebra, coercivity, conformity and consistency defects."""

import dataclasses
import functools

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from gdmopt import analysis, assembly, cli, control, gd_core
from gdmopt.analysis import cell_quadrature, segment_quadrature, triangle_quadrature
from gdmopt.assembly import SOLVE_TOL, SolverError, SPDFactor
from gdmopt.cases import get_case
from gdmopt.cli import diagnostics_row
from gdmopt.gd_core import compute_cd, compute_sd_upper, compute_wd
from gdmopt.mesh import PolytopalMesh, build_cartesian_mesh, build_unit_square_triangulation
from gdmopt.schemes import SCHEMES, build_scheme
from oracles import gradient_norm, value_at


def make_gd(scheme, m, bc="dirichlet", shift=0.0):
    mesh = (
        build_cartesian_mesh(m, shift=shift) if scheme == "hmm"
        else build_unit_square_triangulation(m)
    )
    return build_scheme(scheme, mesh, bc)


def boundary_rule(gd):
    # The 3-point Gauss rule on the boundary faces, as S_D builds it.
    ends = gd.mesh.faces[gd.boundary_face_ids].T
    return segment_quadrature(*gd.mesh.vertices[ends])


def smooth(pts):
    return np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])


def smooth_grad(pts):
    sx, cx = np.sin(np.pi * pts[:, 0]), np.cos(np.pi * pts[:, 0])
    sy, cy = np.sin(np.pi * pts[:, 1]), np.cos(np.pi * pts[:, 1])
    return np.pi * np.column_stack([cx * sy, sx * cy])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_reconstructions_linear(scheme):
    gd = make_gd(scheme, 3, "neumann")
    rng = np.random.default_rng(2)
    v, w = rng.standard_normal((2, gd.n_dofs))
    a, b = 0.7, -1.3
    cells = np.arange(gd.mesh.n_cells)
    pts = gd.mesh.cell_point
    lhs = value_at(gd, a * v + b * w, cells, pts)
    rhs = a * value_at(gd, v, cells, pts) + b * value_at(gd, w, cells, pts)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12
    lhs = gd.gradient_table(a * v + b * w)
    rhs = a * gd.gradient_table(v) + b * gd.gradient_table(w)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


@pytest.mark.parametrize("scheme", SCHEMES)
def test_mass_matrix_matches_quadrature(scheme):
    # The closed-form Gram matrix agrees with numerical integration of
    # the reconstructed function squared.
    gd = make_gd(scheme, 3, "neumann")
    rng = np.random.default_rng(4)
    v = rng.standard_normal(gd.n_dofs)
    cells, pts, wts = cell_quadrature(gd.mesh, "gauss7")
    vals = value_at(gd, v, cells, pts)
    direct = float(wts @ vals ** 2)
    assert v @ (gd.mass_matrix @ v) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_grams_spd_on_free_dofs(scheme):
    # The gradient Gram (the discretisation norm under Dirichlet
    # conditions) is strictly positive definite on free DOFs.  The mass
    # matrix is as well for the nodal schemes; the hybrid scheme's
    # function reconstruction ignores face DOFs, so its mass matrix is
    # only positive semidefinite.
    gd = make_gd(scheme, 3, "dirichlet")
    g = gd.gradient_gram.toarray()
    np.testing.assert_allclose(g, g.T, atol=1e-13)
    assert np.linalg.eigvalsh(g)[0] > 0.0
    m = gd.mass_matrix.toarray()
    np.testing.assert_allclose(m, m.T, atol=1e-13)
    low = np.linalg.eigvalsh(m)[0]
    if scheme == "hmm":
        assert low >= -1e-13
    else:
        assert low > 0.0


def _diagonal_product(r, d, s):
    return r.T @ sp.diags(d) @ s


def _oracle_mass(gd):
    mesh, c = gd.mesh, gd.value_center
    m = _diagonal_product(c, mesh.cell_area, c)
    if gd.cell_centred:
        return m.tocsr()
    jxx, jxy, jyy = np.empty((3, mesh.n_cells))
    for block, cells, pts, wts in analysis.quadrature_blocks(mesh, "gauss3"):
        dx, dy = analysis.centroid_offsets(mesh, cells, pts)
        jxx[block] = analysis.block_sums(block, cells, wts * dx ** 2)
        jxy[block] = analysis.block_sums(block, cells, wts * dx * dy)
        jyy[block] = analysis.block_sums(block, cells, wts * dy ** 2)
    sx, sy = gd.grad_x, gd.grad_y
    m = m + (_diagonal_product(sx, jxx, sx) + _diagonal_product(sy, jyy, sy))
    m = m + (_diagonal_product(sx, jxy, sy) + _diagonal_product(sy, jxy, sx))
    return m.tocsr()


def _assert_same_bits(got, want):
    assert got.format == want.format and got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_grams_and_coupling_keep_the_diagonal_product_bits(scheme, bc):
    # Each Gram matrix and the control coupling equal, in format, index
    # arrays and data bytes, the products R^T diag(d) S they replace,
    # summed as m + (P2 + P3) + (P4 + P5).  On the perturbed meshes a
    # term added or rounded another way moves the last bit of some entry.
    rng = np.random.default_rng(7)
    gds = []
    for level in (2, 3, 4):
        gds.append(make_gd(scheme, 2 ** level, bc))
        mesh = gds[-1].mesh
        move = rng.uniform(-0.2, 0.2, mesh.vertices.shape) / 2 ** level
        move[mesh.boundary_vertices] = 0.0
        gds.append(build_scheme(scheme, PolytopalMesh(mesh.vertices + move, mesh.cells), bc))
    for gd in gds:
        ell = gd.mesh.face_length[gd.boundary_face_ids]
        tm, ts = gd.trace_mid, gd.trace_slope
        w = gd.piece_area
        expected = {
            "mass_matrix": _oracle_mass(gd),
            "gradient_gram": (_diagonal_product(gd.grad_x, w, gd.grad_x)
                              + _diagonal_product(gd.grad_y, w, gd.grad_y)).tocsr(),
            "trace_gram": (_diagonal_product(tm, ell, tm)
                           + _diagonal_product(ts, ell ** 3 / 12.0, ts)).tocsr(),
        }
        for name, want in expected.items():
            _assert_same_bits(getattr(gd, name), want)
        problem = control.OptimalControlProblem(
            gd, 1.0, (-1.0, 1.0), np.zeros((2, gd.n_free)), reaction=1.0)
        coupling = (gd.value_center.T @ sp.diags(gd.mesh.cell_area)).tocsr()
        _assert_same_bits(problem.control_coupling, coupling)
        _assert_same_bits(problem.coupling_transpose, coupling.T.tocsr())


@pytest.mark.parametrize("scheme", SCHEMES)
def test_constants_span_gradient_nullspace(scheme):
    gd = make_gd(scheme, 3, "neumann")
    ones = np.ones(gd.n_dofs)
    assert np.max(np.abs(gd.gradient_table(ones))) <= 1e-12
    assert gradient_norm(gd, ones) <= 1e-12


def test_value_load_matches_cell_coupling():
    # Loading the constant 1 through quadrature equals the exact
    # per-cell coupling integrals: the basis is affine on each cell, so
    # its mean there is its value_center entry.  Loads built together
    # are the loads built one at a time, bit for bit.  A cell-centred
    # load is the cell coupling of the per-cell sums of w v alone, bit
    # for bit: no slope moment enters it.
    for scheme in SCHEMES:
        gd = make_gd(scheme, 3, "neumann")
        load, ramp = gd.value_load("gauss3", lambda p: [np.ones(len(p)), p[:, 0] - 0.3])
        exact = gd.value_center.T @ gd.mesh.cell_area
        np.testing.assert_allclose(load, exact, atol=1e-13)
        (alone,) = gd.value_load("gauss3", lambda p: [p[:, 0] - 0.3])
        assert np.array_equal(ramp, alone)
        if gd.cell_centred:
            cells, pts, wts = cell_quadrature(gd.mesh, "gauss3")
            sums = np.bincount(cells, wts * (pts[:, 0] - 0.3), gd.mesh.n_cells)
            assert np.array_equal(ramp, gd.value_center.T @ sums)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_piece_rule_weights_sum_to_areas(scheme):
    gd = make_gd(scheme, 3)
    pieces, pts, wts = triangle_quadrature(gd.piece_tri, "gauss7")
    np.testing.assert_allclose(np.bincount(pieces, wts), gd.piece_area, rtol=1e-13)
    with pytest.raises(ValueError):
        gd.piece_center[0] = 0


@pytest.mark.parametrize("scheme", SCHEMES)
def test_boundary_rule_weights_sum_to_lengths(scheme):
    gd = make_gd(scheme, 3, "neumann")
    bfaces, pts, wts, arc = boundary_rule(gd)
    ell = gd.mesh.face_length[gd.boundary_face_ids]
    np.testing.assert_allclose(np.bincount(bfaces, wts), ell, rtol=1e-13)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_loads_of_reconstructions_match_grams(monkeypatch, scheme):
    # The gradient and the trace reconstructions are polynomials of degree
    # at most 1 on their pieces and faces, so loading them against their
    # own values at the rule's points gives the exact Gram matrix products.
    # The gauss7 points come piece by piece, in blocks of 40 points here.
    monkeypatch.setattr(analysis, "BLOCK_POINTS", 40)
    gd = make_gd(scheme, 3, "neumann")
    vec = np.random.default_rng(4).standard_normal(gd.n_dofs)
    own = np.repeat(gd.gradient_table(vec), 7, axis=0)
    done = []

    def sample(pts):
        start = sum(done)
        done.append(len(pts))
        return own[start:start + len(pts)]

    grad = gd.gradient_load("gauss7", sample)
    assert len(done) > 1 and sum(done) == len(own)
    np.testing.assert_allclose(grad, gd.gradient_gram @ vec, atol=1e-12)
    bfaces, pts, wts, arc = boundary_rule(gd)
    wv, n = wts * gd.trace_at(vec, bfaces, pts), len(gd.boundary_face_ids)
    trace = gd.trace_load(np.bincount(bfaces, wv, n), np.bincount(bfaces, wv * arc, n))
    np.testing.assert_allclose(trace, gd.trace_gram @ vec, atol=1e-12)


@pytest.mark.parametrize("case_name", ["example1", "example3-neumann"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_diagnostics_row_keeps_no_point_set(case_name, scheme):
    # A diagnostics row builds its piece, boundary and cell rules where it
    # uses them: afterwards the discretisation holds its operators, what
    # it derives on construction and its cached matrices, and neither it
    # nor its mesh holds a quadrature point or weight array.
    case = get_case(case_name)
    gd = build_scheme(scheme, case.build_mesh(scheme, 8), case.bc)
    on_mesh = set(vars(gd.mesh))
    diagnostics_row(case, gd, 3)
    held = vars(gd)
    derived = {"cell_centred", "n_free", "boundary_face_ids", "piece_area", "piece_center"}
    cached = {"mass_matrix", "gradient_gram", "norm_factor"}
    if case.bc == "neumann":
        cached.add("trace_gram")
    assert set(held) == {f.name for f in dataclasses.fields(gd)} | derived | cached
    assert set(vars(gd.mesh)) == on_mesh
    rule_sizes = {len(triangle_quadrature(gd.piece_tri, "gauss7")[2]),
                  3 * len(gd.boundary_face_ids), len(cell_quadrature(gd.mesh, "gauss7")[2])}
    arrays = [a for a in held.values() if isinstance(a, np.ndarray)]
    assert arrays and not any(len(a) in rule_sizes for a in arrays)


def test_sd_samples_the_target_once_per_point_set():
    # Under Neumann conditions one boundary rule serves the boundary load
    # and the trace misfit, so the target is sampled once on the gauss7
    # points and once on the boundary points.
    case = get_case("example3-neumann")
    gd = build_scheme("ncp1", case.build_mesh("ncp1", 16), case.bc)
    sizes = []

    def counted(pts):
        sizes.append(len(pts))
        return case.y(pts)

    compute_sd_upper(gd, counted, case.grad_y)
    assert sizes == [3584, 192]


def test_diagnostics_map_one_block_at_a_time(monkeypatch):
    # A diagnostics row builds no piece, face or cell point set larger
    # than a block: every map of a reference rule and every segment rule
    # returns one block of whole pieces, faces or cells.  At level 5 the
    # hybrid scheme's 28672 gauss7 piece points span two blocks, the first
    # of 2340 pieces.
    sizes = []

    def counted(real):
        def wrapper(*args):
            out = real(*args)
            sizes.append(len(out[1]))
            return out
        return wrapper

    monkeypatch.setattr(analysis, "_affine_map", counted(analysis._affine_map))
    monkeypatch.setattr(gd_core, "segment_quadrature", counted(gd_core.segment_quadrature))
    for name, scheme in (("example1", "hmm"), ("example1", "p1"), ("example3-neumann", "ncp1")):
        sizes.clear()
        rows, failure = cli.run_table(name, scheme, (5, 5), diagnostics=True)
        assert failure is None and len(rows) == 1
        assert max(sizes) <= analysis.BLOCK_POINTS
        assert scheme != "hmm" or 7 * 2340 in sizes


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_diagnostics_do_not_depend_on_block_size(monkeypatch, scheme, bc):
    # Blocks of 40 points hold a few whole pieces, faces or cells.  W_D's
    # per-face, per-cell and per-piece sums add their terms in the same
    # order, so it is the same bit for bit; S_D sums its misfits block
    # by block, so it agrees to round-off.
    gd = make_gd(scheme, 8, bc)
    wd, sd = compute_wd(gd, smooth_grad), compute_sd_upper(gd, smooth, smooth_grad)
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return smooth_grad(pts)

    monkeypatch.setattr(analysis, "BLOCK_POINTS", 40)
    assert compute_wd(gd, counted) == wd
    assert len(calls) > 10 and max(calls) <= 40
    assert compute_sd_upper(gd, smooth, smooth_grad) == pytest.approx(sd, rel=1e-13)


def test_diagnostics_row_memory_bound():
    # Traced peak of a one-level example1 hmm diagnostics table at level
    # 6, mesh to row.  Streaming the piece and face rules block by block
    # took it from 17.98 MB (whole point sets) to 11.36 MB.
    import tracemalloc

    cli.run_table("example1", "hmm", (3, 3), diagnostics=True)
    tracemalloc.start()
    try:
        cli.run_table("example1", "hmm", (6, 6), diagnostics=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13e6, f"{peak / 1e6:.2f} MB"


def dense_cd(gd):
    """C_D from every eigenvalue of its pencils, computed densely."""
    norm = gd.norm_factor.matrix.toarray()
    pencils = [gd.mass_matrix] + ([gd.trace_gram] if gd.bc == "neumann" else [])
    return np.sqrt(max(la.eigh(a.toarray(), norm, eigvals_only=True)[-1] for a in pencils))


def test_cd_dense_vs_power():
    # The power iteration agrees with a dense solve from 9 to 225
    # unknowns, under both boundary conditions.
    sizes = []
    for scheme, m, bc in (("p1", 4, "dirichlet"), ("p1", 8, "dirichlet"),
                          ("p1", 16, "dirichlet"), ("ncp1", 4, "dirichlet"),
                          ("ncp1", 8, "dirichlet"), ("hmm", 4, "dirichlet"),
                          ("hmm", 8, "dirichlet"), ("ncp1", 8, "neumann")):
        gd = make_gd(scheme, m, bc)
        sizes.append(gd.n_free)
        assert compute_cd(gd) == pytest.approx(dense_cd(gd), rel=1e-9)
    assert min(sizes) == 9 and max(sizes) == 225


def test_cd_stable_under_refinement():
    # Discrete Poincare constants converge; successive levels vary
    # little and never exceed a 10% band.
    for scheme in SCHEMES:
        vals = [compute_cd(make_gd(scheme, m, "dirichlet")) for m in (4, 8, 16)]
        assert all(v > 0.0 for v in vals)
        band = (max(vals) - min(vals)) / max(vals)
        assert band <= 0.10


def test_cd_neumann_stable():
    vals = [compute_cd(make_gd("p1", m, "neumann")) for m in (4, 8)]
    band = (max(vals) - min(vals)) / max(vals)
    assert band <= 0.10


def test_cd_requires_free_dofs():
    gd = make_gd("p1", 1, "dirichlet")
    assert gd.n_free == 0
    with pytest.raises(ValueError):
        compute_cd(gd)


@pytest.mark.parametrize("bc", ("dirichlet", "neumann"))
def test_wd_conforming_p1_vanishes(bc):
    # Conforming reconstructions satisfy integration by parts exactly.
    for m in (2, 4, 8):
        gd = make_gd("p1", m, bc)
        assert compute_wd(gd, smooth_grad) <= 1e-10


@pytest.mark.parametrize("scheme", SCHEMES)
def test_wd_constant_flux_vanishes(scheme):
    gd = make_gd(scheme, 4, "dirichlet")
    flux = lambda pts: np.tile([0.8, -0.6], (len(pts), 1))
    assert compute_wd(gd, flux) <= 1e-10


@pytest.mark.parametrize("scheme", ("ncp1", "hmm"))
def test_wd_first_order_decay(scheme):
    vals = [compute_wd(make_gd(scheme, m, "dirichlet"), smooth_grad)
            for m in (4, 8, 16)]
    assert all(v > 0.0 for v in vals)
    for coarse, fine in zip(vals, vals[1:]):
        assert 0.35 <= fine / coarse <= 0.65


def flux_field(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([np.exp(x) * np.cos(2.0 * y), np.sin(3.0 * x * y) + x ** 3])


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_wd_matches_dense_oracle(scheme, bc):
    # W_D is the dual norm, in the norm Gram matrix, of the residual
    # r_j = sum_K int_dK v_j flux . n_K of each unit vector's function
    # reconstruction v_j, plus int grad_D v_j . flux when v_j is piecewise
    # constant, minus int_dOmega trace(v_j) flux . n under Neumann
    # conditions.  Here every integral is a sum over quadrature points.
    for m in (2, 3):
        gd = make_gd(scheme, m, bc)
        mesh = gd.mesh
        faces = mesh.cell_faces.ravel()
        _, pts, wts, _ = segment_quadrature(mesh.vertices[mesh.faces[faces, 0]],
                                            mesh.vertices[mesh.faces[faces, 1]])
        q = len(wts) // len(faces)
        cells = np.repeat(np.arange(mesh.n_cells), mesh.cells.shape[1] * q)
        normals = np.repeat(mesh.outward_normals().reshape(-1, 2), q, axis=0)
        wflux = wts * (flux_field(pts) * normals).sum(1)
        pieces, ppts, pwts = triangle_quadrature(gd.piece_tri, "gauss7")
        bfaces, bpts, bwts, _ = boundary_rule(gd)
        bnormals = mesh.face_normal[gd.boundary_face_ids[bfaces]]
        bflux = bwts * (flux_field(bpts) * bnormals).sum(1)
        r = np.empty(gd.n_free)
        for j, e in enumerate(np.eye(gd.n_free)):
            r[j] = wflux @ value_at(gd, e, cells, pts)
            if gd.cell_centred:
                r[j] += pwts @ (gd.gradient_table(e)[pieces] * flux_field(ppts)).sum(1)
            if bc == "neumann":
                r[j] -= bflux @ gd.trace_at(e, bfaces, bpts)
        expected = np.sqrt(r @ np.linalg.solve(gd.norm_factor.matrix.toarray(), r))
        # The conforming scheme's defect is round-off on both sides.
        assert compute_wd(gd, flux_field) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_sd_vanishes_on_reproducible_target():
    # Targets inside the reconstruction space have zero defect: affine
    # functions for the affine schemes, constants for the hybrid scheme
    # (whose function reconstruction is piecewise constant, so affine
    # targets genuinely carry an O(h) defect there).
    affine = lambda pts: 0.2 + 1.1 * pts[:, 0] - 0.7 * pts[:, 1]
    affine_grad = lambda pts: np.tile([1.1, -0.7], (len(pts), 1))
    constant = lambda pts: np.full(len(pts), 0.9)
    zero_grad = lambda pts: np.zeros((len(pts), 2))
    for scheme in ("p1", "ncp1"):
        gd = make_gd(scheme, 3, "neumann")
        assert compute_sd_upper(gd, affine, affine_grad) <= 1e-10
    gd = make_gd("hmm", 3, "neumann")
    assert compute_sd_upper(gd, constant, zero_grad) <= 1e-10
    # Affine target for the hybrid scheme: gradient misfit vanishes but
    # the piecewise-constant function part leaves an O(h) remainder.
    coarse = compute_sd_upper(make_gd("hmm", 3, "neumann"), affine, affine_grad)
    fine = compute_sd_upper(make_gd("hmm", 6, "neumann"), affine, affine_grad)
    assert coarse > 1e-3
    assert 0.35 <= fine / coarse <= 0.65


@pytest.mark.parametrize("scheme", SCHEMES)
def test_sd_first_order_decay(scheme):
    vals = [compute_sd_upper(make_gd(scheme, m, "dirichlet"), smooth, smooth_grad)
            for m in (4, 8, 16)]
    for coarse, fine in zip(vals, vals[1:]):
        assert 0.35 <= fine / coarse <= 0.65


def test_sd_neumann_includes_trace():
    gd = make_gd("p1", 4, "neumann")
    val = compute_sd_upper(gd, smooth, smooth_grad)
    assert val > 0.0
    finer = compute_sd_upper(make_gd("p1", 8, "neumann"), smooth, smooth_grad)
    assert 0.35 <= finer / val <= 0.65


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_sd_calls_share_one_factor(monkeypatch, bc):
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(args)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    gd = make_gd("ncp1", 4, bc)
    first = compute_sd_upper(gd, smooth, smooth_grad)
    compute_sd_upper(gd, lambda pts: 2.0 * smooth(pts), lambda pts: 2.0 * smooth_grad(pts))
    assert len(calls) == 1
    # A fresh discretisation factors anew and reproduces the first value.
    assert compute_sd_upper(make_gd("ncp1", 4, bc), smooth, smooth_grad) == first
    assert len(calls) == 2


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_cd_and_wd_share_one_factor(monkeypatch, bc):
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(args)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    gd = make_gd("ncp1", 16, bc)
    # Neumann runs two pencils (trace and value) against the same norm.
    cd = compute_cd(gd)
    wd = compute_wd(gd, smooth_grad)
    assert len(calls) == 1
    # S_D's misfit solve is preconditioned with the same factor, and it
    # stays cached for C_D again.
    compute_sd_upper(gd, smooth, smooth_grad)
    compute_cd(gd)
    assert len(calls) == 1
    # A fresh discretisation factors anew and reproduces both values.
    fresh = make_gd("ncp1", 16, bc)
    assert compute_wd(fresh, smooth_grad) == wd
    assert compute_cd(fresh) == cd
    assert len(calls) == 2


def misfit_gram(gd):
    a = gd.mass_matrix + gd.gradient_gram
    return a + gd.trace_gram if gd.bc == "neumann" else a


@functools.lru_cache(maxsize=None)
def cached_gd(scheme, bc, level):
    return make_gd(scheme, 2 ** level, bc)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES),
    bc=st.sampled_from(["dirichlet", "neumann"]),
    level=st.integers(2, 4),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_misfit_solve_meets_contract_and_matches_direct(scheme, bc, level, seed):
    gd = cached_gd(scheme, bc, level)
    a = misfit_gram(gd)
    b = np.random.default_rng(seed).standard_normal(gd.n_free)
    x = gd.norm_factor.cg_solve(a, b)
    a_norm = abs(a).sum(axis=1).max()
    assert np.abs(b - a @ x).max() <= SOLVE_TOL * (a_norm * np.abs(x).max() + np.abs(b).max())
    direct = SPDFactor(a).solve(b)
    assert np.abs(x - direct).max() <= 1e-10 * np.abs(direct).max()


def test_misfit_solve_cap_raises_with_reached_backward_error(monkeypatch):
    # The Neumann misfit solve takes 8-9 steps, so a cap of 2 is reached.
    gd = make_gd("ncp1", 16, "neumann")
    b = np.random.default_rng(3).standard_normal(gd.n_free)
    gd.norm_factor.cg_solve(misfit_gram(gd), b)  # meets the contract uncapped
    monkeypatch.setattr(assembly, "CG_MAX_STEPS", 2)
    with pytest.raises(SolverError, match="backward error .* in 2 steps") as exc:
        gd.norm_factor.cg_solve(misfit_gram(gd), b)
    reached = float(str(exc.value).split("backward error ")[1].split(",")[0])
    assert reached > SOLVE_TOL


def test_cd_power_iteration_cap_raises(monkeypatch):
    gd = make_gd("ncp1", 16)
    monkeypatch.setattr(gd_core, "POWER_MAX_ITER", 1)
    with pytest.raises(SolverError, match="did not settle .* in 1 steps"):
        compute_cd(gd)

