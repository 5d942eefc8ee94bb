"""Reconstruction properties of the three gradient discretisations."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from gdmopt import schemes
from gdmopt.gd_core import GradientDiscretisation
from gdmopt.mesh import (
    build_cartesian_mesh,
    build_lshape_triangulation,
    build_unit_square_triangulation,
)
from gdmopt.schemes import SCHEMES, build_scheme
from oracles import dof_points, value_at

GRAD = np.array([1.7, -0.4])


def affine(pts):
    return 0.3 + pts @ GRAD


def random_points_in_cells(mesh, rng, per_cell=3):
    """Random interior points, one batch of per_cell points per cell."""
    k = mesh.cells.shape[1]
    loops = mesh.vertices[mesh.cells]
    if k == 3:
        w = rng.dirichlet([1.0, 1.0, 1.0], size=(mesh.n_cells, per_cell))
        pts = np.einsum("cpk,ckd->cpd", w, loops)
    else:
        uv = rng.uniform(0.1, 0.9, size=(mesh.n_cells, per_cell, 2))
        e1 = loops[:, 1] - loops[:, 0]
        e2 = loops[:, 3] - loops[:, 0]
        pts = (
            loops[:, None, 0, :]
            + uv[:, :, :1] * e1[:, None, :]
            + uv[:, :, 1:] * e2[:, None, :]
        )
    cells = np.repeat(np.arange(mesh.n_cells), per_cell)
    return cells, pts.reshape(-1, 2)


def meshes_for(scheme):
    if scheme == "hmm":
        return [
            build_cartesian_mesh(3),
            build_cartesian_mesh(3, shift=0.3),
            build_unit_square_triangulation(3),
        ]
    return [build_unit_square_triangulation(3), build_lshape_triangulation(2)]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_affine_gradient_exactness(scheme):
    # Interpolating an affine function reproduces its gradient on every
    # piece; for the hybrid scheme this means the stabilisation term
    # vanishes identically on affine interpolants.
    for mesh in meshes_for(scheme):
        gd = build_scheme(scheme, mesh, "neumann")
        vec = affine(dof_points(gd))
        table = gd.gradient_table(vec)
        assert np.max(np.abs(table - GRAD)) <= 1e-12


@pytest.mark.parametrize("scheme", ("p1", "ncp1"))
def test_affine_value_exactness_nodal(scheme):
    rng = np.random.default_rng(7)
    for mesh in meshes_for(scheme):
        gd = build_scheme(scheme, mesh, "neumann")
        vec = affine(dof_points(gd))
        cells, pts = random_points_in_cells(mesh, rng)
        vals = value_at(gd, vec, cells, pts)
        assert np.max(np.abs(vals - affine(pts))) <= 1e-12


def test_affine_value_exactness_hmm():
    # Piecewise-constant reconstruction: exact at the cell points.
    for mesh in meshes_for("hmm"):
        gd = build_scheme("hmm", mesh, "neumann")
        vec = affine(dof_points(gd))
        cells = np.arange(mesh.n_cells)
        vals = value_at(gd, vec, cells, mesh.cell_point)
        assert np.max(np.abs(vals - affine(mesh.cell_point))) <= 1e-12


@pytest.mark.parametrize("scheme", ("p1", "ncp1"))
def test_affine_trace_exactness(scheme):
    mesh = build_unit_square_triangulation(3)
    gd = build_scheme(scheme, mesh, "neumann")
    vec = affine(dof_points(gd))
    ids = gd.boundary_face_ids
    rows = np.arange(len(ids))
    for t in (-0.3, 0.0, 0.25):
        pts = mesh.face_center[ids] + t * (
            mesh.face_length[ids, None] * mesh.face_tangent[ids]
        )
        vals = gd.trace_at(vec, rows, pts)
        assert np.max(np.abs(vals - affine(pts))) <= 1e-12


def test_hmm_trace_is_face_value():
    mesh = build_cartesian_mesh(3)
    gd = build_scheme("hmm", mesh, "neumann")
    rng = np.random.default_rng(3)
    vec = rng.standard_normal(gd.n_dofs)
    ids = gd.boundary_face_ids
    rows = np.arange(len(ids))
    vals = gd.trace_at(vec, rows, mesh.face_center[ids])
    np.testing.assert_allclose(vals, vec[mesh.n_cells + ids], atol=1e-14)


def test_cr_midpoint_continuity():
    mesh = build_unit_square_triangulation(4)
    gd = build_scheme("ncp1", mesh, "neumann")
    rng = np.random.default_rng(11)
    vec = rng.standard_normal(gd.n_dofs)
    interior = np.flatnonzero(~mesh.boundary_faces)
    mids = mesh.face_center[interior]
    left = value_at(gd, vec, mesh.face_cells[interior, 0], mids)
    right = value_at(gd, vec, mesh.face_cells[interior, 1], mids)
    assert np.max(np.abs(left - right)) <= 1e-12
    # And the midpoint value is the DOF itself.
    assert np.max(np.abs(left - vec[interior])) <= 1e-12


def test_p1_vertex_values():
    mesh = build_unit_square_triangulation(3)
    gd = build_scheme("p1", mesh, "neumann")
    rng = np.random.default_rng(5)
    vec = rng.standard_normal(gd.n_dofs)
    # Evaluate at each cell's first vertex from that cell.
    cells = np.arange(mesh.n_cells)
    pts = mesh.vertices[mesh.cells[:, 0]]
    vals = value_at(gd, vec, cells, pts)
    assert np.max(np.abs(vals - vec[mesh.cells[:, 0]])) <= 1e-12


def test_free_dof_counts():
    gd = build_scheme("p1", build_unit_square_triangulation(4), "dirichlet")
    assert gd.n_dofs == 25
    assert gd.n_free == 9
    gd = build_scheme("ncp1", build_unit_square_triangulation(2), "dirichlet")
    assert gd.n_free == 8
    gd = build_scheme("hmm", build_cartesian_mesh(2), "dirichlet")
    assert gd.n_dofs == 16
    assert gd.n_free == 8
    for scheme in SCHEMES:
        mesh = (
            build_cartesian_mesh(2) if scheme == "hmm"
            else build_unit_square_triangulation(2)
        )
        gd = build_scheme(scheme, mesh, "neumann")
        assert gd.n_free == gd.n_dofs


def test_hmm_piece_areas_tile_cells():
    for mesh in meshes_for("hmm"):
        gd = build_scheme("hmm", mesh, "dirichlet")
        # The k pieces of each cell follow one another.
        pieces = np.repeat(np.arange(mesh.n_cells), mesh.cells.shape[1])
        per_cell = np.bincount(pieces, gd.piece_area, mesh.n_cells)
        np.testing.assert_allclose(per_cell, mesh.cell_area, rtol=1e-13)
        assert np.all(gd.piece_area > 0.0)


def test_hmm_identity_form_spd():
    # Dense check on a small mesh: the stiffness matrix has a
    # strictly positive smallest eigenvalue.
    mesh = build_cartesian_mesh(4)
    gd = build_scheme("hmm", mesh, "dirichlet")
    assert gd.n_dofs <= 200
    a = gd.stiffness().toarray()
    np.testing.assert_allclose(a, a.T, atol=1e-13)
    eigs = np.linalg.eigvalsh(a)
    assert eigs[0] > 0.0


def test_unknown_scheme_rejected():
    mesh = build_unit_square_triangulation(2)
    with pytest.raises(ValueError):
        build_scheme("p2", mesh, "dirichlet")


def test_nodal_schemes_require_triangles():
    mesh = build_cartesian_mesh(2)
    for scheme in ("p1", "ncp1"):
        with pytest.raises(ValueError):
            build_scheme(scheme, mesh, "dirichlet")


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_cell_centred_only_for_hmm(bc):
    for scheme in SCHEMES:
        mesh = (
            build_cartesian_mesh(2) if scheme == "hmm"
            else build_unit_square_triangulation(2)
        )
        assert build_scheme(scheme, mesh, bc).cell_centred == (scheme == "hmm")


def test_discretisation_checks_its_operators():
    gd = build_scheme("p1", build_unit_square_triangulation(2), "dirichlet")
    fields = {f.name: getattr(gd, f.name) for f in dataclasses.fields(gd)}
    with pytest.raises(TypeError):
        GradientDiscretisation(*fields.values())
    # The function reconstruction has one row per cell, the gradient one
    # per piece and the trace one per boundary face.
    hmm = build_scheme("hmm", build_cartesian_mesh(4), "neumann")
    for name in ("value_center", "grad_x", "grad_y", "trace_mid", "trace_slope"):
        with pytest.raises(ValueError, match="one row per cell, piece or boundary face"):
            dataclasses.replace(hmm, **{name: getattr(hmm, name)[:-1]})
    # Without piece triangles the pieces are the cells, which must be
    # triangles.
    with pytest.raises(ValueError, match="must be triangles"):
        dataclasses.replace(hmm, piece_tri=None, grad_x=hmm.value_center,
                            grad_y=hmm.value_center)
    with pytest.raises(ValueError, match="boundary condition"):
        dataclasses.replace(gd, bc="robin")
    # Every operator has one column per unknown.
    with pytest.raises(ValueError, match="per unknown"):
        dataclasses.replace(gd, trace_slope=gd.trace_slope[:, :-1])
    with pytest.raises(ValueError, match="per unknown"):
        dataclasses.replace(gd, free=gd.free[:-1])


def test_operators_match_coo_oracle(monkeypatch):
    # Every matrix a builder makes from a shared pattern is array-equal
    # to the COO -> CSR conversion of its own entries, with the columns
    # of eliminated DOFs dropped.
    patterns = {}
    real_pattern, real_csr = schemes._pattern, schemes._csr

    def recording_pattern(rows, cols, shape, unknown):
        pattern = real_pattern(rows, cols, shape, unknown)
        patterns[id(pattern)] = (pattern, rows, cols, shape, unknown)
        return pattern

    built = []

    def checked_csr(pattern, vals):
        out = real_csr(pattern, vals)
        _, rows, cols, shape, unknown = patterns[id(pattern)]
        cols = unknown[cols]
        keep = cols >= 0
        oracle = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=shape).tocsr()
        assert out.shape == oracle.shape
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(out, name), getattr(oracle, name))
        built.append(pattern)
        return out

    monkeypatch.setattr(schemes, "_pattern", recording_pattern)
    monkeypatch.setattr(schemes, "_csr", checked_csr)
    for bc in ("dirichlet", "neumann"):
        for m in (1, 3):
            for scheme, mesh in (("p1", build_unit_square_triangulation(m)),
                                 ("ncp1", build_lshape_triangulation(m)),
                                 ("hmm", build_cartesian_mesh(m))):
                built.clear()
                schemes.build_scheme(scheme, mesh, bc)
                # p1 and ncp1 make five matrices from three patterns: the
                # three cell matrices share one.  hmm makes four from three:
                # its two gradients share one.
                assert len(built) == (4 if scheme == "hmm" else 5)
                assert len({id(p) for p in built}) == 3


def test_pattern_rejects_repeated_positions():
    with pytest.raises(ValueError, match="repeated"):
        schemes._pattern(np.array([0, 0]), np.array([1, 1]), (1, 2), np.arange(2))
