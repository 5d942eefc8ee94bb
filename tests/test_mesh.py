"""Mesh generators and incidence tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdmopt.mesh import (
    PolytopalMesh,
    build_cartesian_mesh,
    build_lshape_triangulation,
    build_unit_square_triangulation,
)
from gdmopt.schemes import build_scheme
from oracles import value_at


def uniform_refine(mesh):
    """Red refinement: triangles and rectangles split into four children.

    New vertices sit at face midpoints (plus cell centers for
    rectangles).  The mesh size halves exactly and cell counts
    quadruple.  Cell points follow the parent: each child point is the
    child centroid plus half the parent's centroid-to-point offset, so
    shifted Cartesian grids refine into their own finer versions.
    """
    v = mesh.cells
    mid = mesh.n_vertices + mesh.cell_faces
    if v.shape[1] == 3:
        # Local faces: 0 joins (v0,v1), 1 joins (v1,v2), 2 joins (v2,v0).
        vertices = np.vstack([mesh.vertices, mesh.face_center])
        children = [
            [v[:, 0], mid[:, 0], mid[:, 2]],
            [mid[:, 0], v[:, 1], mid[:, 1]],
            [mid[:, 2], mid[:, 1], v[:, 2]],
            [mid[:, 0], mid[:, 1], mid[:, 2]],
        ]
    else:
        vertices = np.vstack([mesh.vertices, mesh.face_center, mesh.cell_centroid])
        ctr = mesh.n_vertices + mesh.n_faces + np.arange(mesh.n_cells)
        children = [
            [v[:, 0], mid[:, 0], ctr, mid[:, 3]],
            [mid[:, 0], v[:, 1], mid[:, 1], ctr],
            [ctr, mid[:, 1], v[:, 2], mid[:, 2]],
            [mid[:, 3], ctr, mid[:, 2], v[:, 3]],
        ]
    # Children 4c..4c+3 of cell c, in the order listed above.
    cells = np.array(children).transpose(2, 0, 1).reshape(-1, v.shape[1])
    offset = np.repeat(mesh.cell_point - mesh.cell_centroid, 4, axis=0)
    points = vertices[cells].mean(axis=1) + 0.5 * offset
    return PolytopalMesh(vertices, cells, cell_points=points)


def test_unit_square_m1_counts():
    mesh = build_unit_square_triangulation(1)
    assert mesh.n_cells == 2
    assert mesh.n_vertices == 4
    assert mesh.n_faces == 5
    assert mesh.h == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert mesh.cell_area.sum() == pytest.approx(1.0, abs=1e-15)


def test_unit_square_counts_scale():
    for m in (2, 3, 5):
        mesh = build_unit_square_triangulation(m)
        assert mesh.n_cells == 2 * m * m
        assert mesh.n_vertices == (m + 1) ** 2
        # Euler: faces = (3*cells + boundary)/2 with 4m boundary edges.
        assert mesh.n_faces == (3 * mesh.n_cells + 4 * m) // 2
        assert mesh.cell_area.sum() == pytest.approx(1.0, rel=1e-14)
        assert mesh.boundary_faces.sum() == 4 * m


def test_cell_areas_positive_and_exact():
    mesh = build_unit_square_triangulation(4)
    assert np.all(mesh.cell_area > 0.0)
    np.testing.assert_allclose(mesh.cell_area, 1.0 / 32.0, rtol=1e-14)


def test_closed_boundary_normal_sums():
    # The outward normals of any closed cell loop, weighted by face
    # length, sum to zero; same for the whole domain boundary.
    for mesh in (
        build_unit_square_triangulation(3),
        build_lshape_triangulation(2),
        build_cartesian_mesh(4, shift=0.3),
    ):
        n = mesh.outward_normals()
        lengths = mesh.face_length[mesh.cell_faces]
        per_cell = (n * lengths[:, :, None]).sum(axis=1)
        assert np.max(np.abs(per_cell)) <= 1e-12
        bnd = mesh.boundary_faces
        total = (
            mesh.face_normal[bnd] * mesh.face_length[bnd, None]
        ).sum(axis=0)
        assert np.max(np.abs(total)) <= 1e-12


def test_face_normals_unit_and_consistent():
    mesh = build_unit_square_triangulation(3)
    np.testing.assert_allclose(
        np.linalg.norm(mesh.face_normal, axis=1), 1.0, rtol=1e-14
    )
    # Normal points out of the first incident cell.
    first = mesh.face_cells[:, 0]
    d = mesh.face_center - mesh.cell_centroid[first]
    assert np.all(np.sum(d * mesh.face_normal, axis=1) > 0.0)


def test_interior_faces_have_two_cells():
    mesh = build_unit_square_triangulation(3)
    interior = ~mesh.boundary_faces
    assert np.all(mesh.face_cells[interior, 1] >= 0)
    assert np.all(mesh.face_cells[mesh.boundary_faces, 1] == -1)


def test_lshape_basic():
    mesh = build_lshape_triangulation(1)
    assert mesh.n_cells == 6
    assert mesh.cell_area.sum() == pytest.approx(3.0, abs=1e-14)
    # The re-entrant corner is a vertex of the mesh.
    d = np.linalg.norm(mesh.vertices, axis=1)
    assert d.min() <= 1e-15
    # No cell centroid inside the removed quadrant.
    c = mesh.cell_centroid
    assert not np.any((c[:, 0] > 0.0) & (c[:, 1] < 0.0))


def test_lshape_counts_scale():
    for m in (2, 4):
        mesh = build_lshape_triangulation(m)
        assert mesh.n_cells == 6 * m * m
        assert mesh.cell_area.sum() == pytest.approx(3.0, rel=1e-14)


def test_cartesian_mesh_shift_validation():
    build_cartesian_mesh(3, shift=0.0)
    build_cartesian_mesh(3, shift=0.49)
    with pytest.raises(ValueError):
        build_cartesian_mesh(3, shift=0.5)
    with pytest.raises(ValueError):
        build_cartesian_mesh(3, shift=-0.1)


def test_cartesian_cell_points_inside():
    mesh = build_cartesian_mesh(4, shift=0.3)
    assert np.all(mesh.face_point_distances() > 0.0)
    np.testing.assert_allclose(
        mesh.cell_point - mesh.cell_centroid, 0.3 / 4.0, atol=1e-15
    )


def test_refine_halves_h_and_quadruples_cells():
    for mesh in (build_unit_square_triangulation(2), build_cartesian_mesh(3)):
        fine = uniform_refine(mesh)
        assert fine.n_cells == 4 * mesh.n_cells
        assert fine.h == pytest.approx(mesh.h / 2.0, rel=1e-14)
        assert fine.cell_area.sum() == pytest.approx(
            mesh.cell_area.sum(), rel=1e-14
        )


def test_refine_matches_direct_generation():
    # Red refinement of the structured generators reproduces the finer
    # generator geometry (as vertex sets).
    for build, m in (
        (build_unit_square_triangulation, 2),
        (build_lshape_triangulation, 2),
    ):
        fine = uniform_refine(build(m))
        direct = build(2 * m)
        assert fine.n_vertices == direct.n_vertices
        a = np.array(sorted(map(tuple, np.round(fine.vertices, 12))))
        b = np.array(sorted(map(tuple, np.round(direct.vertices, 12))))
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_refine_inherits_shifted_points():
    coarse = build_cartesian_mesh(2, shift=0.3)
    fine = uniform_refine(coarse)
    direct = build_cartesian_mesh(4, shift=0.3)
    a = np.array(sorted(map(tuple, np.round(fine.cell_point, 12))))
    b = np.array(sorted(map(tuple, np.round(direct.cell_point, 12))))
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_orientation_validation():
    with pytest.raises(ValueError):
        PolytopalMesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 2, 1]]),  # clockwise
        )


def test_face_point_distance_cartesian():
    mesh = build_cartesian_mesh(2)
    # Centroid points: distance h/2 to each face line.
    np.testing.assert_allclose(mesh.face_point_distances(), 0.25, atol=1e-14)


def loop_face_table(cells):
    """Face table by a plain scan: faces numbered by first appearance in
    (cell, local edge) order, oriented by their first cell."""
    face_of, faces, face_cells = {}, [], []
    n_cells, k = cells.shape
    cell_faces = np.empty((n_cells, k), dtype=int)
    cell_face_sign = np.empty((n_cells, k), dtype=int)
    for c in range(n_cells):
        for i in range(k):
            a, b = int(cells[c, i]), int(cells[c, (i + 1) % k])
            key = (min(a, b), max(a, b))
            if key not in face_of:
                face_of[key] = len(faces)
                faces.append((a, b))
                face_cells.append([c, -1])
                cell_face_sign[c, i] = 1
            else:
                face_cells[face_of[key]][1] = c
                cell_face_sign[c, i] = -1
            cell_faces[c, i] = face_of[key]
    return np.array(faces), np.array(face_cells), cell_faces, cell_face_sign


def test_face_table_matches_loop_oracle():
    meshes = []
    for mesh in (
        build_unit_square_triangulation(3),
        build_lshape_triangulation(2),
        build_cartesian_mesh(4, shift=0.3),
    ):
        meshes += [mesh, uniform_refine(mesh)]
    perm = np.random.default_rng(3).permutation(meshes[2].n_cells)
    meshes.append(PolytopalMesh(meshes[2].vertices, meshes[2].cells[perm]))
    for mesh in meshes:
        expected = loop_face_table(mesh.cells)
        actual = (mesh.faces, mesh.face_cells, mesh.cell_faces, mesh.cell_face_sign)
        for got, want in zip(actual, expected):
            np.testing.assert_array_equal(got, want)
        assert mesh.n_faces == len(expected[0])


def test_face_shared_by_three_cells_rejected():
    # Three triangles fanned around the edge (0, 1).
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.5, 3.0]])
    cells = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(ValueError, match="more than two cells"):
        PolytopalMesh(vertices, cells)


GRAD = np.array([1.7, -0.4])

OPERATORS = ("value_center", "grad_x", "grad_y", "trace_mid", "trace_slope")


def perturbed(mesh, m, seed):
    """mesh with every interior vertex moved by up to 0.2 h per
    coordinate, h = 1/m the grid step."""
    move = np.random.default_rng(seed).uniform(-0.2 / m, 0.2 / m, mesh.vertices.shape)
    move[mesh.boundary_vertices] = 0.0
    return PolytopalMesh(mesh.vertices + move, mesh.cells)


TRIANGULATIONS = {"square": build_unit_square_triangulation,
                  "lshape": build_lshape_triangulation}


def all_pairs_diameter(mesh):
    """Largest distance between two vertices of each cell, from the
    (n, k, k, 2) array of all vertex differences."""
    loops = mesh.vertices[mesh.cells]
    diffs = loops[:, :, None, :] - loops[:, None, :, :]
    return np.sqrt((diffs ** 2).sum(-1)).max(axis=(1, 2))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(domain=st.sampled_from(["square", "lshape"]), m=st.integers(2, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_perturbed_meshes_keep_mesh_and_scheme_identities(domain, m, seed):
    mesh = perturbed(TRIANGULATIONS[domain](m), m, seed)
    assert mesh.cell_area.min() >= 0.1 / m ** 2
    assert mesh.cell_area.sum() == pytest.approx(1.0 if domain == "square" else 3.0, rel=1e-13)
    lengths = mesh.face_length[mesh.cell_faces]
    per_cell = (mesh.outward_normals() * lengths[:, :, None]).sum(axis=1)
    assert np.max(np.abs(per_cell)) <= 1e-12
    actual = (mesh.faces, mesh.face_cells, mesh.cell_faces, mesh.cell_face_sign)
    for got, want in zip(actual, loop_face_table(mesh.cells)):
        np.testing.assert_array_equal(got, want)

    # Cell diameters from vertex pairs equal the all-pairs maximum, bit
    # for bit, on triangles and rectangles, perturbed or not.
    cartesian = build_cartesian_mesh(m)
    for each in (mesh, TRIANGULATIONS[domain](m), cartesian, perturbed(cartesian, m, seed)):
        assert np.array_equal(each.cell_diameter, all_pairs_diameter(each))

    # Interpolated affine functions keep their gradient on every piece.
    boundary_dofs = {
        "p1": mesh.boundary_vertices,
        "ncp1": mesh.boundary_faces,
        "hmm": np.concatenate([np.zeros(mesh.n_cells, dtype=bool), mesh.boundary_faces]),
    }
    for scheme, boundary in boundary_dofs.items():
        gd = build_scheme(scheme, mesh, "neumann")
        table = gd.gradient_table(0.3 + gd.dof_points @ GRAD)
        assert np.max(np.abs(table - GRAD)) <= 1e-12

        # A Dirichlet condition eliminates the boundary DOFs and keeps the
        # columns of the others as they are.
        gdd = build_scheme(scheme, mesh, "dirichlet")
        np.testing.assert_array_equal(gd.free, np.arange(gd.n_dofs))
        np.testing.assert_array_equal(gdd.free, np.flatnonzero(~boundary))
        assert gdd.n_dofs == gd.n_dofs == len(boundary)
        np.testing.assert_array_equal(gdd.dof_points, gd.dof_points[gdd.free])
        for name in OPERATORS:
            np.testing.assert_array_equal(getattr(gdd, name).toarray(),
                                          getattr(gd, name)[:, gdd.free].toarray())

        # cell_load and trace_load are the transposes of the function
        # reconstruction's cell coefficients and of the boundary trace's
        # value at the face centres and slope along the face tangents;
        # each pairing agrees to 1e-12 of the size of its terms.
        rng = np.random.default_rng(seed)
        bids = np.arange(len(gd.boundary_face_ids))
        centers = mesh.face_center[gd.boundary_face_ids]
        tangents = mesh.face_tangent[gd.boundary_face_ids]
        for each in (gd, gdd):
            vec = rng.standard_normal(each.n_free)
            sums = rng.standard_normal((3, mesh.n_cells))
            terms = [s * c for s, c in zip(sums, each.cell_coefficients(vec))]
            assert (abs(vec @ each.cell_load(sums) - sum(t.sum() for t in terms))
                    <= 1e-12 * sum(np.abs(t).sum() for t in terms))
            a, b = rng.standard_normal((2, len(bids)))
            mid = each.trace_at(vec, bids, centers)
            slope = each.trace_at(vec, bids, centers + tangents) - mid
            terms = [a * mid, b * slope]
            assert (abs(vec @ each.trace_load(a, b) - sum(t.sum() for t in terms))
                    <= 1e-12 * sum(np.abs(t).sum() for t in terms))

    # Non-conforming P1 functions are continuous at interior face midpoints.
    gd = build_scheme("ncp1", mesh, "neumann")
    vec = np.random.default_rng(seed).standard_normal(gd.n_dofs)
    interior = np.flatnonzero(~mesh.boundary_faces)
    mids = mesh.face_center[interior]
    left = value_at(gd, vec, mesh.face_cells[interior, 0], mids)
    right = value_at(gd, vec, mesh.face_cells[interior, 1], mids)
    assert np.max(np.abs(left - right)) <= 1e-12
