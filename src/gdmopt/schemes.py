"""Builders for the three gradient discretisations.

* conforming P1: DOFs at vertices, continuous piecewise-affine functions;
* non-conforming P1: DOFs at face midpoints, broken affine functions
  continuous at the midpoints (Crouzeix-Raviart);
* hybrid cell/face scheme ("hmm"): one DOF per cell and per face, a
  piecewise-constant function reconstruction and a stabilised
  cell-plus-face gradient that is constant on the sub-triangle joining
  each face to the cell point.

All three produce a GradientDiscretisation with identical downstream
interfaces.  A Dirichlet condition eliminates the boundary DOFs of each
scheme: every operator is built with one column per remaining DOF (the
unknowns), so no downstream code sees the eliminated ones.
"""

import numpy as np
import scipy.sparse as sp

from .gd_core import GradientDiscretisation

SCHEMES = ("p1", "ncp1", "hmm")


def build_scheme(name, mesh, bc):
    if name == "p1":
        return make_conforming_p1(mesh, bc)
    if name == "ncp1":
        return make_ncp1(mesh, bc)
    if name == "hmm":
        return make_hmm(mesh, bc)
    raise ValueError(f"unknown scheme {name!r}")


def _barycentric_gradients(mesh):
    """Gradients of the three barycentric coordinates per triangle,
    shape (n_cells, 3, 2); entry i is the gradient of the coordinate
    attached to local vertex i."""
    tri = mesh.vertices[mesh.cells]
    grads = np.empty((mesh.n_cells, 3, 2))
    for i in range(3):
        e = tri[:, (i + 2) % 3] - tri[:, (i + 1) % 3]
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= (2.0 * mesh.cell_area)[:, None, None]
    return grads


def _require_triangles(mesh, name):
    if mesh.cells.shape[1] != 3:
        raise ValueError(f"{name} requires a simplicial mesh")


def _unknowns(boundary_dofs, bc):
    """Numbering of the unknowns: the scheme DOF of each unknown (free)
    and the unknown of each scheme DOF (-1 where a Dirichlet condition
    eliminates the DOF)."""
    free = np.flatnonzero(~boundary_dofs) if bc == "dirichlet" else np.arange(len(boundary_dofs))
    unknown = np.full(len(boundary_dofs), -1)
    unknown[free] = np.arange(len(free))
    return free, unknown


def _pattern(rows, cols, shape, unknown):
    """CSR structure of entries at the distinct positions (rows, cols),
    cols numbering scheme DOFs, with one column per unknown: the entries
    of eliminated DOFs are dropped.  This is the one place the Dirichlet
    condition is applied.  The result is an integer CSR matrix whose data
    give, for each stored entry, its index in rows and cols; matrices of
    one pattern share its index arrays (see _csr)."""
    take = np.arange(len(rows))
    if shape[1] < len(unknown):
        cols = unknown[cols]
        take = np.flatnonzero(cols >= 0)
        rows, cols = rows[take], cols[take]
    pattern = sp.coo_matrix((take, (rows, cols)), shape=shape).tocsr()
    if pattern.nnz != len(take):
        raise ValueError("repeated positions in a sparse pattern")
    return pattern


def _csr(pattern, vals):
    """Matrix of the values vals at the entries of a _pattern."""
    return sp.csr_matrix((vals[pattern.data], pattern.indices, pattern.indptr),
                         shape=pattern.shape)


def _affine_scheme(mesh, bc, boundary_dofs, cell_dofs, basis_grad, trace_mid, trace_slope):
    """Scheme whose function reconstruction on each triangle is the affine
    combination of its three local basis functions (DOFs cell_dofs, mean
    1/3 each, gradients basis_grad); the gradient is its slope.  trace_mid
    and trace_slope are the (rows, cols, vals) entries of the boundary
    trace, one row per boundary face.
    """
    free, unknown = _unknowns(boundary_dofs, bc)
    cell = _pattern(np.repeat(np.arange(mesh.n_cells), 3), cell_dofs.ravel(),
                    (mesh.n_cells, len(free)), unknown)
    trace_shape = (np.count_nonzero(mesh.boundary_faces), len(free))
    trace_mid, trace_slope = (_csr(_pattern(rows, cols, trace_shape, unknown), vals)
                              for rows, cols, vals in (trace_mid, trace_slope))
    return GradientDiscretisation(
        mesh=mesh, bc=bc, n_dofs=len(boundary_dofs), free=free,
        value_center=_csr(cell, np.full(3 * mesh.n_cells, 1.0 / 3.0)),
        grad_x=_csr(cell, basis_grad[:, :, 0].ravel()),
        grad_y=_csr(cell, basis_grad[:, :, 1].ravel()),
        trace_mid=trace_mid, trace_slope=trace_slope,
    )


def make_conforming_p1(mesh, bc):
    """Conforming piecewise-affine scheme with vertex DOFs."""
    _require_triangles(mesh, "conforming p1")
    # The trace on a boundary face is affine between its two end
    # vertices, in stored face order.
    bids = np.flatnonzero(mesh.boundary_faces)
    rows = np.repeat(np.arange(len(bids)), 2)
    cols = mesh.faces[bids].ravel()
    inv_len = 1.0 / mesh.face_length[bids]
    trace_mid = rows, cols, np.full(2 * len(bids), 0.5)
    trace_slope = rows, cols, np.column_stack([-inv_len, inv_len]).ravel()
    return _affine_scheme(mesh, bc, mesh.boundary_vertices, mesh.cells,
                          _barycentric_gradients(mesh), trace_mid, trace_slope)


def make_ncp1(mesh, bc):
    """Non-conforming piecewise-affine scheme with face-midpoint DOFs."""
    _require_triangles(mesh, "non-conforming p1")
    # Basis attached to local face i (joining vertices i, i+1) is
    # 1 - 2 * lambda_{i+2}; its gradient is -2 grad(lambda_{i+2}).
    basis_grad = -2.0 * _barycentric_gradients(mesh)[:, [2, 0, 1], :]

    # The trace on a boundary face is its DOF at the midpoint; all three
    # basis functions of the owning cell contribute to its tangential slope.
    bids = np.flatnonzero(mesh.boundary_faces)
    owner = mesh.face_cells[bids, 0]
    trace_mid = np.arange(len(bids)), bids, np.ones(len(bids))
    svals = np.einsum("bjd,bd->bj", basis_grad[owner], mesh.face_tangent[bids])
    trace_slope = (np.repeat(np.arange(len(bids)), 3), mesh.cell_faces[owner].ravel(),
                   svals.ravel())
    return _affine_scheme(mesh, bc, mesh.boundary_faces, mesh.cell_faces, basis_grad,
                          trace_mid, trace_slope)


def make_hmm(mesh, bc):
    """Hybrid cell/face scheme with piecewise-constant reconstruction.

    The gradient on the sub-triangle between a face and the cell point
    is the cell-average gradient plus a stabilisation proportional to
    the deviation of the face value from the affine prediction; the
    stabilisation weight sqrt(2) is the square root of the space
    dimension.
    """
    k = mesh.cells.shape[1]
    n_cells, n_faces = mesh.n_cells, mesh.n_faces
    free, unknown = _unknowns(np.concatenate([np.zeros(n_cells, dtype=bool),
                                              mesh.boundary_faces]), bc)
    n_free = len(free)

    normals = mesh.outward_normals()  # (n_c, k, 2)
    ell = mesh.face_length[mesh.cell_faces]  # (n_c, k)
    dx = mesh.face_offsets()
    d = mesh.face_point_distances(dx, normals)
    if np.any(d <= 0.0):
        raise ValueError("cell point outside its cell: distances must be positive")

    # Cell-average gradient coefficients: grad = sum_j coef[c, j] v_(face j).
    coef = ell[:, :, None] * normals / mesh.cell_area[:, None, None]
    # proj[c, i, j] = coef[c, j] . (face_center_i - cell_point)
    proj = np.einsum("cjd,cid->cij", coef, dx)
    stab = np.sqrt(2.0) / d  # (n_c, k)
    eye = np.eye(k)[None, :, :]
    face_coef = (
        coef[:, None, :, :]
        + stab[:, :, None, None] * (eye - proj)[:, :, :, None] * normals[:, :, None, :]
    )  # (cell, piece i, face j, xy)
    cell_coef = -stab[:, :, None] * normals  # (cell, piece i, xy)

    n_pieces = n_cells * k
    shape = (n_pieces, n_free)
    # Entries of each piece: its cell's k faces, then its cell.
    pieces = _pattern(
        np.concatenate([np.repeat(np.arange(n_pieces), k), np.arange(n_pieces)]),
        np.concatenate([np.tile(mesh.cell_faces[:, None, :], (1, k, 1)).ravel() + n_cells,
                        np.repeat(np.arange(n_cells), k)]),
        shape, unknown)
    grad_x, grad_y = (
        _csr(pieces, np.concatenate([face_coef[..., i].ravel(), cell_coef[..., i].ravel()]))
        for i in (0, 1)
    )

    # Pieces: triangle joining the cell point to each face, oriented ccw.
    ends = mesh.faces[mesh.cell_faces]  # (n_c, k, 2)
    flip = mesh.cell_face_sign < 0
    ends[flip] = ends[flip][:, ::-1]
    piece_tri = np.empty((n_pieces, 3, 2))
    piece_tri[:, 0] = np.repeat(mesh.cell_point, k, axis=0)
    piece_tri[:, 1] = mesh.vertices[ends[:, :, 0].ravel()]
    piece_tri[:, 2] = mesh.vertices[ends[:, :, 1].ravel()]

    value_center = _csr(_pattern(np.arange(n_cells), np.arange(n_cells), (n_cells, n_free),
                                 unknown), np.ones(n_cells))

    bids = np.flatnonzero(mesh.boundary_faces)
    trace_mid = _csr(_pattern(np.arange(len(bids)), n_cells + bids, (len(bids), n_free),
                              unknown), np.ones(len(bids)))
    trace_slope = sp.csr_matrix((len(bids), n_free))

    return GradientDiscretisation(
        mesh=mesh, bc=bc, n_dofs=n_cells + n_faces, free=free,
        value_center=value_center,
        piece_tri=piece_tri, grad_x=grad_x, grad_y=grad_y,
        trace_mid=trace_mid, trace_slope=trace_slope,
    )
