"""Two-dimensional polytopal meshes.

Meshes are collections of non-overlapping convex cells (triangles or
axis-aligned rectangles), each equipped with a cell point used by
cell-centred discretisations.  The module provides structured generators
for the unit square and an L-shaped domain, a shifted Cartesian grid,
uniform red refinement and shape-quality measures.
"""

from dataclasses import dataclass

import numpy as np


class PolytopalMesh:
    """Conforming mesh of convex polygonal cells with oriented faces.

    Parameters
    ----------
    vertices : (n_vertices, 2) float array
        Vertex coordinates.
    cells : (n_cells, k) int array
        Vertex indices of each cell, listed counter-clockwise.  All cells
        share the same vertex count k (3 for triangles, 4 for rectangles).
    cell_points : (n_cells, 2) float array, optional
        One point strictly inside each cell.  Defaults to the centroid.

    Notes
    -----
    Faces are stored once and numbered by first appearance: scanning the
    cells in order and each cell's edges in loop order, a new face gets
    the next number.  Each face is oriented by that first incident cell:
    ``faces[f]`` follows its counter-clockwise loop, and the unit normal
    ``face_normal[f]`` points out of ``face_cells[f, 0]``.  The outward
    normal seen from any incident cell is recovered through
    ``cell_face_sign``.  The DOF order of face-based schemes follows
    this numbering.
    """

    def __init__(self, vertices, cells, cell_points=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=int)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        if self.cells.ndim != 2 or self.cells.shape[1] not in (3, 4):
            raise ValueError("cells must be an (n, 3) or (n, 4) array")
        self.n_vertices = self.vertices.shape[0]
        self.n_cells = self.cells.shape[0]
        k = self.cells.shape[1]

        loops = self.vertices[self.cells]  # (n_cells, k, 2)
        x, y = loops[..., 0], loops[..., 1]
        xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
        signed = 0.5 * np.sum(x * yn - xn * y, axis=1)
        if np.any(signed <= 0.0):
            raise ValueError("cells must be counter-clockwise with positive area")
        self.cell_area = signed

        # Area centroid from the shoelace moments; coincides with the
        # vertex mean for triangles and rectangles.
        cross = x * yn - xn * y
        cx = np.sum((x + xn) * cross, axis=1) / (6.0 * signed)
        cy = np.sum((y + yn) * cross, axis=1) / (6.0 * signed)
        self.cell_centroid = np.column_stack([cx, cy])

        if cell_points is None:
            self.cell_point = self.cell_centroid.copy()
        else:
            self.cell_point = np.asarray(cell_points, dtype=float).copy()
            if self.cell_point.shape != (self.n_cells, 2):
                raise ValueError("cell_points must be (n_cells, 2)")

        diffs = loops[:, :, None, :] - loops[:, None, :, :]
        self.cell_diameter = np.sqrt((diffs ** 2).sum(-1)).max(axis=(1, 2))

        # Face table: one entry per undirected edge of the cell loops,
        # numbered by first appearance in (cell, local edge) order.
        a = self.cells.ravel()
        b = np.roll(self.cells, -1, axis=1).ravel()
        keys = np.minimum(a, b) * self.n_vertices + np.maximum(a, b)
        _, first, inverse, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        if np.any(counts > 2):
            raise ValueError("face shared by more than two cells")
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        edge_face = rank[inverse]
        is_first = np.zeros(len(keys), dtype=bool)
        is_first[first] = True
        first = first[order]
        second = np.flatnonzero(~is_first)
        self.faces = np.column_stack([a[first], b[first]])
        self.face_cells = np.column_stack([first // k, np.full(len(first), -1)])
        self.face_cells[edge_face[second], 1] = second // k
        self.cell_faces = edge_face.reshape(self.n_cells, k)
        self.cell_face_sign = np.where(is_first, 1, -1).reshape(self.n_cells, k)
        self.n_faces = self.faces.shape[0]

        fa = self.vertices[self.faces[:, 0]]
        fb = self.vertices[self.faces[:, 1]]
        self.face_length = np.sqrt(((fb - fa) ** 2).sum(1))
        self.face_center = 0.5 * (fa + fb)
        self.face_tangent = (fb - fa) / self.face_length[:, None]
        # Rotate the tangent by -90 degrees: outward for the first cell,
        # which traverses the face from a to b along its ccw loop.
        self.face_normal = np.column_stack(
            [self.face_tangent[:, 1], -self.face_tangent[:, 0]]
        )

        self.boundary_faces = self.face_cells[:, 1] == -1
        self.boundary_vertices = np.zeros(self.n_vertices, dtype=bool)
        self.boundary_vertices[self.faces[self.boundary_faces].ravel()] = True

        # Read-only (cells, points, weights) per quadrature rule name,
        # filled by analysis.cell_quadrature.
        self.quadrature_cache = {}

    @property
    def h(self):
        """Largest cell diameter."""
        return float(self.cell_diameter.max())

    def outward_normals(self):
        """Outward unit normals per (cell, local face), shape (n_cells, k, 2)."""
        return (
            self.face_normal[self.cell_faces]
            * self.cell_face_sign[:, :, None].astype(float)
        )

    def face_point_distances(self):
        """Orthogonal distance from each cell point to each of its face lines.

        Returns an (n_cells, k) array; entries are positive whenever every
        cell point lies strictly inside its cell.
        """
        n = self.outward_normals()
        d = self.face_center[self.cell_faces] - self.cell_point[:, None, :]
        return np.sum(d * n, axis=2)


@dataclass
class MeshQuality:
    """Shape-regularity (eta) and quasi-uniformity (chi) of a mesh."""

    eta: float
    chi: float


def quality(mesh):
    """Shape measures of a mesh.

    eta is the largest ratio of cell diameter to the distance from the
    cell centroid to its nearest face line; chi compares the n-th power of
    the mesh size with the smallest cell area (n = 2 here), so families of
    meshes with bounded chi are quasi-uniform.
    """
    n = mesh.outward_normals()
    d = mesh.face_center[mesh.cell_faces] - mesh.cell_centroid[:, None, :]
    rho = np.sum(d * n, axis=2).min(axis=1)
    if np.any(rho <= 0.0):
        raise ValueError("degenerate cell: centroid not inside the cell")
    eta = float((mesh.cell_diameter / rho).max())
    chi = float(mesh.h ** 2 / mesh.cell_area.min())
    return MeshQuality(eta, chi)


def _grid_triangulation(x_nodes, y_nodes, keep=None):
    """Triangulate a tensor grid; every square is split along the diagonal
    running from its lower-left to its upper-right corner.

    keep, if given, receives the centroid array of the candidate squares
    and returns a boolean mask of squares to triangulate.
    """
    nx, ny = len(x_nodes) - 1, len(y_nodes) - 1
    xv, yv = np.meshgrid(x_nodes, y_nodes, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(i, j):
        return j * (nx + 1) + i

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    ii, jj = ii.ravel(), jj.ravel()
    if keep is not None:
        centers = np.column_stack(
            [
                0.5 * (x_nodes[ii] + x_nodes[ii + 1]),
                0.5 * (y_nodes[jj] + y_nodes[jj + 1]),
            ]
        )
        mask = keep(centers)
        ii, jj = ii[mask], jj[mask]
    v00, v10 = vid(ii, jj), vid(ii + 1, jj)
    v11, v01 = vid(ii + 1, jj + 1), vid(ii, jj + 1)
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    cells = np.empty((2 * len(ii), 3), dtype=int)
    cells[0::2] = lower
    cells[1::2] = upper

    # Drop unused vertices, keeping the original ordering.
    used = np.unique(cells)
    remap = -np.ones(vertices.shape[0], dtype=int)
    remap[used] = np.arange(len(used))
    return PolytopalMesh(vertices[used], remap[cells])


def build_unit_square_triangulation(m):
    """Uniform triangulation of the unit square.

    Parameters
    ----------
    m : int
        Number of subdivisions per edge; the mesh has 2*m**2 right
        triangles and mesh size sqrt(2)/m.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    nodes = np.linspace(0.0, 1.0, m + 1)
    return _grid_triangulation(nodes, nodes)


def build_lshape_triangulation(m):
    """Uniform triangulation of the L-shaped domain.

    The domain is (-1,1)^2 with the closed quadrant [0,1) x (-1,0]
    removed; it has area 3 and the re-entrant corner at the origin, which
    is always a mesh vertex.  m counts subdivisions per unit edge, so the
    mesh holds 6*m**2 triangles.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    nodes = np.linspace(-1.0, 1.0, 2 * m + 1)

    def keep(centers):
        return ~((centers[:, 0] > 0.0) & (centers[:, 1] < 0.0))

    return _grid_triangulation(nodes, nodes, keep=keep)


def build_cartesian_mesh(m, shift=0.0):
    """m x m Cartesian mesh of the unit square with shifted cell points.

    Parameters
    ----------
    m : int
        Subdivisions per edge.
    shift : float
        Cell points are placed at centroid + shift*(hx, hy).  Must lie in
        [0, 0.5); larger shifts would move cell points onto or past the
        cell boundary.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not 0.0 <= shift < 0.5:
        raise ValueError("shift must lie in [0, 0.5)")
    nodes = np.linspace(0.0, 1.0, m + 1)
    nx = ny = m
    xv, yv = np.meshgrid(nodes, nodes, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(i, j):
        return j * (nx + 1) + i

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    ii, jj = ii.ravel(), jj.ravel()
    cells = np.column_stack(
        [vid(ii, jj), vid(ii + 1, jj), vid(ii + 1, jj + 1), vid(ii, jj + 1)]
    )
    h = 1.0 / m
    centers = np.column_stack(
        [0.5 * (nodes[ii] + nodes[ii + 1]), 0.5 * (nodes[jj] + nodes[jj + 1])]
    )
    points = centers + shift * h
    mesh = PolytopalMesh(vertices, cells, cell_points=points)
    if np.any(mesh.face_point_distances() <= 0.0):
        raise ValueError("shift places a cell point outside its cell")
    return mesh


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
