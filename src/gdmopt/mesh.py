"""Two-dimensional polytopal meshes.

Meshes are collections of non-overlapping convex cells (triangles or
axis-aligned rectangles), each equipped with a cell point used by
cell-centred discretisations.  The module provides structured generators
for the unit square, an L-shaped domain and a shifted Cartesian grid.
"""

from itertools import combinations

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

        # Longest distance between two vertices: an edge or a diagonal.
        sq = np.zeros(self.n_cells)
        for i, j in combinations(range(k), 2):
            np.maximum(sq, (x[:, i] - x[:, j]) ** 2 + (y[:, i] - y[:, j]) ** 2, out=sq)
        self.cell_diameter = np.sqrt(sq)
        # The cell loops and their products are not needed from here on.
        del loops, x, y, xn, yn, cross, sq

        # Face table: one entry per undirected edge of the cell loops,
        # numbered by first appearance in (cell, local edge) order.  The
        # keys are int64, as is the cells array: min * n_vertices + max
        # outgrows int32 from about 46k vertices.
        a = self.cells.ravel()
        b = np.roll(self.cells, -1, axis=1).ravel()
        keys = np.minimum(a, b)
        keys *= self.n_vertices
        keys += np.maximum(a, b)
        # Equal keys are one face.  A stable sort lists them in edge order,
        # so the first of each run is the face's first appearance.
        perm = np.argsort(keys, kind="stable")
        sorted_keys = keys[perm]
        del keys
        starts = np.empty(len(perm), dtype=bool)
        starts[:1] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
        del sorted_keys
        if np.any(~starts[1:-1] & ~starts[2:]):
            raise ValueError("face shared by more than two cells")
        first = perm[starts]
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        # Face of each edge: the rank of its run of equal keys.
        run = np.cumsum(starts)
        run -= 1
        edge_face = np.empty_like(perm)
        edge_face[perm] = rank[run]
        del perm, run, rank
        is_first = np.zeros(len(a), dtype=bool)
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

    def face_offsets(self):
        """Vector from each cell point to the centre of each of its faces,
        shape (n_cells, k, 2)."""
        return self.face_center[self.cell_faces] - self.cell_point[:, None, :]

    def face_point_distances(self, offsets=None, normals=None):
        """Orthogonal distance from each cell point to each of its face lines.

        Returns an (n_cells, k) array; entries are positive whenever every
        cell point lies strictly inside its cell.  A caller that holds
        face_offsets() and outward_normals() already passes them in.
        """
        if offsets is None:
            offsets = self.face_offsets()
        if normals is None:
            normals = self.outward_normals()
        return np.sum(offsets * normals, axis=2)


def _grid_squares(nodes):
    """Tensor grid on nodes x nodes: its vertices, the ccw corner ids
    (v00, v10, v11, v01) of each square, row by row from the bottom, and
    the square centres."""
    n = len(nodes) - 1
    xv, yv = np.meshgrid(nodes, nodes, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ii, jj = ii.ravel(), jj.ravel()
    v00 = jj * (n + 1) + ii
    corners = np.column_stack([v00, v00 + 1, v00 + n + 2, v00 + n + 1])
    centers = np.column_stack(
        [0.5 * (nodes[ii] + nodes[ii + 1]), 0.5 * (nodes[jj] + nodes[jj + 1])]
    )
    return vertices, corners, centers


def _grid_triangulation(nodes, keep=None):
    """Triangulate the tensor grid on nodes x nodes; every square is split
    along the diagonal running from its lower-left to its upper-right
    corner.

    keep, if given, receives the centroid array of the candidate squares
    and returns a boolean mask of squares to triangulate.
    """
    vertices, corners, centers = _grid_squares(nodes)
    if keep is not None:
        corners = corners[keep(centers)]
    cells = np.empty((2 * len(corners), 3), dtype=int)
    cells[0::2] = corners[:, [0, 1, 2]]
    cells[1::2] = corners[:, [0, 2, 3]]

    # Drop unused vertices, keeping the original ordering; the grid
    # arrays are released before the mesh is built.
    used = np.flatnonzero(np.bincount(cells.ravel(), minlength=len(vertices)))
    remap = -np.ones(vertices.shape[0], dtype=int)
    remap[used] = np.arange(len(used))
    vertices, cells = vertices[used], remap[cells]
    del corners, centers, used, remap
    return PolytopalMesh(vertices, cells)


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
    return _grid_triangulation(nodes)


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

    return _grid_triangulation(nodes, keep=keep)


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
    vertices, cells, centers = _grid_squares(np.linspace(0.0, 1.0, m + 1))
    h = 1.0 / m
    points = centers + shift * h
    mesh = PolytopalMesh(vertices, cells, cell_points=points)
    if np.any(mesh.face_point_distances() <= 0.0):
        raise ValueError("shift places a cell point outside its cell")
    return mesh
