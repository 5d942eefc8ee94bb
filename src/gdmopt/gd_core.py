"""Core gradient-discretisation container and quality diagnostics.

A gradient discretisation bundles a finite-dimensional DOF space with
three linear reconstruction operators: a gradient reconstruction that is
constant on every "piece" (a cell, or a sub-triangle of a cell for
cell-centred schemes), a function reconstruction that is affine with the
gradient as its slope when the pieces are the cells and piecewise
constant otherwise, and, for Neumann problems, a boundary trace
reconstruction that is affine along every boundary face.  The DOF space
is that of the unknowns: a Dirichlet condition has eliminated the
boundary DOFs before any operator is built.  All discrete bilinear forms reduce to exact integrals of these
piecewise polynomials.
"""

import functools
import math
from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.sparse as sp

from .analysis import (
    affine_at,
    block_sums,
    cell_blocks,
    centroid_offsets,
    quadrature_blocks,
    segment_quadrature,
    triangle_blocks,
)
from .assembly import SolverError, SPDFactor, scaled_transpose

# compute_cd solves its pencils by power iteration, which stops once the
# eigenvalue changes by at most POWER_TOL relatively and raises after
# POWER_MAX_ITER steps.
POWER_TOL = 1e-8
POWER_MAX_ITER = 10000


@dataclass(eq=False, kw_only=True)
class GradientDiscretisation:
    """Reconstruction operators of one scheme on one mesh, on its unknowns:
    the scheme's DOFs minus those a Dirichlet condition eliminates.

    n_dofs counts the scheme's DOFs before elimination and free maps each
    unknown to its scheme DOF number; every DOF vector has length
    n_free = len(free).  The sparse matrices below have one column per
    unknown and the rows listed, or construction raises ValueError.

    value_center : (n_cells, n_free)
        Value of the function reconstruction at the centroid of each cell.
    grad_x, grad_y : (n_pieces, n_free)
        Constant gradient reconstruction per piece; the pieces of cell K
        tile K.
    piece_tri : (n_pieces, 3, 2), optional
        Vertex triangles of the pieces of a cell-centred scheme, k per
        cell of k faces.  Without it the pieces are the mesh cells,
        which must be triangles, and no copy of them is stored.
    trace_mid, trace_slope : (n_boundary_faces, n_free)
        Boundary trace reconstruction, affine along each boundary face
        (rows follow boundary_face_ids).

    Derived on construction: n_free, the boundary_face_ids, piece_area
    and ``cell_centred``, true when piece_tri is given.  With one piece
    per cell the function reconstruction on cell K is
    ``center[K] + (grad_x, grad_y)[K] . (x - centroid_K)``, the affine
    function whose gradient is its slope, which compute_wd's face-only
    formula relies on; a cell-centred one is ``center[K]``.  Every
    reader of the piece triangles goes through piece_triangles, one
    span of pieces at a time.  The Gram matrices and norm_factor are
    built on first read and then cached; no quadrature point set is
    kept.
    """

    mesh: Any
    bc: str
    n_dofs: int
    free: np.ndarray
    value_center: sp.csr_matrix
    grad_x: sp.csr_matrix
    grad_y: sp.csr_matrix
    trace_mid: sp.csr_matrix
    trace_slope: sp.csr_matrix
    piece_tri: np.ndarray | None = None

    def __post_init__(self):
        if self.bc not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        self.n_free = len(self.free)
        self.boundary_face_ids = np.flatnonzero(self.mesh.boundary_faces)
        self.cell_centred = self.piece_tri is not None
        n_pieces = len(self.piece_tri) if self.cell_centred else self.mesh.n_cells
        n_bfaces = len(self.boundary_face_ids)
        if any(a.shape != (n, self.n_free) for a, n in (
                (self.value_center, self.mesh.n_cells), (self.grad_x, n_pieces),
                (self.grad_y, n_pieces), (self.trace_mid, n_bfaces), (self.trace_slope, n_bfaces))):
            raise ValueError("operators need one row per cell, piece or boundary face and one "
                             "column per unknown")
        if not self.cell_centred and self.mesh.cells.shape[1] != 3:
            raise ValueError("pieces that are the mesh cells must be triangles")
        tri = self.piece_triangles()
        e1 = tri[:, 1] - tri[:, 0]
        e2 = tri[:, 2] - tri[:, 0]
        self.piece_area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        if np.any(self.piece_area <= 0.0):
            raise ValueError("degenerate gradient piece")

    @property
    def n_pieces(self):
        """Number of gradient pieces: rows of grad_x and grad_y."""
        return len(self.piece_area)

    def piece_triangles(self, span=slice(None)):
        """Vertex triangles of the pieces in span (a slice), shape
        (n, 3, 2): the stored sub-triangles of a cell-centred scheme, or
        the mesh cells gathered afresh."""
        if self.cell_centred:
            return self.piece_tri[span]
        return self.mesh.vertices[self.mesh.cells[span]]

    # -- reconstruction operators ------------------------------------

    def cell_coefficients(self, vec):
        """Per-cell coefficients (c, sx, sy) of the function reconstruction
        of a DOF vector: on cell K it is c[K] + sx[K] dx + sy[K] dy, with
        (dx, dy) the offset from the centroid of K (analysis.affine_at).
        The slopes are the gradient, or zero for a cell-centred scheme."""
        if self.cell_centred:
            zero = np.zeros(self.mesh.n_cells)
            return self.value_center @ vec, zero, zero
        return self.value_center @ vec, self.grad_x @ vec, self.grad_y @ vec

    def cell_load(self, sums):
        """Transpose of cell_coefficients: the load of the per-cell sums
        (s0, s1, s2) against the coefficients (c, sx, sy).  A cell-centred
        scheme reads s0 alone."""
        load = self.value_center.T @ sums[0]
        if not self.cell_centred:
            load += self.grad_x.T @ sums[1]
            load += self.grad_y.T @ sums[2]
        return load

    def gradient_table(self, vec):
        """Gradient reconstruction per piece, shape (n_pieces, 2)."""
        return np.column_stack([self.grad_x @ vec, self.grad_y @ vec])

    def trace_at(self, vec, bfaces, pts):
        """Boundary trace at points on the given boundary faces.

        bfaces indexes into boundary_face_ids.
        """
        mesh = self.mesh
        fids = self.boundary_face_ids[bfaces]
        arc = np.sum((pts - mesh.face_center[fids]) * mesh.face_tangent[fids], axis=1)
        return (self.trace_mid @ vec)[bfaces] + arc * (self.trace_slope @ vec)[bfaces]

    def trace_load(self, mid, slope):
        """Transpose of the boundary trace: the load of the per-face sums
        mid and slope (rows follow boundary_face_ids) against the trace at
        each face centre and its slope along the face tangent."""
        return self.trace_mid.T @ mid + self.trace_slope.T @ slope

    # -- exact Gram matrices and couplings ----------------------------

    @functools.cached_property
    def mass_matrix(self):
        """Exact L2 Gram matrix of the function reconstruction."""
        mesh = self.mesh
        c = self.value_center
        m = scaled_transpose(c, mesh.cell_area) @ c.tocsc()
        if self.cell_centred:
            return m.tocsr()
        # Second moments about the centroid per cell, by the gauss3 rule.
        jxx, jxy, jyy = np.empty((3, mesh.n_cells))
        for block, cells, pts, wts in quadrature_blocks(mesh, "gauss3"):
            dx, dy = centroid_offsets(mesh, cells, pts)
            jxx[block] = block_sums(block, cells, wts * dx ** 2)
            jxy[block] = block_sums(block, cells, wts * dx * dy)
            jyy[block] = block_sums(block, cells, wts * dy ** 2)
        sx, sy = self.grad_x, self.grad_y
        sx_csc, sy_csc = sx.tocsc(), sy.tocsc()
        m += scaled_transpose(sx, jxx) @ sx_csc + scaled_transpose(sy, jyy) @ sy_csc
        m += scaled_transpose(sx, jxy) @ sy_csc + scaled_transpose(sy, jxy) @ sx_csc
        return m.tocsr()

    @functools.cached_property
    def gradient_gram(self):
        """Exact L2 Gram matrix of the gradient reconstruction."""
        sx, sy = self.grad_x, self.grad_y
        return (scaled_transpose(sx, self.piece_area) @ sx.tocsc()
                + scaled_transpose(sy, self.piece_area) @ sy.tocsc()).tocsr()

    @functools.cached_property
    def trace_gram(self):
        """Exact L2 Gram matrix of the boundary trace reconstruction."""
        ell = self.mesh.face_length[self.boundary_face_ids]
        mid, slope = self.trace_mid, self.trace_slope
        t = scaled_transpose(mid, ell) @ mid.tocsc()
        t += scaled_transpose(slope, ell ** 3 / 12.0) @ slope.tocsc()
        return t.tocsr()

    @functools.cached_property
    def norm_factor(self):
        """Factor of the discretisation-norm Gram matrix: the gradient
        Gram, plus the mass under Neumann conditions (a quadratic
        surrogate), i.e. stiffness(1) or stiffness(0).  It is the only
        factor a diagnostics row makes: the C_D pencils and W_D solve
        with it, and it preconditions the misfit solve of S_D."""
        return SPDFactor(self.stiffness(1.0 if self.bc == "neumann" else 0.0))

    def stiffness(self, reaction=0.0):
        """Matrix of -lap + reaction for a finite reaction >= 0 (ValueError
        otherwise): gradient Gram + reaction * mass, in CSR format, which
        SPDFactor keeps without a copy.  A zero reaction adds no mass
        term: the matrix is then the cached gradient_gram itself."""
        if not 0.0 <= reaction < math.inf:
            raise ValueError(f"reaction must be finite and nonnegative, not {reaction}")
        if reaction == 0.0:
            return self.gradient_gram
        return self.gradient_gram + reaction * self.mass_matrix

    def value_load(self, rule, sample):
        """Load vectors sum(w * v * basis) over the points of the named
        cell quadrature rule, one row per array v that sample gives.

        The points are built one block of whole cells at a time
        (analysis.quadrature_blocks), and sample(pts) returns the list of
        value arrays at the points pts of a block; it gives the same
        number of arrays for every block.  Each cell's sums add its
        points in order, as one pass over all points would, and the loads
        share each block's offsets from the cell centroids.  Each
        operator then takes one product for all loads.  A cell-centred
        scheme, whose reconstruction has no slope, sums no moments.
        """
        mesh = self.mesh
        sums = None
        for block, cells, pts, wts in quadrature_blocks(mesh, rule):
            vals = sample(pts)
            offsets = () if self.cell_centred else centroid_offsets(mesh, cells, pts)
            if sums is None:
                sums = np.empty((1 + len(offsets), mesh.n_cells, len(vals)))
            for j, v in enumerate(vals):
                wv = wts * v
                for row, part in enumerate((wv, *(wv * o for o in offsets))):
                    sums[row, block, j] = block_sums(block, cells, part)
        return self.cell_load(sums).T

    def gradient_load(self, rule, sample):
        """Load vector sum(w * v . gradient basis) over the points of the
        named triangle rule on the pieces, for the (n, 2) values v that
        sample(pts) gives at the points pts of a block.

        The points are built one block of whole pieces at a time
        (analysis.triangle_blocks).  Each piece's sums add its points in
        order, as one pass over all points would, and each gradient
        operator then takes one product.
        """
        sums = np.empty((2, self.n_pieces))
        for block, pieces, pts, wts in triangle_blocks(self, rule):
            vals = sample(pts)
            for row in (0, 1):
                sums[row, block] = block_sums(block, pieces, wts * vals[:, row])
        return self.grad_x.T @ sums[0] + self.grad_y.T @ sums[1]


def _max_generalized_eig(a, gd):
    """Largest eigenvalue of a x = lambda b x, with b the SPD norm Gram
    matrix of gd (see GradientDiscretisation.norm_factor)."""
    n = a.shape[0]
    factor = gd.norm_factor
    b, solve = factor.matrix, factor.solve
    # Deterministic start vector with a ramp so it is never orthogonal
    # to the leading eigenvector by symmetry.
    x = 1.0 + 0.01 * np.arange(n) / n
    lam = 0.0
    for _ in range(POWER_MAX_ITER):
        ax = a @ x
        lam_new = float(x @ ax) / float(x @ (b @ x))
        x = solve(ax)
        x /= math.sqrt(float(x @ x))
        if abs(lam_new - lam) <= POWER_TOL * abs(lam_new):
            return lam_new
        lam = lam_new
    raise SolverError(f"power iteration for the coercivity constant did not settle "
                      f"to {POWER_TOL:.1e} in {POWER_MAX_ITER} steps")


def compute_cd(gd):
    """Coercivity constant of a gradient discretisation.

    Dirichlet: the largest ratio of reconstructed-function norm to
    reconstructed-gradient norm, i.e. the square root of the largest
    generalized eigenvalue of the (mass, gradient-Gram) pencil.  Neumann:
    the larger of the trace-to-norm and function-to-norm ratios, with the
    quadratic form gradient-Gram + mass standing in for the
    discretisation norm (equivalent to it within a factor sqrt(2)).

    Each pencil is solved by power iteration to POWER_TOL in the
    eigenvalue, with the norm Gram matrix factored once per
    discretisation (norm_factor).
    """
    if gd.n_free == 0:
        raise ValueError("no free DOFs: coercivity constant undefined")
    if gd.bc == "dirichlet":
        return math.sqrt(_max_generalized_eig(gd.mass_matrix, gd))
    lam_trace = _max_generalized_eig(gd.trace_gram, gd)
    lam_value = _max_generalized_eig(gd.mass_matrix, gd)
    return math.sqrt(max(lam_trace, lam_value))


def _face_flux_integrals(mesh, flux):
    """Per-face integrals of flux . n0 and of its first arclength moment,
    by the 3-point segment rule built one block of whole faces at a
    time."""
    i1, i2 = np.empty((2, mesh.n_faces))
    for block in cell_blocks(mesh.n_faces, 3):
        faces, pts, wts, arc = segment_quadrature(*mesh.vertices[mesh.faces[block].T])
        faces += block.start
        vals = np.asarray(flux(pts), dtype=float)
        wfn = wts * (vals * mesh.face_normal[faces]).sum(1)
        i1[block] = block_sums(block, faces, wfn)
        i2[block] = block_sums(block, faces, wfn * arc)
    return i1, i2


def compute_wd(gd, flux):
    """Conformity defect of a gradient discretisation against a flux field.

    Measures how far the reconstructed pair (function, gradient) is from
    satisfying integration by parts against ``flux``: the divergence
    theorem is applied cell by cell, so the residual is assembled from
    face integrals of flux . n (plus volume integrals of flux itself for
    cell-centred schemes, whose gradient is not the broken slope of the
    function reconstruction) and no derivative of ``flux`` is ever
    evaluated.  The result is the norm of the residual functional, i.e.
    the largest residual over DOF vectors of unit gradient norm
    (Dirichlet) or unit discretisation norm (Neumann, quadratic
    surrogate).

    Every pass runs one block at a time: the face rule over blocks of
    whole faces, the (cell, face) pairs over blocks of whole cells and
    the gauss7 rule over blocks of whole pieces, so no array of a whole
    point set is made.  The per-face, per-cell and per-piece sums add
    their terms in the order one pass would, so W_D does not depend on
    the block size.
    """
    if gd.n_free == 0:
        raise ValueError("no free DOFs: conformity defect undefined")
    mesh = gd.mesh
    i1, i2 = _face_flux_integrals(mesh, flux)
    # On face f of cell K, x = x_f + arc t_f and the trace is
    # c_K + S_K . (x_f - x_K) + arc S_K . t_f, so with the outward sign s
    # its flux integral is s i1 (c_K + S_K . (x_f - x_K)) + s i2 S_K . t_f.
    k = mesh.cells.shape[1]
    # A cell-centred scheme has no slope, so only the c_K sums are made.
    sums = np.empty((1 if gd.cell_centred else 3, mesh.n_cells))
    for block in cell_blocks(mesh.n_cells, k):
        cells = np.repeat(np.arange(block.start, block.stop), k)
        faces, sign = mesh.cell_faces[block].ravel(), mesh.cell_face_sign[block].ravel()
        j1 = sign * i1[faces]
        sums[0, block] = block_sums(block, cells, j1)
        if gd.cell_centred:
            continue
        j2 = sign * i2[faces]
        d = mesh.face_center[faces] - mesh.cell_centroid[cells]
        t = mesh.face_tangent[faces]
        sums[1, block] = block_sums(block, cells, j1 * d[:, 0] + j2 * t[:, 0])
        sums[2, block] = block_sums(block, cells, j1 * d[:, 1] + j2 * t[:, 1])
    r = gd.cell_load(sums)
    if gd.cell_centred:
        r += gd.gradient_load("gauss7", lambda pts: np.asarray(flux(pts), dtype=float))
    if gd.bc == "neumann":
        ids = gd.boundary_face_ids
        r -= gd.trace_load(i1[ids], i2[ids])
    z = gd.norm_factor.solve(r)
    return math.sqrt(max(float(r @ z), 0.0))


def compute_sd_upper(gd, fn, grad_fn):
    """Upper bound on the consistency defect for a smooth target function.

    Minimises the squared misfit of function and gradient reconstructions
    (plus the boundary trace under Neumann conditions) over all DOF
    vectors, then reports the sum of the individual misfit norms at the
    minimiser.  Any DOF vector bounds the defect from above, and the
    least-squares minimiser is within a factor sqrt(2) of optimal for the
    sum objective (sqrt(3) with the trace term).

    The minimiser solves the misfit system (mass + gradient Gram, + trace
    Gram under Neumann conditions) by conjugate gradients preconditioned
    with gd.norm_factor (SPDFactor.cg_solve).  The misfit matrix is the
    norm Gram matrix plus the mass (Dirichlet) or the trace Gram
    (Neumann), which C_D^2 times the norm Gram bounds, so the
    preconditioned condition number is at most 1 + C_D^2 on every mesh.

    Every point set is sampled once.  The gauss7 points on the cells
    (analysis.quadrature_blocks) and on the pieces (analysis.
    triangle_blocks) are built one block at a time, for the load and
    again for the misfit; only the target's values and gradients there
    are kept between the two passes.  The 3-point rule on the boundary
    faces (analysis.segment_quadrature), one point set of O(1/h) points,
    is built whole and serves the load and the misfit.  All are dropped
    on return: gd keeps no point set.
    """
    if gd.n_free == 0:
        raise ValueError("no free DOFs: consistency defect undefined")
    # The target values and gradients of each gauss7 block, kept for the
    # misfit passes.
    fvals, gvals = [], []

    def sample(pts):
        fvals.append(np.asarray(fn(pts), dtype=float))
        return fvals[-1:]

    def sample_grad(pts):
        gvals.append(np.asarray(grad_fn(pts), dtype=float))
        return gvals[-1]

    b = gd.value_load("gauss7", sample)[0] + gd.gradient_load("gauss7", sample_grad)
    if gd.bc == "neumann":
        ends = gd.mesh.faces[gd.boundary_face_ids].T
        bfaces, bpts, bwts, arc = segment_quadrature(*gd.mesh.vertices[ends])
        bvals = np.asarray(fn(bpts), dtype=float)
        n, wv = len(gd.boundary_face_ids), bwts * bvals
        b = b + gd.trace_load(np.bincount(bfaces, wv, n), np.bincount(bfaces, wv * arc, n))

    a = gd.mass_matrix + gd.gradient_gram
    if gd.bc == "neumann":
        a = a + gd.trace_gram
    z = gd.norm_factor.cg_solve(a, b)

    # Misfit norms by direct quadrature of the reconstructions; this
    # avoids the cancellation a quadratic-form expansion would suffer
    # when the target is exactly representable.
    coefficients = gd.cell_coefficients(z)
    sq = 0.0
    for (_, cells, pts, wts), f in zip(quadrature_blocks(gd.mesh, "gauss7"), fvals):
        dval = affine_at(coefficients, cells, centroid_offsets(gd.mesh, cells, pts)) - f
        sq += float(wts @ dval ** 2)
    total = math.sqrt(sq)
    table = gd.gradient_table(z)
    sq = 0.0
    for (_, pieces, _, wts), g in zip(triangle_blocks(gd, "gauss7"), gvals):
        sq += float(wts @ ((table[pieces] - g) ** 2).sum(1))
    total += math.sqrt(sq)
    if gd.bc == "neumann":
        dtr = gd.trace_at(z, bfaces, bpts) - bvals
        total += math.sqrt(float(bwts @ dtr ** 2))
    return total
