"""Core gradient-discretisation container and quality diagnostics.

A gradient discretisation bundles a finite-dimensional DOF space with
three linear reconstruction operators: a function reconstruction that is
affine on every cell, a gradient reconstruction that is constant on every
"piece" (a cell, or a sub-triangle of a cell for cell-centred schemes),
and, for Neumann problems, a boundary trace reconstruction that is affine
along every boundary face.  Dirichlet conditions are imposed by masking
DOFs.  All discrete bilinear forms reduce to exact integrals of these
piecewise polynomials.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh

from .analysis import cell_quadrature, segment_quadrature, triangle_quadrature
from .assembly import SPDFactor


class GradientDiscretisation:
    """Reconstruction operators of one scheme on one mesh.

    The sparse matrices below all have one column per DOF.

    value_center, value_slope_x, value_slope_y : (n_cells, n_dofs)
        Function reconstruction on cell K evaluated as
        ``center[K] + slope[K] . (x - centroid_K)``.
    grad_x, grad_y : (n_pieces, n_dofs)
        Constant gradient reconstruction per piece; the pieces of cell K
        tile K, and piece_tri stores their vertex triangles.
    halfface_mid, halfface_slope : (n_cells * k, n_dofs)
        Trace of the cell-side function reconstruction on each (cell,
        local face) incidence, affine in the arclength offset from the
        face midpoint; rows are aligned with mesh.cell_faces.ravel().
    trace_mid, trace_slope : (n_boundary_faces, n_dofs)
        Boundary trace reconstruction, affine along each boundary face
        (rows follow boundary_face_ids).
    """

    def __init__(self, mesh, scheme, bc, n_dofs, dof_points, dirichlet_mask,
                 value_center, value_slope_x, value_slope_y,
                 piece_cell, piece_tri, grad_x, grad_y,
                 halfface_mid, halfface_slope,
                 trace_mid, trace_slope,
                 grad_matches_value_slope, sample_policy):
        if bc not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown boundary condition {bc!r}")
        self.mesh = mesh
        self.scheme = scheme
        self.bc = bc
        self.n_dofs = n_dofs
        self.dof_points = dof_points
        self.dirichlet_mask = dirichlet_mask
        self.free = np.flatnonzero(~dirichlet_mask)
        self.n_free = len(self.free)
        self.value_center = value_center
        self.value_slope_x = value_slope_x
        self.value_slope_y = value_slope_y
        self.piece_cell = piece_cell
        self.piece_tri = piece_tri
        self.grad_x = grad_x
        self.grad_y = grad_y
        self.halfface_mid = halfface_mid
        self.halfface_slope = halfface_slope
        self.boundary_face_ids = np.flatnonzero(mesh.boundary_faces)
        self.trace_mid = trace_mid
        self.trace_slope = trace_slope
        self.grad_matches_value_slope = grad_matches_value_slope
        self.sample_policy = sample_policy

        e1 = piece_tri[:, 1] - piece_tri[:, 0]
        e2 = piece_tri[:, 2] - piece_tri[:, 0]
        self.piece_area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        if np.any(self.piece_area <= 0.0):
            raise ValueError("degenerate gradient piece")
        self.piece_center = piece_tri.mean(axis=1)
        self.piece_center.setflags(write=False)
        self._piece_quadrature = None
        self._mass = None
        self._grad_gram = None
        self._trace_gram = None
        self._factor_kind = None
        self._factor = None

    # -- reconstruction operators ------------------------------------

    def interpolate(self, fn):
        """DOF vector sampling fn at the DOF points (zero on masked DOFs)."""
        vec = np.asarray(fn(self.dof_points), dtype=float)
        vec = vec.copy()
        vec[self.dirichlet_mask] = 0.0
        return vec

    def value_at(self, vec, cells, pts):
        """Function reconstruction of a DOF vector at points inside cells."""
        c = self.value_center @ vec
        sx = self.value_slope_x @ vec
        sy = self.value_slope_y @ vec
        d = pts - self.mesh.cell_centroid[cells]
        return c[cells] + sx[cells] * d[:, 0] + sy[cells] * d[:, 1]

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

    def piece_quadrature(self):
        """Degree-5 rule on every gradient piece, built once and read-only.

        Returns (pieces, points, weights): the owning piece of each point,
        the points and their weights.
        """
        if self._piece_quadrature is None:
            pts, wts = triangle_quadrature(self.piece_tri, "gauss7")
            q = len(wts) // len(self.piece_area)
            pieces = np.repeat(np.arange(len(self.piece_area)), q)
            for a in (pieces, pts, wts):
                a.setflags(write=False)
            self._piece_quadrature = pieces, pts, wts
        return self._piece_quadrature

    # -- exact Gram matrices and couplings ----------------------------

    def mass_matrix(self):
        """Exact L2 Gram matrix of the function reconstruction."""
        if self._mass is None:
            mesh = self.mesh
            cells, pts, wts = cell_quadrature(mesh, "gauss3")
            d = pts - mesh.cell_centroid[cells]
            jxx = np.bincount(cells, wts * d[:, 0] ** 2, mesh.n_cells)
            jxy = np.bincount(cells, wts * d[:, 0] * d[:, 1], mesh.n_cells)
            jyy = np.bincount(cells, wts * d[:, 1] ** 2, mesh.n_cells)
            c, sx, sy = self.value_center, self.value_slope_x, self.value_slope_y
            m = c.T @ sp.diags(mesh.cell_area) @ c
            m += sx.T @ sp.diags(jxx) @ sx + sy.T @ sp.diags(jyy) @ sy
            m += sx.T @ sp.diags(jxy) @ sy + sy.T @ sp.diags(jxy) @ sx
            self._mass = m.tocsr()
        return self._mass

    def gradient_gram(self):
        """Exact L2 Gram matrix of the gradient reconstruction."""
        if self._grad_gram is None:
            w = sp.diags(self.piece_area)
            g = self.grad_x.T @ w @ self.grad_x + self.grad_y.T @ w @ self.grad_y
            self._grad_gram = g.tocsr()
        return self._grad_gram

    def trace_gram(self):
        """Exact L2 Gram matrix of the boundary trace reconstruction."""
        if self._trace_gram is None:
            ell = self.mesh.face_length[self.boundary_face_ids]
            t = self.trace_mid.T @ sp.diags(ell) @ self.trace_mid
            t += self.trace_slope.T @ sp.diags(ell ** 3 / 12.0) @ self.trace_slope
            self._trace_gram = t.tocsr()
        return self._trace_gram

    def _cached_factor(self, kind, gram):
        """SPDFactor of gram(), kept until a factor of another kind is
        asked for.  A diagnostics row asks for the norm factor (C_D, W_D)
        and then the misfit factor (S_D of state and adjoint), so one
        slot factors each once and holds one factor at a time."""
        if self._factor_kind != kind:
            self._factor = self._factor_kind = None  # free the old factor first
            self._factor = SPDFactor(gram())
            self._factor_kind = kind
        return self._factor

    def misfit_factor(self):
        """Factor of the misfit Gram matrix on free DOFs: mass plus
        gradient Gram, plus trace Gram under Neumann conditions."""
        def gram():
            a = self.mass_matrix() + self.gradient_gram()
            if self.bc == "neumann":
                a = a + self.trace_gram()
            return self.restrict_matrix(a)

        return self._cached_factor("misfit", gram)

    def norm_gram(self):
        """Discretisation-norm Gram matrix on free DOFs: gradient Gram,
        plus mass under Neumann conditions (a quadratic surrogate)."""
        a = self.gradient_gram()
        if self.bc == "neumann":
            a = a + self.mass_matrix()
        return self.restrict_matrix(a)

    def norm_factor(self):
        """Factor of norm_gram(), shared by the C_D pencils and W_D."""
        return self._cached_factor("norm", self.norm_gram)

    def stiffness(self, diffusion=None, reaction=0.0):
        """Diffusion form of the gradient reconstruction, plus an optional
        reaction multiple of the mass matrix.  Exact for constant
        coefficients; variable coefficients are sampled at piece centers.
        """
        w = self.piece_area
        gx, gy = self.grad_x, self.grad_y
        if diffusion is None:
            a = gx.T @ sp.diags(w) @ gx + gy.T @ sp.diags(w) @ gy
        else:
            tensor = np.asarray(diffusion(self.piece_center), dtype=float)
            a = gx.T @ sp.diags(w * tensor[:, 0, 0]) @ gx
            a += gx.T @ sp.diags(w * tensor[:, 0, 1]) @ gy
            a += gy.T @ sp.diags(w * tensor[:, 1, 0]) @ gx
            a += gy.T @ sp.diags(w * tensor[:, 1, 1]) @ gy
        if reaction:
            a = a + reaction * self.mass_matrix()
        return a.tocsr()

    def cell_coupling(self):
        """Exact integrals of the function reconstruction basis per cell,
        shape (n_dofs, n_cells); column K holds the load of the indicator
        of K.  Exact because the reconstruction is affine per cell.
        """
        return (self.value_center.T @ sp.diags(self.mesh.cell_area)).tocsr()

    def boundary_coupling(self):
        """Exact integrals of the trace basis per boundary face,
        shape (n_dofs, n_boundary_faces)."""
        ell = self.mesh.face_length[self.boundary_face_ids]
        return (self.trace_mid.T @ sp.diags(ell)).tocsr()

    def value_load(self, cells, pts, wts, vals):
        """Load vector sum(w * vals * basis) for point values on cells."""
        mesh = self.mesh
        d = pts - mesh.cell_centroid[cells]
        wv = wts * vals
        s0 = np.bincount(cells, wv, mesh.n_cells)
        sx = np.bincount(cells, wv * d[:, 0], mesh.n_cells)
        sy = np.bincount(cells, wv * d[:, 1], mesh.n_cells)
        return self.value_center.T @ s0 + self.value_slope_x.T @ sx + self.value_slope_y.T @ sy

    def boundary_load(self, fn, npoints=3):
        """Load vector of the boundary trace basis against fn on the boundary."""
        mesh = self.mesh
        ids = self.boundary_face_ids
        a = mesh.vertices[mesh.faces[ids, 0]]
        b = mesh.vertices[mesh.faces[ids, 1]]
        pts, wts, arc = segment_quadrature(a, b, npoints)
        faces = np.repeat(np.arange(len(ids)), npoints)
        wv = wts * np.asarray(fn(pts), dtype=float)
        s0 = np.bincount(faces, wv, len(ids))
        s1 = np.bincount(faces, wv * arc, len(ids))
        return self.trace_mid.T @ s0 + self.trace_slope.T @ s1

    # -- DOF masking ---------------------------------------------------

    def restrict_matrix(self, a):
        return a[self.free][:, self.free].tocsc()

    def restrict(self, vec):
        return vec[self.free]

    def expand(self, vec_free):
        out = np.zeros(self.n_dofs)
        out[self.free] = vec_free
        return out

    def gradient_norm(self, vec):
        g = self.gradient_table(vec)
        return math.sqrt(float(self.piece_area @ (g ** 2).sum(1)))

    def value_norm(self, vec):
        return math.sqrt(float(vec @ (self.mass_matrix() @ vec)))


def _max_generalized_eig(a, gd, method, tol):
    """Largest eigenvalue of a x = lambda b x, with b the SPD norm Gram
    matrix of gd on free DOFs (see GradientDiscretisation.norm_factor)."""
    n = a.shape[0]
    if method == "dense" or (method == "auto" and n < 200):
        vals = eigh(a.toarray(), gd.norm_gram().toarray(), eigvals_only=True)
        return float(vals[-1])
    factor = gd.norm_factor()
    b, solve = factor.matrix, factor.solve
    # Deterministic start vector with a ramp so it is never orthogonal
    # to the leading eigenvector by symmetry.
    x = 1.0 + 0.01 * np.arange(n) / n
    lam = 0.0
    for _ in range(10000):
        ax = a @ x
        lam_new = float(x @ ax) / float(x @ (b @ x))
        x = solve(ax)
        x /= math.sqrt(float(x @ x))
        if abs(lam_new - lam) <= tol * abs(lam_new):
            return lam_new
        lam = lam_new
    raise RuntimeError("power iteration for the coercivity constant stalled")


def compute_cd(gd, method="auto", tol=1e-8):
    """Coercivity constant of a gradient discretisation.

    Dirichlet: the largest ratio of reconstructed-function norm to
    reconstructed-gradient norm, i.e. the square root of the largest
    generalized eigenvalue of the (mass, gradient-Gram) pencil on free
    DOFs.  Neumann: the larger of the trace-to-norm and function-to-norm
    ratios, with the quadratic form gradient-Gram + mass standing in for
    the discretisation norm (equivalent to it within a factor sqrt(2)).

    Meshes below 200 free DOFs use a dense eigensolve; larger ones use a
    power iteration converged to ``tol`` in the eigenvalue, with the
    norm Gram matrix factored once per discretisation (norm_factor).
    """
    if gd.n_free == 0:
        raise ValueError("no free DOFs: coercivity constant undefined")
    if gd.bc == "dirichlet":
        m = gd.restrict_matrix(gd.mass_matrix())
        return math.sqrt(_max_generalized_eig(m, gd, method, tol))
    lam_trace = _max_generalized_eig(gd.trace_gram().tocsc(), gd, method, tol)
    lam_value = _max_generalized_eig(gd.mass_matrix().tocsc(), gd, method, tol)
    return math.sqrt(max(lam_trace, lam_value))


def _face_flux_integrals(mesh, flux, npoints=3):
    """Per-face integrals of flux . n0 and of its first arclength moment."""
    a = mesh.vertices[mesh.faces[:, 0]]
    b = mesh.vertices[mesh.faces[:, 1]]
    pts, wts, arc = segment_quadrature(a, b, npoints)
    faces = np.repeat(np.arange(mesh.n_faces), npoints)
    vals = np.asarray(flux(pts), dtype=float)
    fn = (vals * mesh.face_normal[faces]).sum(1)
    i1 = np.bincount(faces, wts * fn, mesh.n_faces)
    i2 = np.bincount(faces, wts * fn * arc, mesh.n_faces)
    return i1, i2


def compute_wd(gd, flux):
    """Conformity defect of a gradient discretisation against a flux field.

    Measures how far the reconstructed pair (function, gradient) is from
    satisfying integration by parts against ``flux``: the divergence
    theorem is applied cell by cell, so the residual is assembled from
    face integrals of flux . n (plus volume integrals of flux itself for
    schemes whose gradient is not the broken slope of the function
    reconstruction) and no derivative of ``flux`` is ever evaluated.  The
    result is the norm of the residual functional, i.e. the largest
    residual over DOF vectors of unit gradient norm (Dirichlet) or unit
    discretisation norm (Neumann, quadratic surrogate).
    """
    if gd.n_free == 0:
        raise ValueError("no free DOFs: conformity defect undefined")
    mesh = gd.mesh
    i1, i2 = _face_flux_integrals(mesh, flux)
    hf_face = mesh.cell_faces.ravel()
    hf_sign = mesh.cell_face_sign.ravel().astype(float)
    r = gd.halfface_mid.T @ (hf_sign * i1[hf_face])
    r += gd.halfface_slope.T @ (hf_sign * i2[hf_face])
    if not gd.grad_matches_value_slope:
        pieces, pts, wts = gd.piece_quadrature()
        vals = np.asarray(flux(pts), dtype=float)
        ix = np.bincount(pieces, wts * vals[:, 0], len(gd.piece_area))
        iy = np.bincount(pieces, wts * vals[:, 1], len(gd.piece_area))
        r += gd.grad_x.T @ ix + gd.grad_y.T @ iy
        cells, pts, wts = cell_quadrature(mesh, "gauss7")
        vals = np.asarray(flux(pts), dtype=float)
        icx = np.bincount(cells, wts * vals[:, 0], mesh.n_cells)
        icy = np.bincount(cells, wts * vals[:, 1], mesh.n_cells)
        r -= gd.value_slope_x.T @ icx + gd.value_slope_y.T @ icy
    if gd.bc == "neumann":
        ids = gd.boundary_face_ids
        a = mesh.vertices[mesh.faces[ids, 0]]
        b = mesh.vertices[mesh.faces[ids, 1]]
        pts, wts, arc = segment_quadrature(a, b, 3)
        faces = np.repeat(np.arange(len(ids)), 3)
        vals = np.asarray(flux(pts), dtype=float)
        fn = (vals * mesh.face_normal[ids][faces]).sum(1)
        j1 = np.bincount(faces, wts * fn, len(ids))
        j2 = np.bincount(faces, wts * fn * arc, len(ids))
        r -= gd.trace_mid.T @ j1 + gd.trace_slope.T @ j2
    rr = gd.restrict(r)
    z = gd.norm_factor().solve(rr)
    return math.sqrt(max(float(rr @ z), 0.0))


def compute_sd_upper(gd, fn, grad_fn):
    """Upper bound on the consistency defect for a smooth target function.

    Minimises the squared misfit of function and gradient reconstructions
    (plus the boundary trace under Neumann conditions) over all DOF
    vectors, then reports the sum of the individual misfit norms at the
    minimiser.  Any DOF vector bounds the defect from above, and the
    least-squares minimiser is within a factor sqrt(2) of optimal for the
    sum objective (sqrt(3) with the trace term).
    """
    if gd.n_free == 0:
        raise ValueError("no free DOFs: consistency defect undefined")
    mesh = gd.mesh
    cells, pts, wts = cell_quadrature(mesh, "gauss7")
    fvals = np.asarray(fn(pts), dtype=float)
    b_val = gd.value_load(cells, pts, wts, fvals)

    pieces, ppts, pwts = gd.piece_quadrature()
    gvals = np.asarray(grad_fn(ppts), dtype=float)
    ix = np.bincount(pieces, pwts * gvals[:, 0], len(gd.piece_area))
    iy = np.bincount(pieces, pwts * gvals[:, 1], len(gd.piece_area))
    b_grad = gd.grad_x.T @ ix + gd.grad_y.T @ iy

    b = b_val + b_grad
    if gd.bc == "neumann":
        b = b + gd.boundary_load(fn)

    # The factor is cached on gd, so the state and adjoint rows of a
    # diagnostics table share it.
    z = gd.expand(gd.misfit_factor().solve(gd.restrict(b)))

    # Misfit norms by direct quadrature of the reconstructions; this
    # avoids the cancellation a quadratic-form expansion would suffer
    # when the target is exactly representable.
    dval = gd.value_at(z, cells, pts) - fvals
    total = math.sqrt(float(wts @ dval ** 2))
    dgrad = gd.gradient_table(z)[pieces] - gvals
    total += math.sqrt(float(pwts @ (dgrad ** 2).sum(1)))
    if gd.bc == "neumann":
        ids = gd.boundary_face_ids
        fa = mesh.vertices[mesh.faces[ids, 0]]
        fb = mesh.vertices[mesh.faces[ids, 1]]
        bpts, bwts, _ = segment_quadrature(fa, fb, 3)
        faces = np.repeat(np.arange(len(ids)), 3)
        dtr = gd.trace_at(z, faces, bpts) - np.asarray(fn(bpts), dtype=float)
        total += math.sqrt(float(bwts @ dtr ** 2))
    return total
