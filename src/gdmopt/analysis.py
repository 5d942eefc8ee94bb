"""Quadrature rules, discretisation errors, convergence rates and CSV output.

Every integral in the package is evaluated with one of a small set of
named quadrature rules, held in one table keyed by cell shape:
``reference_rule(k, name)`` on the reference triangle (k = 3) or square
(k = 4).  Each rule builder returns the owner of every point first:
(owners, points, weights) from ``triangle_quadrature`` and
``cell_quadrature``, plus arclength offsets from ``segment_quadrature``.
The error measures follow a fixed protocol: function errors use a
degree-5 rule for nodal schemes and the one-point centroid rule for
cell-centred schemes (whose reconstructions are piecewise constant),
gradient errors always use one centroid point per region of constant
discrete gradient, control errors use a degree-2 rule, and
post-processed control errors use the function rule.
Relative errors are reported; numerator and denominator share a rule.
Each point set this protocol reads on a level is sampled once, and only
for the fields read there: ``sample_level`` samples the load rule's
points before the solve and keeps, block by block, what the errors read
there; ``compute_errors`` samples the other point sets after it.  The
exact adjoint is the state in every case, so y and grad_y serve p too.
``quadrature_blocks`` yields the cell points as (block, cells, points,
weights), one block of whole cells at a time built when a pass reaches
it, so a level keeps no array of a whole quadrature point set.  Neither
does a discretisation, and the diagnostics (``gd_core.compute_wd`` and
``compute_sd_upper``) stream their piece and face rules in the same
way: ``triangle_blocks`` yields a rule on the gradient pieces one block
of whole pieces at a time, and the face rule is built one block of
whole faces at a time.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

CSV_HEADER = (
    "level,h,dofs,err_y,err_grad_y,err_p,err_grad_p,err_u,err_u_tilde,"
    "eoc_y,eoc_grad_y,eoc_p,eoc_grad_p,eoc_u,eoc_u_tilde,pdas_iters"
)

DIAGNOSTICS_HEADER = "level,h,c_d,w_d_y,s_d_y,s_d_p"

# Points per block of whole cells (cell_blocks) in which the quadrature
# points are built, the exact fields sampled and the loads and error
# sums taken: about this many keep the temporaries of a block in a
# core's 2 MB cache.
BLOCK_POINTS = 16384

# Gauss points per axis of each tensor rule on the reference square.
_SQUARE_ORDER = {"midpoint": 1, "gauss3": 2, "gauss7": 3, "degree10": 6}


@functools.cache
def reference_rule(k, name):
    """Points and weights of a named rule on the reference cell with k
    corners: the triangle (0, 0), (1, 0), (0, 1) of area 1/2 for k = 3,
    the unit square for k = 4.

    midpoint is exact to degree 1, gauss3 to degree 2, gauss7 to degree 5
    and degree10 to (at least) degree 10, on both reference cells.  The
    arrays are built once per (k, name) and shared by every caller, so
    they are read-only.
    """
    if k == 3 and name == "midpoint":
        pts, wts = [[1 / 3, 1 / 3]], [0.5]
    elif k == 3 and name == "gauss3":
        pts, wts = [[1 / 6, 1 / 6], [2 / 3, 1 / 6], [1 / 6, 2 / 3]], [1 / 6] * 3
    elif k == 3 and name == "gauss7":
        # Degree-5 rule: centroid plus two symmetric orbits.
        pts, wts = [[1 / 3, 1 / 3]], [9.0 / 80.0]
        for root in (math.sqrt(15.0), -math.sqrt(15.0)):
            b, w = (6.0 + root) / 21.0, (155.0 + root) / 2400.0
            pts += [[b, b], [1.0 - 2.0 * b, b], [b, 1.0 - 2.0 * b]]
            wts += [w, w, w]
    elif k in (3, 4) and name in _SQUARE_ORDER:
        # Tensor Gauss rule on the square; on the triangle (degree10
        # only, an oracle against the production rules) 8 points per
        # axis collapsed onto it, exact well beyond degree 10.
        u, wu = np.polynomial.legendre.leggauss(8 if k == 3 else _SQUARE_ORDER[name])
        u = 0.5 * (u + 1.0)
        wu = 0.5 * wu
        uu, vv = np.meshgrid(u, u, indexing="ij")
        wts = np.outer(wu, wu)
        if k == 3:
            vv, wts = vv * (1.0 - uu), wts * (1.0 - uu)
        pts, wts = np.column_stack([uu.ravel(), vv.ravel()]), wts.ravel()
    else:
        raise ValueError(f"unknown quadrature rule {name!r} on cells of {k} corners")
    pts, wts = np.array(pts, dtype=float), np.array(wts, dtype=float)
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


def _affine_map(xs, ys, ref, wref):
    """Reference points and weights mapped onto n cells, flattened to
    (n * q, 2) points and (n * q,) weights; the weights are scaled by the
    Jacobian determinant of the map.

    xs and ys are (n, k) arrays of the x and y coordinates of the cell
    corners.  The map is x = x_0 + ref . (x_1 - x_0, x_last - x_0): the
    second and the last corner span the reference cell, the third of a
    triangle and the fourth of a square.  It runs one coordinate at a
    time, on half-size temporaries.
    """
    e1 = [v[:, 1] - v[:, 0] for v in (xs, ys)]
    e2 = [v[:, -1] - v[:, 0] for v in (xs, ys)]
    jac = e1[0] * e2[1] - e1[1] * e2[0]
    pts = np.empty((len(jac), len(wref), 2))
    for c, v in enumerate((xs, ys)):
        pts[:, :, c] = (v[:, 0, None] + ref[None, :, 0] * e1[c][:, None]
                        + ref[None, :, 1] * e2[c][:, None])
    wts = jac[:, None] * wref[None, :]
    return pts.reshape(-1, 2), wts.reshape(-1)


def triangle_quadrature(tris, rule):
    """Map a reference rule onto a batch of triangles.

    Parameters
    ----------
    tris : (n, 3, 2) array
        Vertex coordinates, counter-clockwise.
    rule : str

    Returns
    -------
    owners : (n * q,) int
        Owning triangle of each point.
    points : (n * q, 2), weights : (n * q,)
        Flattened per-triangle points and physical weights; the weights
        of each triangle sum to its area.
    """
    tris = np.asarray(tris, dtype=float)
    ref, wref = reference_rule(3, rule)
    pts, wts = _affine_map(tris[:, :, 0], tris[:, :, 1], ref, wref)
    return np.repeat(np.arange(len(tris)), len(wref)), pts, wts


def cell_quadrature(mesh, rule, block=slice(None)):
    """Quadrature points of a named rule on the cells mesh.cells[block] (a
    slice; every cell by default), listed cell by cell and built afresh
    from the reference rule on each call.

    The square rules map affinely onto parallelograms only: a
    quadrilateral cell with corners v0..v3 raises ValueError when
    |v0 + v2 - v1 - v3| exceeds 1e-12 times its diameter.

    Returns
    -------
    cells : (N,) int
        Owning cell of each point.
    points : (N, 2), weights : (N,)
    """
    first, stop, _ = block.indices(mesh.n_cells)
    cells = mesh.cells[first:stop]
    # Corner coordinates gathered one coordinate at a time, which is
    # several times faster than gathering vertex rows.
    xs, ys = mesh.vertices[:, 0][cells], mesh.vertices[:, 1][cells]
    if cells.shape[1] == 4 and np.any(
            np.hypot(*(v[:, 0] + v[:, 2] - v[:, 1] - v[:, 3] for v in (xs, ys)))
            > 1e-12 * mesh.cell_diameter[first:stop]):
        raise ValueError("quadrilateral cell is not a parallelogram")
    ref, wref = reference_rule(cells.shape[1], rule)
    pts, wts = _affine_map(xs, ys, ref, wref)
    return np.repeat(np.arange(first, stop), len(wref)), pts, wts


def quadrature_blocks(mesh, rule):
    """The points of a named rule on the cells of a mesh, one cell_blocks
    block of whole cells at a time, each built when it is reached, so no
    array of the whole point set is made.

    Yields (block, cells, points, weights) per block: block is the slice
    of its cells and the rest cell_quadrature of block.
    """
    q = len(reference_rule(mesh.cells.shape[1], rule)[1])
    for block in cell_blocks(mesh.n_cells, q):
        yield (block,) + cell_quadrature(mesh, rule, block)


def triangle_blocks(gd, rule):
    """The points of a named rule on the gradient pieces of a
    discretisation gd, one cell_blocks block of whole pieces at a time,
    as quadrature_blocks gives them on cells.

    Yields (block, owners, points, weights) per block: block is the slice
    of its pieces and the rest triangle_quadrature of
    gd.piece_triangles(block), with the owners numbered over all pieces.
    """
    q = len(reference_rule(3, rule)[1])
    for block in cell_blocks(gd.n_pieces, q):
        owners, pts, wts = triangle_quadrature(gd.piece_triangles(block), rule)
        yield block, owners + block.start, pts, wts


def block_sums(block, cells, values):
    """Sums of values over each cell of a block of whole cells, in point
    order, as one bincount over all points would add them."""
    return np.bincount(cells - block.start, values, block.stop - block.start)


def centroid_offsets(mesh, cells, pts):
    """Coordinates x - x_K and y - y_K of points from the centroids of
    their cells K, gathered one coordinate at a time, which is several
    times faster than gathering centroid rows."""
    c = mesh.cell_centroid
    return pts[:, 0] - c[:, 0][cells], pts[:, 1] - c[:, 1][cells]


def affine_at(coefficients, cells, offsets):
    """Values at points inside cells of the cellwise affine function with
    coefficients (c, sx, sy): c[K] + sx[K] dx + sy[K] dy, with (dx, dy)
    the centroid_offsets of the points."""
    c, sx, sy = coefficients
    dx, dy = offsets
    return c[cells] + sx[cells] * dx + sy[cells] * dy


def segment_quadrature(a, b):
    """3-point Gauss rule (exact to degree 5) on a batch of segments from
    a to b, both (n, 2) arrays.

    Returns the owning segment of each point (n * 3,), flattened points
    (n * 3, 2), weights (n * 3,) summing to the segment lengths, and the
    signed arclength offsets (n * 3,) of the points from the segment
    midpoints.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    u, wu = np.polynomial.legendre.leggauss(3)
    lengths = np.sqrt(((b - a) ** 2).sum(1))
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None, :] + u[None, :, None] * half[:, None, :]
    wts = 0.5 * lengths[:, None] * wu[None, :]
    arc = 0.5 * lengths[:, None] * u[None, :]
    owners = np.repeat(np.arange(len(a)), len(u))
    return owners, pts.reshape(-1, 2), wts.reshape(-1), arc.reshape(-1)


@dataclass
class ErrorReport:
    """Relative errors of one optimal-control solve on one mesh."""

    FIELDS = ("err_y", "err_grad_y", "err_p", "err_grad_p", "err_u", "err_u_tilde")

    level: int
    h: float
    dofs: int
    err_y: float
    err_grad_y: float
    err_p: float
    err_grad_p: float
    err_u: float
    err_u_tilde: float
    pdas_iters: int

    def errors(self):
        return [getattr(self, f) for f in self.FIELDS]


def _relative(num_sq, den_sq):
    if den_sq <= 0.0:
        raise ValueError("error denominator vanishes")
    return math.sqrt(num_sq / den_sq)


def function_rule(gd):
    """Rule of function loads and errors: degree 5 for nodal schemes, the
    centroid rule (one point per cell) for cell-centred ones."""
    return "midpoint" if gd.cell_centred else "gauss7"


@dataclass(frozen=True)
class LevelSamples:
    """What a level keeps of the exact fields of a case between its load
    pass and its error pass (sample_level).

    loads holds the source and target loads, assembled while f and y_d
    were sampled.  blocks holds one Fields per block of the points of
    ``function_rule(gd)``, in quadrature_blocks' order, with y and u.
    fields is the case's ``fields``, which the error pass samples at the
    other points it reads.
    """

    loads: np.ndarray
    blocks: list
    fields: Callable


def cell_blocks(n_cells, per_cell):
    """Slices of n_cells cells, each with per_cell points, into blocks of
    whole cells of about BLOCK_POINTS points (one cell at least)."""
    step = max(BLOCK_POINTS // per_cell, 1)
    return [slice(start, min(start + step, n_cells)) for start in range(0, n_cells, step)]


def sample_level(gd, fields):
    """The LevelSamples of a level: one pass over the blocks of the load
    rule's points samples the values there, sums f and y_d into the loads
    (GradientDiscretisation.value_load) and keeps y and u of each
    block."""
    blocks = []

    def sample(pts):
        part = fields(pts, ("y", "u", "f", "y_d"))
        blocks.append(part._replace(f=None, y_d=None))
        return [part.f, part.y_d]

    return LevelSamples(gd.value_load(function_rule(gd), sample), blocks, fields)


def _gradient_errors(gd, fields, vecs):
    """Relative errors of the gradients of the DOF vectors vecs (state,
    adjoint) against grad y at the piece centres: one centroid point per
    region of constant discrete gradient, sampled block by block."""
    n_pieces = gd.n_pieces
    per_cell = n_pieces // gd.mesh.n_cells
    tables = [gd.gradient_table(v) for v in vecs]
    # Per piece: squared errors of grad y and grad p, squared target.
    sq = np.empty((3, n_pieces))
    for block in cell_blocks(gd.mesh.n_cells, per_cell):
        span = slice(per_cell * block.start, per_cell * block.stop)
        gy = fields(gd.piece_triangles(span).mean(axis=1), ("grad_y",)).grad_y
        for row, v in enumerate((tables[0][span] - gy, tables[1][span] - gy, gy)):
            sq[row, span] = (v ** 2).sum(1)
    return [_relative(float(gd.piece_area @ sq[i]), float(gd.piece_area @ sq[2]))
            for i in (0, 1)]


def _function_errors(gd, exact, vecs, post):
    """Relative errors of y, p and the post-processed control over the
    load rule's blocks, beside the samples kept there; the exact y (at
    the cell points for cell-centred schemes) is the target of y and p.
    y and p are reconstructed from one gather of centroid offsets per
    block."""
    mesh = gd.mesh
    coefficients = [gd.cell_coefficients(v) for v in vecs]
    # Per cell: squared errors of y and p, squared y, and squared error
    # and target of u_tilde.
    sums = np.empty((5, mesh.n_cells))
    blocks = zip(quadrature_blocks(mesh, function_rule(gd)), exact.blocks, strict=True)
    for (block, cells, pts, wts), kept in blocks:
        offsets = centroid_offsets(mesh, cells, pts)
        y_h, p_h = (affine_at(c, cells, offsets) for c in coefficients)
        y = exact.fields(mesh.cell_point[block], ("y",)).y if gd.cell_centred else kept.y
        discrete, exact_post = post(cells, p_h, kept.y)
        for row, part in enumerate(((y_h - y) ** 2, (p_h - y) ** 2, y ** 2,
                                    (discrete - exact_post) ** 2, kept.u ** 2)):
            sums[row, block] = block_sums(block, cells, wts * part)
    totals = [float(s.sum()) for s in sums]
    return [_relative(totals[i], totals[j]) for i, j in ((0, 2), (1, 2), (3, 4))]


def _control_error(mesh, fields, u_cells):
    """Relative error of the cellwise control against u, sampled at the
    gauss3 points block by block."""
    sums = np.empty((2, mesh.n_cells))
    for block, cells, pts, wts in quadrature_blocks(mesh, "gauss3"):
        u = fields(pts, ("u",)).u
        sums[0, block] = block_sums(block, cells, wts * (u_cells[cells] - u) ** 2)
        sums[1, block] = block_sums(block, cells, wts * u ** 2)
    return _relative(float(sums[0].sum()), float(sums[1].sum()))


def compute_errors(gd, exact, y_vec, p_vec, u_cells, post, *, level, pdas_iters):
    """Assemble the full error report for one solved problem.

    Parameters
    ----------
    gd : gradient discretisation used for the solve
    exact : LevelSamples of the exact fields on this level (sample_level)
    y_vec, p_vec : DOF vectors of state and adjoint
    u_cells : (n_cells,) control values
    post : function (cells, p, exact_p) -> (discrete, exact) giving the
        post-processed controls at points inside cells from the discrete
        and the exact adjoint there (control.postprocess of the problem)

    Three passes, each over blocks and each freeing its tables before
    the next, sum every error per piece or per cell and then over them
    all, so the report does not depend on the block size.
    """
    vecs = (y_vec, p_vec)
    err_grad_y, err_grad_p = _gradient_errors(gd, exact.fields, vecs)
    err_y, err_p, err_u_tilde = _function_errors(gd, exact, vecs, post)
    return ErrorReport(
        level=level,
        h=gd.mesh.h,
        dofs=gd.n_free,
        err_y=err_y,
        err_grad_y=err_grad_y,
        err_p=err_p,
        err_grad_p=err_grad_p,
        err_u=_control_error(gd.mesh, exact.fields, u_cells),
        err_u_tilde=err_u_tilde,
        pdas_iters=pdas_iters,
    )


def compute_eoc(hs, errors):
    """Experimental orders of convergence between consecutive mesh levels.

    Entry i holds log(e[i-1]/e[i]) / log(h[i-1]/h[i]); the first entry is
    nan because it has no predecessor.
    """
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    out = np.full(len(hs), np.nan)
    for i in range(1, len(hs)):
        if errors[i - 1] > 0.0 and errors[i] > 0.0:
            out[i] = math.log(errors[i - 1] / errors[i]) / math.log(hs[i - 1] / hs[i])
    return out


def _fmt(x):
    return f"{x:.9e}"


def _fmt_h(h):
    return "" if h is None else _fmt(h)


def render_csv(reports, failure=None):
    """Render study reports as CSV text (10 significant digits).

    failure, if given, is a (level, h) pair appended as a trailing marker
    row whose err_y field carries the literal FAILED; h is None, and its
    field empty, when the level failed before its mesh was built.
    """
    lines = [CSV_HEADER]
    hs = [r.h for r in reports]
    eocs = [compute_eoc(hs, [getattr(r, f) for r in reports]) for f in ErrorReport.FIELDS]
    for i, r in enumerate(reports):
        row = [str(r.level), _fmt(r.h), str(r.dofs)]
        row += [_fmt(e) for e in r.errors()]
        row += ["" if math.isnan(col[i]) else _fmt(col[i]) for col in eocs]
        row.append(str(r.pdas_iters))
        lines.append(",".join(row))
    if failure is not None:
        level, h = failure
        lines.append(",".join([str(level), _fmt_h(h), "", "FAILED"] + [""] * 12))
    return "\n".join(lines) + "\n"


def render_diagnostics_csv(rows, failure=None):
    """Render diagnostics rows (level, h, c_d, w_d_y, s_d_y, s_d_p) as CSV.

    failure, if given, is a (level, h) pair appended as a trailing marker
    row whose c_d field carries the literal FAILED (h as in render_csv).
    """
    lines = [DIAGNOSTICS_HEADER]
    for level, h, cd, wd, sdy, sdp in rows:
        lines.append(
            ",".join([str(level), _fmt(h), _fmt(cd), _fmt(wd), _fmt(sdy), _fmt(sdp)])
        )
    if failure is not None:
        level, h = failure
        lines.append(",".join([str(level), _fmt_h(h), "FAILED"] + [""] * 3))
    return "\n".join(lines) + "\n"
