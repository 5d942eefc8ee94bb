"""Quadrature rules, discretisation errors, convergence rates and CSV output.

Every integral in the package is evaluated with one of a small set of
named quadrature rules defined on the reference triangle and the
reference square.  The error measures follow a fixed protocol: function
errors use a degree-5 rule for nodal schemes and the one-point centroid
rule for cell-centred schemes (whose reconstructions are piecewise
constant), gradient errors always use one centroid point per region of
constant discrete gradient, control errors use a degree-2 rule, and
post-processed control errors use the function rule.
Relative errors are reported; numerator and denominator share a rule.
``sample_level`` evaluates a case's exact fields once on each point set
this protocol reads on a level, and only the fields read there.
"""

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

CSV_HEADER = (
    "level,h,dofs,err_y,err_grad_y,err_p,err_grad_p,err_u,err_u_tilde,"
    "eoc_y,eoc_grad_y,eoc_p,eoc_grad_p,eoc_u,eoc_u_tilde,pdas_iters"
)

DIAGNOSTICS_HEADER = "level,h,c_d,w_d_y,s_d_y,s_d_p"

_SQRT15 = math.sqrt(15.0)

# Points per block of whole cells (cell_blocks) in which sample_level
# evaluates the exact fields and GradientDiscretisation.value_load sums
# its loads: about this many keep the temporaries of a block in a
# core's 2 MB cache.
BLOCK_POINTS = 16384


def _triangle_rule(name):
    """Points and weights on the reference triangle (area 1/2)."""
    if name == "midpoint":
        return np.array([[1 / 3, 1 / 3]]), np.array([0.5])
    if name == "gauss3":
        pts = np.array([[1 / 6, 1 / 6], [2 / 3, 1 / 6], [1 / 6, 2 / 3]])
        return pts, np.full(3, 1 / 6)
    if name == "gauss7":
        # Degree-5 rule: centroid plus two symmetric orbits.
        b1 = (6.0 + _SQRT15) / 21.0
        b2 = (6.0 - _SQRT15) / 21.0
        w1 = (155.0 + _SQRT15) / 2400.0
        w2 = (155.0 - _SQRT15) / 2400.0
        pts = [[1 / 3, 1 / 3]]
        wts = [9.0 / 80.0]
        for b, w in ((b1, w1), (b2, w2)):
            pts += [[b, b], [1.0 - 2.0 * b, b], [b, 1.0 - 2.0 * b]]
            wts += [w, w, w]
        return np.array(pts), np.array(wts)
    if name == "degree10":
        # Collapsed tensor Gauss rule, exact well beyond degree 10; used
        # as an oracle against the production rules.
        u, wu = np.polynomial.legendre.leggauss(8)
        u = 0.5 * (u + 1.0)
        wu = 0.5 * wu
        uu, vv = np.meshgrid(u, u, indexing="ij")
        ww = np.outer(wu, wu) * (1.0 - uu)
        pts = np.column_stack([uu.ravel(), (vv * (1.0 - uu)).ravel()])
        return pts, ww.ravel()
    raise ValueError(f"unknown quadrature rule {name!r}")


_SQUARE_ORDER = {"midpoint": 1, "gauss3": 2, "gauss7": 3, "degree10": 6}


def _square_rule(name):
    """Tensor Gauss points and weights on the reference square (area 1)."""
    try:
        n = _SQUARE_ORDER[name]
    except KeyError:
        raise ValueError(f"unknown quadrature rule {name!r}") from None
    u, wu = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (u + 1.0)
    wu = 0.5 * wu
    uu, vv = np.meshgrid(u, u, indexing="ij")
    pts = np.column_stack([uu.ravel(), vv.ravel()])
    return pts, np.outer(wu, wu).ravel()


@functools.cache
def get_rule(name):
    """Named rule with reference tables ``.triangle`` and ``.square``,
    each a (points, weights) pair, built once per name.

    midpoint is exact to degree 1, gauss3 to degree 2, gauss7 to degree 5
    and degree10 to (at least) degree 10, on both reference cells.
    """
    return SimpleNamespace(triangle=_triangle_rule(name), square=_square_rule(name))


def _affine_map(origin, e1, e2, ref, wref):
    """Reference points and weights mapped by x = origin + ref . (e1, e2),
    flattened to (n * q, 2) points and (n * q,) weights; the weights are
    scaled by the Jacobian determinant of the map."""
    jac = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    # One coordinate at a time: half-size temporaries, half the traffic.
    pts = np.empty((len(origin), len(wref), 2))
    for c in (0, 1):
        pts[:, :, c] = (origin[:, None, c] + ref[None, :, 0] * e1[:, None, c]
                        + ref[None, :, 1] * e2[:, None, c])
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
    points : (n * q, 2), weights : (n * q,)
        Flattened per-triangle points and physical weights; the weights
        of each triangle sum to its area.
    """
    tris = np.asarray(tris, dtype=float)
    return _affine_map(tris[:, 0], tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0],
                       *get_rule(rule).triangle)


def cell_quadrature(mesh, rule):
    """Quadrature points of a named rule on every cell of a mesh.

    The arrays are built once per (mesh, rule), kept in
    ``mesh.quadrature_cache`` and marked read-only, so repeated calls
    return the same objects and no caller can alter the cache.

    Returns
    -------
    cells : (N,) int
        Owning cell of each point.
    points : (N, 2), weights : (N,)
    """
    cached = mesh.quadrature_cache.get(rule)
    if cached is not None:
        return cached
    loops = mesh.vertices[mesh.cells]
    if mesh.cells.shape[1] == 3:
        pts, wts = triangle_quadrature(loops, rule)
    else:
        pts, wts = _affine_map(loops[:, 0], loops[:, 1] - loops[:, 0],
                               loops[:, 3] - loops[:, 0], *get_rule(rule).square)
    cells = np.repeat(np.arange(mesh.n_cells), len(wts) // mesh.n_cells)
    for a in (cells, pts, wts):
        a.setflags(write=False)
    return mesh.quadrature_cache.setdefault(rule, (cells, pts, wts))


def segment_quadrature(a, b):
    """3-point Gauss rule (exact to degree 5) on a batch of segments from
    a to b, both (n, 2) arrays.

    Returns flattened points (n * 3, 2), weights (n * 3,) summing to the
    segment lengths, and the signed arclength offsets (n * 3,) of the
    points from the segment midpoints.
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
    return pts.reshape(-1, 2), wts.reshape(-1), arc.reshape(-1)


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
    """The exact fields of a case that one level reads, each at the point
    set its consumer reads: source f and target y_d at the points of
    ``function_rule(gd)`` (the loads), y and p for the function errors,
    grad_y and grad_p at the gradient piece centres, u at the gauss3
    points (the control error), and post_p, post_u for the
    post-processed control.  post_p and post_u are at the load points
    for every scheme; nodal schemes take y and p there too, cell-centred
    schemes take them at the cell points.
    """

    source: np.ndarray
    target: np.ndarray
    y: np.ndarray
    p: np.ndarray
    grad_y: np.ndarray
    grad_p: np.ndarray
    u: np.ndarray
    post_p: np.ndarray
    post_u: np.ndarray


def cell_blocks(n_points, n_cells):
    """Slices of a point set that lists the same number of points for
    every cell, cell by cell, into blocks of whole cells of about
    BLOCK_POINTS points (one cell at least)."""
    per_cell = n_points // n_cells
    step = max(BLOCK_POINTS // per_cell, 1) * per_cell
    return [slice(start, start + step) for start in range(0, n_points, step)]


def _sample(fields, pts, names, n_cells):
    """The arrays of fields(pts, names) by name, evaluated over the
    cell_blocks of pts and written into arrays allocated once.  Names
    that fields gives one array share one array here too."""
    out, distinct = {}, []
    for block in cell_blocks(len(pts), n_cells):
        part = fields(pts[block], names)
        if not out:
            for name in names:
                entry = getattr(part, name)
                same = [m for m in out if getattr(part, m) is entry]
                if same:
                    out[name] = out[same[0]]
                else:
                    out[name] = np.empty((len(pts),) + entry.shape[1:], dtype=entry.dtype)
                    distinct.append(name)
        for name in distinct:
            out[name][block] = getattr(part, name)
    return out


def sample_level(gd, fields):
    """Sample fields(pts, names) once on each distinct point set of a
    level, asking for the fields LevelSamples keeps from it: the values
    (not y for cell-centred schemes) at the load points, y and p at the
    cell points of cell-centred schemes, the gradients at the piece
    centres and u at the gauss3 points."""
    mesh = gd.mesh
    n = mesh.n_cells
    values = ("p", "u", "f", "y_d") if gd.cell_centred else ("y", "p", "u", "f", "y_d")
    load = _sample(fields, cell_quadrature(mesh, function_rule(gd))[1], values, n)
    value = _sample(fields, mesh.cell_point, ("y", "p"), n) if gd.cell_centred else load
    gradient = _sample(fields, gd.piece_center, ("grad_y", "grad_p"), n)
    u = _sample(fields, cell_quadrature(mesh, "gauss3")[1], ("u",), n)["u"]
    return LevelSamples(
        source=load["f"], target=load["y_d"], y=value["y"], p=value["p"],
        grad_y=gradient["grad_y"], grad_p=gradient["grad_p"], u=u,
        post_p=load["p"], post_u=load["u"],
    )


def function_error(gd, vec, target):
    """Relative L2 distance between the reconstructed function and target
    values at the points of ``function_rule(gd)``.

    Nodal schemes sample the target at the rule's points themselves;
    cell-centred schemes sample it at the cell points.
    """
    cells, pts, wts = cell_quadrature(gd.mesh, function_rule(gd))
    approx = gd.value_at(vec, cells, pts)
    return _relative(wts @ (approx - target) ** 2, wts @ target ** 2)


def gradient_error(gd, vec, target):
    """Relative L2 distance between the reconstructed gradient and target
    values at the piece centres: one centroid point per region of
    constant discrete gradient.
    """
    g = gd.gradient_table(vec)
    w = gd.piece_area
    num = float(w @ ((g - target) ** 2).sum(1))
    den = float(w @ (target ** 2).sum(1))
    return _relative(num, den)


def control_error(mesh, u_cells, target):
    """Relative L2 distance of a piecewise-constant control from target
    values at the gauss3 points (degree-2 rule)."""
    cells, _, wts = cell_quadrature(mesh, "gauss3")
    num = wts @ (u_cells[cells] - target) ** 2
    return _relative(float(num), float(wts @ target ** 2))


def postprocessed_error(gd, post, u):
    """Relative L2 distance between the two post-processed controls.

    post is the (discrete, exact) pair of ``control.postprocess``, both at
    the points of ``function_rule(gd)``; u is the exact control there,
    whose norm under the same rule is the denominator.
    """
    w = cell_quadrature(gd.mesh, function_rule(gd))[2]
    discrete, exact = post
    return _relative(float(w @ (discrete - exact) ** 2), float(w @ u ** 2))


def compute_errors(gd, exact, y_vec, p_vec, u_cells, post, *, level, pdas_iters):
    """Assemble the full error report for one solved problem.

    Parameters
    ----------
    gd : gradient discretisation used for the solve
    exact : LevelSamples of the exact fields on this level (sample_level)
    y_vec, p_vec : DOF vectors of state and adjoint
    u_cells : (n_cells,) control values
    post : (discrete, exact) post-processed controls (control.postprocess)
    """
    return ErrorReport(
        level=level,
        h=gd.mesh.h,
        dofs=gd.n_free,
        err_y=function_error(gd, y_vec, exact.y),
        err_grad_y=gradient_error(gd, y_vec, exact.grad_y),
        err_p=function_error(gd, p_vec, exact.p),
        err_grad_p=gradient_error(gd, p_vec, exact.grad_p),
        err_u=control_error(gd.mesh, u_cells, exact.u),
        err_u_tilde=postprocessed_error(gd, post, exact.post_u),
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


def render_csv(reports, failure=None):
    """Render study reports as CSV text (10 significant digits).

    failure, if given, is a (level, h) pair appended as a trailing marker
    row whose err_y field carries the literal FAILED.
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
        lines.append(",".join([str(level), _fmt(h), "", "FAILED"] + [""] * 12))
    return "\n".join(lines) + "\n"


def render_diagnostics_csv(rows, failure=None):
    """Render diagnostics rows (level, h, c_d, w_d_y, s_d_y, s_d_p) as CSV.

    failure, if given, is a (level, h) pair appended as a trailing marker
    row whose c_d field carries the literal FAILED.
    """
    lines = [DIAGNOSTICS_HEADER]
    for level, h, cd, wd, sdy, sdp in rows:
        lines.append(
            ",".join([str(level), _fmt(h), _fmt(cd), _fmt(wd), _fmt(sdy), _fmt(sdp)])
        )
    if failure is not None:
        level, h = failure
        lines.append(",".join([str(level), _fmt(h), "FAILED"] + [""] * 3))
    return "\n".join(lines) + "\n"
