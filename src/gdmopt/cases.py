"""Benchmark problems with known optimal triples (state, adjoint, control).

Each case fixes exact state and adjoint, picks the control through the
box-projection formula, and then manufactures the sources so that the
optimality system holds exactly.  The singular case lives on the
L-shaped domain and its solution has the corner regularity r^(2/3), so
its data are unbounded near the re-entrant corner; quadrature nodes
never coincide with the corner, which is always a mesh vertex.
"""

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .analysis import sample_level
from .control import OptimalControlProblem, project_box
from .mesh import (
    build_cartesian_mesh,
    build_lshape_triangulation,
    build_unit_square_triangulation,
)

CASE_NAMES = ("example1", "example2-lshape", "example3-neumann")


class Fields(NamedTuple):
    """Exact fields of a case at one (n, 2) point array; an entry that
    was not asked for is None."""

    y: np.ndarray
    grad_y: np.ndarray
    p: np.ndarray
    grad_p: np.ndarray
    u: np.ndarray
    f: np.ndarray
    y_d: np.ndarray


GRADIENTS = frozenset({"grad_y", "grad_p"})


def _only(names, *values):
    """Fields of values, in Fields order, with the entries not in names
    set to None."""
    return Fields(*(v if n in names else None for n, v in zip(Fields._fields, values)))


def _entry(fields, name, pts):
    return getattr(fields(pts, (name,)), name)


@dataclass
class TestCase:
    """Closures of one benchmark; all callables take (n, 2) point arrays.

    ``fields(pts, names)`` returns the exact fields named in names (all
    of them by default) as a ``Fields``, and computes only what those
    need; each entry is the same whichever names are asked for with it.
    Each single-field closure (y, grad_y, p, grad_p, u, f, y_d) reads
    its entry of ``fields``.

    f_b is None on every case and nothing in the package reads it; it
    stays while the benchmark tracer wraps the case closures by name.
    """

    name: str
    bc: str
    domain: str
    alpha: float
    bounds: tuple
    reaction: float
    fields: Callable
    u_d: Optional[Callable] = None
    f_b: Optional[Callable] = None
    y: Callable = field(init=False)
    grad_y: Callable = field(init=False)
    p: Callable = field(init=False)
    grad_p: Callable = field(init=False)
    u: Callable = field(init=False)
    f: Callable = field(init=False)
    y_d: Callable = field(init=False)

    def __post_init__(self):
        for name in Fields._fields:
            setattr(self, name, functools.partial(_entry, self.fields, name))

    def build_mesh(self, scheme, m, shift=0.0):
        """Mesh family used by a scheme on this case's domain."""
        if self.domain == "lshape":
            if shift != 0.0:
                raise ValueError("cell-point shift only applies to Cartesian meshes")
            return build_lshape_triangulation(m)
        if scheme == "hmm":
            return build_cartesian_mesh(m, shift=shift)
        if shift != 0.0:
            raise ValueError("cell-point shift only applies to Cartesian meshes")
        return build_unit_square_triangulation(m)

    def build_problem(self, gd, loads=None):
        """Control problem of this case on a discretisation.

        loads are the source and target loads, the ``loads`` of
        ``analysis.sample_level``; that is called for them when they are
        not given.
        """
        if loads is None:
            loads = sample_level(gd, self.fields).loads
        return OptimalControlProblem(
            gd,
            alpha=self.alpha,
            bounds=self.bounds,
            loads=loads,
            control_target=self.u_d,
            reaction=self.reaction,
        )


def smooth_dirichlet_case():
    """Distributed control on the unit square, one-sided box [0, inf)."""
    alpha = 1.0
    lower, upper = 0.0, np.inf

    def u_d(pts):
        return (
            1.0
            - np.sin(0.5 * np.pi * pts[:, 0])
            - np.sin(0.5 * np.pi * pts[:, 1])
        )

    def fields(pts, names=Fields._fields):
        need = set(names)
        px, py = np.pi * pts[:, 0], np.pi * pts[:, 1]
        yv = np.sin(px) * np.sin(py) if need - GRADIENTS else None
        gv = None
        if need & GRADIENTS:
            gv = np.pi * np.column_stack([np.cos(px) * np.sin(py), np.sin(px) * np.cos(py)])
        u = project_box(u_d(pts) - yv / alpha, lower, upper) if need & {"u", "f"} else None
        f = 2.0 * np.pi ** 2 * yv - u if "f" in need else None
        y_d = (1.0 - 2.0 * np.pi ** 2) * yv if "y_d" in need else None
        return _only(need, yv, gv, yv, gv, u, f, y_d)

    # The adjoint is the state.
    return TestCase("example1", "dirichlet", "unit-square", alpha, (lower, upper), 0.0,
                    fields, u_d=u_d)


def _corner_singular_parts(pts, order=2):
    """Value, gradient and Laplacian of r^(2/3) * g(theta) on the L-shape.

    The polar angle is measured from the boundary edge on the positive
    x-axis and runs through [0, 3*pi/2] across the domain; g vanishes at
    both edges meeting the re-entrant corner.  Values at the corner
    itself are returned as zero.  order is the highest derivative
    computed: 0 for the value alone, 1 for the gradient too, 2 for the
    Laplacian too; the parts above it are returned as None.

    g and its derivatives are trigonometric polynomials in theta, so
    they are evaluated from cos(theta) = x/r and sin(theta) = y/r; the
    powers of r all derive from one cube root.
    """
    x, y = pts[:, 0], pts[:, 1]
    r = np.hypot(x, y)
    corner = r == 0.0
    r = np.where(corner, 1.0, r)
    c, s = x / r, y / r
    g = (1.0 - c) * (1.0 + s)
    r13 = np.where(corner, 0.0, 1.0 / np.cbrt(r))  # r^(-1/3)
    val = r * r13 * g  # r^(2/3) g
    if order == 0:
        return val, None, None, None
    dg = s + c - (c * c - s * s)
    two3 = 2.0 / 3.0
    sx = r13 * (two3 * g * c - dg * s)
    sy = r13 * (two3 * g * s + dg * c)
    if order == 1:
        return val, sx, sy, None
    ddg = c - s + 4.0 * s * c
    r43 = (r13 * r13) ** 2  # r^(-4/3)
    lap = r43 * (ddg + (4.0 / 9.0) * g)
    return val, sx, sy, lap


def lshape_singular_case():
    """Distributed control on the L-shape with a corner-singular state.

    Every closure reads ``fields``, which takes the corner parts only to
    the derivative its names need: the values y, p and u need none, the
    gradients the first and the sources f and y_d the Laplacian.
    """
    alpha = 1e-3
    lower, upper = -600.0, -50.0

    def fields(pts, names=Fields._fields):
        need = set(names)
        order = 2 if need & {"f", "y_d"} else 1 if need & GRADIENTS else 0
        x, yy = pts[:, 0], pts[:, 1]
        s, sx, sy, lap_s = _corner_singular_parts(pts, order)
        b = (x ** 2 - 1.0) * (yy ** 2 - 1.0)
        val = b * s
        grad = lap = u = f = y_d = None
        if order >= 1:
            bx = 2.0 * x * (yy ** 2 - 1.0)
            by = 2.0 * yy * (x ** 2 - 1.0)
            grad = np.column_stack([bx * s + b * sx, by * s + b * sy])
        if order == 2:
            lap_b = 2.0 * (x ** 2 - 1.0) + 2.0 * (yy ** 2 - 1.0)
            lap = lap_b * s + 2.0 * (bx * sx + by * sy) + b * lap_s
        if need & {"u", "f"}:
            u = project_box(-val / alpha, lower, upper)
        if "f" in need:
            f = -lap - u
        if "y_d" in need:
            y_d = val + lap
        return _only(need, val, grad, val, grad, u, f, y_d)

    return TestCase(
        "example2-lshape", "dirichlet", "lshape", alpha, (lower, upper), 0.0, fields
    )


def smooth_neumann_case():
    """Distributed control on the unit square under Neumann conditions.

    The exact state has vanishing normal derivative on all four edges,
    so the fixed boundary source is zero and stays disabled.
    """
    alpha = 1e-3
    lower, upper = -750.0, -50.0

    def fields(pts, names=Fields._fields):
        need = set(names)
        px, py = np.pi * pts[:, 0], np.pi * pts[:, 1]
        yv = -(np.cos(px) + np.cos(py)) / np.pi if need - GRADIENTS else None
        gv = np.column_stack([np.sin(px), np.sin(py)]) if need & GRADIENTS else None
        u = project_box(-yv / alpha, lower, upper) if need & {"u", "f"} else None
        # f = -lap(y) + y - u with lap(y) = -pi^2 y
        f = (np.pi ** 2 + 1.0) * yv - u if "f" in need else None
        y_d = -np.pi ** 2 * yv if "y_d" in need else None
        return _only(need, yv, gv, yv, gv, u, f, y_d)

    # As in example1, the adjoint is the state.
    return TestCase("example3-neumann", "neumann", "unit-square", alpha, (lower, upper),
                    1.0, fields)


def get_case(name):
    if name == "example1":
        return smooth_dirichlet_case()
    if name == "example2-lshape":
        return lshape_singular_case()
    if name == "example3-neumann":
        return smooth_neumann_case()
    raise ValueError(f"unknown case {name!r}")
