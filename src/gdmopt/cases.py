"""Benchmark problems with known optimal triples (state, adjoint, control).

Each case fixes exact state and adjoint, picks the control through the
box-projection formula, and then manufactures the sources so that the
optimality system holds exactly.  The singular case lives on the
L-shaped domain and its solution has the corner regularity r^(2/3), so
its data are unbounded near the re-entrant corner; quadrature nodes
never coincide with the corner, which is always a mesh vertex.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .control import OptimalControlProblem, project_box
from .mesh import (
    build_cartesian_mesh,
    build_lshape_triangulation,
    build_unit_square_triangulation,
)

CASE_NAMES = ("example1", "example2-lshape", "example3-neumann")


@dataclass
class TestCase:
    """Closures of one benchmark; all callables take (n, 2) point arrays."""

    name: str
    bc: str
    domain: str
    alpha: float
    bounds: tuple
    reaction: float
    y: Callable
    grad_y: Callable
    p: Callable
    grad_p: Callable
    u: Callable
    f: Callable
    y_d: Callable
    u_d: Optional[Callable] = None
    f_b: Optional[Callable] = None

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

    def build_problem(self, gd):
        return OptimalControlProblem(
            gd,
            alpha=self.alpha,
            bounds=self.bounds,
            y_target=self.y_d,
            volume_source=self.f,
            control_target=self.u_d,
            reaction=self.reaction,
            boundary_source=self.f_b if gd.bc == "neumann" else None,
        )


def smooth_dirichlet_case():
    """Distributed control on the unit square, one-sided box [0, inf)."""
    alpha = 1.0
    lower, upper = 0.0, np.inf

    def y(pts):
        return np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

    def grad_y(pts):
        sx, cx = np.sin(np.pi * pts[:, 0]), np.cos(np.pi * pts[:, 0])
        sy, cy = np.sin(np.pi * pts[:, 1]), np.cos(np.pi * pts[:, 1])
        return np.pi * np.column_stack([cx * sy, sx * cy])

    def u_d(pts):
        return (
            1.0
            - np.sin(0.5 * np.pi * pts[:, 0])
            - np.sin(0.5 * np.pi * pts[:, 1])
        )

    def u(pts):
        return project_box(u_d(pts) - y(pts) / alpha, lower, upper)

    def f(pts):
        return 2.0 * np.pi ** 2 * y(pts) - u(pts)

    def y_d(pts):
        return (1.0 - 2.0 * np.pi ** 2) * y(pts)

    return TestCase(
        "example1", "dirichlet", "unit-square", alpha, (lower, upper), 0.0,
        y, grad_y, y, grad_y, u, f, y_d, u_d=u_d,
    )


def _corner_singular_parts(pts):
    """Value, gradient and Laplacian of r^(2/3) * g(theta) on the L-shape.

    The polar angle is measured from the boundary edge on the positive
    x-axis and runs through [0, 3*pi/2] across the domain; g vanishes at
    both edges meeting the re-entrant corner.  Values at the corner
    itself are returned as zero.

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
    dg = s + c - (c * c - s * s)
    ddg = c - s + 4.0 * s * c
    r13 = np.where(corner, 0.0, 1.0 / np.cbrt(r))  # r^(-1/3)
    r43 = (r13 * r13) ** 2  # r^(-4/3)
    val = r * r13 * g  # r^(2/3) g
    two3 = 2.0 / 3.0
    sx = r13 * (two3 * g * c - dg * s)
    sy = r13 * (two3 * g * s + dg * c)
    lap = r43 * (ddg + (4.0 / 9.0) * g)
    return val, sx, sy, lap


def lshape_singular_case():
    """Distributed control on the L-shape with a corner-singular state."""
    alpha = 1e-3
    lower, upper = -600.0, -50.0

    def parts(pts):
        x, yy = pts[:, 0], pts[:, 1]
        b = (x ** 2 - 1.0) * (yy ** 2 - 1.0)
        bx = 2.0 * x * (yy ** 2 - 1.0)
        by = 2.0 * yy * (x ** 2 - 1.0)
        lap_b = 2.0 * (x ** 2 - 1.0) + 2.0 * (yy ** 2 - 1.0)
        s, sx, sy, lap_s = _corner_singular_parts(pts)
        val = b * s
        gx = bx * s + b * sx
        gy = by * s + b * sy
        lap = lap_b * s + 2.0 * (bx * sx + by * sy) + b * lap_s
        return val, gx, gy, lap

    def y(pts):
        return parts(pts)[0]

    def grad_y(pts):
        _, gx, gy, _ = parts(pts)
        return np.column_stack([gx, gy])

    def u(pts):
        return project_box(-y(pts) / alpha, lower, upper)

    def f(pts):
        val, _, _, lap = parts(pts)
        return -lap - project_box(-val / alpha, lower, upper)

    def y_d(pts):
        val, _, _, lap = parts(pts)
        return val + lap

    return TestCase(
        "example2-lshape", "dirichlet", "lshape", alpha, (lower, upper), 0.0,
        y, grad_y, y, grad_y, u, f, y_d,
    )


def smooth_neumann_case():
    """Distributed control on the unit square under Neumann conditions.

    The exact state has vanishing normal derivative on all four edges,
    so the fixed boundary source is zero and stays disabled.
    """
    alpha = 1e-3
    lower, upper = -750.0, -50.0

    def y(pts):
        return -(np.cos(np.pi * pts[:, 0]) + np.cos(np.pi * pts[:, 1])) / np.pi

    def grad_y(pts):
        return np.column_stack(
            [np.sin(np.pi * pts[:, 0]), np.sin(np.pi * pts[:, 1])]
        )

    def u(pts):
        return project_box(-y(pts) / alpha, lower, upper)

    def f(pts):
        # -lap(y) + y - u with lap(y) = -pi^2 y
        return (np.pi ** 2 + 1.0) * y(pts) - u(pts)

    def y_d(pts):
        return -np.pi ** 2 * y(pts)

    return TestCase(
        "example3-neumann", "neumann", "unit-square", alpha, (lower, upper), 1.0,
        y, grad_y, y, grad_y, u, f, y_d,
    )


def get_case(name):
    if name == "example1":
        return smooth_dirichlet_case()
    if name == "example2-lshape":
        return lshape_singular_case()
    if name == "example3-neumann":
        return smooth_neumann_case()
    raise ValueError(f"unknown case {name!r}")
