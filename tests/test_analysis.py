"""Quadrature exactness, EOC arithmetic and CSV rendering."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from gdmopt import analysis
from gdmopt.analysis import (
    CSV_HEADER,
    DIAGNOSTICS_HEADER,
    ErrorReport,
    cell_quadrature,
    compute_eoc,
    compute_errors,
    get_rule,
    render_csv,
    render_diagnostics_csv,
    sample_level,
    segment_quadrature,
    triangle_quadrature,
)
from gdmopt.cases import Fields, get_case
from gdmopt.control import postprocess, solve_kkt_pdas
from gdmopt.mesh import build_cartesian_mesh, build_unit_square_triangulation
from gdmopt.schemes import build_scheme

REF_TRI = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])


def tri_monomial(a, b):
    # int over the reference triangle of x^a y^b.
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_triangle_weights_sum_to_area():
    tris = np.array(
        [
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            [[0.2, -0.1], [1.3, 0.4], [0.1, 2.0]],
        ]
    )
    for rule in ("midpoint", "gauss3", "gauss7", "degree10"):
        pts, wts = triangle_quadrature(tris, rule)
        assert pts.shape[0] == wts.shape[0]
        per_tri = wts.reshape(2, -1).sum(axis=1)
        e1 = tris[:, 1] - tris[:, 0]
        e2 = tris[:, 2] - tris[:, 0]
        areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        np.testing.assert_allclose(per_tri, areas, rtol=1e-14)


@pytest.mark.parametrize(
    "rule,degree",
    [("midpoint", 1), ("gauss3", 2), ("gauss7", 5), ("degree10", 10)],
)
def test_triangle_rule_exactness(rule, degree):
    pts, wts = triangle_quadrature(REF_TRI, rule)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b)
            assert val == pytest.approx(tri_monomial(a, b), rel=1e-13, abs=1e-16)


def test_gauss7_specific_value():
    # int x^2 y^3 = 2! 3! / 7! = 1/420; degree 5, so gauss7 is exact.
    pts, wts = triangle_quadrature(REF_TRI, "gauss7")
    val = np.sum(wts * pts[:, 0] ** 2 * pts[:, 1] ** 3)
    assert val == pytest.approx(1.0 / 420.0, rel=1e-14)
    pts, wts = triangle_quadrature(REF_TRI, "degree10")
    oracle = np.sum(wts * pts[:, 0] ** 2 * pts[:, 1] ** 3)
    assert val == pytest.approx(oracle, rel=1e-13)


def test_cell_quadrature_triangles():
    mesh = build_unit_square_triangulation(3)
    cells, pts, wts = cell_quadrature(mesh, "gauss3")
    assert wts.sum() == pytest.approx(1.0, rel=1e-14)
    assert cells.shape == wts.shape
    # int over the square of x y = 1/4.
    val = np.sum(wts * pts[:, 0] * pts[:, 1])
    assert val == pytest.approx(0.25, rel=1e-13)


def test_cell_quadrature_squares():
    mesh = build_cartesian_mesh(2, shift=0.2)
    cells, pts, wts = cell_quadrature(mesh, "gauss7")
    assert wts.sum() == pytest.approx(1.0, rel=1e-14)
    # Tensor rule with 3 points per axis: exact to degree 5 per variable.
    val = np.sum(wts * pts[:, 0] ** 5 * pts[:, 1] ** 5)
    assert val == pytest.approx(1.0 / 36.0, rel=1e-13)
    assert np.all(cells == np.repeat(np.arange(4), 9))


@pytest.mark.parametrize("rule", ["midpoint", "gauss3", "gauss7", "degree10"])
def test_quadrature_blocks_match_fresh_map(monkeypatch, rule):
    # The whole-mesh points are the reference rule mapped onto the cells,
    # bit for bit, and the blocks of whole cells tile them in order, bit
    # for bit, whatever the block size.
    monkeypatch.setattr(analysis, "BLOCK_POINTS", 8)
    for mesh in (build_unit_square_triangulation(3), build_cartesian_mesh(3, shift=0.2)):
        whole = cell_quadrature(mesh, rule)
        loops = mesh.vertices[mesh.cells]
        if mesh.cells.shape[1] == 3:
            pts, wts = triangle_quadrature(loops, rule)
        else:
            ref, wref = get_rule(rule).square
            e1 = loops[:, 1] - loops[:, 0]
            e2 = loops[:, 3] - loops[:, 0]
            pts = (loops[:, None, 0, :] + ref[None, :, 0, None] * e1[:, None, :]
                   + ref[None, :, 1, None] * e2[:, None, :]).reshape(-1, 2)
            wts = np.outer(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0], wref).ravel()
        cells = np.repeat(np.arange(mesh.n_cells), len(wts) // mesh.n_cells)
        for built, fresh in zip(whole, (cells, pts, wts)):
            assert np.array_equal(built, fresh)
        blocks = list(analysis.quadrature_blocks(mesh, rule))
        assert len(blocks) > 1
        assert blocks[0][0].start == blocks[0][1].start == 0
        assert blocks[-1][0].stop == len(wts) and blocks[-1][1].stop == mesh.n_cells
        for (span, block, *_), (after, next_block, *_) in zip(blocks, blocks[1:]):
            assert span.stop == after.start and block.stop == next_block.start
        for i, fresh in enumerate((cells, pts, wts)):
            assert np.array_equal(np.concatenate([b[2 + i] for b in blocks]), fresh)
        for span, block, *arrays in blocks:
            assert np.array_equal(arrays[0], cells[span])


def test_segment_quadrature():
    a = np.array([[0.0, 0.0], [1.0, 1.0]])
    b = np.array([[2.0, 0.0], [1.0, 4.0]])
    pts, wts, arc = segment_quadrature(a, b)
    assert pts.shape == (6, 2) and wts.shape == arc.shape == (6,)
    np.testing.assert_allclose(wts.reshape(2, -1).sum(axis=1), [2.0, 3.0],
                               rtol=1e-14)
    # Offsets are antisymmetric about the midpoint.
    np.testing.assert_allclose(arc.reshape(2, -1).sum(axis=1), 0.0, atol=1e-13)
    # Exact for cubics in arclength: int of s^3 over [-L/2, L/2] is 0.
    val = np.sum((wts * arc ** 3).reshape(2, -1), axis=1)
    np.testing.assert_allclose(val, 0.0, atol=1e-13)
    # int of s^2 over the first segment: L^3/12 = 8/12.
    val = np.sum((wts * arc ** 2).reshape(2, -1)[0])
    assert val == pytest.approx(8.0 / 12.0, rel=1e-14)


def test_compute_eoc_exact_powers():
    hs = [0.5, 0.25, 0.125, 0.0625]
    errors = [3.0 * h ** 1.7 for h in hs]
    eoc = compute_eoc(hs, errors)
    assert math.isnan(eoc[0])
    np.testing.assert_allclose(eoc[1:], 1.7, rtol=1e-12)


def test_compute_eoc_handles_zero_error():
    eoc = compute_eoc([0.5, 0.25], [1e-3, 0.0])
    assert math.isnan(eoc[1])


def make_report(level, h, scale=1.0):
    return ErrorReport(
        level=level, h=h, dofs=10 * level,
        err_y=scale * h ** 2, err_grad_y=scale * h, err_p=scale * h ** 2,
        err_grad_p=scale * h, err_u=scale * h, err_u_tilde=scale * h ** 2,
        pdas_iters=3,
    )


def test_render_csv_header_and_shape():
    reports = [make_report(2, 0.5), make_report(3, 0.25)]
    text = render_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == (
        "level,h,dofs,err_y,err_grad_y,err_p,err_grad_p,err_u,err_u_tilde,"
        "eoc_y,eoc_grad_y,eoc_p,eoc_grad_p,eoc_u,eoc_u_tilde,pdas_iters"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert len(first) == 16 and len(second) == 16
    # EOC columns are blank on the first data row, filled afterwards.
    assert all(v == "" for v in first[9:15])
    assert float(second[9]) == pytest.approx(2.0, rel=1e-9)
    assert float(second[10]) == pytest.approx(1.0, rel=1e-9)


def test_csv_float_format():
    text = render_csv([make_report(2, 1.0 / 3.0)])
    h_field = text.strip().split("\n")[1].split(",")[1]
    assert h_field == "3.333333333e-01"
    assert float(h_field) == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_csv_round_trip():
    reports = [make_report(2, 0.5), make_report(3, 0.25, scale=0.7)]
    lines = render_csv(reports).strip().split("\n")[1:]
    for line, rep in zip(lines, reports):
        vals = line.split(",")
        assert int(vals[0]) == rep.level
        assert int(vals[2]) == rep.dofs
        for v, field in zip(vals[3:9], ErrorReport.FIELDS):
            assert float(v) == pytest.approx(getattr(rep, field), rel=1e-9)
        assert int(vals[15]) == rep.pdas_iters


def test_render_csv_failure_marker():
    text = render_csv([make_report(2, 0.5)], failure=(3, 0.25))
    lines = text.strip().split("\n")
    assert len(lines) == 3
    marker = lines[-1].split(",")
    assert len(marker) == 16
    assert marker[0] == "3"
    assert marker[3] == "FAILED"


def test_render_diagnostics_csv():
    rows = [(2, 0.5, 0.2, 1e-16, 0.9, 0.9), (3, 0.25, 0.21, 2e-16, 0.45, 0.45)]
    lines = render_diagnostics_csv(rows).strip().split("\n")
    assert lines[0] == DIAGNOSTICS_HEADER == "level,h,c_d,w_d_y,s_d_y,s_d_p"
    assert len(lines) == 3
    assert len(lines[1].split(",")) == 6
    marker = render_diagnostics_csv(rows, failure=(4, 0.125)).strip().split("\n")[-1]
    assert marker == "4,1.250000000e-01,FAILED,,,"
    marker = render_diagnostics_csv(rows, failure=(4, None)).strip().split("\n")[-1]
    assert marker == "4,,FAILED,,,"


def test_render_csv_deterministic():
    reports = [make_report(2, 0.5), make_report(3, 0.25)]
    assert render_csv(reports) == render_csv(reports)


@pytest.mark.parametrize("name,scheme", [
    ("example2-lshape", "p1"), ("example3-neumann", "hmm"), ("example3-neumann", "ncp1"),
])
def test_blocks_match_one_block(monkeypatch, name, scheme):
    # At level 3 each point set is one block.  Blocks of 40 points hold
    # a few whole cells and divide none of the point sets, and still
    # give the same loads, kept samples, mass matrix and error report
    # bit for bit; a block keeps y and p as one array where the case
    # gives them as one.
    case = get_case(name)

    def level(fields):
        gd = build_scheme(scheme, case.build_mesh(scheme, 2 ** 3), case.bc)
        exact = sample_level(gd, fields)
        problem = case.build_problem(gd, loads=exact.loads)
        sol = solve_kkt_pdas(problem)
        report = compute_errors(gd, exact, sol.y, sol.p, sol.u,
                                functools.partial(postprocess, problem),
                                level=3, pdas_iters=sol.iterations)
        return exact, gd.mass_matrix, report

    whole = level(case.fields)
    calls = []

    def counted(pts, names):
        calls.append(len(pts))
        return case.fields(pts, names)

    monkeypatch.setattr(analysis, "BLOCK_POINTS", 40)
    blocked = level(counted)
    assert len(calls) > 4 and max(calls) <= 40
    assert len(whole[0].blocks) == 1 and len(blocked[0].blocks) > 1
    assert np.array_equal(blocked[0].loads, whole[0].loads)
    kept = ("p", "u") if scheme == "hmm" else ("y", "p", "u")
    for part in blocked[0].blocks:
        assert all(len(getattr(part, n)) <= analysis.BLOCK_POINTS for n in kept)
        assert all(getattr(part, n) is None for n in Fields._fields if n not in kept)
    for n in kept:
        assert np.array_equal(np.concatenate([getattr(b, n) for b in blocked[0].blocks]),
                              getattr(whole[0].blocks[0], n))
    assert {b.y is b.p for b in blocked[0].blocks} == {whole[0].blocks[0].y is whole[0].blocks[0].p}
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(blocked[1], attr), getattr(whole[1], attr))
    assert dataclasses.astuple(blocked[2]) == dataclasses.astuple(whole[2])


def test_run_level_maps_one_block_at_a_time(monkeypatch):
    # A study level builds no quadrature point set larger than a block:
    # every map of a reference rule returns one block of whole cells.
    # At level 5 the L-shape's gauss7 and gauss3 point sets span several
    # blocks each, so its four passes over them map more than four times.
    from gdmopt import cli

    sizes = []

    def counted(*args):
        pts, wts = real(*args)
        sizes.append(len(wts))
        return pts, wts

    real = analysis._affine_map
    monkeypatch.setattr(analysis, "_affine_map", counted)
    for name, scheme in (("example2-lshape", "p1"), ("example1", "p1"),
                         ("example3-neumann", "ncp1"), ("example3-neumann", "hmm")):
        sizes.clear()
        cli.run_table(name, scheme, (5, 5))
        assert max(sizes) <= analysis.BLOCK_POINTS
        assert name != "example2-lshape" or len(sizes) > 4


def test_run_level_memory_bound():
    # Traced peak of a one-level L-shape p1 study table at level 5, mesh
    # to error report.  Streaming the quadrature block by block took it
    # from 9.60 MB (whole point sets cached on the mesh) to 7.55 MB.
    import tracemalloc

    from gdmopt import cli

    cli.run_table("example2-lshape", "p1", (3, 3))
    tracemalloc.start()
    try:
        cli.run_table("example2-lshape", "p1", (5, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5e6, f"{peak / 1e6:.2f} MB"
