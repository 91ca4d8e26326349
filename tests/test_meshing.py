import hashlib
import io
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zeroset import (
    Box,
    GridScheme,
    TrivialPolynomialError,
    crofton_upper_estimate,
    measure,
    meshing,
    parse_polynomial,
    theorem_bound,
)
from zeroset._mc_tables import SEGMENTS, TRIANGLES
from zeroset.experiment import sharpness_polynomial
from zeroset.meshing import write_mesh_csv
from zeroset.polynomial import Polynomial

from oracles import (
    Poly,
    UnivariatePolynomial,
    arc_length_oracle,
    evaluate,
    naive_evaluate,
    random_polynomial,
    scale_vars,
    shift,
    swap_axes,
)

UNIT_SQUARE = Box.cube(0, 1, 2)
UNIT_CUBE = Box.cube(0, 1, 3)
# Four saddles, each inside one cell of the 6x6 grid on [-1,1]^2.
_SADDLES = "x1^2*x2^2 - 1/5*x1^2 - 1/3*x2^2 + 1/15 + 1/100*x1"
# A saddle on the x3 axis: at N=17 on [-1,1]^3 its column of cells has
# ambiguous faces whose centers sample negative above x3 = 0, positive below.
_FACE_SADDLES = "x1*x2 - 1/1000*x3"


class TestMeasureD1:
    def test_one_root(self):
        p = parse_polynomial("x1^2 - 1/4", 1)
        estimate = measure(p, Box.cube(0, 1, 1), 1)
        assert estimate.value == 1.0
        assert estimate.method == "exact_count"

    def test_no_roots(self):
        p = parse_polynomial("x1^2 + 1", 1)
        assert measure(p, Box.cube(0, 1, 1), 1).value == 0.0

    def test_planted_tenths(self):
        roots = [Fraction(i, 10) for i in range(1, 11)]
        u = UnivariatePolynomial.from_roots(roots)
        p = Polynomial(1, {(i,): c for i, c in enumerate(u.coefficients)})
        assert measure(p, Box.cube(0, 1, 1), 1).value == 10.0

    def test_trivial_rejected(self):
        with pytest.raises(TrivialPolynomialError):
            measure(Poly.zero(1), Box.cube(0, 1, 1), 1)

    def test_resolution_ignored(self):
        p = parse_polynomial("x1^2 - 1/4", 1)
        box = Box.cube(-1, 1, 1)
        coarse, fine = measure(p, box, 1), measure(p, box, 999)
        assert coarse == fine
        assert (coarse.value, coarse.method, coarse.resolution) == (2.0, "exact_count", 1)


def test_measure_rejects_dimension_4():
    p = parse_polynomial("x1*x2*x3*x4 - 1/2", 4)
    with pytest.raises(ValueError, match="d <= 3"):
        measure(p, Box.cube(0, 1, 4), 8)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("coefficient", [10**400, Fraction(-(10**400), 3)])
def test_measure_rejects_coefficient_beyond_float64(d, coefficient):
    p = Polynomial(d, {(1,) * d: 1, (0,) * d: coefficient})
    with pytest.raises(ValueError, match="float64"):
        measure(p, Box.cube(0, 1, d), 8)
    # A coefficient that rounds to 0.0 or to a finite float64 is taken.
    small = Polynomial(d, {(1,) * d: 1, (0,) * d: Fraction(-1, 10**400)})
    assert measure(small, Box.cube(0, 1, d), 8).value >= 0.0


def test_measure_rejects_values_beyond_float64():
    # Finite coefficients whose terms pass 2**1022 on the box: some vertex
    # value, or a difference of two, would overflow to inf and the mesh to NaN.
    big = 10**308
    p = Polynomial(2, {(2, 1): big, (0, 0): -big})
    with pytest.raises(ValueError, match="float64"):
        measure(p, Box.cube(0, 2, 2), 8)
    with pytest.raises(ValueError, match="float64"):  # a box end, not a value
        measure(parse_polynomial("x1*x2 - 1/4", 2), Box(((0, 10**400), (0, 1))), 8)
    # The memory test's polynomial, scaled by 10**302, stays within range.
    scaled = Polynomial(3, {e: c * 10**302 for e, c in sharpness_polynomial(3, 512).terms.items()})
    meshing.check_measure(scaled, UNIT_CUBE, 128)


@pytest.mark.parametrize(
    "d, root, end",
    [(2, 10**299, 10**300), (3, 10**299, 10**300), (3, 10**150, 10**160)],
    ids=["lengths", "areas", "total"],
)
def test_measure_rejects_lengths_beyond_float64(d, root, end):
    # Every vertex value is finite, but the segment lengths, the triangles'
    # cross products or their total are not.
    p = Polynomial(d, {(1,) + (0,) * (d - 1): 1, (0,) * d: -root})
    with pytest.raises(ValueError, match="float64"):
        measure(p, Box.cube(0, end, d), 4)


def test_mesh_total_beyond_float64_rejected():
    # Cells of side 2**200: each triangle's area fits, and so would 2**300
    # cells of them, but not 2**900.  Neither grid has distinct float64
    # nodes (2**299 + 2**200 rounds to 2**299), and the node rule, which
    # keeps n below 2**52, rejects both before any total could pass 2**1023.
    p = parse_polynomial("x1 - 1", 3)
    with pytest.raises(ValueError, match="float64 mesh nodes"):
        meshing.check_measure(p, Box.cube(0, 2**300, 3), 2**100)
    with pytest.raises(ValueError, match="float64"):
        meshing.check_measure(p, Box.cube(0, 2**500, 3), 2**300)


class TestNodeSpacing:
    def test_box_narrower_than_float64_spacing_rejected(self):
        # Every node float(1) + i*h rounds to 1.0, so no cell could change
        # sign and the unit segment x1 = 1 + 1/(2*10**21) would mesh to 0.
        p = parse_polynomial("x1 - 1 - 1/2000000000000000000000", 2)
        box = Box(((1, 1 + Fraction(1, 10**21)), (0, 1)))
        with pytest.raises(ValueError, match="too narrow"):
            measure(p, box, 8)

    def test_narrow_box_with_distinct_nodes_meshes(self):
        p = parse_polynomial("x1 - 1 - 1/2199023255552", 2)  # 1 + 2**-41
        assert measure(p, Box(((1, 1 + Fraction(1, 2**40)), (0, 1))), 8).value == 1.0

    def test_threshold(self):
        # On [1, 1 + 8w u] at n = 8, with u = 2**-52 the spacing there,
        # the cell side is w u; the rule takes w > 4.
        p = parse_polynomial("x1 + x2 - 1", 2)
        meshing.check_measure(p, Box(((1, 1 + Fraction(40, 2**52)), (0, 1))), 8)
        with pytest.raises(ValueError, match="too narrow"):
            meshing.check_measure(p, Box(((1, 1 + Fraction(32, 2**52)), (0, 1))), 8)

    @given(
        st.integers(-(2**53), 2**53),
        st.integers(-80, 80),
        st.integers(1, 200),
        st.integers(2, 16),
    )
    @example(2**53 - 3, -53, 100, 8)  # crosses the binade at 1.0
    @example(-(2**52), -52, 50, 8)  # ends at -1 + 50 ulp(1)
    def test_accepted_boxes_have_strictly_increasing_nodes(self, m, e, w, n):
        a = Fraction(m) * Fraction(2) ** e
        b = a + w * Fraction(math.ulp(float(a)))
        try:
            meshing.check_measure(parse_polynomial("x1 + x2 - 1", 2), Box(((a, b), (0, 1))), n)
        except ValueError:
            return
        assert np.all(np.diff(meshing._node_array(a, b, n)) > 0)


class TestMarchingSquares:
    def test_vertical_line_exact(self):
        p = parse_polynomial("x1 - 1/2", 2)
        estimate = measure(p, UNIT_SQUARE, 64)
        assert estimate.value == 1.0
        assert estimate.method == "marching_squares"
        assert estimate.cells_with_sign_change == 64

    def test_circle_circumference(self):
        p = parse_polynomial("x1^2 + x2^2 - 1/4", 2)
        estimate = measure(p, Box.cube(-1, 1, 2), 512)
        assert abs(estimate.value - math.pi) <= 0.005 * math.pi

    def test_hyperbola_against_arc_length_oracle(self):
        c = Fraction(1, 100)
        p = Polynomial(2, {(1, 1): 1, (0, 0): -c})
        estimate = measure(p, UNIT_SQUARE, 1024)
        oracle = arc_length_oracle(float(c))
        assert abs(estimate.value - oracle) <= 0.01 * oracle

    def test_empty_zero_set(self):
        p = parse_polynomial("x1^2 + x2^2 + 1", 2)
        estimate = measure(p, UNIT_SQUARE, 32)
        assert estimate.value == 0.0
        assert estimate.cells_with_sign_change == 0

    def test_corner_point_has_zero_length(self):
        p = parse_polynomial("x1*x2 - 1", 2)
        assert measure(p, UNIT_SQUARE, 64).value == 0.0

    def test_ambiguous_saddle_resolved_by_center(self):
        # x1*x2 = 0 through the cell grid center creates diagonal cells
        p = parse_polynomial("x1*x2 - 1/1000", 2)
        estimate = measure(p, Box.cube(-1, 1, 2), 33)
        assert estimate.value > 0
        repeat = measure(p, Box.cube(-1, 1, 2), 33)
        assert estimate == repeat

    def test_resolution_validation(self):
        p = parse_polynomial("x1 - 1/2", 2)
        with pytest.raises(ValueError):
            measure(p, UNIT_SQUARE, 1)
        with pytest.raises(ValueError):
            measure(p, Box.cube(0, 1, 3), 8)
        with pytest.raises(TrivialPolynomialError):
            measure(Poly.zero(2), UNIT_SQUARE, 8)


# Marching-squares outputs recorded before the classifier was restricted to
# sign-change cells: float.hex of the total, cells with a sign change, and
# the SHA-256 of the segment array's bytes.  Every polynomial has exponents
# of at most 2, so vertex values use only IEEE-exact products and sums.
_SQUARES_GOLDEN = [
    (
        "sharpness n=4", "x1*x2 - 1/4", "0,1", 2048,
        "0x1.21d0acdff3703p+0", 3073,
        "c11c13fb65b67c89a169b2576cf3a4cc1febf5777db28699dcb5088dc0e703ad",
    ),
    (
        "sharpness n=1024", "x1*x2 - 1/1024", "0,1", 2048,
        "0x1.f271c7f929be7p+0", 4093,
        "6336f4349745ae27f932491521b5238a44adec4c16eeb75a5d725de587bb9e82",
    ),
    (
        "circle", "x1^2 + x2^2 - 1/4", "-1,1", 512,
        "0x1.921ef2b466bf7p+1", 1020,
        "2da1ade5dfeb869192b3f5ef7ed30b179ab3eb319cbe4713d1ea56724725a259",
    ),
    (
        "near-diagonal", "x1^2 - 2*x1*x2 + x2^2 - 1/10000", "0,1", 256,
        "0x1.667cec1b25236p+1", 1014,
        "8f768d7a5bd1a9fca0ccddcf43fb1b078b02d4c1e227342f2f3c73265e86d9c8",
    ),
    (
        "ambiguous saddles", _SADDLES, "-1,1", 6,
        "0x1.b58d89c166883p+2", 20,
        "14cd8416415dbb25a1d421b2d31f71c3b3ccdfbe1a61c8c89a365e6b66f40352",
    ),
    (
        "odd N, non-square box", "x1^2 + 4*x2^2 - 1", "-3/2,1;-2/3,3/4", 257,
        "0x1.3606b8499d056p+2", 772,
        "56cbe82f6fe376a94709ebe2993061024a56c9667287e399616302c5eec9eab1",
    ),
]


class TestMarchingSquaresGolden:
    @pytest.mark.parametrize(
        "text, box, n, total_hex, crossed, digest",
        [case[1:] for case in _SQUARES_GOLDEN],
        ids=[case[0] for case in _SQUARES_GOLDEN],
    )
    def test_bit_identical(self, text, box, n, total_hex, crossed, digest):
        p = parse_polynomial(text, 2)
        box = Box.parse(box, 2)
        estimate = measure(p, box, n)
        assert estimate.value.hex() == total_hex
        assert estimate.cells_with_sign_change == crossed
        segments = measure(p, box, n, keep_mesh=True).mesh
        assert hashlib.sha256(segments.tobytes()).hexdigest() == digest

    def test_saddles_cover_both_ambiguous_cases_and_center_signs(self):
        # Exact signs at the rational vertices and cell centers, so the golden
        # case above really exercises cases 5 and 10 with either center sign.
        p = parse_polynomial(_SADDLES, 2)
        n = 6
        node = [Fraction(-1) + Fraction(2 * i, n) for i in range(n + 1)]
        half = Fraction(1, n)
        seen = set()
        for i in range(n):
            for j in range(n):
                corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
                case = sum(
                    1 << bit
                    for bit, (a, b) in enumerate(corners)
                    if naive_evaluate(p, (node[a], node[b])) < 0
                )
                if case in (5, 10):
                    center = naive_evaluate(p, (node[i] + half, node[j] + half))
                    seen.add((case, center < 0))
        assert seen == {(5, True), (5, False), (10, True), (10, False)}


class TestMarchingCubes:
    def test_plane_exact(self):
        p = parse_polynomial("x1 - 1/2", 3)
        estimate = measure(p, UNIT_CUBE, 32)
        assert estimate.value == 1.0
        assert estimate.method == "marching_cubes"

    def test_sphere_area(self):
        p = parse_polynomial("x1^2 + x2^2 + x3^2 - 1/4", 3)
        estimate = measure(p, Box.cube(-1, 1, 3), 64)
        assert abs(estimate.value - math.pi) <= 0.02 * math.pi

    def test_diagonal_plane_hexagon(self):
        p = parse_polynomial("x1 + x2 + x3 - 3/2", 3)
        estimate = measure(p, UNIT_CUBE, 64)
        expected = 3 * math.sqrt(3) / 4
        assert abs(estimate.value - expected) <= 0.01 * expected

    def test_ambiguous_faces_deterministic(self):
        # x1*x2 = x3/1000 has a saddle on the x3 axis: the faces x3 = const
        # of the cells around it have diagonally alternating corner signs.
        p = parse_polynomial("x1*x2 - 1/1000*x3", 3)
        box = Box.cube(-1, 1, 3)
        n = 17
        nodes = [Fraction(2 * i - n, n) for i in range(n + 1)]
        negative = np.array(
            [[[evaluate(p, (a, b, c)) < 0 for c in nodes] for b in nodes] for a in nodes]
        )
        ambiguous = 0
        for u, v in ((0, 1), (0, 2), (1, 2)):
            s = np.moveaxis(negative, (u, v), (0, 1))
            c00, c10, c11, c01 = s[:-1, :-1], s[1:, :-1], s[1:, 1:], s[:-1, 1:]
            ambiguous += int(((c00 == c11) & (c10 == c01) & (c00 != c10)).sum())
        assert ambiguous > 0
        a = measure(p, box, n)
        b = measure(p, box, n)
        assert a == b
        assert a.value > 0


# Marching-cubes outputs recorded before the vertex values were evaluated one
# slab of cell rows at a time: float.hex of the total, cells with a sign
# change, and the SHA-256 of the triangle array's bytes.  The 128^3 meshes
# and the N=97 mesh span several slabs; 97 is prime, so no slab height
# divides it.
_CUBES_GOLDEN = [
    (
        "sharpness n=8", "x1*x2*x3 - 1/8", "0,1", 128,
        "0x1.32ab455f09216p+0", 30235,
        "7fd11bdf6845e949f1ec608c5591990c4060c78ed1c9b95aaeead2842388d139",
    ),
    (
        "sharpness n=512", "x1*x2*x3 - 1/512", "0,1", 128,
        "0x1.5512d062d2986p+1", 48430,
        "4bddd80a799c7d0f491d631d1d45e6f499e76b3e5e12e69c2911eff91bdbd3c6",
    ),
    (
        "sphere", "x1^2 + x2^2 + x3^2 - 1/4", "-1,1", 64,
        "0x1.917783df42b87p+1", 4760,
        "8348facea6d95d0e95e8db3d3ab2e5f23e1fe0cce90be6aa984494a42352b448",
    ),
    (
        "hyperboloid", "x1^2 + x2^2 - x3^2 - 1/8", "-1,1", 17,
        "0x1.3f7d27f7c0de1p+3", 1120,
        "768581f467ec57a5119d13a03675451e1775d2e39d495c94c5f6e041bf58c85d",
    ),
    (
        "face votes", _FACE_SADDLES, "-1,1", 17,
        "0x1.f437ceb5c14e4p+2", 561,
        "27e3a71f010abc4ee3fa5902dde7f3af16c55f8253f6597f87227acc2f65b689",
    ),
    (
        "odd N, non-cube box", "x1^3 - 2*x1*x2*x3 + x2^2 + 1/3*x3^4 - 1/5",
        "-1,1;-1/2,3/4;-3/4,1", 97,
        "0x1.7b0ed80311043p+2", 30872,
        "39e98305a3eeaba350d9acacc0fa518e7965d04e7a6371d802329cf9445838f0",
    ),
]


class TestMarchingCubesGolden:
    @pytest.mark.parametrize(
        "text, box, n, total_hex, crossed, digest",
        [case[1:] for case in _CUBES_GOLDEN],
        ids=[case[0] for case in _CUBES_GOLDEN],
    )
    def test_bit_identical(self, text, box, n, total_hex, crossed, digest):
        p = parse_polynomial(text, 3)
        box = Box.parse(box, 3)
        estimate = measure(p, box, n)
        assert estimate.value.hex() == total_hex
        assert estimate.cells_with_sign_change == crossed
        triangles = measure(p, box, n, keep_mesh=True).mesh
        assert hashlib.sha256(triangles.tobytes()).hexdigest() == digest

    def test_face_votes_go_both_ways(self):
        # Exact signs at the rational vertices and face centers, so the golden
        # case above really has cells whose ambiguous faces vote to flip the
        # triangulation and cells whose faces vote to keep it.
        p = parse_polynomial(_FACE_SADDLES, 3)
        n = 17
        node = [Fraction(-1) + Fraction(2 * i, n) for i in range(n + 1)]
        half = Fraction(1, n)
        corners = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                   (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
        faces = [((0, 1, 2, 3), (1, 1, 0)), ((4, 5, 6, 7), (1, 1, 2)),
                 ((0, 1, 5, 4), (1, 0, 1)), ((3, 2, 6, 7), (1, 2, 1)),
                 ((0, 3, 7, 4), (0, 1, 1)), ((1, 2, 6, 5), (2, 1, 1))]
        vertex_neg = {
            v: naive_evaluate(p, [node[i] for i in v]) < 0 for v in np.ndindex(n + 1, n + 1, n + 1)
        }
        flipped = kept = 0
        for cell in np.ndindex(n, n, n):
            neg = [vertex_neg[tuple(c + o for c, o in zip(cell, offset))] for offset in corners]
            votes = 0
            for (a, b, c, d), center in faces:
                if neg[a] == neg[c] and neg[b] == neg[d] and neg[a] != neg[b]:
                    point = [node[i] + h * half for i, h in zip(cell, center)]
                    votes += 1 if naive_evaluate(p, point) < 0 else -1
            flipped += votes > 0
            kept += votes < 0
        assert flipped > 0 and kept > 0


def _whole_grid(p, box, n, start=True):
    """Vertex values over the whole grid by the formula meshes used before
    slabs: a zero grid plus one broadcast product per term, in sorted term
    order.  With start=False the sum begins at the first term instead."""
    d = box.dimension
    nodes = [float(a) + np.arange(n + 1) * float((b - a) / n) for a, b in box.intervals]
    values = np.zeros((n + 1,) * d) if start else None
    for exponents in sorted(p.terms):
        factor = np.full(1, float(p.terms[exponents]))
        for j, e in enumerate(exponents):
            shape = [1] * d
            shape[j] = n + 1
            factor = factor * (nodes[j] ** e).reshape(shape)
        if values is None:
            values = np.broadcast_to(factor, (n + 1,) * d).copy()
        else:
            values += factor
    return values


def _scan(p, box, n):
    """The chunks of `_crossed_cells`, joined: cells, corner values, corner offsets."""
    d = box.dimension
    nodes = [meshing._node_array(a, b, n) for a, b in box.intervals]
    offsets = np.array(list(itertools.product((0, 1), repeat=d)))
    # A chunk may be a view of buffers that the next one reuses.
    runs = [(c.copy(), v.copy()) for c, v in meshing._crossed_cells(p, nodes, offsets)]
    cells = np.concatenate([c for c, _ in runs] + [np.empty(0, dtype=np.intp)])
    values = np.concatenate([v for _, v in runs] + [np.empty((2**d, 0))], axis=1)
    return cells, values, offsets


def _assert_scan_matches_whole_grid(p, box, n):
    """The scan's crossed cells are the whole grid's, as a set, and each
    cell's corner values equal the whole grid's, byte for byte.

    Returns the whole grid, the crossed cells in row-major order, their
    corner values in that order and the corner offsets.
    """
    cells, values, offsets = _scan(p, box, n)
    order = np.argsort(cells)
    cells, values = cells[order], values[:, order]
    grid = _whole_grid(p, box, n)
    corner_grids = [grid[tuple(slice(o, o + n) for o in offset)] for offset in offsets]
    mixed = np.zeros((n,) * box.dimension, dtype=bool)
    for corner in corner_grids[1:]:
        mixed |= (corner < 0) != (corner_grids[0] < 0)
    expected = np.flatnonzero(mixed)
    assert np.array_equal(cells, expected)  # each crossed cell once, no other cell
    for row, corner in zip(values, corner_grids):
        assert row.tobytes() == corner.reshape(-1)[expected].tobytes()
    return grid, expected, values, offsets


def _kept_blocks(p, box, n):
    """The certificate's mask of kept blocks over the whole grid of blocks."""
    nodes = [meshing._node_array(a, b, n) for a, b in box.intervals]
    return meshing._Certificate(p, nodes, meshing._BLOCK[box.dimension]).keep(slice(None))


# Every term vanishes on x1 = 0, where x2 < 0 (and x3 > 0 in d=3) makes each
# of them -0.0: only the +0.0 start of the sum makes those vertices +0.0.
_SEAM_CASES = {
    2: ("x1*x2 - x1 + x1^2*x2", "0,1;-1,1"),
    3: ("x1*x2*x3 - x1 + x1*x2", "0,1;-1,1;-1,1"),
}
_SEAM_BLOCK = 4


class TestSlabSeams:
    @pytest.fixture
    def small_blocks(self, monkeypatch):
        """Blocks of _SEAM_BLOCK cells per axis, `most` blocks per batch, slices of 5 cells."""

        def set_blocks(d, most):
            monkeypatch.setattr(meshing, "_scan_whole", lambda n, d: False)
            monkeypatch.setitem(meshing._BLOCK, d, _SEAM_BLOCK)
            monkeypatch.setattr(meshing, "_BUFFER_BYTES", 16 * (_SEAM_BLOCK + 1) ** d * most)
            monkeypatch.setattr(meshing, "_BATCH_CELLS", 5)
            assert meshing._batch_blocks(d) == most

        return set_blocks

    # One block per batch evaluates every kept block alone; three per batch
    # also put kept blocks of different block-rows into one batch.
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize(
        "n", [_SEAM_BLOCK - 1, _SEAM_BLOCK, 2 * _SEAM_BLOCK - 1, 2 * _SEAM_BLOCK + 1]
    )
    def test_crossed_corners_match_whole_grid(self, small_blocks, d, n):
        text, box = _SEAM_CASES[d]
        p = parse_polynomial(text, d)
        box = Box.parse(box, d)
        for most in (1, 3):
            small_blocks(d, most)
            grid, expected, values, offsets = _assert_scan_matches_whole_grid(p, box, n)

            # Some crossed corner is a sum of negative zeros, which the mesh keeps as +0.0.
            negative_zero = np.signbit(_whole_grid(p, box, n, start=False)) & (grid == 0)
            assert any(
                negative_zero[tuple(slice(o, o + n) for o in offset)].reshape(-1)[expected].any()
                for offset in offsets
            )
            assert not np.signbit(values[values == 0]).any()

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [_SEAM_BLOCK, 2 * _SEAM_BLOCK + 1])
    def test_mesh_matches_one_slab(self, small_blocks, d, n):
        text, box = _SEAM_CASES[d]
        p = parse_polynomial(text, d)
        box = Box.parse(box, d)
        assert meshing._scan_whole(n, d)
        whole = measure(p, box, n, keep_mesh=True)
        assert whole.cells_with_sign_change <= meshing._BATCH_CELLS  # one slice
        for most in (1, 3):
            small_blocks(d, most)
            sliced = measure(p, box, n, keep_mesh=True)
            assert sliced.value.hex() == whole.value.hex()
            assert sliced.cells_with_sign_change == whole.cells_with_sign_change
            assert sliced.mesh.tobytes() == whole.mesh.tobytes()


def _scan_problems(d):
    monomials = st.tuples(*[st.integers(0, 4)] * d).filter(lambda e: sum(e) <= 4)
    polys = st.dictionaries(
        monomials,
        st.fractions(min_value=-8, max_value=8, max_denominator=12),
        min_size=1,
        max_size=6,
    ).map(lambda terms: Polynomial(d, terms)).filter(lambda p: not p.is_trivial)
    # Intervals below, around and above 0.
    intervals = st.tuples(
        st.fractions(min_value=-2, max_value=2, max_denominator=8),
        st.fractions(min_value=Fraction(1, 8), max_value=3, max_denominator=8),
    ).map(lambda a: (a[0], a[0] + a[1]))
    boxes = st.lists(intervals, min_size=d, max_size=d).map(Box)
    return st.tuples(polys, boxes, st.integers(2, 40 if d == 2 else 20))


def _seam_problem(d, n):
    text, box = _SEAM_CASES[d]
    return parse_polynomial(text, d), Box.parse(box, d), n


class TestBlockScan:
    @settings(max_examples=60)
    @example(_seam_problem(2, 9), 4, 1)
    @example(_seam_problem(3, 9), 4, 3)
    @given(
        st.sampled_from([2, 3]).flatmap(_scan_problems),
        st.sampled_from([None, 2, 3, 4]),
        st.sampled_from([None, 1, 3]),
    )
    def test_matches_whole_grid(self, problem, size, most):
        # Default or small blocks (n below, at and past whole multiples of
        # the block), with default or few blocks per batch; and the seam
        # polynomials, whose every term is -0.0 at some vertices.
        p, box, n = problem
        d = box.dimension
        size = size or meshing._BLOCK[d]
        most = most or meshing._batch_blocks(d)
        with mock.patch.dict(meshing._BLOCK, {d: size}), mock.patch.multiple(
            meshing, _BUFFER_BYTES=16 * (size + 1) ** d * most, _scan_whole=lambda n, d: False
        ):
            _assert_scan_matches_whole_grid(p, box, n)

    @settings(max_examples=30)
    @given(st.sampled_from([2, 3]).flatmap(_scan_problems), st.integers(2, 4), st.integers(1, 3))
    def test_mesh_matches_whole_grid(self, problem, size, most):
        # Blocks of 2-4 cells, 1-3 blocks per batch and slices of 5 cells
        # reorder and regroup the crossed cells; the total (an exact sum) and
        # the dump (sorted by key and cell) stay those of the whole-grid scan.
        p, box, n = problem
        d = box.dimension
        assert meshing._scan_whole(n, d)
        whole = measure(p, box, n, keep_mesh=True)
        with mock.patch.dict(meshing._BLOCK, {d: size}), mock.patch.multiple(
            meshing,
            _BUFFER_BYTES=16 * (size + 1) ** d * most,
            _scan_whole=lambda n, d: False,
            _BATCH_CELLS=5,
        ):
            blocked = measure(p, box, n, keep_mesh=True)
        assert blocked.value.hex() == whole.value.hex()
        assert blocked.cells_with_sign_change == whole.cells_with_sign_change
        assert blocked.mesh.tobytes() == whole.mesh.tobytes()

    def test_sharpness_evaluates_few_vertices(self, monkeypatch):
        # A certificate that stops skipping blocks changes no result, only
        # the work, so count the vertex values computed.
        evaluate = meshing._evaluate
        evaluated = []

        def counting(terms, out, tmp):
            evaluated.append(out.size)
            return evaluate(terms, out, tmp)

        monkeypatch.setattr(meshing, "_evaluate", counting)
        n = 2048
        estimate = measure(sharpness_polynomial(2, 64), UNIT_SQUARE, n)
        assert estimate.cells_with_sign_change > 0
        assert sum(evaluated) <= 0.05 * (n + 1) ** 2


class TestCertificate:
    @pytest.fixture(autouse=True)
    def blocks(self, monkeypatch):
        """Scan even small grids block by block, through the certificate."""
        monkeypatch.setattr(meshing, "_scan_whole", lambda n, d: False)

    @pytest.mark.parametrize(
        "shift, kept", [(Fraction(1, 2**50), True), (Fraction(1, 2**46), False)]
    )
    def test_margin_decides_blocks_at_zero(self, shift, kept):
        # On the blocks at x1 = 0, x1 + shift is positive at every vertex and
        # its enclosure [shift, 1/4 + shift] stays above 0; by less than the
        # margin (about 4.4e-15) for 2**-50, which keeps those blocks, and by
        # more for 2**-46, which skips them.
        p = Polynomial(2, {(1, 0): 1, (0, 0): shift})
        n = 64
        keep = _kept_blocks(p, UNIT_SQUARE, n)
        assert keep[0].all() == kept and not keep[1:].any()
        grid, expected, _, _ = _assert_scan_matches_whole_grid(p, UNIT_SQUARE, n)
        assert (grid > 0).all() and len(expected) == 0

    def test_even_power_around_zero_reaches_zero(self):
        # At n = 24 on [-1, 1]^2 the first block-row spans x1 in [-1, 1/3]:
        # there x1^2 ranges over [0, 1], not between its endpoint values 1/9
        # and 1, and x1^2 - 1/100 crosses zero near x1 = 0.
        p = parse_polynomial("x1^2 - 1/100", 2)
        box = Box.cube(-1, 1, 2)
        keep = _kept_blocks(p, box, 24)
        assert keep[0].all() and not keep[1].any()
        _, expected, _, _ = _assert_scan_matches_whole_grid(p, box, 24)
        assert len(expected) > 0

    def test_overestimated_enclosure_keeps_block(self):
        # (x1 - x2)^2 + 1/100 is positive everywhere, but term by term its
        # enclosure spans 0 on the blocks along the diagonal.
        p = parse_polynomial("x1^2 - 2*x1*x2 + x2^2 + 1/100", 2)
        n = 64
        keep = _kept_blocks(p, UNIT_SQUARE, n)
        assert keep.diagonal().all() and not keep.all()
        grid, expected, _, _ = _assert_scan_matches_whole_grid(p, UNIT_SQUARE, n)
        assert (grid > 0).all() and len(expected) == 0

    @pytest.mark.parametrize(
        "terms, box, everything_kept",
        [
            # 10^300 * 4^2 passes 2**1000, the certificate's ceiling.
            ({(2, 0): Fraction(10**300), (0, 1): -Fraction(10**300)}, Box.cube(-4, 4, 2), True),
            # Every term is subnormal, so no margin can be shown.
            (
                {(1, 0): Fraction(1, 10**310), (0, 1): Fraction(1, 10**310),
                 (0, 0): -Fraction(1, 10**310)},
                UNIT_SQUARE,
                True,
            ),
            # Terms near 10^-300 that underflow toward the corner at 0.
            ({(4, 4): Fraction(1, 10**300), (0, 0): -Fraction(1, 10**318)}, UNIT_SQUARE, False),
            # x1^200 underflows near 0 and stays below 1 in the box.
            ({(200, 0): Fraction(1), (1, 1): Fraction(1, 3), (0, 0): -Fraction(1, 8)},
             Box.cube(-1, 1, 2), False),
        ],
        ids=["1e300", "subnormal", "1e-300", "x1^200"],
    )
    def test_extreme_magnitudes(self, terms, box, everything_kept):
        # Runs with RuntimeWarnings raised as errors (pyproject.toml).
        p = Polynomial(2, terms)
        n = 64
        keep = _kept_blocks(p, box, n)
        assert keep.all() == everything_kept
        _assert_scan_matches_whole_grid(p, box, n)


class TestCaseTables:
    """Every entry of the case tables, against the rules and lists they encode."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_face_masks_follow_the_corner_rule(self, d):
        cases = meshing._CASES[d]
        for case in range(2 ** 2**d):
            neg = [case >> corner & 1 for corner in range(2**d)]
            expected = sum(
                1 << bit
                for bit, (a, b, c, e) in enumerate(meshing._FACES[d])
                if neg[a] == neg[c] and neg[b] == neg[e] and neg[a] != neg[b]
            )
            assert cases.faces[case] == expected
        assert {c for c in range(16) if meshing._CASES[2].faces[c]} == {5, 10}

    @pytest.mark.parametrize("d", [2, 3])
    def test_faces_and_centers(self, d):
        offsets = meshing._CORNER_OFFSETS[:, :d].tolist()
        for face, center in zip(meshing._FACES[d], meshing._CASES[d].centers.T.tolist()):
            corners = [offsets[c] for c in face]
            # Four corners sharing one coordinate, each next to the following one.
            assert d == 2 or any(len({c[j] for c in corners}) == 1 for j in range(d))
            for a, b in zip(corners, corners[1:] + corners[:1]):
                assert sum(abs(x - y) for x, y in zip(a, b)) == 1
            assert center == [sum(c[j] for c in corners) / 4 for j in range(d)]

    @pytest.mark.parametrize("d, primitives", [(2, SEGMENTS), (3, TRIANGLES)])
    def test_primitives_match_the_case_lists(self, d, primitives):
        cases = meshing._CASES[d]
        assert all(t.dtype == np.intp for t in (cases.bits, cases.faces, cases.counts, cases.edges))
        offsets = meshing._CORNER_OFFSETS.tolist()
        for case, listed in enumerate(primitives):
            assert cases.counts[case] == len(listed)
            for slot, edges in enumerate(listed):
                row = case * cases.width + slot
                assert tuple(cases.edges[:, row]) == edges
                for edge in edges:
                    a, b = meshing._EDGE_A[edge], meshing._EDGE_B[edge]
                    # A crossed edge of the cell, first corner lexicographically smaller.
                    assert max(a, b) < 2**d and (case >> a & 1) != (case >> b & 1)
                    assert offsets[a] < offsets[b]
                    start = meshing._EDGE_START[:, edge].tolist()
                    step = meshing._EDGE_STEP[:, edge].tolist()
                    assert start == offsets[a]
                    assert [s + t for s, t in zip(start, step)] == offsets[b]


def _case_corners(rng, code, d, m):
    """m cells of random finite corner values with the signs of case `code`:
    exact zeros (which count as positive), magnitudes near 2**1000 and
    2**-1000, and edges whose two corners differ in sign only."""
    negative = ((code >> np.arange(2**d)) & 1 == 1)[:, None]
    magnitudes = np.exp2(rng.uniform(-4, 4, (2**d, m)))
    quarter = m // 4
    magnitudes[:, :quarter] *= 2.0 ** rng.choice([-1000, 1000], (2**d, quarter))
    magnitudes[:, quarter : 2 * quarter] = magnitudes[:1, quarter : 2 * quarter]
    values = np.where(negative, -magnitudes, magnitudes)
    values[:, 2 * quarter : 3 * quarter] *= negative  # positive corners at 0.0
    return values


class TestFoldedKernel:
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_flat_kernel_in_every_case(self, monkeypatch, d):
        # Every case code, with its own table entry and with the complementary
        # case's (the two outcomes of the face vote): `_fold` gives the same
        # segment lengths or triangle areas as `_march_batch`, bit for bit.
        rng = np.random.default_rng(2024)
        h = np.array([1 / 3, 0.25, 2.0])[:d]
        full = 2 ** 2**d - 1
        for code in range(1, full):
            corners = _case_corners(rng, code, d, 64)
            for effective in {code, full - code}:
                measures = []
                for fold in (1, 10**9):  # everything folded, nothing folded
                    monkeypatch.setattr(meshing, "_FOLD_CELLS", fold)
                    codes = np.full(64, effective, dtype=np.uint8)
                    measures.append(np.sort(meshing._measures(h, corners.copy(), codes)))
                assert len(measures[0]) == 64 * len((TRIANGLES if d == 3 else SEGMENTS)[effective])
                assert measures[0].tobytes() == measures[1].tobytes(), (code, effective)

    @pytest.mark.parametrize("fold", [1, 10**9])
    def test_totals_whether_or_not_cases_fold(self, monkeypatch, fold):
        # The golden meshes and the sharpness family, with every case folded
        # and with none: the totals and crossed counts of the default split.
        meshes = [(t, b, n, 2, total, crossed) for _, t, b, n, total, crossed, _ in _SQUARES_GOLDEN]
        meshes += [(t, b, n, 3, total, crossed) for _, t, b, n, total, crossed, _ in _CUBES_GOLDEN]
        for d, n in ((2, 2048), (3, 128)):
            for k in (8, 64, 512):
                default = measure(sharpness_polynomial(d, k), Box.cube(0, 1, d), n)
                meshes.append((str(sharpness_polynomial(d, k)), "0,1", n, d, default.value.hex(),
                               default.cells_with_sign_change))
        monkeypatch.setattr(meshing, "_FOLD_CELLS", fold)
        for text, box, n, d, total, crossed in meshes:
            estimate = measure(parse_polynomial(text, d), Box.parse(box, d), n)
            assert (estimate.value.hex(), estimate.cells_with_sign_change) == (total, crossed), text

    @pytest.mark.parametrize(
        "text, box, n, d",
        [
            (_SADDLES, "-1,1", 64, 2),
            (_FACE_SADDLES, "-1,1", 17, 3),
            ("x1*x2*x3 - 1/64", "0,1", 48, 3),  # block-scanned
        ],
    )
    def test_small_chunks(self, monkeypatch, text, box, n, d):
        # Chunks of 5 cells, every case of a chunk folded: no `_fold` call
        # gets more than 5 cells, and the total does not change.
        p, box = parse_polynomial(text, d), Box.parse(box, d)
        default = measure(p, box, n)
        fold, sizes = meshing._fold, []

        def counting(plan, corners, h, out):
            sizes.append(corners.shape[1])
            return fold(plan, corners, h, out)

        monkeypatch.setattr(meshing, "_fold", counting)
        monkeypatch.setattr(meshing, "_MARCH_CELLS", 5)
        monkeypatch.setattr(meshing, "_FOLD_CELLS", 1)
        chunked = measure(p, box, n)
        assert 0 < max(sizes) <= 5
        assert chunked.value.hex() == default.value.hex()
        assert chunked.cells_with_sign_change == default.cells_with_sign_change


class TestMeshMemory:
    @pytest.mark.parametrize("d, n", [(2, 2048), (3, 128)])
    def test_no_whole_float_grid(self, d, n):
        # Peak traced allocation (NumPy reports its buffers to tracemalloc)
        # stays below half of one whole (n+1)^d float64 vertex grid, with the
        # sharpness polynomial and with its zero set scaled by 10^302, past
        # the certificate's ceiling, so that every block is evaluated.
        p = sharpness_polynomial(d, 512)
        scaled = Polynomial(d, {e: c * 10**302 for e, c in p.terms.items()})
        box = Box.cube(0, 1, d)
        assert _kept_blocks(scaled, box, n).all()
        for q in (p, scaled):
            tracing = tracemalloc.is_tracing()
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                measure(q, box, n)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                if not tracing:
                    tracemalloc.stop()
            assert peak < 8 * (n + 1) ** d / 2

    @pytest.mark.parametrize(
        "d, n, whole", [(2, 24, True), (2, 300, False), (3, 8, True), (3, 40, False)]
    )
    def test_march_batches_are_bounded(self, monkeypatch, d, n, whole):
        # A whole-grid run and a block-scanned one both cross more than 5
        # cells; with _BATCH_CELLS = 5 every `_march_batch` call gets at most
        # 5 of them, and the total and the dump stay those of the default
        # slices.
        assert meshing._scan_whole(n, d) == whole
        p = parse_polynomial(" + ".join(f"x{j}^2" for j in range(1, d + 1)) + " - 1/4", d)
        box = Box.cube(-1, 1, d)
        default = measure(p, box, n, keep_mesh=True)
        assert default.cells_with_sign_change > 5
        march_batch = meshing._march_batch
        sizes = []

        def counting(h, corners, effective, dump=None):
            sizes.append(corners.shape[1])
            return march_batch(h, corners, effective, dump)

        monkeypatch.setattr(meshing, "_march_batch", counting)
        monkeypatch.setattr(meshing, "_BATCH_CELLS", 5)
        sliced = measure(p, box, n, keep_mesh=True)
        assert max(sizes) == 5
        assert sum(sizes) == sliced.cells_with_sign_change == default.cells_with_sign_change
        assert sliced.value.hex() == default.value.hex()
        assert sliced.mesh.tobytes() == default.mesh.tobytes()


class TestGridInvariances:
    def test_axis_swap_bit_identical(self):
        p = Polynomial(2, {(3, 0): 1, (0, 2): 1, (0, 0): Fraction(-1, 2)})
        a = measure(p, UNIT_SQUARE, 64)
        b = measure(swap_axes(p), UNIT_SQUARE, 64)
        assert a.value == b.value
        assert a.cells_with_sign_change == b.cells_with_sign_change

    def test_symmetric_polynomial_swap(self):
        p = parse_polynomial("x1^2 + x2^2 - 1/4", 2)
        a = measure(p, Box.cube(-1, 1, 2), 128)
        b = measure(swap_axes(p), Box.cube(-1, 1, 2), 128)
        assert a.value == b.value

    def test_translation_bit_identical(self):
        p = parse_polynomial("x1^2 + x2^2 - 1/4", 2)
        q = shift(p, (1, 2))
        a = measure(p, Box.cube(-1, 1, 2), 64)
        b = measure(q, Box(((0, 2), (1, 3))), 64)
        assert a.value == b.value

    def test_translation_bit_identical_3d(self):
        p = parse_polynomial("x1^2 + x2^2 + x3^2 - 1/4", 3)
        q = shift(p, (1, 0, 1))
        a = measure(p, Box.cube(-1, 1, 3), 32)
        b = measure(q, Box(((0, 2), (-1, 1), (0, 2))), 32)
        assert a.value == b.value

    def test_scaling_relative(self):
        p = parse_polynomial("x1^2 + x2^2 - 1/4", 2)
        q = scale_vars(p, 2)
        a = measure(p, Box.cube(-1, 1, 2), 128)
        b = measure(q, Box.cube(-2, 2, 2), 128)
        assert abs(b.value - 2 * a.value) <= 1e-9 * 2 * a.value


class TestBoundChain:
    def test_random_corpus_respects_bound(self):
        # smaller sibling of the acceptance fuzz
        rng = random.Random(555)
        for _ in range(25):
            p = random_polynomial(rng, 2, 4)
            bound = theorem_bound(p, UNIT_SQUARE)
            crofton = crofton_upper_estimate(p, UNIT_SQUARE, GridScheme(32))
            mesh = measure(p, UNIT_SQUARE, 64)
            assert crofton.total_exact <= bound
            assert mesh.value <= float(bound) + 1e-6
            assert mesh.value <= crofton.total + 0.05 * float(bound)


class TestMeshOutput:
    def test_segments_shape_and_location(self):
        p = parse_polynomial("x1^2 + x2^2 - 1/4", 2)
        segments = measure(p, Box.cube(-1, 1, 2), 64, keep_mesh=True).mesh
        assert segments.shape[1] == 4
        assert len(segments) > 0
        # endpoints stay inside the box and near the zero set
        assert np.all(segments >= -1) and np.all(segments <= 1)
        for x, y in ((segments[:, 0], segments[:, 1]), (segments[:, 2], segments[:, 3])):
            values = x * x + y * y - 0.25
            assert np.max(np.abs(values)) < 0.01

    def test_triangles_shape(self):
        p = parse_polynomial("x1 - 1/2", 3)
        triangles = measure(p, UNIT_CUBE, 8, keep_mesh=True).mesh
        assert triangles.shape == (128, 9)  # 8*8 cells, 2 triangles each
        assert np.allclose(triangles[:, [0, 3, 6]], 0.5)

    def test_write_mesh_csv(self):
        p = parse_polynomial("x1 - 1/2", 2)
        segments = measure(p, UNIT_SQUARE, 4, keep_mesh=True).mesh
        stream = io.StringIO()
        write_mesh_csv(stream, segments, 2)
        lines = stream.getvalue().strip().split("\n")
        assert lines[0] == "x1,y1,x2,y2"
        assert len(lines) == len(segments) + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.5
