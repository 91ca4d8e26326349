import hashlib
import io
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from zeroset import (
    Box,
    GridScheme,
    Polynomial,
    TrivialPolynomialError,
    UnivariatePolynomial,
    crofton_upper_estimate,
    marching_cubes_area,
    marching_squares_length,
    measure_d1,
    meshing,
    parse_polynomial,
    sharpness_polynomial,
    theorem_bound,
    write_mesh_csv,
)

from oracles import (
    arc_length_oracle,
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
        estimate = measure_d1(p, Box.cube(0, 1, 1))
        assert estimate.value == 1.0
        assert estimate.method == "exact_count"

    def test_no_roots(self):
        p = parse_polynomial("x1^2 + 1", 1)
        assert measure_d1(p, Box.cube(0, 1, 1)).value == 0.0

    def test_planted_tenths(self):
        roots = [Fraction(i, 10) for i in range(1, 11)]
        u = UnivariatePolynomial.from_roots(roots)
        p = Polynomial(1, {(i,): c for i, c in enumerate(u.coefficients)})
        assert measure_d1(p, Box.cube(0, 1, 1)).value == 10.0

    def test_trivial_rejected(self):
        with pytest.raises(TrivialPolynomialError):
            measure_d1(Polynomial.zero(1), Box.cube(0, 1, 1))


class TestMarchingSquares:
    def test_vertical_line_exact(self):
        p = parse_polynomial("x1 - 1/2", 2)
        estimate = marching_squares_length(p, UNIT_SQUARE, 64)
        assert estimate.value == 1.0
        assert estimate.method == "marching_squares"
        assert estimate.cells_with_sign_change == 64

    def test_circle_circumference(self):
        p = parse_polynomial("x1^2 + x2^2 - 1/4", 2)
        estimate = marching_squares_length(p, Box.cube(-1, 1, 2), 512)
        assert abs(estimate.value - math.pi) <= 0.005 * math.pi

    def test_hyperbola_against_arc_length_oracle(self):
        c = Fraction(1, 100)
        p = Polynomial(2, {(1, 1): 1, (0, 0): -c})
        estimate = marching_squares_length(p, UNIT_SQUARE, 1024)
        oracle = arc_length_oracle(float(c))
        assert abs(estimate.value - oracle) <= 0.01 * oracle

    def test_empty_zero_set(self):
        p = parse_polynomial("x1^2 + x2^2 + 1", 2)
        estimate = marching_squares_length(p, UNIT_SQUARE, 32)
        assert estimate.value == 0.0
        assert estimate.cells_with_sign_change == 0

    def test_corner_point_has_zero_length(self):
        p = parse_polynomial("x1*x2 - 1", 2)
        assert marching_squares_length(p, UNIT_SQUARE, 64).value == 0.0

    def test_ambiguous_saddle_resolved_by_center(self):
        # x1*x2 = 0 through the cell grid center creates diagonal cells
        p = parse_polynomial("x1*x2 - 1/1000", 2)
        estimate = marching_squares_length(p, Box.cube(-1, 1, 2), 33)
        assert estimate.value > 0
        repeat = marching_squares_length(p, Box.cube(-1, 1, 2), 33)
        assert estimate == repeat

    def test_resolution_validation(self):
        p = parse_polynomial("x1 - 1/2", 2)
        with pytest.raises(ValueError):
            marching_squares_length(p, UNIT_SQUARE, 1)
        with pytest.raises(ValueError):
            marching_squares_length(p, Box.cube(0, 1, 3), 8)
        with pytest.raises(TrivialPolynomialError):
            marching_squares_length(Polynomial.zero(2), UNIT_SQUARE, 8)


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
        estimate = marching_squares_length(p, box, n)
        assert estimate.value.hex() == total_hex
        assert estimate.cells_with_sign_change == crossed
        segments = marching_squares_length(p, box, n, keep_mesh=True).mesh
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
        estimate = marching_cubes_area(p, UNIT_CUBE, 32)
        assert estimate.value == 1.0
        assert estimate.method == "marching_cubes"

    def test_sphere_area(self):
        p = parse_polynomial("x1^2 + x2^2 + x3^2 - 1/4", 3)
        estimate = marching_cubes_area(p, Box.cube(-1, 1, 3), 64)
        assert abs(estimate.value - math.pi) <= 0.02 * math.pi

    def test_diagonal_plane_hexagon(self):
        p = parse_polynomial("x1 + x2 + x3 - 3/2", 3)
        estimate = marching_cubes_area(p, UNIT_CUBE, 64)
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
            [[[p.evaluate((a, b, c)) < 0 for c in nodes] for b in nodes] for a in nodes]
        )
        ambiguous = 0
        for u, v in ((0, 1), (0, 2), (1, 2)):
            s = np.moveaxis(negative, (u, v), (0, 1))
            c00, c10, c11, c01 = s[:-1, :-1], s[1:, :-1], s[1:, 1:], s[:-1, 1:]
            ambiguous += int(((c00 == c11) & (c10 == c01) & (c00 != c10)).sum())
        assert ambiguous > 0
        a = marching_cubes_area(p, box, n)
        b = marching_cubes_area(p, box, n)
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
        estimate = marching_cubes_area(p, box, n)
        assert estimate.value.hex() == total_hex
        assert estimate.cells_with_sign_change == crossed
        triangles = marching_cubes_area(p, box, n, keep_mesh=True).mesh
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


# Every term vanishes on x1 = 0, where x2 < 0 (and x3 > 0 in d=3) makes each
# of them -0.0: only the +0.0 start of the sum makes those vertices +0.0.
_SEAM_CASES = {
    2: ("x1*x2 - x1 + x1^2*x2", "0,1;-1,1"),
    3: ("x1*x2*x3 - x1 + x1*x2", "0,1;-1,1;-1,1"),
}
_SEAM_HEIGHT = 4


class TestSlabSeams:
    @pytest.fixture
    def slabs(self, monkeypatch):
        """Slabs of _SEAM_HEIGHT cell rows at resolution n, and batches of 5 cells."""

        def set_resolution(n, d):
            budget = 16 * (_SEAM_HEIGHT + 1) * (n + 1) ** (d - 1)
            monkeypatch.setattr(meshing, "_SLAB_BYTES", budget)
            monkeypatch.setattr(meshing, "_BATCH_CELLS", 5)
            assert meshing._slab_rows(n, d) == _SEAM_HEIGHT

        return set_resolution

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize(
        "n", [_SEAM_HEIGHT - 1, _SEAM_HEIGHT, 2 * _SEAM_HEIGHT - 1, 2 * _SEAM_HEIGHT + 1]
    )
    def test_crossed_corners_match_whole_grid(self, slabs, d, n):
        slabs(n, d)
        text, box = _SEAM_CASES[d]
        p = parse_polynomial(text, d)
        box = Box.parse(box, d)
        nodes = [meshing._node_array(a, b, n) for a, b in box.intervals]
        offsets = np.array(list(itertools.product((0, 1), repeat=d)))
        batches = list(meshing._crossed_cells(p, nodes, offsets, 5))
        cells = np.concatenate([c for c, _ in batches])
        values = np.concatenate([v for _, v in batches], axis=1)

        grid = _whole_grid(p, box, n)
        corner_grids = [grid[tuple(slice(o, o + n) for o in offset)] for offset in offsets]
        mixed = np.zeros((n,) * d, dtype=bool)
        for corner in corner_grids[1:]:
            mixed |= (corner < 0) != (corner_grids[0] < 0)
        expected = np.flatnonzero(mixed)
        assert np.array_equal(cells, expected)
        for row, corner in zip(values, corner_grids):
            assert row.tobytes() == corner.reshape(-1)[expected].tobytes()

        # Some crossed corner is a sum of negative zeros, which the mesh keeps as +0.0.
        negative_zero = np.signbit(_whole_grid(p, box, n, start=False)) & (grid == 0)
        assert any(
            negative_zero[tuple(slice(o, o + n) for o in offset)].reshape(-1)[expected].any()
            for offset in offsets
        )
        assert not np.signbit(values[values == 0]).any()

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [_SEAM_HEIGHT, 2 * _SEAM_HEIGHT + 1])
    def test_mesh_matches_one_slab(self, slabs, d, n):
        text, box = _SEAM_CASES[d]
        p = parse_polynomial(text, d)
        box = Box.parse(box, d)
        measure = marching_squares_length if d == 2 else marching_cubes_area
        whole = measure(p, box, n, keep_mesh=True)
        assert meshing._slab_rows(n, d) >= n  # one slab, one batch
        slabs(n, d)
        sliced = measure(p, box, n, keep_mesh=True)
        assert sliced.value.hex() == whole.value.hex()
        assert sliced.cells_with_sign_change == whole.cells_with_sign_change
        assert sliced.mesh.tobytes() == whole.mesh.tobytes()


class TestMeshMemory:
    @pytest.mark.parametrize(
        "d, n, measure", [(2, 2048, marching_squares_length), (3, 128, marching_cubes_area)]
    )
    def test_no_whole_float_grid(self, d, n, measure):
        # Peak traced allocation (NumPy reports its buffers to tracemalloc)
        # stays below half of one whole (n+1)^d float64 vertex grid.
        p = sharpness_polynomial(d, 512)
        box = Box.cube(0, 1, d)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            measure(p, box, n)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 8 * (n + 1) ** d / 2


class TestGridInvariances:
    def test_axis_swap_bit_identical(self):
        p = Polynomial(2, {(3, 0): 1, (0, 2): 1, (0, 0): Fraction(-1, 2)})
        a = marching_squares_length(p, UNIT_SQUARE, 64)
        b = marching_squares_length(swap_axes(p), UNIT_SQUARE, 64)
        assert a.value == b.value
        assert a.cells_with_sign_change == b.cells_with_sign_change

    def test_symmetric_polynomial_swap(self):
        p = parse_polynomial("x1^2 + x2^2 - 1/4", 2)
        a = marching_squares_length(p, Box.cube(-1, 1, 2), 128)
        b = marching_squares_length(swap_axes(p), Box.cube(-1, 1, 2), 128)
        assert a.value == b.value

    def test_translation_bit_identical(self):
        p = parse_polynomial("x1^2 + x2^2 - 1/4", 2)
        q = shift(p, (1, 2))
        a = marching_squares_length(p, Box.cube(-1, 1, 2), 64)
        b = marching_squares_length(q, Box(((0, 2), (1, 3))), 64)
        assert a.value == b.value

    def test_translation_bit_identical_3d(self):
        p = parse_polynomial("x1^2 + x2^2 + x3^2 - 1/4", 3)
        q = shift(p, (1, 0, 1))
        a = marching_cubes_area(p, Box.cube(-1, 1, 3), 32)
        b = marching_cubes_area(q, Box(((0, 2), (-1, 1), (0, 2))), 32)
        assert a.value == b.value

    def test_scaling_relative(self):
        p = parse_polynomial("x1^2 + x2^2 - 1/4", 2)
        q = scale_vars(p, 2)
        a = marching_squares_length(p, Box.cube(-1, 1, 2), 128)
        b = marching_squares_length(q, Box.cube(-2, 2, 2), 128)
        assert abs(b.value - 2 * a.value) <= 1e-9 * 2 * a.value


class TestBoundChain:
    def test_random_corpus_respects_bound(self):
        # smaller sibling of the acceptance fuzz
        rng = random.Random(555)
        for _ in range(25):
            p = random_polynomial(rng, 2, 4)
            bound = theorem_bound(p, UNIT_SQUARE)
            crofton = crofton_upper_estimate(p, UNIT_SQUARE, GridScheme(32))
            mesh = marching_squares_length(p, UNIT_SQUARE, 64)
            assert crofton.total_exact <= bound
            assert mesh.value <= float(bound) + 1e-6
            assert mesh.value <= crofton.total + 0.05 * float(bound)


class TestMeshOutput:
    def test_segments_shape_and_location(self):
        p = parse_polynomial("x1^2 + x2^2 - 1/4", 2)
        segments = marching_squares_length(p, Box.cube(-1, 1, 2), 64, keep_mesh=True).mesh
        assert segments.shape[1] == 4
        assert len(segments) > 0
        # endpoints stay inside the box and near the zero set
        assert np.all(segments >= -1) and np.all(segments <= 1)
        for x, y in ((segments[:, 0], segments[:, 1]), (segments[:, 2], segments[:, 3])):
            values = x * x + y * y - 0.25
            assert np.max(np.abs(values)) < 0.01

    def test_triangles_shape(self):
        p = parse_polynomial("x1 - 1/2", 3)
        triangles = marching_cubes_area(p, UNIT_CUBE, 8, keep_mesh=True).mesh
        assert triangles.shape == (128, 9)  # 8*8 cells, 2 triangles each
        assert np.allclose(triangles[:, [0, 3, 6]], 0.5)

    def test_write_mesh_csv(self):
        p = parse_polynomial("x1 - 1/2", 2)
        segments = marching_squares_length(p, UNIT_SQUARE, 4, keep_mesh=True).mesh
        stream = io.StringIO()
        write_mesh_csv(stream, segments, 2)
        lines = stream.getvalue().strip().split("\n")
        assert lines[0] == "x1,y1,x2,y2"
        assert len(lines) == len(segments) + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.5
