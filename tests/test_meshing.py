import hashlib
import io
import math
import random
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
    marching_cubes_triangles,
    marching_squares_length,
    marching_squares_segments,
    measure_d1,
    parse_polynomial,
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
        segments = marching_squares_segments(p, box, n)
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
        p = parse_polynomial("x1^2 + x2^2 - x3^2 - 1/8", 3)
        a = marching_cubes_area(p, Box.cube(-1, 1, 3), 17)
        b = marching_cubes_area(p, Box.cube(-1, 1, 3), 17)
        assert a == b
        assert a.value > 0


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
        segments = marching_squares_segments(p, Box.cube(-1, 1, 2), 64)
        assert segments.shape[1] == 4
        assert len(segments) > 0
        # endpoints stay inside the box and near the zero set
        assert np.all(segments >= -1) and np.all(segments <= 1)
        for x, y in ((segments[:, 0], segments[:, 1]), (segments[:, 2], segments[:, 3])):
            values = x * x + y * y - 0.25
            assert np.max(np.abs(values)) < 0.01

    def test_triangles_shape(self):
        p = parse_polynomial("x1 - 1/2", 3)
        triangles = marching_cubes_triangles(p, UNIT_CUBE, 8)
        assert triangles.shape == (128, 9)  # 8*8 cells, 2 triangles each
        assert np.allclose(triangles[:, [0, 3, 6]], 0.5)

    def test_write_mesh_csv(self):
        p = parse_polynomial("x1 - 1/2", 2)
        segments = marching_squares_segments(p, UNIT_SQUARE, 4)
        stream = io.StringIO()
        write_mesh_csv(stream, segments, 2)
        lines = stream.getvalue().strip().split("\n")
        assert lines[0] == "x1,y1,x2,y2"
        assert len(lines) == len(segments) + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.5
