from fractions import Fraction

import pytest

from zeroset import Box, GridScheme, theorem_bound
from zeroset.experiment import sharpness_experiment, sharpness_polynomial

from oracles import arc_length_oracle


class TestSharpnessPolynomial:
    def test_terms(self):
        p = sharpness_polynomial(3, 8)
        assert p.terms == {(1, 1, 1): Fraction(1), (0, 0, 0): Fraction(-1, 8)}

    def test_degree_sum_is_dimension(self):
        for d in (2, 3, 5):
            assert theorem_bound(sharpness_polynomial(d, 7), Box.cube(0, 1, d)) == d

    def test_validation(self):
        with pytest.raises(ValueError):
            sharpness_polynomial(0, 4)
        with pytest.raises(ValueError):
            sharpness_polynomial(2, 0)


class TestExperimentRows:
    def test_corner_point_case(self):
        # n=1: the zero set meets the unit square only at the corner (1,1)
        (row,) = sharpness_experiment(2, [1], resolution=64, scheme=GridScheme(32))
        assert row.direct_measure == 0.0
        assert row.theorem_bound == 2.0
        assert row.crofton_total == 0.0

    def test_d2_rows_track_oracle(self):
        rows = sharpness_experiment(2, [4, 16], resolution=512, scheme=GridScheme(64))
        assert [r.n for r in rows] == [4, 16]
        for row in rows:
            oracle = arc_length_oracle(1.0 / row.n)
            assert abs(row.direct_measure - oracle) <= 0.01 * oracle
            assert row.theorem_bound == 2.0
            assert row.gap == 2.0 - max(row.crofton_total, row.direct_measure)
        assert rows[0].direct_measure < rows[1].direct_measure
        assert rows[0].gap > rows[1].gap

    def test_d3_row_sandwich(self):
        (row,) = sharpness_experiment(3, [8], resolution=32, scheme=GridScheme(16))
        assert row.theorem_bound == 3.0
        assert row.direct_measure <= row.crofton_total <= 3.0 + 1e-9

    def test_d4_has_no_direct_measure(self):
        (row,) = sharpness_experiment(4, [4], resolution=16, scheme=GridScheme(4))
        assert row.direct_measure is None
        assert row.theorem_bound == 4.0
        assert row.gap == 4.0 - row.crofton_total

    def test_validation(self):
        with pytest.raises(ValueError):
            sharpness_experiment(1, [4], 32, GridScheme(8))
        with pytest.raises(ValueError):
            sharpness_experiment(2, [16, 4], 32, GridScheme(8))
        with pytest.raises(ValueError):
            sharpness_experiment(2, [], 32, GridScheme(8))
        with pytest.raises(ValueError):
            sharpness_experiment(2, [4], 1, GridScheme(8))
        with pytest.raises(ValueError):
            sharpness_experiment(3, [8], 1, GridScheme(4))
        # d >= 4 has no mesh, so the resolution does not matter there
        assert sharpness_experiment(4, [4], 1, GridScheme(2))[0].direct_measure is None
