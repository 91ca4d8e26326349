import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from zeroset import _exact_sum
from zeroset._exact_sum import ExactSum

# Finite values small enough that no partial sum of a few hundred of them
# overflows, so math.fsum never raises: normal and subnormal magnitudes,
# both zeros and both signs.
_FINITE = st.one_of(
    st.floats(min_value=-(2.0**1000), max_value=2.0**1000),
    st.floats(min_value=-(2.0**-1020), max_value=2.0**-1020),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),
)


def _split(values, cuts):
    """`values` as float64 arrays cut at the positions `cuts`."""
    bounds = [0] + sorted(cut % (len(values) + 1) for cut in cuts) + [len(values)]
    return [np.array(values[a:b], dtype=float) for a, b in zip(bounds, bounds[1:])]


def _sum_batches(batches):
    total = ExactSum()
    for batch in batches:
        total.add(batch)
    return total.value()


def _outcome(function, *args):
    """The value's hex digits, or the type of the exception raised."""
    try:
        return function(*args).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc)


class TestExactSum:
    @settings(max_examples=300)
    @example([], [])
    @example([2.0**-1074] * 3 + [-(2.0**-1074)], [2])
    @example([1.0, 2.0**-53, 2.0**-53], [])  # a tie rounded once, not twice
    @example([2.0**1000, 1.5, -(2.0**1000)], [1])
    @given(st.lists(_FINITE, max_size=200), st.lists(st.integers(0, 400), max_size=8))
    def test_equals_fsum_in_any_batches(self, values, cuts):
        assert _sum_batches(_split(values, cuts)).hex() == math.fsum(values).hex()

    @settings(max_examples=150)
    @example([1.5] * 300, [], [], 3, 3)
    @example([1.99] * 300, [], [], 3, 0)
    @given(
        st.lists(st.floats(min_value=1.0, max_value=2.0, exclude_max=True), max_size=300),
        st.lists(_FINITE, max_size=20),
        st.lists(st.integers(0, 400), max_size=8),
        st.integers(3, 8),
        st.integers(0, 3),
    )
    def test_bins_fuller_than_a_batch(self, same_bin, others, cuts, capacity, negated):
        # Up to 300 values share exponent 1 while the bins are carried every
        # `capacity` values; `negated` of every three of them are negative.
        values = [-v if i % 3 < negated else v for i, v in enumerate(same_bin)] + others
        total = ExactSum()
        with mock.patch.object(_exact_sum, "_SUM_CAPACITY", capacity):
            for batch in _split(values, cuts):
                total.add(batch)
        assert total.value().hex() == math.fsum(values).hex()
        # A carry leaves each bin below 2**26 + 2**27 (less than two values'
        # worth), and each value since adds below 2**27, so the bins stay
        # exact however many values follow.
        assert np.abs(total.bins).max() < 2.0**26 + 2.0**27 * (capacity - 1)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(_FINITE, min_size=1, max_size=40),
        st.integers(_exact_sum._PASS + 1, 3 * _exact_sum._PASS),
        st.lists(st.integers(0, 3 * _exact_sum._PASS), max_size=4),
    )
    def test_many_values_across_passes(self, pattern, count, cuts):
        # More values than one pass holds, in batches that start and end
        # anywhere relative to the pass boundaries.
        values = (pattern * (count // len(pattern) + 1))[:count]
        assert _sum_batches(_split(values, cuts)).hex() == math.fsum(values).hex()

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(_FINITE, min_size=1, max_size=40),
        st.integers(_exact_sum._PASS + 1, 3 * _exact_sum._PASS),
        st.integers(3, _exact_sum._PASS - 1),
    )
    def test_carries_inside_a_pass(self, pattern, count, capacity):
        # A capacity that does not divide the pass size puts carries in the
        # middle of what one add would otherwise bin in a single pass.
        values = (pattern * (count // len(pattern) + 1))[:count]
        total = ExactSum()
        with mock.patch.object(_exact_sum, "_SUM_CAPACITY", capacity):
            total.add(np.array(values))
        assert total.value().hex() == math.fsum(values).hex()

    def test_carries_keep_subnormals_exact(self):
        values = [2.0**-1074, 3 * 2.0**-1074, -(2.0**-1060), 2.0**-1030] * 40
        with mock.patch.object(_exact_sum, "_SUM_CAPACITY", 5):
            total = _sum_batches(_split(values, [7, 33, 90]))
        assert total.hex() == math.fsum(values).hex()

    @settings(max_examples=200)
    @example([math.inf, 1.0, -math.inf], [1])
    @example([math.nan, math.inf], [])
    @example([-math.inf, 2.0**1000, -math.inf], [2])
    @given(
        st.lists(
            st.one_of(_FINITE, st.sampled_from([math.inf, -math.inf, math.nan])),
            max_size=60,
        ),
        st.lists(st.integers(0, 120), max_size=6),
    )
    def test_non_finite_values_give_what_fsum_gives(self, values, cuts):
        expected = _outcome(math.fsum, values)
        assert _outcome(_sum_batches, _split(values, cuts)) == expected
