"""The time quadratures of critnorm.cylinder against scipy.integrate,
which stays the reference implementation here."""

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from critnorm.cylinder import cumulative_simpson, cumulative_trapezoid

@st.composite
def samples(draw, min_size=1):
    """Strictly increasing, unevenly spaced times with 1-40 samples."""
    h = draw(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=min_size - 1, max_size=39))
    x = draw(st.floats(min_value=-100.0, max_value=100.0)) + np.cumsum([0.0] + h)
    y = np.array(draw(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                                  min_size=len(x), max_size=len(x))))
    return x, y


@settings(max_examples=200, deadline=None)
@given(samples())
def test_both_rules_are_scipys_bit_for_bit(xy):
    # one and two samples take scipy's trapezoid fallback in cumulative_simpson
    x, y = xy
    want = scipy.integrate.cumulative_trapezoid(y, x, initial=0.0)
    assert np.array_equal(cumulative_trapezoid(y, x), want)
    want = scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)
    assert np.array_equal(cumulative_simpson(y, x), want)


@settings(max_examples=50, deadline=None)
@given(samples(min_size=2), st.data())
def test_times_that_do_not_increase_are_rejected(xy, data):
    x, y = xy
    i = data.draw(st.integers(1, len(x) - 1))
    x[i] = x[i - 1] - data.draw(st.sampled_from([0.0, 0.5]))
    for rule in (cumulative_trapezoid, cumulative_simpson):
        with pytest.raises(ValueError, match="strictly increasing"):
            rule(y, x)
