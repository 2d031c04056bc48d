from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from unitring.intervals import sqrt_upper


@settings(max_examples=500, deadline=None)
@given(st.fractions(min_value=0, max_denominator=2**64), st.integers(1, 128), st.booleans())
def test_sqrt_upper_is_the_least_dyadic_upper_root(x, bits, square):
    # The square of a dyadic at this precision is the tie: N = x 4^bits is
    # then a perfect square, and s must be its root.
    if square:
        x = Fraction(round(x * 2**bits), 2**bits) ** 2
    s = sqrt_upper(x, bits) * 2**bits
    n = x * 4**bits
    assert s.denominator == 1
    assert s * s >= n > (s - 1) ** 2 if n else s == 0
