from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from unitring.intervals import (
    RatInterval,
    fmt_decimal_down,
    fmt_decimal_up,
    integer_candidate,
    sqrt_upper,
)


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


ULP = Fraction(1, 10**12)


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.fractions(),
    st.fractions(min_value=-ULP, max_value=ULP),
    st.integers(-10**15, 10**15).map(Fraction),
    st.integers(-10**20, 10**20).map(lambda k: k * ULP),
))
def test_decimal_bounds_bracket_x(x):
    # Negative, zero, tiny and integral x; a multiple of 10^-12 prints exactly.
    down, up = Fraction(fmt_decimal_down(x)), Fraction(fmt_decimal_up(x))
    assert down <= x <= up and up - down <= ULP
    assert (down == x == up) == (x % ULP == 0)


def test_integer_candidate_three_results():
    assert integer_candidate([RatInterval("1/3", "2/3")]) is None
    assert integer_candidate([RatInterval(-2, -1), RatInterval("1/3", "2/3")]) is None
    assert integer_candidate([RatInterval(-2, -1), RatInterval("1/2", "3/2")]) == ()
    assert integer_candidate([RatInterval("-1/3", "1/2"), RatInterval(5)]) == (0, 5)
