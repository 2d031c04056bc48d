"""Rational interval arithmetic.

Endpoints are Fractions and all operations are exact except sqrt, which
rounds outward at a caller-chosen dyadic precision.  Used for the Euler
product constant, lattice point main terms, and anywhere an irrational
quantity needs a rigorous two-sided enclosure.
"""

from fractions import Fraction
from math import ceil, floor, isqrt


def sqrt_lower(x, bits=64):
    """Largest dyadic p/2^bits with (p/2^bits)^2 <= x.  Requires x >= 0."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt of negative")
    scale = 1 << bits
    s = isqrt((x.numerator * scale * scale) // x.denominator)
    return Fraction(s, scale)


def sqrt_upper(x, bits=64):
    """Smallest dyadic s/2^bits with (s/2^bits)^2 >= x.  Requires x >= 0."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt of negative")
    scale = 1 << bits
    # s^2 >= N = x 4^bits exactly when s^2 >= ceil(N), an integer.
    n = -(-x.numerator * scale * scale // x.denominator)
    return Fraction(isqrt(n - 1) + 1 if n else 0, scale)


class RatInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")

    def __repr__(self):
        return f"RatInterval({self.lo}, {self.hi})"

    @property
    def width(self):
        return self.hi - self.lo

    def __contains__(self, x):
        return self.lo <= x <= self.hi

    def __add__(self, other):
        other = _coerce(other)
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        prods = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RatInterval(min(prods), max(prods))

    __rmul__ = __mul__

    def inverse(self):
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        return RatInterval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers: use inverse()")
        out = RatInterval(1)
        for _ in range(k):
            out = out * self
        return out

    def sqrt(self, bits=64):
        return RatInterval(sqrt_lower(self.lo, bits), sqrt_upper(self.hi, bits))


def _coerce(x):
    return x if isinstance(x, RatInterval) else RatInterval(Fraction(x))


# 50 verified decimal digits; the true value lies strictly inside.
_PI_50 = Fraction(314159265358979323846264338327950288419716939937510, 10**50)
PI = RatInterval(_PI_50, _PI_50 + Fraction(1, 10**50))


def integer_candidate(ivs):
    """The one integer vector the intervals ivs may hold: None when some
    interval holds no integer; () when none is ruled out but some interval
    is 1 or wider, so the rounding is undecided; otherwise the tuple of
    integers, which the caller checks exactly."""
    ints = tuple(ceil(iv.lo) for iv in ivs)
    if any(k > iv.hi for k, iv in zip(ints, ivs)):
        return None
    if any(iv.width >= 1 for iv in ivs):
        return ()
    return ints


def fmt_decimal_down(x):
    """Decimal lower bound to 12 digits: rounds toward minus infinity."""
    return _fmt_decimal(x, floor)


def fmt_decimal_up(x):
    """Decimal upper bound to 12 digits: rounds toward plus infinity."""
    return _fmt_decimal(x, ceil)


def _fmt_decimal(x, rounding):
    scaled = rounding(Fraction(x) * 10**12)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**12)
    return f"{sign}{whole}.{frac:012d}"
