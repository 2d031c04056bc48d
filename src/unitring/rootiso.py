"""Sturm counts, resultants and certified complex root enclosures.

Coefficient convention: constant term first, so p = (c0, c1, ..., cn)
means c0 + c1*X + ... + cn*X^n.  The polynomial arithmetic is
`unitring.poly` over QQ (or, for resultants, over O_K); a value at a
complex point is `poly.evaluate` over ComplexValues.

Root enclosures are disks with exact rational centers and radii.  The
radius certificate is the classical nearest-root bound: for any point z,
some root of p lies within deg(p) * |p(z)/p'(z)| of z.  Once the n disks
are pairwise disjoint each contains exactly one root, and conjugate
symmetry sorts them into real roots and conjugate pairs.  Refinement is
rational Newton iteration with dyadic rounding, so every enclosure stays
rigorous at any requested precision.

Every certified decision, here and in `field` and `geometry`, climbs the
one precision ladder `precisions`.
"""

from fractions import Fraction
from math import ldexp

from .intervals import RatInterval, sqrt_upper
from .linalg import det
from .poly import QQ, deriv, divmod, evaluate, sub, trim


# Precision cap, in bits, of every refinement loop over embeddings.
MAX_BITS = 1 << 14


class PrecisionError(Exception):
    """A certified enclosure did not reach the precision a decision needs."""


def precisions(bits, what):
    """The precision ladder of every certified decision: bits, 2 bits, ...
    while at most MAX_BITS; then PrecisionError naming the decision what."""
    while bits <= MAX_BITS:
        yield bits
        bits *= 2
    raise PrecisionError(f"{what} undecided at MAX_BITS = {MAX_BITS}")


def sturm_count_real_roots(p):
    """Number of distinct real roots of a squarefree integer polynomial of
    degree >= 1.  Its Sturm chain ends at a nonzero constant, and every
    polynomial in it is trimmed, so no leading coefficient is 0."""
    chain = [trim(p, QQ), deriv(p, QQ)]
    while len(chain[-1]) > 1:
        chain.append(sub((0,), divmod(chain[-2], chain[-1], QQ)[1], QQ))

    def signs_at_inf(sign):
        out = []
        for q in chain:
            s = 1 if q[-1] > 0 else -1
            if sign < 0 and (len(q) - 1) % 2 == 1:
                s = -s
            out.append(s)
        return out

    def variations(seq):
        return sum(1 for a, b in zip(seq, seq[1:]) if a * b < 0)

    return variations(signs_at_inf(-1)) - variations(signs_at_inf(1))


def sylvester_matrix(p, q, zero=0):
    """Sylvester matrix of two trimmed polynomials."""
    m, n = len(p) - 1, len(q) - 1
    size = m + n
    rows = []
    for i in range(n):
        row = [zero] * size
        for j, c in enumerate(reversed(p)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for j, c in enumerate(reversed(q)):
            row[i + j] = c
        rows.append(row)
    return rows


def resultant(p, q, K=QQ):
    """Resultant of two polynomials over a commutative ring K with zero and
    one: QQ for int and Fraction coefficients, or a NumberField for
    AlgebraicInt coefficients in O_K.  A constant operand c gives
    c**(degree of the other), and two constants give 1."""
    return det(sylvester_matrix(trim(p, K), trim(q, K), K.zero), K.one)


class ComplexValues:
    """(re, im) pairs, of Fractions or of RatIntervals, as the values ring
    of poly.evaluate at a complex point z: the Horner step addmul(c, w, z)
    is the real coefficient c plus w z."""

    zero = (0, 0)

    @staticmethod
    def addmul(c, w, z):
        return (c + w[0] * z[0] - w[1] * z[1], w[0] * z[1] + w[1] * z[0])


def cabs2(a):
    return a[0] * a[0] + a[1] * a[1]


def _dyadic_round(x, bits):
    scale = 1 << bits
    return Fraction(round(x * scale), scale)


def _round_z(z, bits):
    return (_dyadic_round(z[0], bits), _dyadic_round(z[1], bits))


class RootEnclosure:
    """Disk |z - center| <= radius certified to contain exactly one root."""

    __slots__ = ("center", "radius", "is_real")

    def __init__(self, center, radius, is_real):
        self.center = center
        self.radius = radius
        self.is_real = is_real

    def conjugate(self):
        return RootEnclosure((self.center[0], -self.center[1]), self.radius, self.is_real)

    def box(self):
        """(re, im) RatIntervals of the square around the disk; im is
        exactly 0 for a real root."""
        (x, y), rad = self.center, self.radius
        im = RatInterval(0) if self.is_real else RatInterval(y - rad, y + rad)
        return RatInterval(x - rad, x + rad), im

    def __repr__(self):
        re, im = float(self.center[0]), float(self.center[1])
        return f"RootEnclosure({re:.6g}{im:+.6g}j, r<{float(self.radius):.3g})"


class RootIsolation:
    """Certified enclosures of all roots of a squarefree monic integer poly.

    Ordering contract: real roots ascending, then one root per conjugate
    pair with positive imaginary part, by ascending real then imaginary
    part, then their conjugates in the same pair order.  This matches the
    standard embedding layout used throughout the package.
    """

    def __init__(self, poly):
        poly = trim(poly, QQ)
        if poly[-1] != 1:
            raise ValueError("polynomial must be monic")
        self.poly = poly
        self.deriv = deriv(poly, QQ)
        self.degree = len(poly) - 1
        self.n_real = sturm_count_real_roots(poly)
        self.bits = 0
        # Classified once, at 64 bits; every refinement polishes these
        # representatives, and refine(bits) tightens them further.
        self._reps = self._classify(self._initial_disks(), 64)
        self.refine(64)

    # -- initial float approximations -------------------------------------

    def _initial_disks(self):
        """Durand-Kerner on p(2^s z) / 2^(ns), where 2^(s+1) is at least the
        Fujiwara bound on the roots, so the floats stay in range and the
        scaled roots lie in the disk of radius 2, where the iterates start; a
        power-of-two scale is exact, so the iterates are those of p scaled
        by 2^-s."""
        n = self.degree
        s = max((abs(self.poly[n - k]).bit_length() + k - 1) // k for k in range(1, n + 1))
        pf = [ldexp(float(c), -s * (n - k)) for k, c in enumerate(self.poly)]
        zs = [2 * complex(0.4, 0.9) ** k for k in range(1, n + 1)]
        for _ in range(400):
            new = []
            delta = 0.0
            for i, z in enumerate(zs):
                num = 0j
                for c in reversed(pf):
                    num = num * z + c
                den = 1.0 + 0j
                for j, w in enumerate(zs):
                    if j != i:
                        den *= z - w
                step = num / den if den != 0 else 0j
                new.append(z - step)
                delta = max(delta, abs(step))
            zs = new
            if delta < ldexp(1e-13, -s):
                break
        return [(Fraction(ldexp(z.real, s)).limit_denominator(1 << 80),
                 Fraction(ldexp(z.imag, s)).limit_denominator(1 << 80)) for z in zs]

    # -- certification ------------------------------------------------------

    def _radius_at(self, z, sqrt_bits=96):
        num = cabs2(evaluate(self.poly, z, ComplexValues))
        den = cabs2(evaluate(self.deriv, z, ComplexValues))
        if den == 0:
            return None
        if num == 0:
            return Fraction(0)
        return self.degree * sqrt_upper(Fraction(num, den), sqrt_bits)

    def _newton(self, z, steps, bits):
        for _ in range(steps):
            a, b = evaluate(self.poly, z, ComplexValues)
            c, d = evaluate(self.deriv, z, ComplexValues)
            den = c * c + d * d
            if den == 0:
                break
            # z - p(z) / p'(z) with p(z) = a + bi and p'(z) = c + di.
            z = _round_z((z[0] - (a * c + b * d) / den, z[1] - (b * c - a * d) / den), bits)
        return z

    def _polish(self, z, bits, real=False):
        """Newton steps from z, rounded at 4 * bits (at least 256), until the
        certified radius is at most 2^-bits, for at most 60 rounds of two
        steps; (z, radius).  A real root's center stays on the real axis."""
        target = Fraction(1, 1 << bits)
        sqrt_bits = bits + 32
        work_bits = max(bits * 4, 256)
        if real:
            z = (z[0], Fraction(0))
        r = self._radius_at(z, sqrt_bits)
        rounds = 0
        while r is None or r > target:
            z = self._newton(z, 2, work_bits)
            if real:
                z = (z[0], Fraction(0))
            r = self._radius_at(z, sqrt_bits)
            rounds += 1
            if rounds > 60:
                raise PrecisionError("newton refinement stalled after 60 rounds")
        return z, r

    def refine(self, bits):
        """Shrink every enclosure radius below 2^-bits, and further, up the
        precision ladder, until the disks are pairwise disjoint:
        disjointness certifies one root per disk."""
        if self.bits >= bits:
            return
        for bits in precisions(bits, "root separation"):
            self._reps = [RootEnclosure(*self._polish(e.center, bits, e.is_real), e.is_real)
                          for e in self._reps]
            full = self._reps + [e.conjugate() for e in self._reps if not e.is_real]
            if all((a.center[0] - b.center[0]) ** 2 + (a.center[1] - b.center[1]) ** 2
                   > (a.radius + b.radius) ** 2
                   for i, a in enumerate(full) for b in full[i + 1:]):
                break
        self.enclosures = full
        self.bits = bits

    def _classify(self, zs, bits):
        """Representatives from the approximations zs: all n are polished
        at bits, and again up the precision ladder until the disks that
        meet the real axis match the Sturm count.  Those disks come first,
        ascending, then those in the upper half plane by (re, im)."""
        for bits in precisions(bits, "root classification"):
            disks = [self._polish(z, bits) for z in zs]
            real = [RootEnclosure(z, r, True) for z, r in disks if abs(z[1]) <= r]
            upper = [RootEnclosure(z, r, False) for z, r in disks if z[1] > r]
            if len(real) == self.n_real and len(upper) == (self.degree - self.n_real) // 2:
                break
            zs = [z for z, _ in disks]
        real.sort(key=lambda e: e.center[0])
        upper.sort(key=lambda e: (e.center[0], e.center[1]))
        return real + upper

    @property
    def signature(self):
        return (self.n_real, (self.degree - self.n_real) // 2)
