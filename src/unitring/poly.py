"""Dense univariate polynomials over a coefficient field.

A polynomial is a tuple of coefficients, constant term first, with a
nonzero leading coefficient; the zero polynomial is (K.zero,).  Every
routine takes trimmed tuples and returns trimmed tuples.  The coefficient
field K is the last argument and supplies zero, one, add, sub, mul, inv,
scalar(k) (the image of the integer k) and the fused addmul(acc, x, y) =
acc + x*y and submul(acc, x, y) = acc - x*y that carry the inner loops of
mul and the generic divmod with one call per term.  It also supplies the
four polynomial kernels that divmod, gcd and powmod call: divmod(a, b),
gcd(a, b), mulmod(a, b, m) = a*b mod m and powmod(base, e, m).

PrimeField's kernels run on plain ints, with one % p per output
coefficient.  A modulus of degree 2, monic or not, is unrolled in mulmod
and powmod; every other degree goes through one reduction loop.
ResidueField and QQ bind the generic routines (`_divmod`, `_gcd`,
`_mulmod`, `_powmod`), which call the field's element operations once per
term; they are also the oracle the F_p kernels are tested against.

The fields are PrimeField(p) on ints mod p, ResidueField(p, g) = F_p[y]/(g)
on coefficient tuples (its own arithmetic is these routines over
PrimeField(p)), and QQ on int and Fraction.  `fpoly.residue_field` picks
the finite field for a residue field O_K/P.  A NumberField is the ring
O_K for trim, deriv, evaluate and mul: it supplies zero, one, scalar, mul
and addmul, and no division.  `rootiso.ComplexValues` is the values ring
of evaluate at a complex point: zero and addmul only.
"""

from fractions import Fraction


def trim(a, K):
    """a as a tuple without zero leading coefficients."""
    n = len(a)
    while n > 1 and a[n - 1] == K.zero:
        n -= 1
    return tuple(a[:n])


def add(a, b, K):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] = K.add(out[i], y)
    return trim(out, K)


def sub(a, b, K):
    out = list(a) + [K.zero] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] = K.sub(out[i], y)
    return trim(out, K)


def mul(a, b, K):
    zero, addmul = K.zero, K.addmul
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != zero:
            for j, y in enumerate(b):
                out[i + j] = addmul(out[i + j], x, y)
    return trim(out, K)


def divmod(a, b, K):
    """(q, r) with a = q*b + r and deg r < deg b, for b != 0."""
    return K.divmod(a, b)


def monic(a, K):
    """a divided by its leading coefficient; the zero polynomial stays."""
    lead = a[-1]
    if lead == K.zero or lead == K.one:
        return a
    inv = K.inv(lead)
    return tuple(K.mul(x, inv) for x in a)


def gcd(a, b, K):
    """Monic greatest common divisor; zero only when both are zero."""
    return K.gcd(a, b)


def powmod(base, e, m, K):
    """base^e mod m for e >= 0."""
    return K.powmod(base, e, m)


def deriv(a, K):
    return trim([K.mul(K.scalar(i), a[i]) for i in range(1, len(a))] or [K.zero], K)


def evaluate(a, x, K):
    """a(x) by Horner's rule."""
    out = K.zero
    for c in reversed(a):
        out = K.addmul(c, out, x)
    return out


# The generic kernels, on the field's element operations: those of every
# field but F_p, and the oracle of the F_p kernels.


def _divmod(K, a, b):
    zero = K.zero
    n = len(b) - 1
    if b[n] == zero:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = K.inv(b[n])
    mul_, submul = K.mul, K.submul
    a = list(a)
    q = [zero] * max(1, len(a) - n)
    for i in range(len(a) - n - 1, -1, -1):
        c = mul_(a[i + n], inv_lead)
        q[i] = c
        if c != zero:
            # a[i + n] becomes zero and is never read again.
            for j in range(n):
                a[i + j] = submul(a[i + j], c, b[j])
    return trim(q, K), trim(a[:n] or [zero], K)


def _gcd(K, a, b):
    zero = (K.zero,)
    while b != zero:
        a, b = b, _divmod(K, a, b)[1]
    return monic(a, K)


def _mulmod(K, a, b, m):
    return _divmod(K, mul(a, b, K), m)[1]


def _powmod(K, base, e, m):
    """Left to right over the bits of e."""
    result = base = _divmod(K, base, m)[1]
    if not e:
        return (K.one,)
    for bit in bin(e)[3:]:
        result = _mulmod(K, result, result, m)
        if bit == "1":
            result = _mulmod(K, result, base, m)
    return result


class PrimeField:
    """F_p on ints 0..p-1.

    As the residue field F_p[y]/(y - root) of a degree-1 prime, `elem`
    reduces a polynomial in y by evaluating it at root.
    """

    zero = 0
    one = 1
    f = 1

    def __init__(self, p, root=0):
        self.p = self.q = p
        self.root = root

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def addmul(self, acc, x, y):
        return (acc + x * y) % self.p

    def submul(self, acc, x, y):
        return (acc - x * y) % self.p

    # The polynomial kernels: products and reductions carry unreduced
    # ints, and each output coefficient takes one % p.

    def divmod(self, a, b):
        r = list(a)
        q = self._reduce(r, b, self._inv_lead(b))
        return trim(q, self), self._poly(r)

    def gcd(self, a, b):
        while b != (0,):
            if len(b) == 1:
                return (1,)
            if len(a) >= len(b):
                a = list(a)
                self._reduce(a, b, self._inv_lead(b))
                a = self._poly(a)
            a, b = b, a
        return monic(a, self)

    def mulmod(self, a, b, m):
        inv_lead = self._inv_lead(m)
        if len(m) == 3 and len(a) < 3 and len(b) < 3:
            p = self.p
            a0, a1 = a if len(a) == 2 else (a[0], 0)
            b0, b1 = b if len(b) == 2 else (b[0], 0)
            c = a1 * b1 * inv_lead % p
            r0 = (a0 * b0 - c * m[0]) % p
            r1 = (a0 * b1 + a1 * b0 - c * m[1]) % p
            return (r0, r1) if r1 else (r0,)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        self._reduce(out, m, inv_lead)
        return self._poly(out)

    def powmod(self, base, e, m):
        """Left to right over the bits of e."""
        p = self.p
        inv_lead = self._inv_lead(m)
        if len(base) >= len(m):
            base = self.divmod(base, m)[1]
        if not e:
            return (1,)
        bits = bin(e)[3:]
        if len(m) != 3:
            result = base
            for bit in bits:
                result = self.mulmod(result, result, m)
                if bit == "1":
                    result = self.mulmod(result, base, m)
            return result
        # m / lead(m) = X^2 + m1 X + m0.
        m0, m1 = m[0] * inv_lead % p, m[1] * inv_lead % p
        b0, b1 = base if len(base) == 2 else (base[0], 0)
        u0, u1 = b0, b1
        for bit in bits:
            c = u1 * u1 % p
            u0, u1 = (u0 * u0 - c * m0) % p, (2 * u0 * u1 - c * m1) % p
            if bit == "1":
                c = u1 * b1 % p
                u0, u1 = (u0 * b0 - c * m0) % p, (u0 * b1 + u1 * b0 - c * m1) % p
        return (u0, u1) if u1 else (u0,)

    def _inv_lead(self, m):
        """The inverse mod p of m's leading coefficient."""
        lead = m[-1] % self.p
        if not lead:
            raise ZeroDivisionError("polynomial division by zero")
        return 1 if lead == 1 else pow(lead, -1, self.p)

    def _reduce(self, r, m, inv_lead):
        """Divide the ints r by m in place, leaving the remainder's
        unreduced coefficients, and return the quotient's."""
        p = self.p
        n = len(m) - 1
        low = m[:n]
        q = [0] * max(1, len(r) - n)
        for i in range(len(r) - n - 1, -1, -1):
            c = r[i + n] * inv_lead % p
            if c:
                q[i] = c
                for j, y in enumerate(low, i):
                    r[j] -= c * y
        del r[n:]
        return q

    def _poly(self, r):
        """The polynomial of the unreduced ints r."""
        return trim([x % self.p for x in r] or [0], self)

    def inv(self, a):
        return pow(a, -1, self.p)

    def legendre(self, a):
        """The Legendre symbol (a/p) in {-1, 0, 1} by Euler's criterion; p odd."""
        r = pow(a, (self.p - 1) // 2, self.p)
        return -1 if r == self.p - 1 else r

    def sqrt(self, a):
        """A square root of the square a, p odd, by Tonelli-Shanks: r^2 = a t
        holds throughout while each round lowers the 2-power order of t."""
        p = self.p
        s = ((p - 1) & (1 - p)).bit_length() - 1
        q = (p - 1) >> s
        t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
        if t > 1:
            c = pow(next(z for z in range(2, p) if self.legendre(z) < 0), q, p)
        while t > 1:
            i, u = 0, t
            while u != 1:
                u, i = u * u % p, i + 1
            b = pow(c, 1 << (s - i - 1), p)
            s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
        return r

    def scalar(self, k):
        return k % self.p

    def elem(self, coeffs):
        return evaluate(coeffs, self.root, self)

    def coeffs(self, a):
        """A polynomial in y that reduces to a."""
        return (a,)


class ResidueField:
    """F_q = F_p[y]/(g) for g monic irreducible over F_p of degree >= 2.

    Elements are reduced coefficient tuples in y, computed with the
    polynomial routines over PrimeField(p).
    """

    zero = (0,)
    one = (1,)

    def __init__(self, p, g):
        self.base = PrimeField(p)
        self.p = p
        self.g = tuple(g)
        self.f = len(g) - 1
        self.q = p**self.f

    def add(self, a, b):
        return add(a, b, self.base)

    def sub(self, a, b):
        return sub(a, b, self.base)

    def mul(self, a, b):
        return self.base.mulmod(a, b, self.g)

    def addmul(self, acc, x, y):
        return add(acc, self.mul(x, y), self.base)

    def submul(self, acc, x, y):
        return sub(acc, self.mul(x, y), self.base)

    divmod = _divmod
    gcd = _gcd
    mulmod = _mulmod
    powmod = _powmod

    def inv(self, a):
        """Inverse by the extended Euclidean algorithm against g."""
        if a == (0,):
            raise ZeroDivisionError
        F = self.base
        r0, r1 = self.g, a
        s0, s1 = (0,), (1,)
        while r1 != (0,):
            q, r = divmod(r0, r1, F)
            r0, r1 = r1, r
            s0, s1 = s1, sub(s0, mul(q, s1, F), F)
        c = F.inv(r0[0])
        return tuple(F.mul(x, c) for x in s0)

    def scalar(self, k):
        return (k % self.p,)

    def elem(self, coeffs):
        F = self.base
        return divmod(trim([c % self.p for c in coeffs] or [0], F), self.g, F)[1]

    def coeffs(self, a):
        """A polynomial in y that reduces to a."""
        return a


class RationalField:
    """Q on int and Fraction; `inv` returns a Fraction."""

    zero = 0
    one = 1

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def addmul(acc, x, y):
        return acc + x * y

    @staticmethod
    def submul(acc, x, y):
        return acc - x * y

    @staticmethod
    def inv(a):
        return Fraction(1, a)

    divmod = _divmod
    gcd = _gcd
    mulmod = _mulmod
    powmod = _powmod

    @staticmethod
    def scalar(k):
        return k


QQ = RationalField()
