"""Dense univariate polynomials over a coefficient field.

A polynomial is a tuple of coefficients, constant term first, with a
nonzero leading coefficient; the zero polynomial is (K.zero,).  Every
routine takes trimmed tuples and returns trimmed tuples.  The coefficient
field K is the last argument and supplies zero, one, add, sub, mul, inv,
scalar(k) (the image of the integer k), the fused addmul(acc, x, y) =
acc + x*y and submul(acc, x, y) = acc - x*y that carry the inner loops of
mul and divmod with one call per term, and mulmod(a, b, m) = a*b mod m on
whole polynomials, the step of powmod.  Over F_p mulmod is one plain-int
kernel; elsewhere it is mul followed by divmod.

The fields are PrimeField(p) on ints mod p, ResidueField(p, g) = F_p[y]/(g)
on coefficient tuples (its own arithmetic is these routines over
PrimeField(p)), and QQ on int and Fraction.  `fpoly.residue_field` picks
the finite field for a residue field O_K/P.
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


def monic(a, K):
    """a divided by its leading coefficient; the zero polynomial stays."""
    lead = a[-1]
    if lead == K.zero or lead == K.one:
        return a
    inv = K.inv(lead)
    return tuple(K.mul(x, inv) for x in a)


def gcd(a, b, K):
    """Monic greatest common divisor; zero only when both are zero."""
    zero = (K.zero,)
    while b != zero:
        a, b = b, divmod(a, b, K)[1]
    return monic(a, K)


def powmod(base, e, m, K):
    """base^e mod m for e >= 0, left to right over the bits of e.

    Each set bit below the top one multiplies by the base; when the base
    is X that is a shift and one reduction step instead of a full product.
    """
    if not e:
        return (K.one,)
    mulmod = K.mulmod
    result = base = divmod(base, m, K)[1]
    is_x = base == (K.zero, K.one)
    if is_x:
        inv_lead = K.inv(m[-1])
    for i in range(e.bit_length() - 2, -1, -1):
        result = mulmod(result, result, m)
        if e >> i & 1:
            result = _times_x(result, m, inv_lead, K) if is_x else mulmod(result, base, m)
    return result


def _times_x(a, m, inv_lead, K):
    """X*a mod m for deg a < deg m, given the inverse of m's leading term."""
    n = len(m) - 1
    out = [K.zero, *a]
    if len(out) <= n:
        return trim(out, K)
    c = K.mul(out[n], inv_lead)
    submul = K.submul
    for j in range(n):
        out[j] = submul(out[j], c, m[j])
    return trim(out[:n], K)


def deriv(a, K):
    return trim([K.mul(K.scalar(i), a[i]) for i in range(1, len(a))] or [K.zero], K)


def evaluate(a, x, K):
    """a(x) by Horner's rule."""
    out = K.zero
    for c in reversed(a):
        out = K.addmul(c, out, x)
    return out


def _mulmod(K, a, b, m):
    """a*b mod m by mul and divmod; the mulmod of every field but F_p."""
    return divmod(mul(a, b, K), m, K)[1]


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

    def mulmod(self, a, b, m):
        """a*b mod m on plain ints: the product and the reduction carry
        unreduced integers, and each output coefficient takes one % p."""
        p = self.p
        n = len(m) - 1
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        if len(out) > n:
            lead = m[n] % p
            if not lead:
                raise ZeroDivisionError("polynomial division by zero")
            inv_lead = 1 if lead == 1 else pow(lead, -1, p)
            low = m[:n]
            for i in range(len(out) - 1, n - 1, -1):
                c = out[i] * inv_lead % p
                if c:
                    for j, y in enumerate(low, i - n):
                        out[j] -= c * y
            del out[n:]
        return trim([x % p for x in out] or [0], self)

    def inv(self, a):
        return pow(a, -1, self.p)

    def scalar(self, k):
        return k % self.p

    def elem(self, coeffs):
        return evaluate(coeffs, self.root, self)

    def coeffs(self, a):
        """A polynomial in y that reduces to a."""
        return (a,)

    def iter_elements(self):
        return iter(range(self.p))


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

    mulmod = _mulmod

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

    def iter_elements(self):
        idx = [0] * self.f
        while True:
            yield trim(idx, self.base)
            j = 0
            while j < self.f:
                idx[j] += 1
                if idx[j] < self.p:
                    break
                idx[j] = 0
                j += 1
            if j == self.f:
                return


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

    mulmod = _mulmod

    @staticmethod
    def scalar(k):
        return k


QQ = RationalField()
