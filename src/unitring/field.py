"""Number fields and exact arithmetic on their algebraic integers.

A field is defined by a monic irreducible integer polynomial (constant
term first) together with an integral basis given as rational rows on the
powers of the defining root theta.  Elements carry integer coordinates on
the integral basis; all ring operations go through precomputed integer
structure constants, so arithmetic never leaves the integers.

Embeddings are certified: sigma values are returned as exact rational
intervals derived from the root enclosures of the defining polynomial, at
any requested precision.
"""

from fractions import Fraction

from .intervals import RatInterval
from .linalg import char_poly, det, mat_inv_frac
from .poly import QQ, add, evaluate, mul, trim
from .rootiso import RootIsolation, sturm_count_real_roots


class IrreducibilityError(ValueError):
    """The defining polynomial could not be certified irreducible."""


def _certify_irreducible(poly):
    """Certify irreducibility over Q or raise.

    Squarefree check, rational root test (conclusive through degree 3),
    then factorization degree patterns modulo small primes.
    """
    from .fpoly import factor_mod_p

    n = len(poly) - 1
    if n < 1:
        raise IrreducibilityError("constant polynomial")
    if n == 1:
        return
    # Rational roots: candidates divide the constant term (monic).
    c0 = poly[0]
    if c0 == 0:
        raise IrreducibilityError("reducible: zero constant term")
    divisors = set()
    d = 1
    while d * d <= abs(c0):
        if c0 % d == 0:
            divisors.update({d, -d, abs(c0) // d, -(abs(c0) // d)})
        d += 1
    for r in divisors:
        if evaluate(poly, r, QQ) == 0:
            raise IrreducibilityError(f"reducible: rational root {r}")
    if n <= 3:
        return
    if _eisenstein_with_shift(poly):
        return
    # Degree patterns mod p must allow a proper factor for reducibility.
    possible = set(range(n + 1))
    p = 2
    tried = 0
    while tried < 25:
        if poly[-1] % p != 0:
            fac = factor_mod_p(tuple(c % p for c in poly), p)
            if sum(e * (len(g) - 1) for g, e in fac) == n:
                if any(e > 1 for _, e in fac):
                    p = _next_prime(p)
                    continue
                degs = [len(g) - 1 for g, _ in fac]
                sums = {0}
                for dg in degs:
                    sums |= {s + dg for s in sums}
                possible &= sums
                if possible <= {0, n}:
                    return
                tried += 1
        p = _next_prime(p)
    raise IrreducibilityError("cannot certify irreducibility; supply an irreducible polynomial")


def _next_prime(p):
    from .intfactor import is_prime

    p += 1
    while not is_prime(p):
        p += 1
    return p


def _eisenstein_with_shift(poly):
    """Eisenstein criterion on p(X + t) for small shifts t."""
    from .intfactor import factor as factor_int

    n = len(poly) - 1
    for t in range(-4, 5):
        shifted = (poly[-1],)
        # Horner in (X + t): build p(X + t) from the top coefficient down.
        for c in reversed(poly[:-1]):
            shifted = add(mul(shifted, (t, 1), QQ), (c,), QQ)
        c0 = shifted[0]
        if c0 == 0:
            continue
        if abs(c0) > 10**12:
            continue
        for q, _ in factor_int(abs(c0)):
            if c0 % (q * q) == 0:
                continue
            if all(shifted[k] % q == 0 for k in range(n)):
                return True
    return False


class NumberField:
    """Degree-n number field with a fixed integral basis."""

    def __init__(self, min_poly, integral_basis=None, name="K"):
        min_poly = trim(min_poly, QQ)
        if min_poly[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        if len(min_poly) < 3:
            raise ValueError("degree must be at least 2")
        _certify_irreducible(min_poly)
        self.min_poly = tuple(int(c) for c in min_poly)
        self.degree = len(min_poly) - 1
        self.name = name
        n = self.degree
        if integral_basis is None:
            basis = tuple(
                tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n)
            )
        else:
            basis = tuple(tuple(Fraction(x) for x in row) for row in integral_basis)
            if len(basis) != n or any(len(r) != n for r in basis):
                raise ValueError("integral basis must be a square matrix of size degree")
        self.basis = basis
        self.basis_inv = mat_inv_frac(basis)
        self.is_power_basis = all(
            basis[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n)
        )
        self._build_tables()
        self.norm_form = _norm_form(self.mult_table)
        self.n_real = sturm_count_real_roots(self.min_poly)
        if (n - self.n_real) % 2:
            raise ValueError("inconsistent signature")
        self.signature = (self.n_real, (n - self.n_real) // 2)
        self.disc = self._discriminant()
        self._roots = None
        self._emb_cache = {}

    # -- construction helpers ----------------------------------------------

    def _reduce_theta_poly(self, coeffs):
        """Reduce a theta-polynomial modulo min_poly to degree < n."""
        coeffs = list(coeffs)
        n = self.degree
        for i in range(len(coeffs) - 1, n - 1, -1):
            c = coeffs[i]
            if c:
                for j in range(n):
                    coeffs[i - n + j] -= c * self.min_poly[j]
            coeffs.pop()
        while len(coeffs) < n:
            coeffs.append(0)
        return coeffs

    def _theta_to_coords(self, theta_poly):
        """Coordinates (Fractions) on the integral basis of a theta-polynomial."""
        red = self._reduce_theta_poly(theta_poly)
        inv = self.basis_inv
        n = self.degree
        return tuple(
            sum(Fraction(red[k]) * inv[k][j] for k in range(n)) for j in range(n)
        )

    def _build_tables(self):
        n = self.degree
        table = []
        for i in range(n):
            row_i = []
            for j in range(n):
                prod = mul(self.basis[i], self.basis[j], QQ)
                coords = self._theta_to_coords(prod)
                if any(c.denominator != 1 for c in coords):
                    raise ValueError(
                        "integral basis is not multiplicatively closed (not a ring)"
                    )
                row_i.append(tuple(int(c) for c in coords))
            table.append(tuple(row_i))
        self.mult_table = tuple(table)
        one = self._theta_to_coords((1,))
        if any(c.denominator != 1 for c in one):
            raise ValueError("1 is not an integer combination of the basis")
        self.one_coords = tuple(int(c) for c in one)
        theta = self._theta_to_coords((0, 1))
        if any(c.denominator != 1 for c in theta):
            raise ValueError("theta is not integral on the given basis")
        self.theta_coords = tuple(int(c) for c in theta)

    def _discriminant(self):
        """Trace form determinant on the integral basis."""
        n = self.degree
        tr = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                prod = self.element_from_coords_unchecked(self.mult_table[i][j])
                tr[i][j] = prod.trace()
        return det(tr)

    # -- element constructors ------------------------------------------------

    def element(self, coords):
        out = []
        for c in coords:
            if isinstance(c, Fraction):
                if c.denominator != 1:
                    raise ValueError("non-integer coordinate")
                c = c.numerator
            out.append(int(c))
        if len(out) != self.degree:
            raise ValueError("coordinate length mismatch")
        return AlgebraicInt(self, tuple(out))

    def element_from_coords_unchecked(self, coords):
        return AlgebraicInt(self, coords)

    def from_theta_poly(self, coeffs):
        """Element from a polynomial in theta; must be integral on the basis."""
        coords = self._theta_to_coords(coeffs)
        if any(c.denominator != 1 for c in coords):
            raise ValueError("element is not integral on the basis")
        return self.element(tuple(int(c) for c in coords))

    @property
    def zero(self):
        return self.element((0,) * self.degree)

    @property
    def one(self):
        return self.element(self.one_coords)

    @property
    def theta(self):
        return self.element(self.theta_coords)

    def rational(self, q):
        """q * 1 for an integer q."""
        return self.element(tuple(q * c for c in self.one_coords))

    # -- exact invariants ------------------------------------------------------

    def theta_poly_of(self, alpha):
        """Rational coefficients of alpha as a polynomial in theta."""
        if self.is_power_basis:
            return trim(alpha.coords, QQ)
        n = self.degree
        return trim(
            [sum(Fraction(alpha.coords[i]) * self.basis[i][k] for i in range(n))
             for k in range(n)],
            QQ,
        )

    def norm(self, alpha):
        """Field norm: product of all conjugates, the norm form at the coordinates."""
        return self.norm_of_coords(alpha.coords)

    def norm_of_coords(self, c):
        """The norm form at a coordinate vector."""
        total = 0
        for coeff, idx in self.norm_form:
            for i in idx:
                coeff *= c[i]
            total += coeff
        return total

    def trace(self, alpha):
        m = self.mult_matrix(alpha)
        return sum(m[i][i] for i in range(self.degree))

    def mult_matrix(self, alpha):
        """Integer matrix of multiplication by alpha; row i = coords of alpha*w_i."""
        n = self.degree
        rows = []
        for i in range(n):
            acc = [0] * n
            for j in range(n):
                c = alpha.coords[j]
                if c:
                    t = self.mult_table[i][j]
                    for k in range(n):
                        acc[k] += c * t[k]
            rows.append(tuple(acc))
        return tuple(rows)

    def char_poly(self, alpha):
        """Characteristic polynomial of alpha (monic, integer, constant first)."""
        return char_poly(self.mult_matrix(alpha))

    # -- embeddings ---------------------------------------------------------

    def root_isolation(self, bits=64):
        if self._roots is None:
            self._roots = RootIsolation(self.min_poly, bits=bits)
        else:
            self._roots.refine(bits)
        return self._roots

    def embedding_matrix(self, bits=64):
        """S[j][k]: k-th standard-embedding coordinate of basis element j.

        Entries are RatIntervals.  Standard layout: r real coordinates then
        (Re, Im) pairs for each conjugate pair, as certified enclosures.
        """
        if bits in self._emb_cache:
            return self._emb_cache[bits]
        iso = self.root_isolation(bits)
        r, s = self.signature
        n = self.degree
        cols = []
        for idx in range(r + s):
            enc = iso.enclosures[idx]
            re = RatInterval(enc.center[0] - enc.radius, enc.center[0] + enc.radius)
            if enc.is_real:
                im = RatInterval(0)
            else:
                im = RatInterval(enc.center[1] - enc.radius, enc.center[1] + enc.radius)
            cols.append((re, im))
        rows = []
        for j in range(n):
            row = []
            for idx in range(r):
                val = _interval_poly_eval_real(self.basis[j], cols[idx][0], cols[idx][1])
                row.append(val[0])
            for idx in range(r, r + s):
                val = _interval_poly_eval_real(self.basis[j], cols[idx][0], cols[idx][1])
                row.append(val[0])
                row.append(val[1])
            rows.append(tuple(row))
        out = tuple(rows)
        self._emb_cache[bits] = out
        return out

    def sigma_std(self, alpha, bits=64):
        """Standard embedding of alpha as a tuple of n RatIntervals."""
        s = self.embedding_matrix(bits)
        n = self.degree
        out = []
        for k in range(n):
            acc = RatInterval(0)
            for j in range(n):
                c = alpha.coords[j]
                if c:
                    acc = acc + s[j][k] * c
            out.append(acc)
        return tuple(out)

    def sigma_pairs(self, alpha, bits=64):
        """Per-embedding view: r real RatIntervals then s (re, im) pairs."""
        std = self.sigma_std(alpha, bits)
        r, s = self.signature
        reals = list(std[:r])
        pairs = [(std[r + 2 * i], std[r + 2 * i + 1]) for i in range(s)]
        return reals, pairs

    def __repr__(self):
        return f"NumberField({self.name}, deg={self.degree}, sig={self.signature}, disc={self.disc})"


class _Form(dict):
    """Integer polynomial in the coordinates as {exponent tuple: coefficient},
    with just the ring operations that linalg.det needs."""

    def __add__(self, other):
        out = _Form(self)
        for mono, c in other.items():
            out[mono] = out.get(mono, 0) + c
        return out

    def __neg__(self):
        return _Form({mono: -c for mono, c in self.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        out = _Form()
        for ma, a in self.items():
            for mb, b in other.items():
                mono = tuple(x + y for x, y in zip(ma, mb))
                out[mono] = out.get(mono, 0) + a * b
        return out


def _norm_form(mult_table):
    """The norm form N(c) = det(sum_j c_j M_j), M_j multiplication by the
    j-th basis element: a homogeneous integer polynomial of degree n.

    Returns its nonzero terms as (coefficient, variable indices repeated by
    exponent) pairs, in a fixed order.
    """
    n = len(mult_table)
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    rows = [
        [_Form({unit[j]: mult_table[i][j][k] for j in range(n) if mult_table[i][j][k]})
         for k in range(n)]
        for i in range(n)
    ]
    form = det(rows, one=_Form({(0,) * n: 1}))
    return tuple(
        (c, tuple(j for j, e in enumerate(mono) for _ in range(e)))
        for mono, c in sorted(form.items(), reverse=True)
        if c
    )


def _interval_poly_eval_real(coeffs, re, im):
    """Evaluate a rational polynomial at the complex rectangle (re, im)."""
    acc_re, acc_im = RatInterval(0), RatInterval(0)
    for c in reversed(coeffs):
        acc_re, acc_im = (
            acc_re * re - acc_im * im + Fraction(c),
            acc_re * im + acc_im * re,
        )
    return acc_re, acc_im


class AlgebraicInt:
    """Element of the ring of integers, as coordinates on the integral basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(coords)

    def __add__(self, other):
        self._check(other)
        return AlgebraicInt(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return AlgebraicInt(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return AlgebraicInt(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            return AlgebraicInt(self.field, tuple(other * a for a in self.coords))
        self._check(other)
        n = self.field.degree
        table = self.field.mult_table
        acc = [0] * n
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        t = table[i][j]
                        ab = a * b
                        for k in range(n):
                            acc[k] += ab * t[k]
        return AlgebraicInt(self.field, tuple(acc))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers need a unit inverse; use inverse()")
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraicInt)
            and self.field is other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((id(self.field), self.coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def norm(self):
        return self.field.norm(self)

    def trace(self):
        return self.field.trace(self)

    def char_poly(self):
        return self.field.char_poly(self)

    def is_unit(self):
        return abs(self.norm()) == 1

    def inverse(self):
        """Inverse of a unit, exact.  Raises for non-units."""
        cp = self.char_poly()
        c0 = cp[0]
        if abs(c0) != 1:
            raise ValueError("not a unit")
        # alpha * (alpha^{n-1} + c_{n-1} alpha^{n-2} + ... + c_1) = -c_0.
        n = self.field.degree
        acc = self.field.one
        for k in range(n - 1, 0, -1):
            acc = acc * self + self.field.rational(cp[k])
        inv = acc * (-c0)
        if (inv * self) != self.field.one:
            raise ArithmeticError("unit inverse verification failed")
        return inv

    def _check(self, other):
        if not isinstance(other, AlgebraicInt) or other.field is not self.field:
            raise TypeError("elements of different fields")

    def __repr__(self):
        return f"AlgebraicInt{self.coords}"


def is_square_in_field(eta):
    """Exact test: eta == beta^2 for some algebraic integer beta.

    Equivalent to being a square in the field, since the ring of integers
    is integrally closed.  Floats only narrow the search box; every
    candidate is verified by exact squaring.
    """
    field = eta.field
    if eta.is_zero():
        return True
    nrm = eta.norm()
    if nrm < 0:
        return False
    from math import isqrt

    rt = isqrt(abs(nrm))
    if rt * rt != abs(nrm):
        return False
    bits = 64
    r, s = field.signature
    while True:
        reals, pairs = field.sigma_pairs(eta, bits)
        if any(iv.hi < 0 for iv in reals):
            return False
        if all(iv.lo > 0 or iv.hi < 0 for iv in reals):
            break
        bits *= 2
        if bits > 4096:
            raise ArithmeticError("cannot separate embedding signs")
    # |sigma_i(beta)| <= sqrt(|sigma_i(eta)|), expanded to coordinate bounds.
    from .intervals import sqrt_upper

    std_bounds = []
    for iv in reals:
        std_bounds.append(sqrt_upper(max(iv.hi, Fraction(0))))
    for re, im in pairs:
        mod2 = re * re + im * im
        b = sqrt_upper(sqrt_upper(max(mod2.hi, Fraction(0))))
        std_bounds.append(b)
        std_bounds.append(b)
    coord_bounds = _coordinate_bounds(field, std_bounds, bits)
    ranges = [range(-b, b + 1) for b in coord_bounds]
    candidate = [0] * field.degree
    return _square_search(field, eta, ranges, candidate, 0)


def _square_search(field, eta, ranges, candidate, idx):
    if idx == len(ranges):
        beta = field.element(candidate)
        return (beta * beta) == eta
    for v in ranges[idx]:
        candidate[idx] = v
        if _square_search(field, eta, ranges, candidate, idx + 1):
            return True
    candidate[idx] = 0
    return False


def _coordinate_bounds(field, std_bounds, bits=64):
    """Integer bounds b_j with |coords_j| <= b_j for any element whose
    standard embedding is bounded coordinatewise by std_bounds.

    Uses a rigorous interval inverse of the embedding matrix: coords =
    sigma_vector * S^{-1}, so |coords_j| <= sum_k bound_k * |inv[k][j]|.
    """
    from .intervals import AmbiguousPivotError, interval_abs_upper, interval_mat_inv

    n = field.degree
    while True:
        s = field.embedding_matrix(bits)
        try:
            inv = interval_mat_inv(s)
            break
        except AmbiguousPivotError:
            bits *= 2
            if bits > 1 << 14:
                raise
    out = []
    for j in range(n):
        est = sum(Fraction(std_bounds[k]) * interval_abs_upper(inv[k][j]) for k in range(n))
        out.append(int(est) + 1)
    return out
