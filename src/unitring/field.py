"""Number fields and exact arithmetic on their algebraic integers.

A field is defined by a monic irreducible integer polynomial (constant
term first) together with an integral basis given as rational rows on the
powers of the defining root theta.  Elements carry integer coordinates on
the integral basis; all ring operations go through precomputed integer
structure constants in AlgebraicInt.__mul__, so arithmetic never leaves
the integers.

The defining polynomial is certified irreducible from its root
enclosures: the one RootIsolation a field keeps, which also gives its
signature.  Embeddings are certified at any requested precision: the
one embedding sum, enclose, multiplies integer coordinates by a column of
the embedding matrix scaled by 2^bits and rounded outward
(fixed_embedding); NumberField.embed runs it at the common denominator of
rational coordinates.  Coordinates and coefficients are read exactly:
ints (not bools) and integral Fractions only.
"""

from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, lcm

from .intervals import RatInterval, integer_candidate
from .intfactor import exact_root
from .linalg import adjugate, det, vec_mat
from .poly import QQ, deriv, divmod, evaluate, gcd, mul, trim
from .rootiso import ComplexValues, RootIsolation, precisions


class IrreducibilityError(ValueError):
    """The defining polynomial is reducible over Q."""


def exact_int(x):
    """x as an int: an int other than a bool, or an integral Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise ValueError(f"expected an integer, got {x!r}")


def _certify_irreducible(poly):
    """Certify a squarefree monic integer polynomial irreducible over Q;
    returns its RootIsolation, or raises IrreducibilityError.

    A monic factor over Q has integer coefficients (Gauss's lemma) and its
    roots are a set of places: real roots, giving X - r, and conjugate
    pairs, giving X^2 - 2 Re z X + |z|^2.  Each set of places of total
    degree at most n/2 gives its product with interval coefficients.  The
    set is ruled out once some coefficient interval holds no integer;
    once all are narrower than 1, the one integer candidate
    (intervals.integer_candidate) is divided into poly exactly.
    Undecided sets are retried up the precision ladder: a product that is
    not integral has a coefficient that is not an integer, so refinement
    decides every set.
    """
    if len(gcd(poly, deriv(poly, QQ), QQ)) > 1:
        raise IrreducibilityError("reducible: repeated factor")
    iso = RootIsolation(poly)
    r, s = iso.signature
    sets = [c for k in range(1, r + s + 1) for c in combinations(range(r + s), k)
            if sum(1 if i < r else 2 for i in c) <= (len(poly) - 1) // 2]
    for bits in precisions(iso.bits, "irreducibility"):
        iso.refine(bits)
        factors = []
        for enc in iso.enclosures[:r + s]:
            re, im = enc.box()
            factors.append((-re, 1) if enc.is_real else (re * re + im * im, -2 * re, 1))
        undecided = []
        for c in sets:
            g = (1,)
            for i in c:
                g = mul(g, factors[i], QQ)
            cand = integer_candidate(g[:-1])
            if cand == ():
                undecided.append(c)
            elif cand and divmod(poly, (*cand, 1), QQ)[1] == (0,):
                raise IrreducibilityError(f"reducible: factor {(*cand, 1)}, constant term first")
        if not undecided:
            return iso
        sets = undecided


def enclose(coords, lo_col, hi_col):
    """The integer interval of one embedding coordinate at scale 2^bits:
    the integer coordinates coords times one column of fixed_embedding,
    lo_col <= 2^bits col <= hi_col, rounded outward with it."""
    lo = hi = 0
    for c, a, b in zip(coords, lo_col, hi_col):
        if c > 0:
            lo += c * a
            hi += c * b
        elif c < 0:
            lo += c * b
            hi += c * a
    return lo, hi


class NumberField:
    """Degree-n number field with a fixed integral basis."""

    def __init__(self, min_poly, integral_basis=None, name="K"):
        min_poly = trim(tuple(exact_int(c) for c in min_poly), QQ)
        if min_poly[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        if len(min_poly) < 3:
            raise ValueError("degree must be at least 2")
        self._roots = _certify_irreducible(min_poly)
        self.min_poly = min_poly
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
        basis_det, adj = adjugate(basis)
        if not basis_det:
            rows = "; ".join(" ".join(map(str, row)) for row in basis)
            raise ValueError(f"integral basis [{rows}] is singular")
        self.basis_inv = tuple(tuple(x / basis_det for x in row) for row in adj)
        self._build_tables()
        # The basis writes O_K on the powers of theta, so [O_K : Z[theta]] is
        # 1/|det basis|: an integer now that 1 and theta are integral on it.
        self.power_basis_index = int(abs(1 / basis_det))
        self.norm_form = _norm_form(self.mult_table)
        self.signature = self._roots.signature
        self.disc = self._discriminant()
        self._emb_cache = {}

    # -- construction helpers ----------------------------------------------

    def _theta_to_coords(self, theta_poly):
        """Coordinates (Fractions) on the integral basis of a theta-polynomial."""
        red = divmod(theta_poly, self.min_poly, QQ)[1]
        inv = self.basis_inv
        return tuple(
            sum(Fraction(c) * inv[k][j] for k, c in enumerate(red))
            for j in range(self.degree)
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
        self.basis_elements = tuple(self.element([int(i == j) for j in range(n)]) for i in range(n))

    def _discriminant(self):
        """Trace form determinant on the integral basis; keeps the inverse
        of the form, adj/det, whose rows are the dual basis w_j* with
        Tr(w_i w_j*) = [i == j]."""
        n = self.degree
        tr = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                prod = self.element(self.mult_table[i][j])
                tr[i][j] = prod.trace()
        disc, adj = adjugate(tr)
        self.trace_form_inv = tuple(tuple(Fraction(x, disc) for x in row) for row in adj)
        return disc

    # -- element constructors ------------------------------------------------

    def element(self, coords):
        coords = tuple(c if type(c) is int else exact_int(c) for c in coords)
        if len(coords) != self.degree:
            raise ValueError("coordinate length mismatch")
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

    # The coefficient ring O_K of unitring.poly and rootiso.resultant:
    # zero, one, scalar, mul and addmul.

    scalar = rational

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def addmul(acc, x, y):
        return acc + x * y

    # -- exact invariants ------------------------------------------------------

    def theta_poly_of(self, alpha):
        """Rational coefficients of alpha as a polynomial in theta."""
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
        """Integer matrix of multiplication by alpha; row i = coords of w_i*alpha."""
        return tuple((w * alpha).coords for w in self.basis_elements)

    def products(self, rows_a, rows_b):
        """Coordinates of a*b for every row a of rows_a and b of rows_b,
        in that order: b times the multiplication matrix of a."""
        return [vec_mat(b, m) for m in (self.mult_matrix(self.element(a)) for a in rows_a)
                for b in rows_b]

    # -- embeddings ---------------------------------------------------------

    def root_isolation(self, bits=64):
        """The field's one RootIsolation, refined to at least bits."""
        self._roots.refine(bits)
        return self._roots

    def embedding_matrix(self, bits=64):
        """S[j][k]: k-th standard-embedding coordinate of basis element j.

        Entries are RatIntervals.  Standard layout: r real coordinates then
        (Re, Im) pairs for each conjugate pair, as certified enclosures.
        The source of fixed_embedding, and so of every embedding sum.
        """
        if bits not in self._emb_cache:
            r, s = self.signature
            roots = [enc.box() for enc in self.root_isolation(bits).enclosures[:r + s]]
            rows = []
            for w in self.basis:
                vals = [evaluate(w, z, ComplexValues) for z in roots]
                rows.append(tuple(v[0] for v in vals[:r]) + tuple(x for v in vals[r:] for x in v))
            self._emb_cache[bits] = tuple(rows)
        return self._emb_cache[bits]

    def fixed_embedding(self, bits):
        """embedding_matrix at scale 2^bits as integers rounded outward,
        column-major: (lo, hi) with lo[k][j] <= 2^bits S[j][k] <= hi[k][j]."""
        key = ("fixed", bits)
        if key not in self._emb_cache:
            cols = tuple(zip(*self.embedding_matrix(bits)))
            one = 1 << bits
            self._emb_cache[key] = (tuple(tuple(floor(e.lo * one) for e in col) for col in cols),
                                    tuple(tuple(ceil(e.hi * one) for e in col) for col in cols))
        return self._emb_cache[key]

    def embed(self, coords, bits=64):
        """Standard embedding of the element with rational coordinates
        coords, as a tuple of n RatIntervals: enclose over fixed_embedding
        at the coordinates' common denominator d, divided by d 2^bits."""
        d = lcm(*(Fraction(c).denominator for c in coords))
        ints = [int(c * d) for c in coords]
        scale = d << bits
        return tuple(RatInterval(*(Fraction(x, scale) for x in enclose(ints, *col)))
                     for col in zip(*self.fixed_embedding(bits)))

    def inverse_embedding(self, bits=64):
        """M[k][j] with coords_j(alpha) = sum_k std_k(alpha) M[k][j], as
        RatIntervals: S M encloses the identity for S = embedding_matrix.

        Coordinate j of alpha is Tr(alpha w_j*), the sum over the real
        places of sigma(alpha) sigma(w_j*) plus, at each complex place,
        2 Re(sigma(alpha) sigma(w_j*)).  So column j of M is the embedding
        of w_j* scaled by 1 at a real place and by 2 and -2 (Re, Im) at a
        complex one: no elimination.
        """
        key = ("inverse", bits)
        if key not in self._emb_cache:
            scale = [1] * self.signature[0] + [2, -2] * self.signature[1]
            cols = [self.embed(dual, bits) for dual in self.trace_form_inv]
            self._emb_cache[key] = tuple(tuple(col[k] * scale[k] for col in cols)
                                         for k in range(self.degree))
        return self._emb_cache[key]

    def __repr__(self):
        return f"NumberField({self.name}, deg={self.degree}, sig={self.signature}, disc={self.disc})"


class _Form(dict):
    """Integer polynomial in the coordinates as {monomial: coefficient},
    with just the ring operations that linalg.det needs.  A monomial is its
    exponent vector packed as the base-(n + 1) digits of one int, the first
    exponent most significant, so a product of monomials is one addition:
    the forms linalg.det builds here have degree at most n, so no digit
    carries."""

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
                mono = ma + mb
                out[mono] = out.get(mono, 0) + a * b
        return out


def _norm_form(mult_table):
    """The norm form N(c) = det(sum_j c_j M_j), M_j multiplication by the
    j-th basis element: a homogeneous integer polynomial of degree n.

    Returns its nonzero terms as (coefficient, variable indices repeated by
    exponent) pairs, in a fixed order.
    """
    n = len(mult_table)
    digit = [(n + 1) ** (n - 1 - j) for j in range(n)]
    rows = [
        [_Form({digit[j]: mult_table[i][j][k] for j in range(n) if mult_table[i][j][k]})
         for k in range(n)]
        for i in range(n)
    ]
    form = det(rows, one=_Form({0: 1}))
    return tuple(
        (c, tuple(j for j in range(n) for _ in range(mono // digit[j] % (n + 1))))
        for mono, c in sorted(form.items(), reverse=True)
        if c
    )


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
            raise ValueError("negative powers are not supported")
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

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def norm(self):
        return self.field.norm(self)

    def trace(self):
        return self.field.trace(self)

    def is_unit(self):
        return abs(self.norm()) == 1

    def _check(self, other):
        if not isinstance(other, AlgebraicInt) or other.field is not self.field:
            raise TypeError("elements of different fields")

    def __repr__(self):
        return f"AlgebraicInt{self.coords}"


def is_square_in_field(eta):
    """Exact test: eta == beta^2 for some algebraic integer beta.

    Equivalent to being a square in the field, since the ring of integers
    is integrally closed.  After the norm and real-sign checks, each choice
    of square roots of the embeddings (one sign fixed, as -beta is a root
    too) is taken through the inverse embedding until every coordinate
    interval is narrower than 1; a choice counts only when its integer
    coordinates square to eta exactly.
    """
    field = eta.field
    if eta.is_zero():
        return True
    nrm = eta.norm()
    if exact_root(nrm, 2) is None:
        return False
    r = field.signature[0]
    for bits in precisions(64, "squareness"):
        std = field.embed(eta.coords, bits)
        reals, pairs = std[:r], zip(std[r::2], std[r + 1::2])
        if any(iv.hi < 0 for iv in reals):
            return False
        if all(iv.lo > 0 for iv in reals):
            # The square roots at each place: +-sqrt at a real one, +-x +- iy
            # with x, y >= 0 at a complex one.
            places = [[(v,), (-v,)] for v in (iv.sqrt(bits) for iv in reals)]
            for re, im in pairs:
                mod = _sqrt_nonneg(re * re + im * im, bits)
                x = _sqrt_nonneg((mod + re) / 2, bits)
                y = _sqrt_nonneg((mod - re) / 2, bits)
                places.append([(x, y), (x, -y), (-x, y), (-x, -y)])
            places[0] = places[0][:len(places[0]) // 2]
            inv = field.inverse_embedding(bits)
            undecided = False
            for choice in product(*places):
                std = [v for place in choice for v in place]
                ints = integer_candidate([sum((x * m for x, m in zip(std, col)), RatInterval(0))
                                          for col in zip(*inv)])
                undecided |= ints == ()
                if ints and field.element(ints) ** 2 == eta:
                    return True
            if not undecided:
                return False


def _sqrt_nonneg(iv, bits):
    """Enclosure of sqrt(t) for the t >= 0 inside iv."""
    return RatInterval(max(iv.lo, 0), max(iv.hi, 0)).sqrt(bits)
