"""Ideals of the ring of integers as canonical HNF lattices.

An ideal is stored as the row-style Hermite normal form of its coordinate
lattice on the integral basis, so equality is matrix equality and the norm
is the diagonal product.  Prime splitting is Kummer-Dedekind on the
defining polynomial; fields whose integral basis is not a power basis get
an explicit error at primes dividing the index rather than a wrong answer.
"""

from . import fpoly
from .intfactor import factor as factor_int, mth_power_primes
from .linalg import (
    det_triangular,
    hnf,
    identity,
    in_lattice,
    lattice_sum,
    quotient_box,
    reduce_mod_lattice,
)
from .poly import PrimeField, mul

RESIDUE_CAP = 10**6


class NonMonogenicError(NotImplementedError):
    """Splitting requested at a prime dividing [O_K : Z[theta]]."""


class ResidueCapError(ValueError):
    """A brute-force residue enumeration would exceed RESIDUE_CAP residues."""


class IdealLattice:
    """Nonzero integral ideal of the maximal order, in canonical HNF."""

    __slots__ = ("field", "hnf", "_norm", "_factors")

    def __init__(self, field, hnf_rows, _validated=False):
        self.field = field
        self.hnf = hnf_rows
        self._norm = None
        self._factors = None
        if not _validated:
            if len(hnf_rows) != field.degree:
                raise ValueError("zero or non-full-rank ideal rejected")
            self._check_module()

    def _check_module(self):
        n = self.field.degree
        if not all(in_lattice(v, self.hnf) for v in self.field.products(self.hnf, identity(n))):
            raise ValueError("lattice is not an O_K-module")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_generators(cls, field, elements):
        """Ideal generated by the given elements (as an O_K-module)."""
        h = hnf(field.products([g.coords for g in elements], identity(field.degree)))
        if len(h) != field.degree:
            raise ValueError("zero ideal rejected")
        return cls(field, h, _validated=True)

    @classmethod
    def principal(cls, alpha):
        return cls.from_generators(alpha.field, [alpha])

    @classmethod
    def unit_ideal(cls, field):
        return cls(field, identity(field.degree), _validated=True)

    @classmethod
    def from_integer(cls, field, q):
        if q == 0:
            raise ValueError("zero ideal rejected")
        return cls.principal(field.rational(abs(q)))

    # -- basic data -----------------------------------------------------------

    @property
    def norm(self):
        if self._norm is None:
            self._norm = abs(det_triangular(self.hnf))
        return self._norm

    def is_unit_ideal(self):
        return self.norm == 1

    def __eq__(self, other):
        return (
            isinstance(other, IdealLattice)
            and self.field is other.field
            and self.hnf == other.hnf
        )

    def __hash__(self):
        return hash((id(self.field), self.hnf))

    def __repr__(self):
        return f"IdealLattice(norm={self.norm})"

    def sort_key(self):
        return (self.norm, self.hnf)

    # -- arithmetic -----------------------------------------------------------

    def __mul__(self, other):
        h = hnf(self.field.products(self.hnf, other.hnf))
        return IdealLattice(self.field, h, _validated=True)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative ideal powers not supported")
        out = IdealLattice.unit_ideal(self.field)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __add__(self, other):
        h = lattice_sum(self.hnf, other.hnf)
        return IdealLattice(self.field, h, _validated=True)

    def contains(self, alpha):
        return in_lattice(alpha.coords, self.hnf)

    def divides(self, other):
        """self | other, i.e. other is contained in self."""
        return all(in_lattice(row, self.hnf) for row in other.hnf)

    def is_coprime(self, other):
        return (self + other).is_unit_ideal()

    def reduce(self, alpha):
        """Canonical representative of alpha modulo the ideal."""
        return self.field.element(reduce_mod_lattice(alpha.coords, self.hnf))

    def residues(self):
        """Stream a complete residue system, in lexicographic order."""
        return residue_system(self.field, self.hnf, identity(self.field.degree))

    # -- factorization ---------------------------------------------------------

    def factor(self):
        """[(PrimeIdealData, exponent)] sorted by (p, residue degree, poly)."""
        if self._factors is not None:
            return self._factors
        field = self.field
        out = []
        for p, _ in factor_int(self.norm):
            primes = split_prime(field, p)
            for pid in primes:
                e = self.valuation_at(pid)
                if e:
                    out.append((pid, e))
        check = 1
        for pid, e in out:
            check *= pid.norm**e
        if check != self.norm:
            raise ArithmeticError("factorization norm mismatch")
        out.sort(key=lambda t: t[0].sort_key())
        self._factors = out
        return out

    def valuation_at(self, pid):
        """Exact valuation v_P(self) by containment in cached powers of P."""
        v = 0
        while prime_power(pid, v + 1).divides(self):
            v += 1
        return v


class PrimeIdealData:
    """A prime ideal above p, from the Kummer-Dedekind factorization.

    P = (p, g(theta)).  Equality, hashing and ordering use (field, p, g)
    alone; the HNF lattice `ideal` is built on first access, so primes
    that only ever need their residue field never build one.  Its powers
    P^k are cached on it as they are built (prime_power).
    """

    __slots__ = ("field", "p", "generator_poly", "residue_degree", "ramification", "_ideal", "_fq",
                 "_powers")

    def __init__(self, field, p, generator_poly, ramification):
        self.field = field
        self.p = p
        self.generator_poly = generator_poly
        self.residue_degree = len(generator_poly) - 1
        self.ramification = ramification
        self._ideal = None
        self._fq = None
        self._powers = None

    @property
    def norm(self):
        return self.p**self.residue_degree

    @property
    def ideal(self):
        if self._ideal is None:
            field = self.field
            gen = field.from_theta_poly(self.generator_poly)
            ideal = IdealLattice.from_generators(field, [field.rational(self.p), gen])
            if self.norm != ideal.norm:
                raise ArithmeticError("prime ideal norm mismatch")
            self._ideal = ideal
        return self._ideal

    @property
    def hnf(self):
        return self.ideal.hnf

    def residue_field(self):
        if self._fq is None:
            self._fq = fpoly.residue_field(self.p, self.generator_poly)
        return self._fq

    def sort_key(self):
        return (self.p, self.residue_degree, self.generator_poly)

    def __eq__(self, other):
        return (
            isinstance(other, PrimeIdealData)
            and self.field is other.field
            and self.p == other.p
            and self.generator_poly == other.generator_poly
        )

    def __hash__(self):
        return hash((id(self.field), self.p, self.generator_poly))

    def __repr__(self):
        return f"PrimeIdeal(p={self.p}, f={self.residue_degree}, e={self.ramification})"


def power_basis_index(field):
    """[O_K : Z[theta]] for the given integral basis, computed once per field."""
    idx = getattr(field, "_power_basis_index", None)
    if idx is None:
        n = field.degree
        rows = []
        power = field.one
        for _ in range(n):
            rows.append(power.coords)
            power = power * field.theta
        h = hnf(rows)
        if len(h) != n:
            raise ArithmeticError("theta powers do not span")
        idx = field._power_basis_index = abs(det_triangular(h))
    return idx


def split_prime(field, p):
    """Prime ideals above p by Kummer-Dedekind, sorted deterministically.

    No HNF is built here: each prime builds its own on first use of
    `.ideal`, where its norm is checked.  The factorization is checked
    for every p: the product of the g^e is the minimal polynomial mod p.
    """
    cache = getattr(field, "_prime_cache", None)
    if cache is None:
        cache = field._prime_cache = {}
    if p in cache:
        return cache[p]
    idx = power_basis_index(field)
    if idx % p == 0:
        raise NonMonogenicError(
            f"prime {p} divides the index [O_K : Z[theta]] = {idx}; "
            "Kummer-Dedekind splitting is unavailable on this basis"
        )
    factors = fpoly.factor_mod_p(field.min_poly, p)
    F = PrimeField(p)
    prod = (1,)
    for g, e in factors:
        for _ in range(e):
            prod = mul(prod, g, F)
    if prod != tuple(c % p for c in field.min_poly):
        raise ArithmeticError("factors mod p do not multiply to the minimal polynomial")
    out = [PrimeIdealData(field, p, g, e) for g, e in factors]
    out.sort(key=lambda q: q.sort_key())
    cache[p] = out
    return out


def mobius(ideal):
    """Moebius function: (-1)^k on squarefree ideals with k primes, else 0."""
    if ideal.is_unit_ideal():
        return 1
    fac = ideal.factor()
    if any(e >= 2 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def is_mfree(ideal, m):
    """True iff no prime ideal power P^m divides the ideal.

    Fast path: if the rational integer norm is m-free then so is the ideal,
    because P^m | a forces p^m | norm(a).
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    from .intfactor import is_power_free

    if ideal.is_unit_ideal():
        return True
    if is_power_free(ideal.norm, m):
        return True
    return all(e < m for _, e in ideal.factor())


def element_is_mfree(alpha, m):
    """m-freeness of the principal ideal (alpha), avoiding full HNF work.

    P^m | (alpha) forces p^m | N(alpha) for the prime p below P, so only
    the primes P above the primes p with p^m dividing the integer norm
    need a test, and v_P(alpha) >= m is exactly alpha in P^m.
    """
    return not any(in_mth_power_above(alpha, p, m) for p in mth_power_primes(alpha.norm(), m))


def in_mth_power_above(alpha, p, m):
    """True iff alpha lies in P^m for some prime P above p."""
    return any(prime_power(pid, m).contains(alpha) for pid in split_prime(alpha.field, p))


def prime_power(pid, k):
    """P^k (k >= 1), cached on the prime."""
    powers = pid._powers
    if powers is None:
        powers = pid._powers = [pid.ideal]
    while len(powers) < k:
        powers.append(powers[-1] * pid.ideal)
    return powers[k - 1]


def element_valuation(alpha, pid):
    """v_P(alpha) by iterated membership in cached powers of P."""
    v = 0
    while prime_power(pid, v + 1).contains(alpha):
        v += 1
    return v


def residue_system(field, sub, sup):
    """The elements of a transversal of the HNF lattice sub inside the HNF
    lattice sup, in quotient_box order.

    This is the one brute-force residue walk, and the one place where
    RESIDUE_CAP is decided: a walk over more residues raises
    ResidueCapError before it yields any.
    """
    count = abs(det_triangular(sub) // det_triangular(sup))
    if count > RESIDUE_CAP:
        raise ResidueCapError(f"residue system of size {count} exceeds cap {RESIDUE_CAP}")
    for v in quotient_box(sub, sup):
        yield field.element(v)


def iter_ideals(field, max_norm):
    """All nonzero ideals of norm <= max_norm, sorted by (norm, hnf)."""
    from .intfactor import is_prime

    prime_pool = []
    for p in range(2, max_norm + 1):
        if not is_prime(p):
            continue
        for pid in split_prime(field, p):
            if pid.norm <= max_norm:
                prime_pool.append(pid)
    out = []

    def rec(idx, current, norm):
        out.append(current)
        for i in range(idx, len(prime_pool)):
            pid = prime_pool[i]
            nxt_norm = norm * pid.norm
            if nxt_norm > max_norm:
                continue
            nxt = current * pid.ideal
            while nxt_norm <= max_norm:
                rec(i + 1, nxt, nxt_norm)
                nxt_norm *= pid.norm
                if nxt_norm <= max_norm:
                    nxt = nxt * pid.ideal

    rec(0, IdealLattice.unit_ideal(field), 1)
    out.sort(key=lambda a: a.sort_key())
    return out
