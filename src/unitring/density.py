"""The m-free value sieve: root counting, the Euler product density with a
rigorous tail, empirical counts over box regions, the admissible error
exponents, and the density-gap inequality for the order-versus-maximal
comparison.

The local root count L(P^e) is decided in one place,
count_roots_prime_power, and every Euler factor, the excluded product,
the fixed-divisor check and the density gap read it there.  Wherever the
reduced polynomial is separable it is a residue-field gcd count: each
root is simple and lifts uniquely to every prime power (Hensel), so no
root is ever found.  Only an inseparable reduction, at a prime of bad
reduction, finds its roots, lifts the simple ones and counts the lifts of
the multiple ones by brute force; a reduction that vanishes counts N(P)^e
when every coefficient lies in P^e.  Every brute-force walk, the lifts
and the oracles root_count_bruteforce and root_count_order_bruteforce,
runs over ideal.residue_system, which alone holds the residue cap.  The
infinite Euler product is truncated with an explicit interval tail, with
every prime of bad reduction handled exactly no matter its size, so the
returned interval is rigorous.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, combinations, islice, repeat
from math import lcm, prod

from . import fpoly
from .field import is_square_in_field
from .ideal import (
    IdealLattice,
    NonMonogenicError,
    in_mth_power_above,
    prime_power,
    residue_system,
    split_prime,
)
from .geometry import (
    FloatRegionFilter,
    RegionBox,
    enumerate_region_oracle,
    lattice_point_density,
    region_runs,
)
from .intervals import RatInterval
from .intfactor import mth_power_primes, prime_table
from .linalg import lattice_sum
from .poly import deriv, evaluate, gcd, trim
from .rootiso import resultant


class SieveInputError(ValueError):
    """An input the sieve refuses: a polynomial, order, m, exclusion set or
    truncation outside the hypotheses of the density theorem."""


class FixedDivisorError(SieveInputError):
    """Some m-th prime power divides every value of the polynomial."""

    def __init__(self, witness):
        super().__init__(f"fixed divisor violation at {witness}")
        self.witness = witness


class SievePolynomial:
    """Polynomial over the order with AlgebraicInt coefficients, constant first."""

    __slots__ = ("field", "coeffs", "degree", "theta_numerators")

    def __init__(self, coeffs, assume_irreducible=False):
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        if len(coeffs) < 2:
            raise SieveInputError("degree must be at least 1")
        self.field = coeffs[0].field
        self.coeffs = tuple(coeffs)
        self.degree = len(coeffs) - 1
        # (den, rows): the coefficients as polynomials in theta, each row
        # the integer numerators over the one common denominator den.
        rows = [self.field.theta_poly_of(c) for c in self.coeffs]
        den = lcm(*(x.denominator for row in rows for x in row))
        self.theta_numerators = (den, tuple(tuple(int(x * den) for x in row) for row in rows))
        if self.degree == 2:
            # Quadratic: irreducible over O_K iff the discriminant is a non-square.
            c, b, a = self.coeffs
            if is_square_in_field(b * b - 4 * (a * c)):
                raise SieveInputError("quadratic is reducible: discriminant is a square")
        elif not assume_irreducible:
            raise SieveInputError("irreducibility must be asserted by the caller for degree != 2")

    @classmethod
    def x_squared_minus(cls, value):
        """X^2 - value, the workhorse shape."""
        f = value.field
        return cls([-value, f.zero, f.one])

    def __call__(self, alpha):
        val = self.field.zero
        for c in reversed(self.coeffs):
            val = val * alpha + c
        return val

    def derivative(self):
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(self.coeffs[i] * i)
        return out

    def leading(self):
        return self.coeffs[-1]

    def in_order(self, order):
        return all(order.contains(c) for c in self.coeffs)

    def __repr__(self):
        return f"SievePolynomial(deg={self.degree})"


# ---------------------------------------------------------------------------
# Root counting


def _reduce_to_residue_field(poly, pid):
    """Image of the polynomial in F_q[X] for the residue field at pid.

    Returns the coefficient tuple over F_q (constant first).  Raises when a
    coordinate denominator is not invertible mod p (non-monogenic basis).
    """
    den, rows = poly.theta_numerators
    p = pid.p
    if den % p == 0:
        raise NonMonogenicError(
            f"coordinate denominators are not invertible mod {p}; "
            "power basis required"
        )
    inv = pow(den, -1, p)
    fq = pid.residue_field()
    return trim([fq.elem([x * inv % p for x in row]) for row in rows], fq), fq


def count_roots_prime_power(poly, pid, e):
    """L(P^e): number of roots of the polynomial in O_K / P^e.

    A separable reduction f-bar has only simple roots, each lifting
    uniquely to every P^e, so L(P^e) = L(P) is a gcd count.  Otherwise the
    roots are found and the multiple ones lifted by brute force.
    """
    fbar, fq = _reduce_to_residue_field(poly, pid)
    zero = (fq.zero,)
    if fbar == zero:
        # Every value lies in P^e when every coefficient does (always at
        # e = 1, as f-bar = 0); otherwise by brute force.
        target = prime_power(pid, e)
        if all(target.contains(c) for c in poly.coeffs):
            return fq.q**e
        return root_count_bruteforce(poly, target)
    dbar = deriv(fbar, fq)
    if e == 1 or (dbar != zero and len(gcd(fbar, dbar, fq)) == 1):
        return fpoly.count_roots_in_fq(fbar, fq)
    count = 0
    for root in fpoly.roots_in_fq(fbar, fq):
        if dbar != zero and evaluate(dbar, root, fq) != fq.zero:
            count += 1  # simple root lifts uniquely to every P^e
        else:
            count += _count_lifts_bruteforce(poly, pid, e, root, fq)
    return count


def _count_lifts_bruteforce(poly, pid, e, root, fq):
    """The lifts rho + beta of the residue-field root to O_K / P^e, beta
    running over P / P^e, that are roots."""
    target = prime_power(pid, e)
    rho = poly.field.from_theta_poly(fq.coeffs(root))
    return sum(target.contains(poly(rho + beta))
               for beta in residue_system(poly.field, target.hnf, pid.hnf))


def root_count(poly, ideal):
    """L(a): roots of the polynomial in O_K/a, by CRT over prime powers."""
    return prod(count_roots_prime_power(poly, pid, e) for pid, e in ideal.factor())


def root_count_bruteforce(poly, ideal):
    """Independent oracle: enumerate all residues and evaluate."""
    return sum(ideal.contains(poly(beta)) for beta in ideal.residues())


def root_count_order(poly, ideal, order):
    """L_O(a): roots in O/(a cap O).  CRT over the prime-power parts when
    their contractions are pairwise comaximal, brute force otherwise."""
    if not poly.in_order(order):
        raise ValueError("polynomial coefficients must lie in the order")
    if order.is_maximal():
        return root_count(poly, ideal)
    parts = [prime_power(pid, e) for pid, e in ideal.factor()]
    rows = [order.contract(part)[0] for part in parts]
    if all(lattice_sum(a, b) == order.basis_hnf for a, b in combinations(rows, 2)):
        return prod(root_count_order_bruteforce(poly, part, order) for part in parts)
    return root_count_order_bruteforce(poly, ideal, order)


def root_count_order_bruteforce(poly, ideal, order):
    """Brute-force L_O(a): the residues of a cap O inside O that are roots."""
    rows, _ = order.contract(ideal)
    return sum(ideal.contains(poly(alpha))
               for alpha in residue_system(poly.field, rows, order.basis_hnf))


# ---------------------------------------------------------------------------
# Admissibility


def mfree_threshold(g):
    """Least integer m with m >= max(2, sqrt(2 g^2 + 1) - (g+1)/2)."""
    if g < 1:
        raise ValueError("degree must be at least 1")
    m = 2
    while (2 * m + g + 1) ** 2 < 4 * (2 * g * g + 1):
        m += 1
    return m


def find_fixed_divisor_mth_power(poly, m):
    """A prime P with P^m a fixed divisor of the polynomial, or None.

    Any fixed divisor divides the ideal generated by finitely many values,
    so a gcd over a deterministic sample of eight points certifies absence.
    """
    field_k = poly.field
    gens = []
    probe = [field_k.zero, field_k.one, field_k.theta, field_k.theta + field_k.one]
    probe += [field_k.rational(i) for i in range(2, 6)]
    for alpha in probe:
        val = poly(alpha)
        if not val.is_zero():
            gens.append(val)
    if not gens:
        raise ValueError("polynomial vanishes on the whole sample")
    g_ideal = IdealLattice.principal(gens[0])
    for v in gens[1:]:
        g_ideal = g_ideal + IdealLattice.principal(v)
        if g_ideal.is_unit_ideal():
            return None
    for pid, e in g_ideal.factor():
        if e >= m and count_roots_prime_power(poly, pid, m) == pid.norm**m:
            return pid
    return None


def with_conductor_support(order, excluded):
    """The excluded prime ideals joined with the conductor support, sorted:
    a sieve over the order must exclude both."""
    merged = set(excluded) | set(order.conductor_support())
    return tuple(sorted(merged, key=lambda q: q.sort_key()))


@dataclass(frozen=True)
class DensityParams:
    """Inputs of the sieve density: field, order, polynomial, exclusions, m."""

    order: object
    poly: SievePolynomial
    excluded: tuple
    m: int

    def __post_init__(self):
        order = self.order
        poly = self.poly
        if not poly.in_order(order):
            raise SieveInputError("polynomial must have coefficients in the order")
        if self.m < mfree_threshold(poly.degree):
            raise SieveInputError(
                f"m={self.m} below the admissible threshold "
                f"{mfree_threshold(poly.degree)} for degree {poly.degree}"
            )
        if not set(order.conductor_support()) <= set(self.excluded):
            raise SieveInputError("excluded primes must contain the conductor support")
        witness = find_fixed_divisor_mth_power(poly, self.m)
        if witness is not None:
            raise FixedDivisorError(witness)

    @property
    def field(self):
        return self.poly.field


@dataclass
class DensityReport:
    d_lower: Fraction
    d_upper: Fraction
    truncation_norm: int
    conductor_sum: Fraction
    excluded_product: Fraction
    exponent_data: tuple

    @property
    def d_mid(self):
        return (self.d_lower + self.d_upper) / 2

    @property
    def width(self):
        return self.d_upper - self.d_lower


def conductor_sum(params):
    """Sum over divisors of the conductor: mu(a) L_O(a) / [O : a cap O].

    Only squarefree divisors contribute; they are products of subsets of
    the conductor support.
    """
    order = params.order
    support = order.conductor_support()
    total = Fraction(0)
    for mask in range(1 << len(support)):
        a = IdealLattice.unit_ideal(params.field)
        bits_on = 0
        for i, pid in enumerate(support):
            if mask >> i & 1:
                a = a * pid.ideal
                bits_on += 1
        l_val = root_count_order(params.poly, a, order)
        _, idx = order.contract(a)
        total += Fraction((-1) ** bits_on * l_val, idx)
    return total


def bad_reduction_primes(poly):
    """Primes where the reduced polynomial may fail to be separable of the
    same degree: support of (disc(f)) and of (leading coefficient)."""
    field_k = poly.field
    out = set()
    lead = poly.leading()
    if abs(lead.norm()) != 1:
        for pid, _ in IdealLattice.principal(lead).factor():
            out.add(pid)
    disc = _poly_discriminant_element(poly)
    if disc.is_zero():
        raise ValueError("polynomial has zero discriminant; not separable")
    if abs(disc.norm()) != 1:
        for pid, _ in IdealLattice.principal(disc).factor():
            out.add(pid)
    return out


def _poly_discriminant_element(poly):
    """Res(f, f') as an element of O_K: a Sylvester determinant over O_K."""
    return resultant(poly.coeffs, poly.derivative(), poly.field)


def euler_density(params, truncation_norm):
    """Rigorous interval for the density constant D of the sieve.

    Exact rational work: the conductor sum, the excluded finite product,
    every local factor with norm below the truncation, and every prime of
    bad reduction regardless of size.  The remaining tail, the Euler
    factors of the prime ideals of norm above T, is enclosed by
    [1 - n g T^{1-m} / (m-1), 1], so T must be at least 1 and leave that
    lower end positive.  The transcendental prefactor
    (2 pi)^s / (sqrt|d_K| [O_K : O]) enters as an interval.
    """
    field_k = params.field
    order = params.order
    poly = params.poly
    m = params.m
    n = field_k.degree
    g = poly.degree

    T = truncation_norm
    if T < 1:
        raise SieveInputError("truncation norm must be at least 1")
    tail_low = 1 - Fraction(n * g, (m - 1) * T ** (m - 1))
    if tail_low <= 0:
        raise SieveInputError("truncation norm too small for a positive tail bound")

    excluded = set(params.excluded)
    cond_sum = conductor_sum(params)

    excl_prod = Fraction(1)
    for pid in sorted(excluded - set(order.conductor_support()), key=lambda q: q.sort_key()):
        excl_prod *= 1 - Fraction(count_roots_prime_power(poly, pid, 1), pid.norm)

    # The prime ideals of norm <= T, then the bad-reduction primes above T.
    small = (pid for p in prime_table(T) for pid in split_prime(field_k, p) if pid.norm <= T)
    large_bad = sorted((pid for pid in bad_reduction_primes(poly) if pid.norm > T),
                       key=lambda q: q.sort_key())
    # A factor with L(P^m) = N(P)^m, a fixed divisor, makes D = [0, 0].
    main_num, main_den = 1, 1
    for pid in chain(small, large_bad):
        if pid in excluded:
            continue
        npm = pid.norm**m
        main_num *= npm - count_roots_prime_power(poly, pid, m)
        main_den *= npm

    main_exact = Fraction(main_num, main_den)
    prefactor = lattice_point_density(field_k) * Fraction(1, order.index)
    d_iv = prefactor * cond_sum * excl_prod * RatInterval(main_exact * tail_low, main_exact)
    return DensityReport(
        d_lower=d_iv.lo,
        d_upper=d_iv.hi,
        truncation_norm=T,
        conductor_sum=cond_sum,
        excluded_product=excl_prod,
        exponent_data=error_exponent(n, g, m),
    )


# ---------------------------------------------------------------------------
# Empirical counting


def empirical_count(params, boxes, shard=None):
    """Exact counts, one per box, of alpha in (order cap region) with
    nonzero f(alpha) outside every excluded prime and an m-free value ideal.

    One pass serves every box.  The runs of the box with the componentwise
    largest bounds, which holds them all, are enumerated once, with the
    per-point verdicts kept as prefix sums along each run.  Each box then
    finds its sub-run of the line with its own filter and the same end
    walk (FloatRegionFilter.run) and reads its count off the prefix sums.

    Each verdict starts from the integer norm N of the value (run_norms):
    N = 0 exactly when the value is 0, and a prime P above p holds it only
    if p | N, P^m only if p^m | N; only then is the value built and tested.
    As P^m contains p^m O_K and base, step and f lie over O_K, that test
    depends on c mod p^m alone (c mod p for an excluded P): each run
    memoises it by (p^m, c mod p^m) or (p, c mod p).

    shard=(index, count) restricts to one deterministic slice of that
    enumeration; summing over all indices recovers the full counts.
    """
    field_k = params.field
    poly = params.poly
    m = params.m
    excluded = {}
    for pid in params.excluded:
        excluded.setdefault(pid.p, []).append(pid.ideal)
    boxes = list(boxes)
    outer = RegionBox(field_k.signature, [max(b) for b in zip(*(bx.bounds_sq for bx in boxes))])
    screens = [
        None if bx.bounds_sq == outer.bounds_sq else FloatRegionFilter(field_k, bx)
        for bx in boxes
    ]
    counts = [0] * len(boxes)
    for base, step, lo, hi in region_runs(field_k, outer, params.order.basis_hnf, shard=shard):
        memo = {}

        def holds(c, p, q):
            # Whether f at c lies in an excluded P above p (q = p) or in
            # some P^m above p (q = p^m); each of them contains q O_K.
            key = (q, c % q)
            if key not in memo:
                val = poly(field_k.element([a + c * b for a, b in zip(base, step)]))
                memo[key] = (any(ide.contains(val) for ide in excluded[p]) if q == p
                             else in_mth_power_above(val, p, m))
            return memo[key]

        total = 0
        prefix = [0]
        for c, norm in enumerate(run_norms(poly, base, step, lo, hi), lo):
            if (norm
                    and not (excluded and any(norm % p == 0 and holds(c, p, p) for p in excluded))
                    and not any(holds(c, p, p**m) for p in mth_power_primes(norm, m))):
                total += 1
            prefix.append(total)
        for k, screen in enumerate(screens):
            a, b = (lo, hi) if screen is None else screen.run(base, step, lo, hi)
            if a <= b:
                counts[k] += prefix[b - lo + 1] - prefix[a - lo]
    return counts


def run_norms(poly, base, step, lo, hi):
    """N(f(base + c * step)) for c = lo .. hi, as an iterable of ints.

    The value's coordinates are polynomials of degree g in c and the norm
    form is homogeneous of degree n, so the norm is an integer polynomial
    of degree D = n g in c.  The first min(hi - lo + 1, D + 1) norms come
    from the norm form at coordinates found by g + 1 exact evaluations and
    forward differences; each further norm costs D integer additions.
    """
    field_k = poly.field
    g = poly.degree
    D = field_k.degree * g
    count = hi - lo + 1
    k = min(count, D + 1)
    vals = [
        poly(field_k.element([a + c * b for a, b in zip(base, step)])).coords
        for c in range(lo, lo + min(k, g + 1))
    ]
    if k > g + 1:
        vals = zip(*(_poly_sequence(column, k) for column in zip(*vals)))
    norms = [field_k.norm_of_coords(v) for v in vals]
    return norms if count <= D else _poly_sequence(norms, count)


def _poly_sequence(values, count):
    """The first count values of the integer polynomial sequence of degree
    len(values) - 1 whose first values are the given ones."""
    table = list(values)
    d = len(table) - 1
    # In place, table[i] becomes the i-th forward difference at the start.
    for i in range(1, d + 1):
        for j in range(d, i - 1, -1):
            table[j] -= table[j - 1]
    # The d-th difference is constant; d running sums rebuild the values.
    seq = repeat(table[d])
    for t in reversed(table[:d]):
        seq = accumulate(seq, initial=t)
    return islice(seq, count)


def empirical_count_oracle(params, box):
    """From-scratch re-implementation used as the sieve's test oracle.

    Walks the order lattice over the naive coordinate ranges with exact
    region decisions (enumerate_region_oracle) and decides m-freeness by
    fully factoring the value ideal.
    """
    poly = params.poly
    count = 0
    for alpha in enumerate_region_oracle(params.field, box, params.order.basis_hnf):
        val = poly(alpha)
        if val.is_zero():
            continue
        if any(pid.ideal.contains(val) for pid in params.excluded):
            continue
        if all(e < params.m for _, e in IdealLattice.principal(val).factor()):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Error exponent calculus


def error_exponent(n, g, m):
    """Admissible (l, c, eps, u) with every inequality verified exactly.

    Two regimes: m > g+1 takes the closed-form parameters; otherwise the
    smallest l with m - l > g^2/(2l+g+1) works, with c at the bottom of its
    admissible window.  The returned u satisfies remainder = O(x^{1-u}).
    """
    if g < 1 or n < 2:
        raise ValueError("need degree g >= 1 and field degree n >= 2")
    if m < mfree_threshold(g):
        raise ValueError(f"m={m} is below the admissible threshold for g={g}")
    if m > g + 1:
        l = m - g
        c = 1 - Fraction(5, g + 10)
        eps = min(Fraction(1, n), Fraction(4, g + 10))
        u = min(
            Fraction(1, n),
            Fraction(4, g + 10),
            Fraction(g * (g + 5), g + 10),
            Fraction(5, g + 10),
        )
    else:
        l = None
        for cand in range(1, m):
            if Fraction(m - cand) > Fraction(g * g, 2 * cand + g + 1):
                l = cand
                break
        if l is None:
            raise ValueError("no admissible l exists; m below threshold")
        c = Fraction(g * (2 * l + 1) + g * g, (m - l) * (2 * l + g + 1) + g * (2 * l + 1))
        eps = min(Fraction(1, n), (1 - c) / 2)
        u = min(eps, c, 1 - c)
    _verify_exponent_chain(n, g, m, l, c, eps)
    if not u > 0:
        raise ArithmeticError("error exponent must be positive")
    return (l, c, eps, u)


def _verify_exponent_chain(n, g, m, l, c, eps):
    checks = [
        1 <= l <= m - 1,
        Fraction(1, m) <= c < 1,
        c < 1 - eps,
        0 < eps <= Fraction(1, n),
    ]
    if m <= g + 1:
        # Corrected form of the displayed inequality, with the division
        # by g(2l+1) that dimensional analysis requires.
        lhs = 1 + Fraction(g, 2 * l + 1) - c * Fraction((m - l) * (g + 2 * l + 1), g * (2 * l + 1))
        checks.append(lhs <= c)
        checks.append(l <= g)
    if not all(checks):
        raise ArithmeticError(f"exponent parameter chain failed: {checks}")


# ---------------------------------------------------------------------------
# The density gap of the order-versus-maximal comparison


@dataclass
class GapReport:
    lhs: Fraction
    rhs: Fraction
    strict_gap: bool
    d_order: DensityReport
    d_maximal: DensityReport


class HypothesisError(ValueError):
    """A hypothesis of the gap criterion fails; remedy in the message."""


def check_hypotheses(field_k):
    """All primes above 2 and 3 must have residue degree at least 2."""
    for p in (2, 3):
        for pid in split_prime(field_k, p):
            if pid.residue_degree < 2:
                return False
    return True


def check_eta(order, eta):
    """The hypotheses on eta that the gap criterion and the tower share:
    eta lies in the order and is not a square in the field."""
    if not order.contains(eta):
        raise HypothesisError("eta must lie in the order")
    if is_square_in_field(eta):
        raise HypothesisError("eta must not be a square in the field")


def density_gap_check(order, eta, excluded, truncation_norm=10**3):
    """Both sides of the finite gap inequality, exactly, plus full
    density intervals for the order and the maximal order."""
    from .order import SubOrder

    field_k = order.field
    if not check_hypotheses(field_k):
        raise HypothesisError(
            "a prime above 2 or 3 has residue degree 1; "
            "base-change to K(sqrt(5)) restores the hypothesis"
        )
    if order.is_maximal():
        raise HypothesisError("the order must be a proper suborder")
    check_eta(order, eta)
    poly = SievePolynomial.x_squared_minus(4 * eta)
    full_excluded = with_conductor_support(order, excluded)
    params_o = DensityParams(order=order, poly=poly, excluded=full_excluded, m=2)
    lhs = Fraction(1, order.index) * conductor_sum(params_o)
    rhs = Fraction(1)
    for pid in order.conductor_support():
        rhs *= 1 - Fraction(count_roots_prime_power(poly, pid, 1), pid.norm)
    maximal = SubOrder.maximal(field_k)
    params_k = DensityParams(order=maximal, poly=poly, excluded=full_excluded, m=2)
    d_order = euler_density(params_o, truncation_norm)
    d_max = euler_density(params_k, truncation_norm)
    return GapReport(
        lhs=lhs,
        rhs=rhs,
        strict_gap=lhs < rhs,
        d_order=d_order,
        d_maximal=d_max,
    )
