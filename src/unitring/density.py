"""The m-free value sieve: root counting, the Euler product density with a
rigorous tail, empirical counts over box regions, the admissible error
exponents, and the density-gap inequality for the order-versus-maximal
comparison.

A SievePolynomial is any polynomial of degree at least 1; DensityParams
decides the theorem's hypotheses, irreducibility first (degree 1, or a
quadratic with a non-square discriminant; no higher degree is certified).

The local root count L(P^e) is decided in one place,
count_roots_prime_power, and every Euler factor, the excluded product,
the fixed-divisor check and the density gap read it there.  Wherever the
reduced polynomial is separable, which fpoly decides, it is fpoly's
residue-field root count: a Legendre symbol of the discriminant for a
quadratic over an odd F_p, otherwise deg gcd(X^q - X, f).  Each root is
simple and lifts uniquely to every prime power (Hensel), so no root is
ever found.  Only an inseparable reduction, at a prime of bad
reduction, finds its roots, lifts the simple ones and counts the lifts of
the multiple ones by brute force; a reduction that vanishes counts N(P)^e
when every coefficient lies in P^e.  Every brute-force walk, the lifts,
the oracle root_count_bruteforce and root_count_order_bruteforce, the
conductor sum's L_O at each order prime, runs over ideal.residue_system,
which alone holds the residue cap.  The infinite Euler product is
truncated with an explicit interval tail, with every prime of bad
reduction handled exactly no matter its size, so the returned interval
is rigorous.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, islice, repeat
from math import lcm, prod

from . import fpoly
from .field import is_square_in_field
from .ideal import (
    IdealLattice,
    NonMonogenicError,
    in_mth_power_above,
    mth_power_by_norm,
    norm_rule,
    prime_ideals,
    prime_power,
    residue_system,
    split_prime,
)
from .geometry import enumerate_region_oracle, lattice_point_density, region_runs
from .intfactor import SMOOTH_BOUND, mth_power_primes_chunk, prime_table, tree_product
from .order import SubOrder, order_primes_over_conductor
from .poly import deriv, evaluate, trim
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
    """Polynomial of degree at least 1 over O_K, AlgebraicInt coefficients, constant first."""

    __slots__ = ("field", "coeffs", "degree", "theta_numerators")

    def __init__(self, coeffs):
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

    @classmethod
    def x_squared_minus(cls, value):
        """X^2 - value, the workhorse shape."""
        f = value.field
        return cls([-value, f.zero, f.one])

    def __call__(self, alpha):
        return evaluate(self.coeffs, alpha, self.field)

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
    uniquely to every P^e, so L(P^e) = L(P), a residue-field count.
    Otherwise the roots are found and the multiple ones lifted by brute force.
    """
    fbar, fq = _reduce_to_residue_field(poly, pid)
    if fbar == (fq.zero,):
        # Every value lies in P^e when every coefficient does (always at
        # e = 1, as f-bar = 0); otherwise by brute force.
        target = prime_power(pid, e)
        if all(target.contains(c) for c in poly.coeffs):
            return fq.q**e
        return root_count_bruteforce(poly, target)
    if e == 1 or fpoly.is_separable(fbar, fq):
        return fpoly.count_roots_in_fq(fbar, fq)
    dbar = deriv(fbar, fq)
    count = 0
    for root in fpoly.roots_in_fq(fbar, fq):
        if evaluate(dbar, root, fq) != fq.zero:
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


def root_count_order_bruteforce(poly, ideal, order):
    """L_O(a): the residues of a cap O inside O that are roots, by one walk
    over O/(a cap O)."""
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
        if poly.degree == 2:
            c, b, a = poly.coeffs
            if is_square_in_field(b * b - 4 * (a * c)):
                raise SieveInputError("quadratic is reducible: discriminant is a square")
        elif poly.degree > 2:
            raise SieveInputError("no certificate of irreducibility for degree above 2")
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

    Only squarefree divisors contribute.  A product a of O_K primes that
    all lie over one order prime p has a cap O = p, and for alpha in O,
    f(alpha) lies in a exactly when it lies in p, so the divisors over p
    sum to 1 - L_O(p) / [O : p].  By CRT across distinct order primes the
    sum is the order's local product, prod (1 - L_O(p) / [O : p]) over the
    order primes p containing the conductor.
    """
    poly, order = params.poly, params.order
    return prod((1 - Fraction(root_count_order_bruteforce(poly, fac[0][0].ideal, order), idx)
                 for _, idx, fac in order_primes_over_conductor(order)), start=Fraction(1))


def local_product(poly, pids):
    """prod (1 - L(P) / N(P)) over the prime ideals pids."""
    out = Fraction(1)
    for pid in pids:
        out *= 1 - Fraction(count_roots_prime_power(poly, pid, 1), pid.norm)
    return out


def bad_reduction_primes(poly):
    """Primes where the reduced polynomial may fail to be separable of the
    same degree: the support of Res(f, f') = +-lead(f) disc(f), which holds
    that of the leading coefficient."""
    res = _poly_discriminant_element(poly)
    if res.is_zero():
        raise ValueError("polynomial has zero discriminant; not separable")
    return {pid for pid, _ in IdealLattice.principal(res).factor()}


def _poly_discriminant_element(poly):
    """Res(f, f') as an element of O_K: a Sylvester determinant over O_K."""
    return resultant(poly.coeffs, deriv(poly.coeffs, poly.field), poly.field)


def euler_density(params, truncation_norm):
    """Rigorous interval for the density constant D of the sieve.

    Exact rational work: the conductor sum, the excluded finite product,
    every local factor with norm below the truncation, and every prime of
    bad reduction regardless of size.  The remaining tail, the Euler
    factors of the prime ideals of norm above T, is enclosed by
    [1 - n g T^{1-m} / (m-1), 1], so T must be at least 1 and leave that
    lower end positive.  The transcendental prefactor
    (2 pi)^s / (sqrt|d_K| [O_K : O]) enters as an interval, whose ends
    bound D.
    """
    field_k, poly, m = params.field, params.poly, params.m
    n, g = field_k.degree, poly.degree

    T = truncation_norm
    if T < 1:
        raise SieveInputError("truncation norm must be at least 1")
    tail_low = 1 - Fraction(n * g, (m - 1) * T ** (m - 1))
    if tail_low <= 0:
        raise SieveInputError("truncation norm too small for a positive tail bound")

    excluded = set(params.excluded)
    cond_sum = conductor_sum(params)
    excl_prod = local_product(poly, sorted(
        excluded - set(params.order.conductor_support()), key=lambda q: q.sort_key()))

    # The prime ideals of norm <= T, then the bad-reduction primes above T.
    small = prime_ideals(field_k, T)
    large_bad = sorted((pid for pid in bad_reduction_primes(poly) if pid.norm > T),
                       key=lambda q: q.sort_key())
    # A factor with L(P^m) = N(P)^m, a fixed divisor, makes D = [0, 0].
    nums, dens = [], []
    for pid in chain(small, large_bad):
        if pid in excluded:
            continue
        npm = pid.norm**m
        nums.append(npm - count_roots_prime_power(poly, pid, m))
        dens.append(npm)

    # Every factor is at least 0, so D's ends are the prefactor's ends times
    # the exact product, with the tail's lower end at the lower one.
    exact = cond_sum * excl_prod * Fraction(tree_product(nums), tree_product(dens))
    prefactor = lattice_point_density(field_k) * Fraction(1, params.order.index)
    return DensityReport(prefactor.lo * exact * tail_low, prefactor.hi * exact,
                         cond_sum, excl_prod, error_exponent(n, g, m))


# ---------------------------------------------------------------------------
# Empirical counting


# Norms buffered, across runs, for one call of the m-free kernel.
CHUNK = 256


def empirical_count(params, boxes, shard=None):
    """Exact counts, one per box, of alpha in (order cap region) with
    nonzero f(alpha) outside every excluded prime and an m-free value ideal.

    One pass serves every box: region_runs walks the runs of the
    componentwise largest box once, and gives each box's span of every run.

    Each run pays for its value polynomial once (run_values): the integer
    coordinates V_k of f(base + c * step) = sum_k c^k V_k, which give its
    integer norms N (run_norms), buffered across runs up to CHUNK values.
    N = 0 exactly when the value is 0, and a prime P above p holds it only
    if p | N, P^m only if p^m | N.  At each small p of N(Res(f, f')) with
    one prime P above it, N(P)^m | N rejects (mth_power_by_norm's rule), so
    those values, and N = 0, leave first.  mth_power_primes_chunk flags the
    rest with some p^m | N; mth_power_by_norm often decides p, and only
    then is the value built from the V_k and tested.  As P^m contains p^m O_K
    and base, step and f lie over O_K, that test depends on c mod p^m alone
    (c mod p for an excluded P): each run memoises it by (p^m, c mod p^m) or
    (p, c mod p).  A box's count over its span is the survivors in it less
    those rejected, two bisections of sorted index lists.

    shard=(index, count) restricts to one deterministic slice of that
    enumeration; summing over all indices recovers the full counts.
    """
    field_k = params.field
    poly = params.poly
    m = params.m
    excluded = {}
    for pid in params.excluded:
        excluded.setdefault(pid.p, []).append(pid.ideal)
    # The pre-sieve's moduli; a p dividing [O_K : Z[theta]] has no
    # splitting, and the kernel's route raises where such a p decides.
    res = _poly_discriminant_element(poly).norm()
    rules = [norm_rule(field_k, p, m) for p in prime_table(SMOOTH_BOUND)
             if res % p == 0 and field_k.power_basis_index % p]
    dense = [least for least, alone in rules if alone]
    counts = [0] * len(boxes)
    runs, starts, norms = [], [], []

    def holds(values, memo, c, p, q):
        # Whether f at c lies in an excluded P above p (q = p) or in some
        # P^m above p (q = p^m); each of them contains q O_K.
        key = (q, c % q)
        if key not in memo:
            val = field_k.element(value_at(values, c))
            memo[key] = (any(ide.contains(val) for ide in excluded[p]) if q == p
                         else in_mth_power_above(val, p, m))
        return memo[key]

    def in_mth_power(c, p, norm, holds):
        decided = mth_power_by_norm(field_k, p, m, norm)
        return holds(c, p, p**m) if decided is None else decided

    def rejected(i, ps):
        # The verdict on a flagged value: zero, in an excluded prime, or
        # in some P^m.
        r = bisect_right(starts, i) - 1
        lo, _, holds = runs[r]
        c, norm = lo + i - starts[r], norms[i]
        return (ps is None or any(norm % p == 0 and holds(c, p, p) for p in excluded)
                or any(in_mth_power(c, p, norm, holds) for p in ps))

    def settle():
        keep = range(len(norms))
        for least in dense:
            keep = [i for i in keep if norms[i] % least]
        flagged = {i: [] for p in excluded for i in keep if norms[i] % p == 0}
        for j in range(0, len(keep), CHUNK):
            part = keep[j:j + CHUNK]
            flagged.update((part[k], ps) for k, ps in
                           mth_power_primes_chunk([norms[i] for i in part], m))
        rejects = [i for i in sorted(flagged) if rejected(i, flagged[i])]

        def below(i):
            return bisect_left(keep, i) - bisect_left(rejects, i)

        for start, (lo, spans, _) in zip(starts, runs):
            for k, (a, b) in enumerate(spans):
                if a <= b:
                    counts[k] += below(start + b - lo + 1) - below(start + a - lo)
        runs.clear()
        starts.clear()
        norms.clear()

    for base, step, lo, hi, spans in region_runs(field_k, boxes, params.order.basis_hnf, shard):
        values = run_values(poly, base, step)
        runs.append((lo, spans, partial(holds, values, {})))
        starts.append(len(norms))
        norms += run_norms(field_k, values, lo, hi)
        if len(norms) >= CHUNK:
            settle()
    settle()
    return counts


def run_values(poly, base, step):
    """The integer coordinates V_0 .. V_g of f(base + c * step) as a
    polynomial in c, sum_k c^k V_k with V_k = step^k f_k(base), where f_k =
    f^(k) / k! are the Taylor coefficients at base: Horner's rule repeated
    g times (synthetic division by X - base).  No product by the ring's one
    is formed, so X^2 - 4 eta costs base^2, 2 base * step and step^2."""
    field_k = poly.field
    one = field_k.one

    def times(a, b):
        return b if a == one else a if b == one else a * b

    base, step = field_k.element(base), field_k.element(step)
    vals = list(poly.coeffs)
    for i in range(len(vals) - 1):
        for j in range(len(vals) - 2, i - 1, -1):
            vals[j] += times(vals[j + 1], base)
    power = one
    for k in range(1, len(vals)):
        power = times(power, step)
        vals[k] = times(vals[k], power)
    return tuple(v.coords for v in vals)


def value_at(values, c):
    """The coordinates of sum_k c^k V_k, by Horner's rule."""
    out = values[-1]
    for v in reversed(values[:-1]):
        out = tuple(a * c + b for a, b in zip(out, v))
    return out


def run_norms(field_k, values, lo, hi):
    """N(f(base + c * step)) for c = lo .. hi, as an iterable of ints, from
    the run's value polynomial values = run_values(poly, base, step).

    The value's coordinates are polynomials of degree g in c and the norm
    form is homogeneous of degree n, so the norm is an integer polynomial
    of degree D = n g in c.  The first min(hi - lo + 1, D + 1) norms come
    from the norm form at the values' coordinates; each further norm costs
    D integer additions (forward differences).
    """
    D = field_k.degree * (len(values) - 1)
    count = hi - lo + 1
    norms = [field_k.norm_of_coords(value_at(values, c))
             for c in range(lo, lo + min(count, D + 1))]
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
    """Raises HypothesisError unless every prime above 2 and 3 has residue
    degree at least 2, the hypothesis of the gap criterion and the tower."""
    if any(pid.residue_degree < 2 for p in (2, 3) for pid in split_prime(field_k, p)):
        raise HypothesisError(
            "a prime above 2 or 3 has residue degree 1; "
            "base-change to K(sqrt(5)) restores the hypothesis"
        )


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
    field_k = order.field
    check_hypotheses(field_k)
    if order.is_maximal():
        raise HypothesisError("the order must be a proper suborder")
    check_eta(order, eta)
    poly = SievePolynomial.x_squared_minus(4 * eta)
    full_excluded = with_conductor_support(order, excluded)
    params_o = DensityParams(order=order, poly=poly, excluded=full_excluded, m=2)
    params_k = DensityParams(order=SubOrder.maximal(field_k), poly=poly,
                             excluded=full_excluded, m=2)
    d_order, d_max = (euler_density(p, truncation_norm) for p in (params_o, params_k))
    lhs = Fraction(1, order.index) * d_order.conductor_sum
    rhs = local_product(poly, order.conductor_support())
    return GapReport(
        lhs=lhs,
        rhs=rhs,
        strict_gap=lhs < rhs,
        d_order=d_order,
        d_maximal=d_max,
    )
