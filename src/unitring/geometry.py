"""Totally positive box regions, exact membership, lattice enumeration,
successive minima, and the lattice point counting bound.

Region bounds are stored as squared rationals so that boxes like the
equal-sided one with total volume x (side x^{1/n}) stay exact.  Membership
decisions refine certified embedding intervals until every comparison is
strict, and resolve boundary ties by exact algebraic tests: a real
embedding ties a rational bound only if the element itself is rational,
and a complex modulus tie is decided through the integer polynomial whose
roots are the pairwise products of the element's conjugates.
"""

from fractions import Fraction
from itertools import product
from math import ceil, floor, isqrt

from .intervals import PI, RatInterval, sqrt_upper
from .intfactor import iroot
from .linalg import (char_poly, det, det_triangular, hnf, lattice_intersection, mat_inv_frac,
                     solve_upper_int, vec_mat)
from .poly import QQ, divmod, evaluate
from .rootiso import MAX_BITS, PrecisionError

# Dyadic precision of the square roots in the density main terms.
SQRT_BITS = 96


class EmptyCosetError(ValueError):
    """The requested coset does not meet the order."""


class RegionBox:
    """The closed region: totally positive, |sigma_i| <= x_i, with x_i >= 1.

    bounds_sq holds the squared bounds (exact rationals); complex
    coordinates must come in equal pairs, mirroring the region's symmetry.
    """

    __slots__ = ("signature", "bounds_sq")

    def __init__(self, signature, bounds_sq):
        r, s = signature
        n = r + 2 * s
        bounds_sq = tuple(Fraction(b) for b in bounds_sq)
        if len(bounds_sq) == r + s:
            bounds_sq = bounds_sq + bounds_sq[r:]
        if len(bounds_sq) != n:
            raise ValueError("need one bound per embedding")
        for i in range(s):
            if bounds_sq[r + s + i] != bounds_sq[r + i]:
                raise ValueError("complex coordinate bounds must match their conjugates")
        if any(b < 1 for b in bounds_sq):
            raise ValueError("bounds must be at least 1")
        self.signature = signature
        self.bounds_sq = bounds_sq

    @classmethod
    def from_bounds(cls, signature, bounds):
        return cls(signature, [Fraction(b) ** 2 for b in bounds])

    @classmethod
    def cube(cls, signature, volume):
        """Equal-sided box with given total volume x: each side x^{1/n}."""
        r, s = signature
        n = r + 2 * s
        volume = Fraction(volume)
        side_sq = _nth_root_exact(volume**2, n)
        if side_sq is None:
            raise ValueError("volume^(2/n) is not rational; give explicit bounds")
        return cls(signature, (side_sq,) * n)

    @property
    def volume_sq(self):
        out = Fraction(1)
        for b in self.bounds_sq:
            out *= b
        return out

    def volume(self):
        """Exact volume parameter x = x_1 ... x_n when rational."""
        v = _sqrt_exact(self.volume_sq)
        if v is None:
            raise ValueError("volume parameter is irrational; use volume_sq")
        return v

    def __repr__(self):
        return f"RegionBox(sq={tuple(str(b) for b in self.bounds_sq)})"


def _nth_root_exact(x, n):
    """Rational n-th root of a positive rational, or None."""
    x = Fraction(x)
    num, den = iroot(x.numerator, n), iroot(x.denominator, n)
    if num**n != x.numerator or den**n != x.denominator:
        return None
    return Fraction(num, den)


def _sqrt_exact(x):
    return _nth_root_exact(x, 2)


def embed_sigma(alpha, bits=64):
    """Standard embedding as midpoints plus one rigorous error radius.

    Returns (vector, radius): n rational midpoints (reals first, then
    re/im pairs) and a radius bounding every coordinate's error.
    """
    std = alpha.field.sigma_std(alpha, bits)
    mids = tuple(iv.mid for iv in std)
    radius = max((iv.width / 2 for iv in std), default=Fraction(0))
    return mids, radius


def successive_minima(lattice, bits=64):
    """The minima as RatInterval enclosures (exact squares underneath)."""
    return tuple(RatInterval(m).sqrt(bits) for m in lattice.minima_sq())


# ---------------------------------------------------------------------------
# Fixed-point prefilter: an integer interval screen before exact work.
# Decisions it returns are certain; every tight case falls through to the
# exact path, so the filter only narrows the search.

# Embedding entries are held as integers scaled by 2^FIXED_BITS and rounded
# outward.  A squared bound b is held as floor(b 2^(2 FIXED_BITS)): an
# integer exceeds b exactly when it exceeds that floor.
FIXED_BITS = 64


def _sq(a):
    """The squares of the integer interval a = (lo, hi)."""
    lo, hi = sorted((a[0] * a[0], a[1] * a[1]))
    return (0 if a[0] <= 0 <= a[1] else lo), hi


def _norm_sq(re, im):
    """re^2 + im^2 over integer intervals."""
    x, y = _sq(re), _sq(im)
    return x[0] + y[0], x[1] + y[1]


def _dot(a, b, c, d):
    """a b + c d over integer intervals."""
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    q = (c[0] * d[0], c[0] * d[1], c[1] * d[0], c[1] * d[1])
    return min(p) + min(q), max(p) + max(q)


def _quotient_range(num, den):
    """The ceiling of the least and the floor of the greatest a / b over a
    in the integer interval num and b in den, which excludes 0."""
    return (min(-(-a // b) for a in num for b in den),
            max(a // b for a in num for b in den))


class FloatRegionFilter:
    """Conservative membership screen for one (field, box) pair, and the
    exact ends of the run in which a line meets the region.  It computes on
    integers: the embedding matrix in fixed point, rounded outward."""

    __slots__ = ("field", "box", "r", "s", "n", "col_lo", "col_hi", "bound", "side_hi")

    def __init__(self, field, box):
        self.field = field
        self.box = box
        emb = field.embedding_matrix(FIXED_BITS)
        self.r, self.s = field.signature
        self.n = field.degree
        one = 1 << FIXED_BITS
        # Column-major fixed-point enclosures of the embedding matrix.
        self.col_lo = [[floor(emb[j][k].lo * one) for j in range(self.n)] for k in range(self.n)]
        self.col_hi = [[ceil(emb[j][k].hi * one) for j in range(self.n)] for k in range(self.n)]
        self.bound = [floor(b * one * one) for b in box.bounds_sq]
        # sqrt(b) 2^FIXED_BITS < sqrt(bound + 1) <= isqrt(bound) + 1.
        self.side_hi = [isqrt(b) + 1 for b in self.bound]

    def _coordinate_interval(self, coords, k):
        lo_acc = hi_acc = 0
        cl, ch = self.col_lo[k], self.col_hi[k]
        for j, c in enumerate(coords):
            if c > 0:
                lo_acc += c * cl[j]
                hi_acc += c * ch[j]
            elif c < 0:
                lo_acc += c * ch[j]
                hi_acc += c * cl[j]
        return lo_acc, hi_acc

    def line_range(self, base, step, lo, hi):
        """Narrow the integer range lo..hi of c to the c for which
        base + c * step can lie in the region; lo > hi when none can.

        Along the line each real embedding is linear in c and must lie in
        (0, x_i]; each complex one, t + c d, must lie in the disk of radius
        x_j, which holds when |d|^2 c + Re(t conj d) is at most
        sqrt(x_j^2 |d|^2 - Im(t conj d)^2) in absolute value.
        """
        r, s = self.r, self.s
        spans = []
        for i in range(r):
            d = self._coordinate_interval(step, i)
            if d[0] <= 0 <= d[1]:
                continue
            t = self._coordinate_interval(base, i)
            spans.append(_quotient_range((-t[1], self.side_hi[i] - t[0]), d))
        for j in range(s):
            k = r + 2 * j
            d_re = self._coordinate_interval(step, k)
            d_im = self._coordinate_interval(step, k + 1)
            d_sq = _norm_sq(d_re, d_im)
            if d_sq[0] <= 0:
                continue
            t_re = self._coordinate_interval(base, k)
            t_im = self._coordinate_interval(base, k + 1)
            # Re(t conj d) and Im(t conj d).
            p = _dot(t_re, d_re, t_im, d_im)
            q = _dot(t_im, d_re, t_re, (-d_im[1], -d_im[0]))
            rho_sq = (self.bound[r + j] + 1) * d_sq[1] - _sq(q)[0]
            if rho_sq < 0:
                return lo, lo - 1
            rho = isqrt(rho_sq - 1) + 1 if rho_sq else 0
            spans.append(_quotient_range((-p[1] - rho, rho - p[0]), d_sq))
        for c_lo, c_hi in spans:
            lo = max(lo, c_lo)
            hi = min(hi, c_hi)
        return lo, hi

    def run(self, base, step, lo, hi):
        """The c in lo..hi with base + c * step in the region, as a range
        (lo, hi); lo > hi when there is none.

        The region is convex (each real place an interval, each complex
        place a disk), so those c are consecutive.  After line_range, walk
        inward from each end until it is a member, decided by the screen
        and exactly where the screen is unsure; every c in between is a
        member with no test.
        """
        lo, hi = self.line_range(base, step, lo, hi)
        while lo <= hi and not self._member(base, step, lo):
            lo += 1
        while hi > lo and not self._member(base, step, hi):
            hi -= 1
        return lo, hi

    def _member(self, base, step, c):
        coords = tuple(a + c * b for a, b in zip(base, step))
        quick = self.test(coords)
        if quick is None:
            return in_region(self.field.element(coords), self.box)
        return quick

    def test(self, coords):
        """True / False when certain, None when the exact path must decide."""
        certain = True
        r, s = self.r, self.s
        for i in range(r):
            lo, hi = self._coordinate_interval(coords, i)
            if hi < 0:
                return False
            if lo <= 0:
                certain = False
            sq_lo, sq_hi = _sq((lo, hi))
            if sq_lo > self.bound[i]:
                return False
            if sq_hi > self.bound[i]:
                certain = False
        for j in range(s):
            re = self._coordinate_interval(coords, r + 2 * j)
            im = self._coordinate_interval(coords, r + 2 * j + 1)
            mod_lo, mod_hi = _norm_sq(re, im)
            if mod_lo > self.bound[r + j]:
                return False
            if mod_hi > self.bound[r + j]:
                certain = False
        return True if certain else None


# ---------------------------------------------------------------------------
# Exact membership


def in_region(alpha, box):
    """Exact decision: alpha totally positive and |sigma_i(alpha)| <= x_i."""
    field = alpha.field
    r, s = field.signature
    if box.signature != (r, s):
        raise ValueError("box signature mismatch")
    if alpha.is_zero():
        # Totally positive requires strict positivity at real embeddings.
        return r == 0
    bits = 64
    while bits <= MAX_BITS:
        reals, pairs = field.sigma_pairs(alpha, bits)
        verdict = _try_decide(field, alpha, box, reals, pairs, r, s)
        if verdict is not None:
            return verdict
        bits *= 2
    raise PrecisionError("region membership undecided at maximum precision")


def _try_decide(field, alpha, box, reals, pairs, r, s):
    for i, iv in enumerate(reals):
        # Positivity: tie impossible since alpha != 0.
        if iv.hi < 0:
            return False
        if not iv.lo > 0:
            return None
        b = box.bounds_sq[i]
        sq = iv * iv
        if sq.lo > b:
            if _real_tie(field, alpha, b):
                continue
            return False
        if not sq.hi <= b:
            if _real_tie(field, alpha, b):
                continue
            return None
    for j, (re, im) in enumerate(pairs):
        b = box.bounds_sq[r + j]
        mod2 = re * re + im * im
        if mod2.hi <= b:
            continue
        if mod2.lo > b:
            if _complex_tie(field, alpha, b, j, mod2):
                continue
            return False
        if _complex_tie(field, alpha, b, j, mod2):
            continue
        return None
    return True


def _real_tie(field, alpha, bound_sq):
    """sigma_i(alpha)^2 == bound_sq is equivalent to alpha^2 == bound_sq."""
    sq = alpha * alpha
    target = tuple(Fraction(bound_sq) * c for c in field.one_coords)
    return all(Fraction(a) == t for a, t in zip(sq.coords, target))


def _complex_tie(field, alpha, q, j, mod2_interval):
    """Exact test |sigma_{r+j}(alpha)|^2 == q.

    The modulus squared is z * conj(z), a product of two conjugates of
    alpha, hence a root of P(t) = prod_{i,k} (t - z_i z_k) which has
    rational coefficients.  P(q) != 0 rules the tie out at once; otherwise
    deflate (t - q) out of P and separate the target from the remaining
    roots by a rigorous gap bound.
    """
    if q not in mod2_interval:
        return False
    s_poly = _conjugate_products_poly(field.mult_matrix(alpha))
    if evaluate(s_poly, Fraction(q), QQ) != 0:
        return False
    # P(q) == 0: the tie is plausible; separate tau from other roots of P.
    k = 0
    while True:
        quo, rem = divmod(s_poly, (Fraction(-q), Fraction(1)), QQ)
        if any(c != 0 for c in rem):
            break
        s_poly = quo
        k += 1
    sq_val = evaluate(s_poly, Fraction(q), QQ)
    if sq_val == 0:
        raise ArithmeticError("deflation failed")
    # Distance from q to the nearest root of s_poly.
    lead = abs(s_poly[-1])
    deg = len(s_poly) - 1
    cauchy = 1 + max(abs(Fraction(c)) for c in s_poly[:-1]) / lead if deg else Fraction(1)
    reach = abs(Fraction(q)) + cauchy
    gap = abs(sq_val) / (lead * max(reach, Fraction(1)) ** max(deg - 1, 0))
    bits = 128
    field_bits = 128
    while True:
        reals, pairs = field.sigma_pairs(alpha, field_bits)
        re, im = pairs[j]
        mod2 = re * re + im * im
        if q not in mod2:
            return False
        if mod2.width < gap:
            # tau lies within gap of q yet is a root of P = (t-q)^k * S:
            # since no root of S is that close, tau == q.
            return True
        field_bits *= 2
        if field_bits > MAX_BITS:
            raise PrecisionError("complex tie undecided at maximum precision")


def _conjugate_products_poly(m):
    """P(t) = prod_{i,k} (t - z_i z_k) for the conjugates z_i of the element
    with multiplication matrix m: the char poly of the Kronecker square m (x) m.
    """
    return char_poly(tuple(tuple(a * b for a in ra for b in rb) for ra in m for rb in m))


# ---------------------------------------------------------------------------
# Enumeration


def coordinate_ranges(field, box, lattice_rows, shift_coords=None):
    """Integer ranges for lattice coefficients c with shift + c*H possibly
    inside the embedded box; rigorous outer bounds, never under-covering.

    An element with |std_k| <= b_k has |coords_l| <= sum_k b_k |M[k][l]|
    for the inverse embedding M."""
    r, s = field.signature
    n = field.degree
    std_bounds = [sqrt_upper(b, 32) for b in box.bounds_sq[:r + s]]
    std_bounds = std_bounds[:r] + [b for b in std_bounds[r:] for _ in range(2)]
    inv = field.inverse_embedding(256)
    coord_bound = [
        int(sum(b * max(-m.lo, m.hi) for b, m in zip(std_bounds, col))) + 1
        for col in zip(*inv)
    ]
    h_inv = mat_inv_frac(lattice_rows)
    shift = shift_coords or (0,) * n
    ranges = []
    for k in range(n):
        reach = Fraction(0)
        for l in range(n):
            reach += (coord_bound[l] + abs(Fraction(shift[l]))) * abs(h_inv[l][k])
        bound = int(reach) + 1
        ranges.append((-bound, bound))
    return ranges


def region_runs(field, box, lattice_rows, shift=None, shard=None):
    """Stream the runs (base, step, lo, hi) of (shift + lattice) inside the
    region, in lexicographic coordinate order: base + c * step lies in the
    region exactly for lo <= c <= hi.  Exhaustive and exact.

    Each run is one line along the last lattice row; since the region is
    convex, the line meets it in consecutive c, and only the two run ends
    are decided (FloatRegionFilter.run).  shard=(index, count) keeps only
    the lines whose first lattice coefficient falls in the given residue
    class: disjoint slices whose union over all indices is every run.
    """
    n = field.degree
    shift_coords = shift.coords if shift is not None else (0,) * n
    ranges = coordinate_ranges(field, box, lattice_rows, shift_coords)
    screen = FloatRegionFilter(field, box)
    step = lattice_rows[n - 1]
    outer = [range(lo, hi + 1) for lo, hi in ranges[:-1]]
    if shard is not None:
        outer[0] = outer[0][shard[0]::shard[1]]
    for coeffs in product(*outer):
        base = list(shift_coords)
        for c, row in zip(coeffs, lattice_rows):
            if c:
                for k in range(n):
                    base[k] += c * row[k]
        base = tuple(base)
        lo, hi = screen.run(base, step, *ranges[-1])
        if lo <= hi:
            yield base, step, lo, hi


def enumerate_region(field, box, lattice_rows, shift=None, shard=None):
    """Stream the points of (shift + lattice) inside the region, in
    lexicographic coordinate order: the points of region_runs, with the
    same shard slices."""
    for base, step, lo, hi in region_runs(field, box, lattice_rows, shift, shard):
        for c in range(lo, hi + 1):
            yield field.element([a + c * b for a, b in zip(base, step)])


def enumerate_region_oracle(field, box, lattice_rows, shift=None):
    """Test oracle for enumerate_region: the same points in the same order,
    from every lattice point over the naive coordinate ranges decided by
    in_region alone, with no float screen and no nested bound."""
    shift_coords = shift.coords if shift is not None else (0,) * field.degree
    ranges = coordinate_ranges(field, box, lattice_rows, shift_coords)
    for coeffs in product(*(range(lo, hi + 1) for lo, hi in ranges)):
        el = field.element([
            s + sum(c * row[k] for c, row in zip(coeffs, lattice_rows))
            for k, s in enumerate(shift_coords)
        ])
        if in_region(el, box):
            yield el


# ---------------------------------------------------------------------------
# Embedded lattices and successive minima


class EmbeddedLattice:
    """A full-rank lattice in R^n with an exact rational Gram matrix.

    Exactness is available for rational basis matrices, for the standard
    embedding of lattices in totally real fields (trace form) and in
    quadratic fields; those cover the package's uses.
    """

    __slots__ = ("gram", "n", "det_sq", "_minima_sq")

    def __init__(self, gram):
        self.gram = tuple(tuple(Fraction(x) for x in row) for row in gram)
        self.n = len(self.gram)
        self.det_sq = det(self.gram)
        if self.det_sq <= 0:
            raise ValueError("gram matrix must be positive definite")
        self._minima_sq = None

    @classmethod
    def from_basis_matrix(cls, rows):
        rows = [[Fraction(x) for x in row] for row in rows]
        n = len(rows)
        gram = [[sum(rows[i][k] * rows[j][k] for k in range(len(rows[0]))) for j in range(n)]
                for i in range(n)]
        return cls(gram)

    @classmethod
    def from_sigma(cls, field, lattice_rows):
        """Standard embedding of a coordinate lattice, exact Gram."""
        r, s = field.signature
        n = field.degree
        els = [field.element(row) for row in lattice_rows]
        gram = [[None] * n for _ in range(n)]
        if s == 0:
            for i in range(n):
                for j in range(i, n):
                    g = (els[i] * els[j]).trace()
                    gram[i][j] = gram[j][i] = Fraction(g)
        elif (r, s) == (0, 1):
            # <emb a, emb b> = Re(sigma(a) conj sigma(b)) = Tr(a * conj(b)) / 2.
            for i in range(n):
                for j in range(i, n):
                    conj_j = field.rational(els[j].trace()) - els[j]
                    g = Fraction((els[i] * conj_j).trace(), 2)
                    gram[i][j] = gram[j][i] = g
        else:
            raise NotImplementedError(
                "exact Gram for mixed-signature fields of degree > 2 is not supported"
            )
        return cls(gram)

    def minima_sq(self):
        """Exact squared successive minima (Euclidean ball), n <= 4."""
        if self._minima_sq is not None:
            return self._minima_sq
        if self.n > 4:
            raise ValueError("exact minima enumeration capped at dimension 4")
        bound = max(self.gram[i][i] for i in range(self.n))
        vecs = _enumerate_quadratic(self.gram, bound)
        vecs.sort(key=lambda cv: (cv[0], cv[1]))
        minima = []
        chosen = []
        for val, c in vecs:
            if len(hnf(chosen + [c])) > len(chosen):
                chosen.append(c)
                minima.append(val)
                if len(minima) == self.n:
                    break
        if len(minima) < self.n:
            raise ArithmeticError("minima enumeration incomplete")
        self._minima_sq = tuple(minima)
        return self._minima_sq


def _enumerate_quadratic(gram, bound):
    """All nonzero integer vectors c with c^T G c <= bound, both c and -c,
    as (value, c) pairs.  Fincke-Pohst with exact rational Cholesky."""
    n = len(gram)
    # LDL^T decomposition.
    l = [[Fraction(0)] * n for _ in range(n)]
    d = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            acc = Fraction(gram[i][j])
            for k in range(j):
                acc -= l[i][k] * l[j][k] * d[k]
            l[i][j] = acc / d[j]
        acc = Fraction(gram[i][i])
        for k in range(i):
            acc -= l[i][k] ** 2 * d[k]
        if acc <= 0:
            raise ValueError("gram matrix not positive definite")
        d[i] = acc
        l[i][i] = Fraction(1)
    # Q(c) = sum_i d_i (c_i + sum_{j>i} l_{j i} c_j)^2.
    out = []
    c = [0] * n

    def rec(i, remaining):
        if i < 0:
            if any(c):
                out.append((_qval(gram, c), tuple(c)))
            return
        center = Fraction(0)
        for j in range(i + 1, n):
            center += l[j][i] * c[j]
        # d_i (c_i + center)^2 <= remaining
        limit = remaining / d[i]
        lo, hi = _frac_range(-center, limit)
        for ci in range(lo, hi + 1):
            c[i] = ci
            used = d[i] * (ci + center) ** 2
            if used <= remaining:
                rec(i - 1, remaining - used)
        c[i] = 0

    rec(n - 1, Fraction(bound))
    return out


def _qval(gram, c):
    n = len(gram)
    return sum(Fraction(gram[i][j]) * c[i] * c[j] for i in range(n) for j in range(n))


def _frac_range(center, limit_sq):
    """Integers ci with (ci - center)^2 <= limit_sq."""
    if limit_sq < 0:
        return 0, -1
    w = sqrt_upper(limit_sq, 32)
    return ceil(center - w), floor(center + w)


def widmer_constant(n):
    """c0(n) = n^{3 n^2 / 2} as an exact-or-upper Fraction."""
    e = 3 * n * n
    if e % 2 == 0:
        return Fraction(n) ** (e // 2)
    return sqrt_upper(Fraction(n) ** e, 32)


def widmer_bound(lattice, n_maps, lip):
    """Upper bound c0(n) * M * max_i Lip^i / (lambda_1 ... lambda_i).

    lip may be a Fraction or RatInterval (its upper end is used); the
    returned Fraction dominates the true bound.
    """
    n = lattice.n
    minima = lattice.minima_sq()
    lip_hi = lip.hi if isinstance(lip, RatInterval) else Fraction(lip)
    best_sq = Fraction(1)
    prod = Fraction(1)
    for i in range(1, n):
        prod *= minima[i - 1]
        cand = lip_hi ** (2 * i) / prod
        if cand > best_sq:
            best_sq = cand
    c0 = widmer_constant(n)
    val_sq = (c0 * n_maps) ** 2 * best_sq
    exact = _sqrt_exact(val_sq)
    return exact if exact is not None else sqrt_upper(val_sq, 64)


# ---------------------------------------------------------------------------
# Coset counting (the main-term/error-term comparison)


def lattice_point_density(field):
    """(2 pi)^s / sqrt|d_K| as an interval: the points of O_K per unit of
    region volume."""
    s = field.signature[1]
    return (2 * PI) ** s / RatInterval(Fraction(abs(field.disc))).sqrt(SQRT_BITS)


def count_coset(field, beta, modulus_ideal, box, order=None):
    """Count (beta + modulus) cap order cap region, with the density main
    term and a rigorous bound data bundle.

    Returns (count, main RatInterval, error RatInterval).  Raises
    EmptyCosetError when the coset misses the order entirely.
    """
    if order is None:
        from .order import SubOrder

        order = SubOrder.maximal(field)
    # A representative alpha0 = beta - m, m in the modulus, alpha0 in the
    # order: beta = coeff h, and h = u (order rows, then modulus rows).
    n = field.degree
    h, u = hnf(list(order.basis_hnf) + list(modulus_ideal.hnf), transform=True)
    coeff = solve_upper_int(h, beta.coords)
    if coeff is None:
        raise EmptyCosetError("coset does not meet the order")
    alpha0 = field.element(vec_mat(vec_mat(coeff, u[:n])[:n], order.basis_hnf))
    m_rows = lattice_intersection(modulus_ideal.hnf, order.basis_hnf)
    count = sum(hi - lo + 1 for _, _, lo, hi in region_runs(field, box, m_rows, shift=alpha0))
    index = abs(det_triangular(m_rows))
    x = RatInterval(box.volume_sq).sqrt(SQRT_BITS)
    main = lattice_point_density(field) * x * Fraction(1, index)
    diff = RatInterval(Fraction(count)) - main
    err = RatInterval(min(abs(diff.lo), abs(diff.hi)) if diff.lo * diff.hi > 0 else Fraction(0),
                      max(abs(diff.lo), abs(diff.hi)))
    return count, main, err

