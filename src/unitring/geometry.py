"""Totally positive box regions, exact membership, lattice enumeration,
and the lattice point counting bound with its successive minima.

Region bounds are stored as squared rationals so that boxes like the
equal-sided one with total volume x (side x^{1/n}) stay exact.  Membership is
one comparison per place on the integer enclosures of field.enclose, the
one embedding sum, at scale 2^bits: the enumeration's screen is it at 64
bits, and in_region climbs the precision ladder with it until each place
lies inside or outside its bound, or ties it exactly, which is decided
through the integer polynomial whose roots are the pairwise products of
the element's conjugates.  The coordinate box of the walk reads the
inverse embedding at 64 bits, whose columns are NumberField.embed of the
dual basis over the fixed-point embedding the screen uses; within it the
walk visits only the lines that an ellipsoid holding the region allows.
One Fincke-Pohst walk on integer levels (_FinckePohst) bounds each
coordinate from the ones before it, for those lines (_LineBounds) and for
the successive minima of an EmbeddedLattice.
"""

from fractions import Fraction
from itertools import product
from math import inf, isqrt, lcm, prod

from .field import enclose
from .intervals import PI, RatInterval, sqrt_lower, sqrt_upper
from .ideal import check_cap
from .intfactor import exact_root
from .linalg import adjugate, char_poly, hnf
from .poly import QQ, divmod
from .rootiso import precisions

# Dyadic precision of the square roots in the density main terms.
SQRT_BITS = 96


class RegionBox:
    """The closed region: totally positive, |sigma_i| <= x_i, with x_i >= 1.

    bounds_sq holds one squared bound (an exact rational) per place: the
    r real places, then the s complex ones, whose conjugate embeddings
    share the bound.
    """

    __slots__ = ("signature", "bounds_sq")

    def __init__(self, signature, bounds_sq):
        r, s = signature
        bounds_sq = tuple(Fraction(b) for b in bounds_sq)
        if len(bounds_sq) != r + s:
            raise ValueError("need one bound per place")
        if any(b < 1 for b in bounds_sq):
            raise ValueError("bounds must be at least 1")
        self.signature = signature
        self.bounds_sq = bounds_sq

    @classmethod
    def cube(cls, signature, volume):
        """Equal-sided box with given total volume x: each side x^{1/n}."""
        r, s = signature
        n = r + 2 * s
        volume = Fraction(volume)
        side_sq = exact_root(volume**2, n)
        if side_sq is None:
            raise ValueError("volume^(2/n) is not rational; give explicit bounds")
        return cls(signature, (side_sq,) * (r + s))

    def __repr__(self):
        return f"RegionBox(sq={tuple(str(b) for b in self.bounds_sq)})"


# ---------------------------------------------------------------------------
# Membership on fixed-point integers: at precision bits, field.enclose over
# the embedding matrix scaled by 2^bits and rounded outward
# (NumberField.fixed_embedding).  The screen is the comparison at
# FIXED_BITS, in_region's first rung.
FIXED_BITS = 64


def _scaled_bounds(box, bits):
    """floor(b 4^bits) for each squared bound b of the box: an integer
    exceeds b 4^bits exactly when it exceeds that floor."""
    return [(b.numerator << 2 * bits) // b.denominator for b in box.bounds_sq]


def _sq(a):
    """The squares of the integer interval a = (lo, hi)."""
    lo, hi = a
    if lo <= 0 <= hi:
        return 0, max(lo * lo, hi * hi)
    return (lo * lo, hi * hi) if lo > 0 else (hi * hi, lo * lo)


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


def _compare(coords, col_lo, col_hi, bound, r, s):
    """The one membership comparison on fixed-point columns col_lo, col_hi
    and scaled bounds: a real place must be positive, and each squared
    modulus enclosure is compared with its bound.  False when a place is
    certainly out, True when every one is certainly in, else the straddling
    places as (place, width of the squared modulus enclosure), the width
    None at a real place whose sign is open."""
    straddles = []
    for i in range(r + s):
        if i < r:
            lo, hi = enclose(coords, col_lo[i], col_hi[i])
            if hi < 0:
                return False
            if lo <= 0:
                straddles.append((i, None))
                continue
            mod_lo, mod_hi = lo * lo, hi * hi
        else:
            k = 2 * i - r
            mod_lo, mod_hi = _norm_sq(enclose(coords, col_lo[k], col_hi[k]),
                                      enclose(coords, col_lo[k + 1], col_hi[k + 1]))
        if mod_lo > bound[i]:
            return False
        if mod_hi > bound[i]:
            straddles.append((i, mod_hi - mod_lo))
    return straddles or True


class FloatRegionFilter:
    """Conservative membership screen for one (field, box) pair, and the
    exact ends of the run in which a line meets the region.  It computes on
    integers: _compare on the field's fixed-point embedding at FIXED_BITS."""

    __slots__ = ("field", "box", "r", "s", "col_lo", "col_hi", "bound", "side_hi",
                 "step", "step_places")

    def __init__(self, field, box):
        self.field = field
        self.box = box
        self.r, self.s = field.signature
        self.col_lo, self.col_hi = field.fixed_embedding(FIXED_BITS)
        self.bound = _scaled_bounds(box, FIXED_BITS)
        # sqrt(b) 2^FIXED_BITS < sqrt(bound + 1) <= isqrt(bound) + 1.
        self.side_hi = [isqrt(b) + 1 for b in self.bound]
        self.step = self.step_places = None

    def _places(self, step):
        """The enclosures of the step at the places where it cannot vanish:
        (i, d) at each real place i, and (j, d_re, d_im, -d_im, |d|^2) at
        each complex place j.  Every line of a walk shares one step, so
        they are kept for the last step seen, keyed on its value."""
        step = tuple(step)
        if step != self.step:
            r, cl, ch = self.r, self.col_lo, self.col_hi
            reals = []
            for i in range(r):
                d = enclose(step, cl[i], ch[i])
                if not d[0] <= 0 <= d[1]:
                    reals.append((i, d))
            disks = []
            for j in range(self.s):
                k = r + 2 * j
                d_re = enclose(step, cl[k], ch[k])
                d_im = enclose(step, cl[k + 1], ch[k + 1])
                d_sq = _norm_sq(d_re, d_im)
                if d_sq[0] > 0:
                    disks.append((j, d_re, d_im, (-d_im[1], -d_im[0]), d_sq))
            self.step, self.step_places = step, (reals, disks)
        return self.step_places

    def line_range(self, base, step, lo, hi):
        """Narrow the integer range lo..hi of c to the c for which
        base + c * step can lie in the region; lo > hi when none can.

        Along the line each real embedding is linear in c and must lie in
        (0, x_i]; each complex one, t + c d, must lie in the disk of radius
        x_j, which holds when |d|^2 c + Re(t conj d) is at most
        sqrt(x_j^2 |d|^2 - Im(t conj d)^2) in absolute value.  A place
        where d may vanish bounds nothing.  Each line encloses only its
        base t; the step's enclosures d come from _places.
        """
        r = self.r
        cl, ch = self.col_lo, self.col_hi
        reals, disks = self._places(step)
        spans = []
        for i, d in reals:
            t = enclose(base, cl[i], ch[i])
            spans.append(_quotient_range((-t[1], self.side_hi[i] - t[0]), d))
        for j, d_re, d_im, neg_d_im, d_sq in disks:
            k = r + 2 * j
            t_re = enclose(base, cl[k], ch[k])
            t_im = enclose(base, cl[k + 1], ch[k + 1])
            # Re(t conj d) and Im(t conj d).
            p = _dot(t_re, d_re, t_im, d_im)
            q = _dot(t_im, d_re, t_re, neg_d_im)
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
        return in_region(self.field.element(coords), self.box) if quick is None else quick

    def test(self, coords):
        """True / False when certain, None when the exact path must decide."""
        verdict = _compare(coords, self.col_lo, self.col_hi, self.bound, self.r, self.s)
        return verdict if verdict is True or verdict is False else None


# ---------------------------------------------------------------------------
# Exact membership


def in_region(alpha, box):
    """Exact decision: alpha totally positive and |sigma_i(alpha)| <= x_i.

    _compare on each rung of the precision ladder from FIXED_BITS, until
    every place is decided.  A place that straddles its bound b passes
    only on an exact tie: its squared modulus is a root of the
    pair-product polynomial (built at most once per call), z z at a real
    conjugate z and z conj(z) at a complex one, so an enclosure narrower
    than the _tie_gap of b holds b itself.  A real place of open sign, or
    any other straddle, is refined.
    """
    field = alpha.field
    r, s = field.signature
    if box.signature != (r, s):
        raise ValueError("box signature mismatch")
    if alpha.is_zero():
        # Totally positive requires strict positivity at real embeddings.
        return r == 0
    # b -> its _tie_gap in the pair-product polynomial.
    gaps = {}
    products = None
    for bits in precisions(FIXED_BITS, "region membership"):
        verdict = _compare(alpha.coords, *field.fixed_embedding(bits),
                           _scaled_bounds(box, bits), r, s)
        if verdict is True or verdict is False:
            return verdict
        for i, width in verdict:
            b = box.bounds_sq[i]
            if width is not None and b not in gaps:
                if products is None:
                    products = _conjugate_products_poly(field.mult_matrix(alpha))
                gaps[b] = _tie_gap(products, b)
            if width is None or width >= gaps[b] * 4**bits:
                break
        else:
            return True


def _tie_gap(poly, b):
    """0 unless b is a root of poly; else a distance below which no other
    root comes to b.

    With poly = (t - b)^k S and S(b) != 0, every root rho of S has
    |S(b)| = lead |b - rho| prod |b - rho'| <= lead |b - rho| reach^(deg - 1),
    where reach = |b| + the Cauchy bound on the roots of S.
    """
    quo, (val,) = divmod(poly, (-b, 1), QQ)
    if val:
        return 0
    while not val:
        poly = quo
        quo, (val,) = divmod(poly, (-b, 1), QQ)
    lead = abs(poly[-1])
    deg = len(poly) - 1
    reach = abs(b) + 1 + Fraction(max((abs(c) for c in poly[:-1]), default=0)) / lead
    return abs(val) / (lead * reach ** max(deg - 1, 0))


def _conjugate_products_poly(m):
    """P(t) = prod_{i,k} (t - z_i z_k) for the conjugates z_i of the element
    with multiplication matrix m: the char poly of the Kronecker square m (x) m.
    """
    return char_poly(tuple(tuple(a * b for a in ra for b in rb) for ra in m for rb in m))


# ---------------------------------------------------------------------------
# Enumeration


def coordinate_ranges(field, box, lattice_rows):
    """Integer ranges for lattice coefficients c with c*H possibly inside
    the embedded box; rigorous outer bounds, never under-covering.

    An element with |std_k| <= b_k has |coords_l| <= sum_k b_k |M[k][l]|
    for the inverse embedding M, enclosed at FIXED_BITS."""
    r, s = field.signature
    n = field.degree
    std_bounds = [sqrt_upper(b, 32) for b in box.bounds_sq]
    std_bounds = std_bounds[:r] + [b for b in std_bounds[r:] for _ in range(2)]
    inv = field.inverse_embedding(FIXED_BITS)
    coord_bound = [
        int(sum(b * max(-m.lo, m.hi) for b, m in zip(std_bounds, col))) + 1
        for col in zip(*inv)
    ]
    # H^-1 = adj H / det H.
    h_det, h_adj = adjugate(lattice_rows)
    ranges = []
    for k in range(n):
        bound = sum(b * abs(row[k]) for b, row in zip(coord_bound, h_adj)) // abs(h_det) + 1
        ranges.append((-bound, bound))
    return ranges


class _FinckePohst:
    """Fincke-Pohst enumeration of the integer points x of the ellipsoid
    sum_a d_a (x_a + t_a + sum_{j > a} l_{j a} x_j)^2 <= radius, for _ldl's
    (l, d) over x_0..x_{n-1} and a centre row t.  Its k-th level is
    c_k = x_{n-k}, within the k-th (lo, hi) of ranges, one per walked level;
    walking fewer than n levels gives the ellipsoid's projection onto them.
    Once c_1..c_{k-1} are fixed, the term d_a (c_k - num / den)^2 bounds c_k
    about its centre.  Each level keeps integers, num, den and the pivot
    d_a scaled by the denominators of the levels before it, so a prefix
    costs a few products and one isqrt, and its range is exact:
    |den c_k - num| <= isqrt(rem // piv), and every c_k in it leaves
    rem >= 0.  bound, the product of the levels' widest spans, is at least
    the number of points."""

    __slots__ = ("levels", "rem", "bound")

    def __init__(self, ldl, radius, ranges, centre):
        l, d = ldl
        n = len(centre)
        self.rem = peak = radius.numerator
        scale = radius.denominator
        self.levels, self.bound = [], 1
        for k, (lo, hi) in enumerate(ranges):
            # The level's centre: -(t_a + sum_{j < k} l[n - 1 - j][a] prefix[j]).
            a = n - 1 - k
            coef = [-centre[a]] + [-l[n - 1 - j][a] for j in range(k)]
            den = lcm(*(x.denominator for x in coef))
            step = d[a].denominator * den * den
            piv = d[a].numerator * scale
            self.levels.append(([int(x * den) for x in coef], den, step, piv, lo, hi))
            scale, peak = scale * step, peak * step
            self.bound *= min(hi - lo + 1, 2 * isqrt(peak // piv) // den + 1)

    def blocks(self, shard=None):
        """(prefix, cs) for each prefix c_1..c_{k-1} of the walk's last
        level k, in lexicographic order: cs is the range of c_k under it.
        shard=(index, count) keeps the c_1 congruent to index."""

        def walk(k, prefix, rem):
            coef, den, step, piv, lo, hi = self.levels[k]
            num = coef[0] + sum(a * c for a, c in zip(coef[1:], prefix))
            rem *= step
            w = isqrt(rem // piv)
            cs = range(max(lo, -((w - num) // den)), min(hi, (num + w) // den) + 1)
            if k == 0 and shard is not None:
                cs = cs[(shard[0] - cs.start) % shard[1]::shard[1]]
            if k == len(self.levels) - 1:
                yield prefix, cs
                return
            for c in cs:
                yield from walk(k + 1, prefix + (c,), rem - piv * (den * c - num) ** 2)

        return walk(0, (), self.rem)


class _LineBounds(_FinckePohst):
    """The walk of the lines that can meet the region: the lattice
    coefficients c_1..c_{n-1}, within coordinate_ranges, of the ellipsoid
    sum_k w_k (m_k - t_k)^2 <= n in Minkowski coordinates m; c_n, along
    the line, keeps its range in ranges.  A real place, in (0, sqrt(b)],
    lies within rho of t ~ sqrt(b)/2 and weighs 1 / rho^2, a complex one
    weighs 2 / b.  m is read off the embedding at 32 bits rounded down;
    that error over the coordinate box and a unit ridge, which keeps the
    Gram matrix positive definite, widen the radius, so it never
    under-covers.  _ldl factors it once, c_1 last (outermost), then a
    coordinate held at 1 whose row of L is the centre row."""

    __slots__ = ("ranges",)

    def __init__(self, field, box, lattice_rows):
        r = field.signature[0]
        n = field.degree
        bits = FIXED_BITS // 2
        self.ranges = coordinate_ranges(field, box, lattice_rows)
        col_lo, col_hi = ([[x >> (FIXED_BITS - bits) for x in col] for col in cols]
                          for cols in field.fixed_embedding(FIXED_BITS))
        one = 1 << bits
        reals, pairs = box.bounds_sq[:r], box.bounds_sq[r:]
        centre = [sqrt_lower(b, bits) / 2 for b in reals]
        weights = ([1 / (sqrt_upper(b, bits) - t) ** 2 for b, t in zip(reals, centre)]
                   + [2 / b for b in pairs for _ in range(2)])
        rows = [[sum(h * e for h, e in zip(row, col)) for col in col_lo]
                for row in reversed(lattice_rows)] + [[-t * one for t in centre] + [0] * (n - r)]
        # The Gram matrix's lower triangle, all that _ldl reads.
        l, d = _ldl([[sum(w * a * b for w, a, b in zip(weights, u, v)) + (i == j)
                      for j, v in enumerate(rows[:i + 1])] for i, u in enumerate(rows)])
        # |m_k - m_k read off col_lo| <= sum_l |v_l| (col_hi - col_lo + 1) / one.
        c_max = [max(-lo, hi) for lo, hi in self.ranges]
        v_max = [sum(c * abs(row[k]) for c, row in zip(c_max, lattice_rows)) for k in range(n)]
        err_sq = sum(w * sum(v * (b - a + 1) for v, a, b in zip(v_max, lo_k, hi_k)) ** 2
                     for w, lo_k, hi_k in zip(weights, col_lo, col_hi))
        radius = n * (one + sqrt_upper(err_sq, bits)) ** 2 + sum(c * c for c in c_max) + 1
        super().__init__((l, d), radius - d[n], self.ranges[:-1], l[n][:n])


def region_runs(field, boxes, lattice_rows, shard):
    """Stream the runs (base, step, lo, hi, spans) of the lattice inside
    the componentwise largest of the boxes, which holds them all, in
    lexicographic coordinate order: base + c * step lies in that region
    exactly for lo <= c <= hi, and in box k exactly for c in spans[k] =
    (a, b), a > b when there is none.  Exhaustive and exact.

    Each run is one line along the last lattice row, walked where
    _LineBounds allows; a region is convex, so the line meets it in
    consecutive c, and only the two run ends are decided
    (FloatRegionFilter.run).  A box equal to the largest spans the run; any
    other box walks its own ends inside the run, on the lines within its
    own _LineBounds, and spans nothing elsewhere.  shard=(index, count)
    keeps the lines whose first coefficient is index mod count, None keeps
    all.  A walk of more than RESIDUE_CAP lines, counted over every shard,
    raises ResidueCapError before the first run."""
    outer = RegionBox(field.signature, [max(b) for b in zip(*(bx.bounds_sq for bx in boxes))])
    walk = _LineBounds(field, outer, lattice_rows)
    check_cap(walk.bound, "region line walk", lambda: sum(len(cs) for _, cs in walk.blocks()))
    # Each box's screen and lines, no screen for a box equal to the largest.
    inner = [(None, {}) if bx.bounds_sq == outer.bounds_sq else
             (FloatRegionFilter(field, bx), dict(_LineBounds(field, bx, lattice_rows).blocks(shard)))
             for bx in boxes]
    screen = FloatRegionFilter(field, outer)
    row, step = lattice_rows[-2:]
    for prefix, cs in walk.blocks(shard):
        corner = [sum(c * x for c, x in zip(prefix, col)) for col in zip(*lattice_rows)]
        within = [(own, lines.get(prefix, ())) for own, lines in inner]
        for c in cs:
            base = tuple(a + c * b for a, b in zip(corner, row))
            lo, hi = screen.run(base, step, *walk.ranges[-1])
            if lo <= hi:
                yield base, step, lo, hi, [
                    (lo, hi) if own is None else own.run(base, step, lo, hi) if c in own_cs
                    else (lo, lo - 1) for own, own_cs in within]


def enumerate_region(field, box, lattice_rows, shard=None):
    """Stream the points of the lattice inside the region, in
    lexicographic coordinate order: the points of region_runs, with the
    same shard slices."""
    for base, step, lo, hi, _ in region_runs(field, [box], lattice_rows, shard):
        for c in range(lo, hi + 1):
            yield field.element([a + c * b for a, b in zip(base, step)])


def enumerate_region_oracle(field, box, lattice_rows):
    """Test oracle for enumerate_region: the same points in the same order,
    from every lattice point over the naive coordinate ranges decided by
    in_region alone, with no float screen and no nested bound."""
    ranges = coordinate_ranges(field, box, lattice_rows)
    for coeffs in product(*(range(lo, hi + 1) for lo, hi in ranges)):
        el = field.element([
            sum(c * row[k] for c, row in zip(coeffs, lattice_rows))
            for k in range(field.degree)
        ])
        if in_region(el, box):
            yield el


# ---------------------------------------------------------------------------
# Embedded lattices and successive minima


def _ldl(gram):
    """(L, D) with gram = L diag(D) L^T and L unit lower triangular, for a
    Gram matrix of Fractions.  The pivots D are the ratios of the leading
    principal minors, so by Sylvester's criterion gram is positive definite
    exactly when all are positive: raises ValueError at the first that is
    not."""
    n = len(gram)
    l = [[Fraction(0)] * n for _ in range(n)]
    d = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            acc = gram[i][j]
            for k in range(j):
                acc -= l[i][k] * l[j][k] * d[k]
            l[i][j] = acc / d[j]
        acc = gram[i][i]
        for k in range(i):
            acc -= l[i][k] ** 2 * d[k]
        if acc <= 0:
            raise ValueError("gram matrix must be positive definite")
        d[i] = acc
        l[i][i] = Fraction(1)
    return l, d


class EmbeddedLattice:
    """A full-rank lattice in R^n with an exact rational Gram matrix,
    factored once as L diag(D) L^T: det_sq is the product of D, and
    minima_sq enumerates on the factors.

    Exactness is available for rational basis matrices, for the standard
    embedding of lattices in totally real fields (trace form) and in
    quadratic fields; those cover the package's uses.
    """

    __slots__ = ("gram", "n", "ldl", "det_sq")

    def __init__(self, gram):
        self.gram = tuple(tuple(Fraction(x) for x in row) for row in gram)
        self.n = len(self.gram)
        self.ldl = _ldl(self.gram)
        self.det_sq = prod(self.ldl[1])

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
        """Exact squared successive minima (Euclidean ball), n <= 4: the
        nonzero points of the _FinckePohst walk up to the largest diagonal
        entry of the Gram matrix, in order of value c^T G c (read off G
        over one common denominator), each taken when independent of those
        taken before it."""
        n = self.n
        if n > 4:
            raise ValueError("exact minima enumeration capped at dimension 4")
        den = lcm(*(x.denominator for row in self.gram for x in row))
        gram = [[int(x * den) for x in row] for row in self.gram]
        walk = _FinckePohst(self.ldl, max(self.gram[i][i] for i in range(n)),
                            [(-inf, inf)] * n, [0] * n)
        vecs = []
        for prefix, cs in walk.blocks():
            for x in cs:
                c = (x, *reversed(prefix))
                if any(c):
                    vecs.append((sum(a * g * b for a, row in zip(c, gram)
                                     for g, b in zip(row, c)), c))
        vecs.sort()
        minima = []
        chosen = []
        for val, c in vecs:
            if len(hnf(chosen + [c])) > len(chosen):
                chosen.append(c)
                minima.append(Fraction(val, den))
                if len(minima) == n:
                    break
        if len(minima) < n:
            raise ArithmeticError("minima enumeration incomplete")
        return tuple(minima)


def widmer_constant(n):
    """c0(n) = n^{3 n^2 / 2} as an exact-or-upper Fraction."""
    e = 3 * n * n
    if e % 2 == 0:
        return Fraction(n) ** (e // 2)
    return sqrt_upper(Fraction(n) ** e, 32)


def widmer_bound(lattice, n_maps, lip):
    """Upper bound c0(n) * M * max_i Lip^i / (lambda_1 ... lambda_i), for
    a rational upper bound lip on Lip; the returned Fraction dominates the
    true bound.
    """
    n = lattice.n
    minima = lattice.minima_sq()
    best_sq = Fraction(1)
    minima_prod = Fraction(1)
    for i in range(1, n):
        minima_prod *= minima[i - 1]
        cand = lip ** (2 * i) / minima_prod
        if cand > best_sq:
            best_sq = cand
    c0 = widmer_constant(n)
    val_sq = (c0 * n_maps) ** 2 * best_sq
    exact = exact_root(val_sq, 2)
    return exact if exact is not None else sqrt_upper(val_sq, 64)


# ---------------------------------------------------------------------------
# The main term's density


def lattice_point_density(field):
    """(2 pi)^s / sqrt|d_K| as an interval: the points of O_K per unit of
    region volume."""
    s = field.signature[1]
    return (2 * PI) ** s / RatInterval(Fraction(abs(field.disc))).sqrt(SQRT_BITS)
