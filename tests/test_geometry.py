import itertools
import random
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from embedding_oracle import embedding_sum, places
from unitring.field import NumberField
from unitring.geometry import (
    _conjugate_products_poly,
    EmbeddedLattice,
    FloatRegionFilter,
    RegionBox,
    coordinate_ranges,
    enumerate_region,
    enumerate_region_oracle,
    in_region,
    region_runs,
    widmer_bound,
    widmer_constant,
)
from unitring.ideal import IdealLattice, ResidueCapError
from unitring.linalg import det, hnf, identity
from unitring.order import SubOrder
from unitring.poly import QQ, mul


def box_of_sides(signature, sides):
    """The RegionBox with |sigma_i| <= sides[i]."""
    return RegionBox(signature, [Fraction(b) ** 2 for b in sides])


@pytest.fixture(scope="module")
def q5():
    return NumberField([-1, -1, 1], name="Q(sqrt5)")


@pytest.fixture(scope="module")
def qi():
    return NumberField([1, 0, 1], name="Q(i)")


# -- independent oracle for Q(sqrt5): exact surd comparisons -------------------


def _sqrt5_sign(u, v):
    """Sign of u + v*sqrt(5) for integers u, v, exactly."""
    if u * v >= 0:
        return (u + v > 0) - (u + v < 0)
    # Opposite signs: the larger of u^2 and 5 v^2 (never equal) decides.
    return (u > 0) - (u < 0) if u * u > 5 * v * v else (v > 0) - (v < 0)


def q5_oracle_membership(coords, side_sq):
    """Totally positive and sigma_i^2 <= side_sq for alpha = x + y*theta,
    computed with exact quadratic surd arithmetic, no package machinery:
    sigma_{1,2}(alpha) = (A +- B sqrt5) / 2 with A = 2x + y and B = y, so
    both conditions are signs of integers u + v sqrt5."""
    x, y = coords
    side_sq = Fraction(side_sq)
    num, den = side_sq.numerator, side_sq.denominator
    a = 2 * x + y
    for b in (y, -y):
        if _sqrt5_sign(a, b) <= 0:
            return False
        # den ((a + b sqrt5)^2 - 4 side_sq) <= 0.
        if _sqrt5_sign(den * (a * a + 5 * b * b) - 4 * num, 2 * den * a * b) > 0:
            return False
    return True


def q5_oracle_enumerate(field, side_sq, coord_range=40):
    out = []
    for x in range(-coord_range, coord_range + 1):
        for y in range(-coord_range, coord_range + 1):
            if q5_oracle_membership((x, y), side_sq):
                out.append((x, y))
    return sorted(out)


def test_in_region_examples(q5):
    th = q5.theta
    box11 = box_of_sides(q5.signature, [1, 1])
    box22 = box_of_sides(q5.signature, [2, 2])
    box44 = box_of_sides(q5.signature, [4, 4])
    assert in_region(q5.one, box11)
    assert not in_region(th, box22)  # second conjugate negative
    assert in_region(q5.rational(2) + th, box44)
    assert not in_region(q5.zero, box11)  # 0 is not totally positive
    # Boundary tie: 2 sits exactly on the (2,2) wall and is included.
    assert in_region(q5.rational(2), box22)
    assert not in_region(q5.rational(3), box22)


def test_in_region_matches_oracles(q5, qi):
    # in_region alone, not behind the screen, at every point of the surd
    # oracle's coordinate range and of the Q(i) disk's square, boundary
    # included.
    for volume in (10, 100, 1000):
        box = RegionBox.cube(q5.signature, volume)
        rng = 2 * isqrt(volume) + 4
        for coords in itertools.product(range(-rng, rng + 1), repeat=2):
            assert in_region(q5.element(coords), box) == q5_oracle_membership(coords, volume)
    assert in_region(q5.element((100, 0)), RegionBox.cube(q5.signature, 10**4))
    box = RegionBox.cube(qi.signature, 100)
    for a, b in itertools.product(range(-12, 13), repeat=2):
        assert in_region(qi.element((a, b)), box) == (a * a + b * b <= 100)
    # A bound within 2^-200 of a squared embedding, on either side: only
    # enclosures rounded outward stay right.
    eps = Fraction(1, 1 << 200)
    for coords in itertools.product(range(-6, 7), [-3, -1, 1, 2, 5]):
        for iv in embedding_sum(q5, coords, 256):
            for b in (iv * iv).hi + eps, (iv * iv).lo - eps:
                if b >= 1:
                    box = RegionBox(q5.signature, [b, b])
                    assert in_region(q5.element(coords), box) == q5_oracle_membership(coords, b)


def test_enumerate_examples(q5):
    rows = identity(2)
    def points(bounds):
        box = box_of_sides(q5.signature, bounds)
        return [p.coords for p in enumerate_region(q5, box, rows)]

    assert points([1, 1]) == [(1, 0)]
    assert points([2, 2]) == [(1, 0), (2, 0)]
    two = IdealLattice.from_integer(q5, 2)
    box22 = box_of_sides(q5.signature, [2, 2])
    assert [p.coords for p in enumerate_region(q5, box22, two.hnf)] == [(2, 0)]


@pytest.mark.parametrize("volume", [10, 100, 1000, 10**4])
def test_enumerate_matches_surd_oracle(q5, volume):
    box = RegionBox.cube(q5.signature, volume)
    side_sq = box.bounds_sq[0]
    got = sorted(p.coords for p in enumerate_region(q5, box, identity(2)))
    rng = 2 * isqrt(int(volume)) + 4
    expected = q5_oracle_enumerate(q5, side_sq, coord_range=rng)
    assert got == expected


def test_enumerate_shards_partition(q5):
    box = RegionBox.cube(q5.signature, 500)
    rows = identity(2)
    full = sorted(p.coords for p in enumerate_region(q5, box, rows))
    for shards in (2, 3, 5):
        combined = []
        for i in range(shards):
            combined.extend(
                p.coords for p in enumerate_region(q5, box, rows, shard=(i, shards))
            )
        assert sorted(combined) == full


@pytest.fixture(scope="module")
def k3():
    return NumberField([-1, -1, 0, 1], name="cubic-23")


def run_points(field, box, rows, shard):
    return [
        tuple(a + c * b for a, b in zip(base, step))
        for base, step, lo, hi, _ in region_runs(field, box, rows, shard=shard)
        for c in range(lo, hi + 1)
    ]


def check_against_oracle(field, box, rows):
    """The runs are nonempty, and they and the enumeration yield exactly
    the oracle walk's points in the same order; on every shard of 2 and 3
    they partition them.  An end walk that stops one step early adds a
    non-member, one that stops one step late drops a member."""
    expected = [p.coords for p in enumerate_region_oracle(field, box, rows)]
    assert [p.coords for p in enumerate_region(field, box, rows)] == expected
    assert all(lo <= hi for _, _, lo, hi, _ in region_runs(field, box, rows))
    assert run_points(field, box, rows, None) == expected
    for k in (2, 3):
        parts = [p for i in range(k) for p in run_points(field, box, rows, (i, k))]
        assert sorted(parts) == sorted(expected)
        parts = [p.coords for i in range(k)
                 for p in enumerate_region(field, box, rows, shard=(i, k))]
        assert sorted(parts) == sorted(expected)


@pytest.fixture(scope="module")
def real3():
    return NumberField([1, -3, 0, 1], name="X^3 - 3X + 1")


def walk_counting_lines(field, box, rows, shard=None):
    """The runs of region_runs and the number of lines it walks: one
    FloatRegionFilter.run call per line."""
    calls = []
    run = FloatRegionFilter.run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FloatRegionFilter, "run", lambda self, *args: calls.append(args) or run(self, *args))
        runs = list(region_runs(field, box, rows, shard=shard))
    return runs, len(calls)


@pytest.mark.parametrize("name, bounds_sq, rows", [
    ("real3", (100, 64, 121), identity(3)),
    ("real3", (144, 81, 100), hnf([[2, 1, 0], [0, 1, 1], [0, 0, 3]])),
    ("k3", (25, 16), identity(3)),
    ("k3", (Fraction(121, 4), 36), hnf([[1, 0, 1], [0, 2, 1], [0, 0, 2]])),
], ids=["real3-identity", "real3-hnf", "k3-identity", "k3-hnf"])
def test_nested_walk_matches_the_oracle(real3, k3, name, bounds_sq, rows):
    # Signatures (3, 0) and (1, 1), boxes that are not cubes, and lattices
    # of index 1, 6 and 4.  The prefix bounds never walk a line the naive
    # box of the first n - 1 coordinates would not, and the shard slices
    # split the walk's lines as well as its runs.
    field = {"real3": real3, "k3": k3}[name]
    box = RegionBox(field.signature, bounds_sq)
    check_against_oracle(field, box, rows)
    runs, lines = walk_counting_lines(field, box, rows)
    ranges = coordinate_ranges(field, box, rows)
    assert lines <= prod(hi - lo + 1 for lo, hi in ranges[:-1])
    for k in (2, 3):
        slices = [walk_counting_lines(field, box, rows, (i, k)) for i in range(k)]
        assert sum(count for _, count in slices) == lines
        assert sorted(run for part, _ in slices for run in part) == sorted(runs)


def test_cubic_walk_at_27000_visits_the_nested_lines(k3):
    # The naive box of c_1, c_2 holds 8,051 lines; the ellipsoid's prefix
    # bounds leave 3,243 of them, with the same 2,606 runs.
    box = RegionBox.cube(k3.signature, 27000)
    ranges = coordinate_ranges(k3, box, identity(3))
    assert prod(hi - lo + 1 for lo, hi in ranges[:-1]) == 8051
    runs, lines = walk_counting_lines(k3, box, identity(3))
    assert len(runs) == 2606
    assert lines <= 3300


def test_walk_cap_counts_the_nested_lines(k3, monkeypatch):
    # A cap below the naive box's 8,051 lines but above the nested walk's
    # lets the walk run; one below the nested walk raises, naming its lines.
    box = RegionBox.cube(k3.signature, 27000)
    runs, lines = walk_counting_lines(k3, box, identity(3))
    monkeypatch.setattr("unitring.ideal.RESIDUE_CAP", 5000)
    assert list(region_runs(k3, box, identity(3))) == runs
    monkeypatch.setattr("unitring.ideal.RESIDUE_CAP", lines - 1)
    with pytest.raises(ResidueCapError,
                       match=f"^region line walk of size {lines} exceeds cap {lines - 1}$"):
        next(region_runs(k3, box, identity(3)))


def check_enumeration_against_oracle(field, data, top, max_candidates):
    """check_against_oracle on a random box (squared bounds up to top) and
    a random full-rank lattice.  Draws whose naive
    coordinate box holds more than max_candidates points are skipped,
    since the oracle decides each one exactly."""
    r, s = field.signature
    n = field.degree
    den = data.draw(st.sampled_from([1, 4]))
    bounds_sq = [Fraction(data.draw(st.integers(den, top * den)), den) for _ in range(r + s)]
    box = RegionBox(field.signature, bounds_sq)
    rows = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=n, max_size=n))
    assume(det(rows) != 0)
    ranges = coordinate_ranges(field, box, rows)
    assume(prod(hi - lo + 1 for lo, hi in ranges) <= max_candidates)
    check_against_oracle(field, box, rows)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_enumerate_matches_oracle_walk_real(q5, data):
    check_enumeration_against_oracle(q5, data, 225, 3000)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_enumerate_matches_oracle_walk_disk(qi, data):
    check_enumeration_against_oracle(qi, data, 225, 3000)


# Exact decisions cost more in degree 3, hence the few small boxes.
@settings(max_examples=8, deadline=None)
@given(st.data())
def test_enumerate_matches_oracle_walk_cubic(k3, data):
    check_enumeration_against_oracle(k3, data, 4, 800)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_coordinate_ranges_cover_the_region(q5, qi, k3, data):
    # The ranges are read off the inverse embedding at 64 bits.  Walk a
    # coordinate box twice as wide: every lattice point that in_region
    # accepts must lie inside the ranges.  (enumerate_region_oracle walks
    # the ranges themselves, so it cannot show a range that is too narrow.)
    field = data.draw(st.sampled_from([q5, qi, k3]))
    r, s = field.signature
    n = field.degree
    top = 16 if field is k3 else 400
    bounds_sq = [Fraction(data.draw(st.integers(4, 4 * top)), 4) for _ in range(r + s)]
    box = RegionBox(field.signature, bounds_sq)
    rows = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=n, max_size=n))
    assume(det(rows) != 0)
    ranges = coordinate_ranges(field, box, rows)
    wide = [range(2 * lo, 2 * hi + 1) for lo, hi in ranges]
    assume(prod(map(len, wide)) <= 4000)
    for coeffs in itertools.product(*wide):
        alpha = field.element([sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(n)])
        if in_region(alpha, box):
            assert all(lo <= c <= hi for c, (lo, hi) in zip(coeffs, ranges)), (coeffs, ranges)


def test_enumerate_matches_oracle_cubic_box(k3):
    # The random cubic draws above are tiny; this box holds 36 points on
    # 22 runs, 14 of them longer than one point.
    box = RegionBox(k3.signature, [Fraction(9), Fraction(9)])
    check_against_oracle(k3, box, identity(3))


def test_boundary_tie_complex(qi):
    # In Q(i): |sigma(2i)|^2 = 4 exactly; the closed region includes it.
    i = qi.theta
    box = box_of_sides(qi.signature, [2])
    assert in_region(2 * i, box)
    assert in_region(qi.one + i, box)  # |1+i|^2 = 2 < 4
    assert not in_region(qi.rational(2) + i, box)  # 5 > 4
    # r = 0: zero is vacuously totally positive and inside any box.
    assert in_region(qi.zero, box)


@pytest.mark.parametrize("coords, bound, inside", [
    ((1, 0, 1, 0), 2, True),
    ((1, 0, 1, 0), 2 - Fraction(1, 1 << 100), False),
    ((1, 0, 1, 0), 2 + Fraction(1, 1 << 100), True),
    ((2, 0, 1, 0), 5, True),
    ((0, 0, 2, 0), 4, True),
])
def test_exact_tie_on_inexact_embeddings(coords, bound, inside):
    # On X^4 + 1, theta^2 = +-i at the two complex places, so |1 + theta^2|^2
    # = 2 at both: a tie the enclosures of theta^2 straddle at every
    # precision, which only _tie_gap decides.  Near-ties fall to refinement.
    field = NumberField([1, 0, 0, 0, 1], name="Q(zeta8)")
    assert in_region(field.element(coords), RegionBox(field.signature, [bound, bound])) is inside


# Points on the boundary of a cube: alpha = 100 at x = 10^4 on Q(sqrt5),
# where both embeddings equal the side, and a + bi with a^2 + b^2 = 100 at
# x = 100 on Q(i), whose modulus equals the radius.
BOUNDARY_POINTS = {
    "q5": (10**4, [(100, 0)]),
    "qi": (100, [(a, b) for a in range(-10, 11) for b in range(-10, 11) if a * a + b * b == 100]),
}


def check_screen(field, box, coords):
    """The screen's verdict, when certain, is in_region's; returns that."""
    verdict = FloatRegionFilter(field, box).test(coords)
    exact = in_region(field.element(coords), box)
    assert verdict is None or verdict == exact
    return exact


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_screen_certain_verdicts_are_exact(q5, qi, k3, data):
    # Random points of a cube, and points on its boundary, which the
    # closed region holds.
    name = data.draw(st.sampled_from(["q5", "qi", "k3"]))
    field = {"q5": q5, "qi": qi, "k3": k3}[name]
    if name != "k3" and data.draw(st.booleans()):
        volume, points = BOUNDARY_POINTS[name]
        assert check_screen(field, RegionBox.cube(field.signature, volume),
                            data.draw(st.sampled_from(points)))
        return
    volume = data.draw(st.integers(1, 12)) ** 3 if name == "k3" else data.draw(
        st.integers(1, 10**5))
    box = RegionBox.cube(field.signature, volume)
    ranges = coordinate_ranges(field, box, identity(field.degree))
    check_screen(field, box, tuple(data.draw(st.integers(lo - 2, hi + 2)) for lo, hi in ranges))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_screen_rounds_outward(q5, k3, data):
    # One bound within 2^-200 of the point's squared embedding there, on
    # either side, and the others far: only a screen whose enclosures are
    # rounded outward stays right.  The embeddings of Q(i) are exact.
    field = data.draw(st.sampled_from([q5, k3]))
    coords = tuple(data.draw(st.integers(-40, 40)) for _ in range(field.degree))
    reals, pairs = places(field, embedding_sum(field, coords, 256))
    mods = [iv * iv for iv in reals] + [re * re + im * im for re, im in pairs]
    bounds = [max(m.hi + 1, 1) for m in mods]
    k = data.draw(st.integers(0, len(mods) - 1))
    eps = Fraction(1, 1 << 200)
    bounds[k] = max(mods[k].hi + eps if data.draw(st.booleans()) else mods[k].lo - eps, 1)
    exact = check_screen(field, RegionBox(field.signature, bounds), coords)
    # The 256-bit enclosures, apart from the fixed point that the screen
    # and in_region share, decide every point drawn here.
    assert exact == (all(iv.lo > 0 for iv in reals)
                     and all(m.hi <= b for m, b in zip(mods, bounds)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_filter_follows_a_change_of_step(q5, qi, k3, data):
    # One filter keeps the step's enclosures for the last step it saw. Fed
    # lines along two steps in turn, it must give every line_range and run
    # that a fresh filter gives.
    name = data.draw(st.sampled_from(["q5", "qi", "k3"]))
    field = {"q5": q5, "qi": qi, "k3": k3}[name]
    n = field.degree
    box = RegionBox.cube(field.signature, data.draw(st.integers(1, 8)) ** 3 if name == "k3"
                         else data.draw(st.integers(1, 10**4)))
    vec = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    steps = data.draw(st.lists(vec, min_size=2, max_size=2, unique=True))
    ranges = coordinate_ranges(field, box, identity(n))
    shared = FloatRegionFilter(field, box)
    step = list(steps[0])
    for k in range(6):
        # The steps' values alternate; call 3 passes the list of call 2,
        # changed in place to the other step.
        if k == 3:
            step[:] = steps[1]
        line = steps[k % 2] if k in (1, 4) else step
        base = [data.draw(st.integers(lo, hi)) for lo, hi in ranges]
        lo, hi = ranges[-1]
        assert (shared.line_range(base, line, lo, hi)
                == FloatRegionFilter(field, box).line_range(base, line, lo, hi))
        assert shared.run(base, line, lo, hi) == FloatRegionFilter(field, box).run(base, line, lo, hi)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(-1, -1, 1), (1, 0, 1), (-5, 0, 1), (3, 1, 1)]),
       st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
def test_conjugate_products_poly_quadratic_closed_form(min_poly, coords):
    # Products z_i z_k of the two conjugates: z1^2, z2^2 and z1 z2 twice.
    field = NumberField(min_poly)
    alpha = field.element(coords)
    nrm = alpha.norm()
    expected = mul(
        (nrm * nrm, -(alpha * alpha).trace(), 1), mul((-nrm, 1), (-nrm, 1), QQ), QQ
    )
    assert _conjugate_products_poly(field.mult_matrix(alpha)) == expected


def test_region_box_validation(q5):
    with pytest.raises(ValueError):
        RegionBox(q5.signature, [Fraction(1, 2), 1])  # below 1
    with pytest.raises(ValueError):
        RegionBox((0, 1), [4, 4])  # one bound per embedding, not per place
    box = RegionBox.cube(q5.signature, 1000)
    assert box.bounds_sq == (Fraction(1000), Fraction(1000))


def test_minima_examples():
    assert EmbeddedLattice.from_basis_matrix([[1, 0], [0, 1]]).minima_sq() == (1, 1)
    assert EmbeddedLattice.from_basis_matrix([[2, 0], [0, 3]]).minima_sq() == (4, 9)
    skew = EmbeddedLattice.from_basis_matrix([[1, 0], [100, 1]])
    assert skew.minima_sq() == (1, 1)


def test_minima_sigma_lattices(q5, qi):
    two = IdealLattice.from_integer(q5, 2)
    lam = EmbeddedLattice.from_sigma(q5, two.hnf).minima_sq()
    assert lam[0] == 8  # 2 sqrt 2
    ok_lat = EmbeddedLattice.from_sigma(q5, identity(2))
    assert ok_lat.minima_sq() == (2, 3)  # |emb(1)|^2 = 2, |emb(theta)|^2 = 3
    gauss = EmbeddedLattice.from_sigma(qi, identity(2))
    assert gauss.minima_sq() == (1, 1)
    # det(sigma(O_K)) = 2^{-s} sqrt|d_K|: check squared.
    assert ok_lat.det_sq == 5
    assert gauss.det_sq == Fraction(1)  # (1/2 * sqrt 4)^2


def test_gram_must_be_positive_definite():
    # det(-I) = det diag(1, -1, -1) = 1 > 0, yet neither is a Gram matrix;
    # the LDL^T factor meets a pivot <= 0 (Sylvester's criterion).
    for gram in ([[-1, 0], [0, -1]], [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
                 [[1, 2], [2, 4]], [[1, 2], [2, 3]]):
        with pytest.raises(ValueError, match="gram matrix must be positive definite"):
            EmbeddedLattice(gram)
    rng = random.Random(30)
    for n in (1, 2, 3, 4) * 5:
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if det(rows):
            assert EmbeddedLattice.from_basis_matrix(rows).det_sq == det(rows) ** 2


def test_det_relation_for_ideal_lattices(q5):
    # det sigma(a) = sqrt|d_K| * N(a) for totally real quadratic.
    for q in (2, 3, 5, 11):
        ideal = IdealLattice.from_integer(q5, q)
        lat = EmbeddedLattice.from_sigma(q5, ideal.hnf)
        assert lat.det_sq == 5 * ideal.norm**2


def test_widmer_constant():
    assert widmer_constant(2) == 64
    c3 = widmer_constant(3)
    assert c3 * c3 >= Fraction(3) ** 27
    assert (c3 - 1) ** 2 < Fraction(3) ** 27 or c3 * c3 == Fraction(3) ** 27


def test_widmer_bound_example():
    lat = EmbeddedLattice.from_basis_matrix([[1, 0], [0, 1]])
    # Square of side 10: M = 4 edges, Lip = 10; the theorem's max runs
    # over i < n, so the bound is 64 * 4 * max(1, 10) = 2560.
    b = widmer_bound(lat, 4, Fraction(10))
    assert b == 2560
    # The counting inequality it certifies: |121 - 100| <= bound.
    assert abs(121 - 100) <= b


def _count_lattice_in_rect(basis, rect):
    """Exact count of lattice points of (row basis) inside [0,a]x[0,b]."""
    (a, b) = rect
    count = 0
    # crude coordinate range big enough for the test sizes
    for x in range(-60, 61):
        for y in range(-60, 61):
            px = x * basis[0][0] + y * basis[1][0]
            py = x * basis[0][1] + y * basis[1][1]
            if 0 <= px <= a and 0 <= py <= b:
                count += 1
    return count


def test_widmer_inequality_random_2d():
    rng = random.Random(20260808)
    for _ in range(40):
        while True:
            rows = [
                [rng.randint(-4, 4), rng.randint(-4, 4)],
                [rng.randint(-4, 4), rng.randint(-4, 4)],
            ]
            det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            if det != 0:
                break
        a, b = rng.randint(1, 12), rng.randint(1, 12)
        lat = EmbeddedLattice.from_basis_matrix(rows)
        count = _count_lattice_in_rect(rows, (a, b))
        vol = Fraction(a * b)
        main = vol / abs(Fraction(det))
        lip = Fraction(max(a, b))
        bound = widmer_bound(lat, 4, lip)
        assert abs(Fraction(count) - main) <= bound, (rows, a, b)


def test_widmer_inequality_random_3d():
    rng = random.Random(777)
    for _ in range(12):
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            det = (
                rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
            )
            if det != 0:
                break
        dims = [rng.randint(1, 5) for _ in range(3)]
        lat = EmbeddedLattice.from_basis_matrix(rows)
        # p = c R for an integer vector c exactly when p adj(R) = det c is
        # 0 mod det: walk the integer points p of the box.
        adj = [[rows[(j + 1) % 3][(i + 1) % 3] * rows[(j + 2) % 3][(i + 2) % 3]
                - rows[(j + 1) % 3][(i + 2) % 3] * rows[(j + 2) % 3][(i + 1) % 3]
                for j in range(3)] for i in range(3)]
        count = sum(
            all(sum(p[i] * adj[i][k] for i in range(3)) % det == 0 for k in range(3))
            for p in itertools.product(*(range(d + 1) for d in dims))
        )
        vol = Fraction(dims[0] * dims[1] * dims[2])
        main = vol / abs(Fraction(det))
        # 6 faces; a face of an axis box is covered by one affine map with
        # Lipschitz constant at most the sum of its two edge lengths.
        lip = Fraction(2 * max(dims))
        bound = widmer_bound(lat, 6, lip)
        assert abs(Fraction(count) - main) <= bound, (rows, dims)


def test_minima_lower_bound_for_ideal_lattices(q5):
    # lambda_i >= (n/2)^{1/2} * N(b)^{m/n} for sigma(a b^m cap O): with
    # n = 2 the squared form reads lambda_i^2 >= N(b)^m, checked exactly.
    from unitring.linalg import lattice_intersection

    z_sqrt5 = SubOrder(q5, [(1, 0), (-1, 2)])
    p11 = IdealLattice.from_integer(q5, 11).factor()[0][0].ideal
    cases = []
    for b in (IdealLattice.from_integer(q5, 2), IdealLattice.from_integer(q5, 3), p11):
        for m in (1, 2):
            for a in (IdealLattice.unit_ideal(q5), IdealLattice.from_integer(q5, 3)):
                cases.append((a, b, m))
    for a, b, m in cases:
        prod = a * (b**m)
        for order in (SubOrder.maximal(q5), SubOrder(q5, [(1, 0), (-1, 2)])):
            rows = lattice_intersection(prod.hnf, order.basis_hnf)
            lat = EmbeddedLattice.from_sigma(q5, rows)
            for lam_sq in lat.minima_sq():
                assert lam_sq >= b.norm**m, (a.norm, b.norm, m)


def test_widmer_adversarial_thin_boxes():
    # Thin boxes and a skewed lattice: the counting inequality must hold.
    cases = [
        ([[1, 0], [0, 1]], (1, 100)),
        ([[1, 0], [0, 1]], (100, 1)),
        ([[1, 0], [99, 1]], (1, 50)),
        ([[3, 1], [1, 2]], (1, 80)),
    ]
    for rows, dims in cases:
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        lat = EmbeddedLattice.from_basis_matrix(rows)
        count = _count_lattice_in_rect_wide(rows, dims)
        main = Fraction(dims[0] * dims[1]) / abs(Fraction(det))
        bound = widmer_bound(lat, 4, Fraction(max(dims)))
        assert abs(Fraction(count) - main) <= bound, (rows, dims)


def _count_lattice_in_rect_wide(basis, rect):
    a, b = rect
    count = 0
    for x in range(-220, 221):
        for y in range(-220, 221):
            px = x * basis[0][0] + y * basis[1][0]
            py = x * basis[0][1] + y * basis[1][1]
            if 0 <= px <= a and 0 <= py <= b:
                count += 1
    return count


def test_det_t_is_one():
    # The rescaling map diag(x^{1/n}/x_i) has determinant 1; float check.
    rng = random.Random(5)
    for _ in range(100):
        r, s = rng.choice([(2, 0), (1, 1), (0, 1), (3, 0), (2, 1)])
        n = r + 2 * s
        xs = [1.0 + 10 * rng.random() for _ in range(r + s)]
        full = xs[:r] + [v for v in xs[r:] for _ in (0, 1)]
        x = 1.0
        for v in full:
            x *= v
        det = 1.0
        for v in full:
            det *= (x ** (1.0 / n)) / v
        assert abs(det - 1.0) <= 1e-12 * max(1.0, abs(det))
