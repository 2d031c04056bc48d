import time
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from embedding_oracle import embedding_sum, places
from unitring import field as field_module
from unitring.field import IrreducibilityError, NumberField, is_square_in_field
from unitring.intervals import RatInterval
from unitring.linalg import char_poly, det
from unitring.poly import QQ, evaluate
from unitring.rootiso import RootEnclosure, RootIsolation, resultant


@pytest.fixture(scope="module")
def q5():
    return NumberField([-1, -1, 1], name="Q(sqrt5)")


@pytest.fixture(scope="module")
def qi():
    return NumberField([1, 0, 1], name="Q(i)")


@pytest.fixture(scope="module")
def cubic():
    # X^3 - X - 2, signature (1,1), monogenic (disc = -4*(-1)^3-27*4 = -104).
    return NumberField([-2, -1, 0, 1], name="cubic")


def resultant_norm_oracle(alpha):
    """Independent norm route: Res(min_poly, h) / den^n for alpha = h(theta)/den."""
    field = alpha.field
    h = field.theta_poly_of(alpha)
    den = 1
    for c in h:
        den = den * Fraction(c).denominator // gcd(den, Fraction(c).denominator)
    r = resultant(field.min_poly, tuple(int(Fraction(c) * den) for c in h))
    assert r % den**field.degree == 0
    return r // den**field.degree


def embedding_product_norm_oracle(alpha, bits=128):
    """Second independent route: product of certified conjugate enclosures,
    rounded to the nearest integer with a width check."""
    field = alpha.field
    r, s = field.signature
    reals, pairs = places(field, embedding_sum(field, alpha.coords, bits))
    prod_lo, prod_hi = Fraction(1), Fraction(1)
    for iv in reals:
        cands = [prod_lo * iv.lo, prod_lo * iv.hi, prod_hi * iv.lo, prod_hi * iv.hi]
        prod_lo, prod_hi = min(cands), max(cands)
    for re, im in pairs:
        m2 = re * re + im * im
        cands = [prod_lo * m2.lo, prod_lo * m2.hi, prod_hi * m2.lo, prod_hi * m2.hi]
        prod_lo, prod_hi = min(cands), max(cands)
    assert prod_hi - prod_lo < 1
    mid = (prod_lo + prod_hi) / 2
    return round(mid)


coords2 = st.tuples(st.integers(-9, 9), st.integers(-9, 9))


@settings(max_examples=100, deadline=None)
@given(coords2)
def test_norm_three_routes_agree_q5(c):
    field = NumberField([-1, -1, 1])
    alpha = field.element(c)
    if alpha.is_zero():
        assert alpha.norm() == 0
        return
    n1 = alpha.norm()
    assert n1 == resultant_norm_oracle(alpha)
    assert n1 == embedding_product_norm_oracle(alpha)


NORM_FORM_FIELDS = {
    "q_sqrt5": ([-1, -1, 1], None),
    "q_sqrt2": ([-2, 0, 1], None),
    "q_i": ([1, 0, 1], None),
    "cubic-23": ([-1, -1, 0, 1], None),
    "q_sqrt5/alt": ([-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]]),
}


@pytest.fixture(scope="module")
def norm_form_fields():
    return {name: NumberField(poly, integral_basis=basis, name=name)
            for name, (poly, basis) in NORM_FORM_FIELDS.items()}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(NORM_FORM_FIELDS)),
       st.lists(st.integers(-10**6, 10**6), min_size=3, max_size=3))
def test_norm_form_matches_det_and_resultant(norm_form_fields, name, c):
    field = norm_form_fields[name]
    alpha = field.element(c[:field.degree])
    nrm = alpha.norm()
    assert nrm == det(field.mult_matrix(alpha))
    assert nrm == resultant_norm_oracle(alpha)


def test_norm_form_term_counts(norm_form_fields):
    # Q(sqrt5): N(a + b theta) = a^2 + ab - b^2; cubic-23 has 8 nonzero terms,
    # the 15th cyclotomic field 5,979.
    assert norm_form_fields["q_sqrt5"].norm_form == ((1, (0, 0)), (1, (0, 1)), (-1, (1, 1)))
    assert len(norm_form_fields["cubic-23"].norm_form) == 8
    cyclotomic = NumberField([1, -1, 0, 1, -1, 1, 0, -1, 1])
    assert len(cyclotomic.norm_form) == 5979
    alpha = cyclotomic.element([3, -1, 4, 1, -5, 9, 2, -6])
    assert alpha.norm() == det(cyclotomic.mult_matrix(alpha))


@settings(max_examples=60, deadline=None)
@given(coords2, coords2)
def test_norm_multiplicative(c1, c2):
    field = NumberField([-1, -1, 1])
    a, b = field.element(c1), field.element(c2)
    assert (a * b).norm() == a.norm() * b.norm()


@settings(max_examples=60, deadline=None)
@given(coords2, coords2)
def test_trace_additive(c1, c2):
    field = NumberField([-1, -1, 1])
    a, b = field.element(c1), field.element(c2)
    assert (a + b).trace() == a.trace() + b.trace()


def test_spec_norm_examples(q5):
    assert q5.one.norm() == 1
    assert q5.rational(2).norm() == 4
    assert q5.theta.norm() == -1


def test_ring_axioms_spot(q5):
    th = q5.theta
    assert th * th == th + q5.one
    assert (th + q5.one) * (th - q5.one) == th * th - q5.one
    assert th**5 == th * th * th * th * th


def test_char_poly(q5, cubic):
    assert char_poly(q5.mult_matrix(q5.theta)) == (-1, -1, 1)
    assert char_poly(q5.mult_matrix(q5.rational(3))) == (9, -6, 1)
    assert char_poly(cubic.mult_matrix(cubic.theta)) == (-2, -1, 0, 1)
    # Char poly of theta^2 in the cubic: roots are squares of the originals.
    sq = cubic.theta * cubic.theta
    cp = char_poly(cubic.mult_matrix(sq))
    assert cp[-1] == 1 and len(cp) == 4
    assert cp[0] == -(sq.norm())  # (-1)^3 * constant = norm


def test_signatures_and_discs(q5, qi, cubic):
    assert q5.signature == (2, 0) and q5.disc == 5
    assert qi.signature == (0, 1) and qi.disc == -4
    assert cubic.signature == (1, 1) and cubic.disc == -104


def test_sqrt2_field_data():
    q2 = NumberField([-2, 0, 1])
    assert q2.signature == (2, 0) and q2.disc == 8
    assert q2.theta.norm() == -2
    u = q2.element((1, 1))  # 1 + sqrt2
    assert u.norm() == -1


def test_non_power_basis():
    # Q(sqrt5) presented with min poly X^2 - 5 and true integral basis
    # {1, (1+theta)/2} where theta = sqrt5.
    field = NumberField(
        [-5, 0, 1],
        integral_basis=[[1, 0], [Fraction(1, 2), Fraction(1, 2)]],
        name="Q(sqrt5)/alt",
    )
    assert field.disc == 5
    w = field.element((0, 1))  # the golden ratio
    assert w.norm() == -1
    assert w * w == w + field.one


def test_rejects_non_ring_basis():
    with pytest.raises(ValueError):
        # {1, theta/2} is not multiplicatively closed for X^2 - X - 1... use X^2-5:
        NumberField([-5, 0, 1], integral_basis=[[1, 0], [0, Fraction(1, 2)]])
    with pytest.raises(ValueError, match=r"integral basis \[1 0; 1/2 0\] is singular"):
        NumberField([-5, 0, 1], integral_basis=[[1, 0], [Fraction(1, 2), 0]])


def test_irreducibility_guard():
    with pytest.raises(IrreducibilityError):
        NumberField([1, 2, 1])  # (X+1)^2
    with pytest.raises(IrreducibilityError):
        NumberField([-4, 0, 1])  # (X-2)(X+2)
    with pytest.raises(IrreducibilityError):
        NumberField([0, 1, 0, 1])  # X(X^2+1)
    # X^4 + 1 is irreducible over Q but splits mod every prime.
    NumberField([1, 0, 0, 0, 1])


# Two 18-digit primes: the constant term of X^2 - pq is slow to factor.
P, Q = 100000000000000003, 100000000000000013


@pytest.mark.parametrize("poly, refusal", [
    ([4, 0, -4, 0, 1], "repeated factor"),  # (X^2 - 2)^2
    ([-10000000000000061, 0, 1], None),  # X^2 - p for a 17-digit prime p
    ([1, 0, -10, 0, 1], None),  # Q(sqrt2, sqrt3): reducible mod every prime
    ([4, 0, -16, 0, 1], None),  # X^4 - 16X^2 + 4: reducible mod every prime
    ([-1, -1, 0, 0, 0, 1], None),  # X^5 - X - 1
    ([1, 0, 0, 1, 0, 0, 1], None),  # X^6 + X^3 + 1
    ([-P * Q, 0, 1], None),  # X^2 - pq
    ([2, 0, 3, 0, 1], r"factor \(([12]), 0, 1\)"),  # (X^2 + 1)(X^2 + 2)
    ([6, 0, -5, 0, 1], r"factor \((-2|-3), 0, 1\)"),  # (X^2 - 2)(X^2 - 3)
    ([-2, -2, -2, 1, 1, 1], r"factor \(1, 1, 1\)"),  # (X^2 + X + 1)(X^3 - 2)
    ([-1, 1, -1, 1], r"factor \(-1, 1\)"),  # (X - 1)(X^2 + 1)
], ids=["square_of_quadratic", "large_prime_constant", "sqrt2_sqrt3", "x4_16x2_4",
        "x5_x_1", "x6_x3_1", "semiprime_constant", "x2p1_x2p2", "x2m2_x2m3",
        "x2px1_x3m2", "xm1_x2p1"])
def test_irreducibility_certificate_is_quick(poly, refusal):
    start = time.perf_counter()
    if refusal:
        with pytest.raises(IrreducibilityError, match=refusal):
            NumberField(poly)
    else:
        NumberField(poly)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("poly, refusal", [
    ([1, 0, -10, 0, 1], None),
    ([1, 0, 0, 1, 0, 0, 1], None),
    ([-1, -1, 0, 1], None),
    ([6, 0, -5, 0, 1], r"factor \((-2|-3), 0, 1\)"),
    ([-2, -2, -2, 1, 1, 1], r"factor \(1, 1, 1\)"),
    ([-1, 1, -1, 1], r"factor \(-1, 1\)"),
])
def test_irreducibility_certificate_refines(poly, refusal, monkeypatch):
    # Enclosures only as tight as asked for, from 1 bit up: the certificate
    # must refine until every set of places is decided, and decide as before.
    asked = []
    refine = RootIsolation.refine

    def loose(self, bits):
        refine(self, bits)
        asked.append(bits)
        self.enclosures = [
            RootEnclosure(e.center, max(e.radius, Fraction(1, 1 << bits)), e.is_real)
            for e in self.enclosures
        ]

    def from_one_bit(p):
        iso = RootIsolation(p)
        iso.bits = 1
        asked.clear()
        return iso

    monkeypatch.setattr(RootIsolation, "refine", loose)
    monkeypatch.setattr(field_module, "RootIsolation", from_one_bit)
    if refusal:
        with pytest.raises(IrreducibilityError, match=refusal):
            NumberField(poly)
    else:
        NumberField(poly)
    assert max(asked) > 1


A, B = 2**128 + 3, 2**129 + 5


@pytest.mark.parametrize("poly", [
    [2, 0, -(10**40 + 2), 0, 1],  # roots near +-10^20 and +-sqrt2 10^-20, 2^-65 apart
    [A * B + 1, 0, -(A + B), 0, 1],  # roots near +-2^64: unscaled floats overflow
], ids=["close_roots", "large_roots"])
def test_isolates_close_and_large_roots(poly):
    field = NumberField(poly)
    assert field.signature == (4, 0)
    # Each disk is certified to hold one real root: f changes sign across it.
    for enc in field.root_isolation().enclosures:
        re, _ = enc.box()
        assert evaluate(field.min_poly, re.lo, QQ) * evaluate(field.min_poly, re.hi, QQ) < 0


def test_classifies_a_pair_near_the_real_axis():
    # Eisenstein at 2, with a complex pair about 7e-36 off the real axis:
    # the 64-bit disks of the pair meet the axis, so classification retries.
    field = NumberField([2, -4 * 10**10, 2 * 10**20, 0, 0, 1])
    assert field.signature == (1, 2)
    assert all(enc.center[1] > enc.radius for enc in field.root_isolation().enclosures[1:3])


def test_embeddings_certified(q5):
    th = q5.theta
    reals, pairs = places(q5, q5.embed(th.coords, 96))
    assert not pairs
    # Golden ratio and conjugate, ordered ascending.
    assert reals[0].hi < reals[1].lo
    assert reals[0].lo < Fraction(-0.61) and reals[0].hi > Fraction(-0.62)
    assert reals[1].lo < Fraction(1.62) and reals[1].hi > Fraction(1.61)
    width = max(iv.width for iv in reals)
    assert width <= Fraction(4, 1 << 96)


def test_embeddings_signature_1_1(cubic):
    one = cubic.one
    reals, pairs = places(cubic, cubic.embed(one.coords, 64))
    assert len(reals) == 1 and len(pairs) == 1
    assert 1 in reals[0]
    re, im = pairs[0]
    assert 1 in re and 0 in im


def test_is_square_examples(q5):
    th = q5.theta
    assert is_square_in_field(q5.rational(4))
    assert is_square_in_field(th + q5.one)  # theta^2
    assert not is_square_in_field(th)
    assert not is_square_in_field(q5.rational(-1))  # negative at real embeddings
    assert not is_square_in_field(q5.rational(2))
    eta = q5.rational(2) + (2 * th - q5.one)
    assert not is_square_in_field(eta)


def test_is_square_exhaustive_squares(q5):
    # Every square of a small element must be recognized.
    for a in range(-3, 4):
        for b in range(-3, 4):
            beta = q5.element((a, b))
            if beta.is_zero():
                continue
            assert is_square_in_field(beta * beta)


def test_is_square_imaginary(qi):
    i = qi.theta
    assert is_square_in_field(-qi.one)  # i^2
    assert is_square_in_field(2 * i)  # (1+i)^2
    assert not is_square_in_field(i + qi.one)  # 1+i has norm 2, not a square


EMBEDDING_FIELDS = {
    **NORM_FORM_FIELDS,
    "cubic": ([-2, -1, 0, 1], None),
    "x4+1": ([1, 0, 0, 0, 1], None),
}


@pytest.fixture(scope="module")
def embedding_fields():
    return {name: NumberField(poly, integral_basis=basis, name=name)
            for name, (poly, basis) in EMBEDDING_FIELDS.items()}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["q_sqrt5/alt", "cubic-23", "x4+1"]), st.data())
def test_from_theta_poly_reduces_modulo_the_minimal_polynomial(embedding_fields, name, data):
    # Up to degree 2n - 2, that of a product of two reduced theta-polynomials.
    field = embedding_fields[name]
    c = data.draw(st.lists(st.integers(-10**3, 10**3), min_size=1, max_size=2 * field.degree - 1))
    assert field.from_theta_poly(c) == sum((k * field.theta**i for i, k in enumerate(c)), field.zero)


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("name", sorted(EMBEDDING_FIELDS))
def test_inverse_embedding_encloses_identity(embedding_fields, name, bits):
    field = embedding_fields[name]
    s, m = field.embedding_matrix(bits), field.inverse_embedding(bits)
    n = field.degree
    for i in range(n):
        for j in range(n):
            entry = sum((s[i][k] * m[k][j] for k in range(n)), RatInterval(0))
            assert int(i == j) in entry
            assert entry.width < Fraction(1, 1 << (bits // 2))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["q_sqrt5", "q_i", "cubic-23", "x4+1"]), st.sampled_from([64, 256]),
       st.sampled_from([1, 1, 2, 3, 10**9 + 7]), st.data())
def test_embed_encloses_the_exact_sum(embedding_fields, name, bits, den, data):
    # embed is enclose over fixed_embedding, whose entries are each rounded
    # outward once: it holds the exact sum over embedding_matrix, and is
    # wider by at most 2 sum |c_j| 2^-bits.
    field = embedding_fields[name]
    coords = [Fraction(data.draw(st.integers(-10**6, 10**6)), den) for _ in range(field.degree)]
    slack = Fraction(2 * sum(map(abs, coords)), 1 << bits)
    for got, want in zip(field.embed(coords, bits), embedding_sum(field, coords, bits)):
        assert got.lo <= want.lo and want.hi <= got.hi
        assert got.width - want.width <= slack


# One non-square d per field with a square norm and positive real
# embeddings, so that only the rounding step can reject beta^2 d.
NON_SQUARES = {
    "q_sqrt5": (3, 0),
    "q_i": (3, 0),
    "cubic-23": (0, 1, 0),  # theta, the fundamental unit
    "x4+1": (3, 0, 0, 0),
    "q_sqrt5/alt": (3, 0),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(NON_SQUARES)),
       st.lists(st.integers(-30, 30), min_size=4, max_size=4))
def test_is_square_by_construction(embedding_fields, name, c):
    field = embedding_fields[name]
    beta = field.element(c[:field.degree])
    assume(not beta.is_zero())
    d = field.element(NON_SQUARES[name])
    assert isqrt(d.norm()) ** 2 == d.norm()
    assert is_square_in_field(beta * beta)
    assert not is_square_in_field(beta * beta * d)
