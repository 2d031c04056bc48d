import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fq_oracle import field_elements
from unitring import fpoly
from unitring.field import NumberField
from unitring.fpoly import (
    _distinct_degree,
    _equal_degree_split,
    _linear_part,
    _rng_for,
    _squarefree_decomposition,
    count_roots_in_fq,
    factor_mod_p,
    is_separable,
    residue_field,
    roots_in_fq,
)
from unitring.ideal import prime_ideals
from unitring.poly import PrimeField, deriv, evaluate, gcd, monic, mul, trim


def brute_roots_mod_p(poly, p):
    return sorted(x for x in range(p) if evaluate(poly, x, PrimeField(p)) == 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101])
def test_factor_reconstructs(p):
    import random

    rng = random.Random(p)
    for _ in range(25):
        deg = rng.randint(1, 6)
        poly = tuple(rng.randrange(p) for _ in range(deg)) + (1,)
        fac = factor_mod_p(poly, p)
        prod = (1,)
        for g, e in fac:
            for _ in range(e):
                prod = mul(prod, g, PrimeField(p))
        assert prod == poly, (poly, p, fac)
        for g, _ in fac:
            # Irreducibility of each factor: no roots if deg <= 3 is not
            # enough in general; check gcd with x^{p^d}-x stages instead
            # for small degrees by brute force root absence for deg 2,3.
            if len(g) - 1 in (2, 3):
                assert not brute_roots_mod_p(g, p), (g, p)


@pytest.mark.parametrize("p", [2, 3, 5, 13, 4099])
def test_roots_match_bruteforce(p):
    import random

    rng = random.Random(p + 1)
    for _ in range(10):
        deg = rng.randint(1, 5)
        poly = tuple(rng.randrange(p) for _ in range(deg)) + (1,)
        got = roots_in_fq(poly, PrimeField(p))
        if p <= 200:
            assert got == brute_roots_mod_p(poly, p)
        else:
            for r in got:
                assert evaluate(poly, r, PrimeField(p)) == 0


def test_factorization_determinism():
    poly = (1, 0, 0, 0, 0, 0, 1)  # X^6 + 1 mod 13
    assert factor_mod_p(poly, 13) == factor_mod_p(poly, 13)


def test_residue_field_f4():
    # F_4 = F_2[y]/(y^2+y+1).
    fq = residue_field(2, (1, 1, 1))
    assert fq.q == 4
    els = field_elements(fq)
    assert len(els) == 4
    y = fq.elem((0, 1))
    assert fq.mul(y, y) == fq.elem((1, 1))  # y^2 = y + 1
    assert fq.mul(y, fq.inv(y)) == (1,)
    # X^2 has exactly one root (0) in F_4.
    xx = (fq.zero, fq.zero, fq.one)
    assert count_roots_in_fq(xx, fq) == 1
    # X^4 - X splits completely: 4 roots.
    poly = [fq.zero, fq.sub(fq.zero, fq.one)] + [fq.zero] * 2 + [fq.one]
    assert count_roots_in_fq(tuple(poly), fq) == 4


def test_count_roots_vs_enumeration_f9():
    fq = residue_field(3, (1, 0, 1))  # F_9 = F_3[y]/(y^2+1)
    import random

    rng = random.Random(9)
    for _ in range(20):
        deg = rng.randint(1, 4)
        poly = tuple(
            fq.elem((rng.randrange(3), rng.randrange(3))) for _ in range(deg)
        ) + ((1,),)
        expected = sum(
            1
            for el in field_elements(fq)
            if evaluate(poly, el, fq) == (0,)
        )
        assert count_roots_in_fq(poly, fq) == expected
        got_roots = roots_in_fq(poly, fq)
        assert len(got_roots) == expected
        for r in got_roots:
            assert evaluate(poly, r, fq) == (0,)


# (p, modulus g) of F_2, F_3, F_4, F_8, F_9 and F_25; the degree-1 moduli
# are not y, so that the prime fields are not just the constants.
SMALL_FIELDS = [
    (2, (1, 1)),
    (3, (1, 1)),
    (2, (1, 1, 1)),
    (2, (1, 1, 0, 1)),
    (3, (1, 0, 1)),
    (5, (3, 0, 1)),
]


@pytest.mark.parametrize("p, g", SMALL_FIELDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_roots_in_fq_vs_enumeration(p, g, data):
    # cofactor * prod (X - r) with repeated roots: the count and the sorted
    # roots must match a scan of every element of F_q.
    fq = residue_field(p, g)
    els = field_elements(fq)
    pick = st.integers(0, len(els) - 1)
    cofactor = [els[i] for i in data.draw(st.lists(pick, max_size=3))]
    cofactor.append(els[data.draw(st.integers(1, len(els) - 1))])
    poly = tuple(cofactor)
    for i in data.draw(st.lists(pick, max_size=4)):
        poly = mul(poly, (fq.sub(fq.zero, els[i]), fq.one), fq)
    expected = sorted(el for el in els if evaluate(poly, el, fq) == fq.zero)
    assert count_roots_in_fq(poly, fq) == len(expected)
    assert roots_in_fq(poly, fq) == expected


def test_split_linear_char2_trace_zero_difference():
    # X(X+1) over F_4: the roots differ by 1, whose trace to F_2 is 0, so
    # splitting with X + s alone never separates them.
    fq = residue_field(2, (1, 1, 1))
    poly = (fq.zero, fq.one, fq.one)
    assert roots_in_fq(poly, fq) == [(0,), (1,)]


def test_split_linear_large_q():
    # Large prime field (as F_p[y]/(y-1)): exercises the trace-free
    # splitting path, q > 4096.
    p = 1000003
    fq = residue_field(p, (p - 1, 1))
    poly = (fq.elem((4 * (p - 1),)), fq.zero, fq.one)  # X^2 - 4
    assert roots_in_fq(poly, fq) == [2, p - 2]


def test_gcd_normalization():
    F = PrimeField(7)
    # 3(X+1) and 6(X^2+1) are coprime mod 7: (-1)^2 + 1 = 2.
    assert gcd((3, 3), (6, 0, 6), F) == (1,)
    # (X+1)(X+2) and (X+1)(X+3) share exactly X+1.
    assert gcd((2, 3, 1), (3, 4, 1), F) == (1, 1)
    assert gcd((4, 6, 2), (3, 4, 1), F) == (1, 1)


# The discriminant route for quadratics over odd F_p against the generic
# route it bypasses: squarefree decomposition, distinct-degree and
# equal-degree splitting, and gcd(X^p - X, f).


def generic_factor_mod_p(poly, p):
    F = PrimeField(p)
    f = monic(trim([c % p for c in poly], F), F)
    rng = _rng_for(f, F)
    return sorted((fac, mult) for sq, mult in _squarefree_decomposition(f, F)
                  for prod, d in _distinct_degree(sq, F)
                  for fac in _equal_degree_split(prod, d, F, rng))


def generic_roots(f, F):
    g = _linear_part(f, F)
    if len(g) == 1:
        return []
    return sorted(F.sub(0, h[0]) for h in _equal_degree_split(g, 1, F, _rng_for(g, F)))


def assert_routes_agree(poly, p, oracle):
    """factor_mod_p, count_roots_in_fq, roots_in_fq and is_separable on
    poly = (c, b, a) over F_p against the generic route.  `oracle` caches
    the generic results by monic form, the only thing they depend on."""
    F = PrimeField(p)
    f = trim([c % p for c in poly], F)
    if f == (0,):
        return
    key = monic(f, F)
    if key not in oracle:
        oracle[key] = (generic_roots(key, F), len(gcd(key, deriv(key, F), F)) == 1,
                       generic_factor_mod_p(key, p) if len(key) > 1 else None)
    roots, separable, factors = oracle[key]
    assert roots_in_fq(f, F) == roots, (poly, p)
    assert count_roots_in_fq(f, F) == len(roots), (poly, p)
    assert is_separable(f, F) == separable, (poly, p)
    if factors is not None:
        assert factor_mod_p(poly, p) == factors, (poly, p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_quadratic_route_every_coefficient_triple(p):
    # Every (a, b, c) mod p, so every discriminant class, p | a included.
    oracle = {}
    for a in range(p):
        for b in range(p):
            for c in range(p):
                assert_routes_agree((c, b, a), p, oracle)


# p - 1 divisible by 2^5, 2^6, 2^8, 2^9, 2^12 and 2^16, so that
# Tonelli-Shanks runs several rounds, and primes 3 mod 4.
@pytest.mark.parametrize("p", [97, 193, 257, 7681, 12289, 65537, 103, 4099, 131071, 1000003])
def test_quadratic_route_random(p):
    import random

    rng = random.Random(p)
    oracle = {}
    for _ in range(60):
        r, s = rng.randrange(p), rng.randrange(p)
        a = rng.randrange(1, p)
        # A split quadratic, a double root and a random one (irreducible
        # about half the time).
        for poly in ((a * r * s, -a * (r + s), a), (a * r * r, -2 * a * r, a),
                     (rng.randrange(p), rng.randrange(p), a)):
            assert_routes_agree(poly, p, oracle)
    F = PrimeField(p)
    for x in range(1, min(p, 200)):
        assert F.sqrt(x * x % p) in (x, p - x)


@pytest.mark.parametrize("min_poly", [[-1, -1, 1], [1, 0, 1], [-2, 0, 1]])
def test_prime_ideals_quadratic_route(monkeypatch, min_poly):
    # q_sqrt5, q_i and q_sqrt2; each field caches its split primes, so each
    # route gets a fresh one.
    def listed(field):
        return [(q.p, q.generator_poly, q.ramification) for q in prime_ideals(field, 10**4)]

    fast = listed(NumberField(min_poly))
    monkeypatch.setattr(fpoly, "factor_mod_p", generic_factor_mod_p)
    assert fast == listed(NumberField(min_poly))
