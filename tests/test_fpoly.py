import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitring.fpoly import (
    count_roots_in_fq,
    factor_mod_p,
    residue_field,
    roots_in_fq,
)
from unitring.poly import PrimeField, evaluate, gcd, mul


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
    els = list(fq.iter_elements())
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
            for el in fq.iter_elements()
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
    els = list(fq.iter_elements())
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
