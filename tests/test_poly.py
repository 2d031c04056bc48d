import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fq_oracle import field_elements
from unitring.fpoly import residue_field
from unitring.poly import (
    QQ,
    PrimeField,
    _divmod,
    _gcd,
    _mulmod,
    _powmod,
    add,
    divmod,
    evaluate,
    gcd,
    mul,
    powmod,
    trim,
)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
@settings(max_examples=40, deadline=None)
@given(r=st.integers(-300, 300), c=st.lists(st.integers(-10**6, 10**6), max_size=6))
def test_degree_one_residue_field_elem(p, r, c):
    # F_p[y]/(y - r): reducing c(y) is evaluating it at r, and both are
    # the remainder of c mod (y - r).
    F = PrimeField(p)
    fq = residue_field(p, (-r, 1))
    assert isinstance(fq, PrimeField)
    value = evaluate(c, r, F)
    assert fq.elem(c) == value
    rem = divmod(trim([x % p for x in c] or [0], F), (-r % p, 1), F)[1]
    assert rem == (value,)


F9 = residue_field(3, (1, 0, 1))
FIELDS = {
    "F_7": (PrimeField(7), st.integers(0, 6)),
    "F_9": (F9, st.sampled_from(field_elements(F9))),
    "QQ": (QQ, st.fractions(min_value=-5, max_value=5, max_denominator=6)),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_divmod_and_gcd_properties(name, data):
    K, elems = FIELDS[name]
    polys = st.lists(elems, min_size=1, max_size=6).map(lambda c: trim(c, K))
    common = data.draw(polys)
    a = mul(data.draw(polys), common, K)
    b = mul(data.draw(polys), common, K)
    if b == (K.zero,):
        b, common = (K.one,), (K.one,)
    q, r = divmod(a, b, K)
    assert add(mul(q, b, K), r, K) == a
    assert r == (K.zero,) or len(r) < len(b)
    # Divisibility by the generic divmod, which is not F_7's kernel.
    g = gcd(a, b, K)
    assert g[-1] == K.one
    assert _divmod(K, a, g)[1] == (K.zero,)
    assert _divmod(K, b, g)[1] == (K.zero,)
    # A common factor of a and b divides their gcd.
    assert _divmod(K, g, common)[1] == (K.zero,)


def powmod_reference(base, e, m, K):
    """base^e mod m by right-to-left square and multiply, each product a
    generic mul followed by the generic divmod, so that no field's kernels
    take part."""
    result = (K.one,)
    base = _divmod(K, base, m)[1]
    while e:
        if e & 1:
            result = _divmod(K, mul(result, base, K), m)[1]
        e >>= 1
        base = _divmod(K, mul(base, base, K), m)[1]
    return result


def _nonresidue(p):
    return next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)


# F_4, F_9, F_{10007^2}, F_8 and F_27 for the ResidueField runs.
POWMOD_RESIDUE_FIELDS = [
    (2, (1, 1, 1)),
    (3, (1, 0, 1)),
    (10007, (10007 - _nonresidue(10007), 0, 1)),
    (2, (1, 1, 0, 1)),
    (3, (2, 2, 0, 1)),
]


def _draw_powmod_case(data, K, p, elem, degrees):
    """(base, e, m): a modulus of a degree drawn from `degrees`, monic or
    not, an exponent among 0, 1, p, q, (q - 1)/2 for q = |K|^deg m and
    random ones, and the base X, zero or a random polynomial of up to
    twice the modulus degree plus one coefficients."""
    deg = data.draw(degrees, label="deg m")
    lead = data.draw(st.just(K.one) | elem.filter(lambda c: c != K.zero), label="lead")
    m = tuple(data.draw(st.lists(elem, min_size=deg, max_size=deg), label="m")) + (lead,)
    q = K.q**deg
    e = data.draw(
        st.sampled_from([0, 1, p, q, (q - 1) // 2]) | st.integers(0, 2 * q), label="e"
    )
    x = (K.zero, K.one)
    random_base = st.lists(elem, min_size=1, max_size=2 * deg + 1).map(lambda c: trim(c, K))
    base = data.draw(st.just(x) | st.just((K.zero,)) | random_base, label="base")
    return base, e, m


# Moduli of degree 0 to 6 for the F_p kernels, with extra weight on the
# unrolled degree 2.
PRIME_FIELD_DEGREES = st.integers(0, 6) | st.just(2)


@pytest.mark.parametrize("p", [2, 3, 5, 10007, 2**31 - 1])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_powmod_prime_field_matches_generic(p, data):
    # The plain-int mulmod and powmod of PrimeField against the generic
    # routines that ResidueField and QQ use, run on the same field.
    K = PrimeField(p)
    base, e, m = _draw_powmod_case(data, K, p, st.integers(0, p - 1), PRIME_FIELD_DEGREES)
    a = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=8).map(lambda c: trim(c, K)))
    # mulmod first: a kernel that leaves coefficients unreduced fails here
    # at once, before powmod squares them into huge integers.
    assert K.mulmod(base, a, m) == _mulmod(K, base, a, m)
    # Operands below the modulus degree take the unrolled product.
    rb, ra = _divmod(K, base, m)[1], _divmod(K, a, m)[1]
    assert K.mulmod(rb, ra, m) == _mulmod(K, rb, ra, m)
    assert powmod(base, e, m, K) == _powmod(K, base, e, m) == powmod_reference(base, e, m, K)


@pytest.mark.parametrize("p", [2, 3, 5, 10007, 2**31 - 1])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_prime_field_divmod_gcd_match_generic(p, data):
    # The plain-int divmod and gcd of PrimeField against the generic
    # routines, on operands longer and shorter than the divisor, zero
    # among them, and on pairs with a common factor.
    K = PrimeField(p)
    _, _, m = _draw_powmod_case(data, K, p, st.integers(0, p - 1), PRIME_FIELD_DEGREES)
    polys = st.lists(st.integers(0, p - 1), min_size=1, max_size=9).map(lambda c: trim(c, K))
    a, b = data.draw(polys), data.draw(polys)
    assert divmod(a, m, K) == _divmod(K, a, m)
    assert gcd(a, b, K) == _gcd(K, a, b)
    am, bm = mul(a, m, K), mul(b, m, K)
    assert gcd(am, bm, K) == _gcd(K, am, bm)
    assert gcd(am, m, K) == gcd(m, am, K) == _gcd(K, m, am)


@pytest.mark.parametrize("m", [(0,), (1, 5), (1, 2, 10), (1, 2, 3, 5)])
@pytest.mark.parametrize("a, b", [((1,), (1,)), ((1, 2), (1, 2)), ((1, 2, 3, 4), (4,))])
def test_prime_field_kernels_refuse_a_zero_leading_coefficient(m, a, b):
    # Each modulus has leading coefficient 0 mod 5; every kernel refuses
    # it alike, whatever the operand lengths and the exponent.
    K = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        K.mulmod(a, b, m)
    with pytest.raises(ZeroDivisionError):
        divmod(a, m, K)
    for e in (0, 1, 7):
        with pytest.raises(ZeroDivisionError):
            powmod(a, e, m, K)


@pytest.mark.parametrize("p, g", POWMOD_RESIDUE_FIELDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_powmod_residue_field_matches_generic(p, g, data):
    fq = residue_field(p, g)
    coeffs = st.lists(st.integers(0, p - 1), min_size=fq.f, max_size=fq.f)
    elem = coeffs.map(fq.elem)
    base, e, m = _draw_powmod_case(data, fq, p, elem, st.integers(1, 3))
    assert powmod(base, e, m, fq) == powmod_reference(base, e, m, fq)
