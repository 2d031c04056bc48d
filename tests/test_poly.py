import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitring.fpoly import residue_field
from unitring.poly import QQ, PrimeField, add, divmod, evaluate, gcd, mul, trim


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
    "F_9": (F9, st.sampled_from(list(F9.iter_elements()))),
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
    g = gcd(a, b, K)
    assert g[-1] == K.one
    assert divmod(a, g, K)[1] == (K.zero,)
    assert divmod(b, g, K)[1] == (K.zero,)
    # A common factor of a and b divides their gcd.
    assert divmod(g, common, K)[1] == (K.zero,)
