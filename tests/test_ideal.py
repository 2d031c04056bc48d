import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unitring.density import (
    DensityParams,
    SievePolynomial,
    bad_reduction_primes,
    euler_density,
    root_count,
)
from unitring.field import NumberField
from unitring.fieldspec import load_field_spec
from unitring.ideal import (
    IdealLattice,
    NonMonogenicError,
    PrimeIdealData,
    ResidueCapError,
    element_is_mfree,
    element_valuation,
    is_mfree,
    iter_ideals,
    mobius,
    power_basis_index,
    prime_power,
    split_prime,
)
from unitring.intfactor import prime_table
from unitring.order import SubOrder


@pytest.fixture(scope="module")
def q5():
    return NumberField([-1, -1, 1], name="Q(sqrt5)")


@pytest.fixture(scope="module")
def q5_ideals_200(q5):
    return iter_ideals(q5, 200)


def test_norm_examples(q5):
    assert IdealLattice.unit_ideal(q5).norm == 1
    assert IdealLattice.from_integer(q5, 2).norm == 4
    sqrt5 = 2 * q5.theta - q5.one
    assert IdealLattice.principal(sqrt5).norm == 5


def test_zero_ideal_rejected(q5):
    with pytest.raises(ValueError):
        IdealLattice.principal(q5.zero)
    with pytest.raises(ValueError):
        IdealLattice.from_integer(q5, 0)


def test_splitting_examples(q5):
    # (5) ramifies: X^2 - X - 1 == (X+2)^2 mod 5.
    fac5 = IdealLattice.from_integer(q5, 5).factor()
    assert len(fac5) == 1 and fac5[0][1] == 2
    assert fac5[0][0].residue_degree == 1 and fac5[0][0].ramification == 2
    # (2) inert.
    fac2 = IdealLattice.from_integer(q5, 2).factor()
    assert len(fac2) == 1 and fac2[0][1] == 1
    assert fac2[0][0].residue_degree == 2
    # (11) splits: X^2 - X - 1 == (X-4)(X-8) mod 11.
    fac11 = IdealLattice.from_integer(q5, 11).factor()
    assert len(fac11) == 2 and all(e == 1 for _, e in fac11)
    assert all(pid.norm == 11 for pid, _ in fac11)
    gens = sorted(pid.generator_poly for pid, _ in fac11)
    assert gens == [(3, 1), (7, 1)]  # X-8 = X+3, X-4 = X+7 mod 11


def test_norm_multiplicativity_up_to_500(q5):
    ideals = iter_ideals(q5, 22)
    for a in ideals:
        for b in ideals:
            if a.norm * b.norm <= 500:
                assert (a * b).norm == a.norm * b.norm


def test_mobius_sum_up_to_200(q5, q5_ideals_200):
    # sum_{a | b} mu(a) = [b == (1)], over every ideal b of norm <= 200.
    for b in q5_ideals_200:
        fac = b.factor()
        divisor_sum = 0

        def rec(idx, current):
            nonlocal divisor_sum
            if idx == len(fac):
                divisor_sum += mobius(current)
                return
            pid, e = fac[idx]
            cur = current
            for k in range(e + 1):
                rec(idx + 1, cur)
                if k < e:
                    cur = cur * pid.ideal

        rec(0, IdealLattice.unit_ideal(b.field))
        assert divisor_sum == (1 if b.is_unit_ideal() else 0), f"b norm {b.norm}"


def test_mobius_examples(q5):
    assert mobius(IdealLattice.unit_ideal(q5)) == 1
    p2 = split_prime(q5, 2)[0]
    assert mobius(p2.ideal) == -1
    assert mobius(IdealLattice.from_integer(q5, 5)) == 0
    assert mobius(IdealLattice.from_integer(q5, 11)) == 1  # two distinct primes


def test_mfree_examples(q5):
    th = q5.theta
    assert not is_mfree(IdealLattice.from_integer(q5, 4), 2)
    # Element of norm -19: theta^2 - 4*(2 + sqrt5).
    eta = q5.rational(2) + (2 * th - q5.one)
    val = th * th - 4 * eta
    assert val.norm() == -19
    assert is_mfree(IdealLattice.principal(val), 2)
    assert not is_mfree(IdealLattice.from_integer(q5, 5), 2)
    assert is_mfree(IdealLattice.from_integer(q5, 5), 3)
    assert element_is_mfree(val, 2)
    assert not element_is_mfree(q5.rational(2) * q5.rational(2), 2)


@pytest.fixture(scope="module")
def qi():
    return NumberField([1, 0, 1], name="Q(i)")


@settings(max_examples=200, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(0, 5), st.integers(0, 2),
       st.sampled_from([2, 3]))
def test_element_is_mfree_matches_factor_gaussian(qi, a, b, k, j, m):
    # 2 ramifies in Z[i]: (1 + i)^k plants P^k above 2, and 3^j (3 is inert)
    # plants a prime of residue degree 2.
    val = qi.element((a, b)) * (qi.one + qi.theta) ** k * qi.rational(3**j)
    assume(not val.is_zero())
    expected = all(e < m for _, e in IdealLattice.principal(val).factor())
    assert element_is_mfree(val, m) == expected


def test_element_valuation(q5):
    p5 = split_prime(q5, 5)[0]
    sqrt5 = 2 * q5.theta - q5.one
    assert element_valuation(sqrt5, p5) == 1
    assert element_valuation(q5.rational(5), p5) == 2
    assert element_valuation(q5.rational(25), p5) == 4
    assert element_valuation(q5.one, p5) == 0


def test_fixed_divisor_examples(q5):
    # An ideal a is a fixed divisor of f exactly when every residue mod a
    # is a root, i.e. L(a) = N(a).
    th = q5.theta
    two = IdealLattice.from_integer(q5, 2)
    unit = IdealLattice.unit_ideal(q5)
    # f = X^2 - 4 theta: f(1) = 1 - 4 theta is odd.
    f1 = SievePolynomial.x_squared_minus(4 * th)
    assert root_count(f1, unit) == unit.norm
    assert root_count(f1, two) < two.norm
    # f = X^2 - X + 2 theta, which is X^2 - X mod 2: f(theta) = 1 + 2 theta.
    f2 = SievePolynomial([2 * th, -q5.one, q5.one])
    assert root_count(f2, two) < two.norm


def test_residue_systems(q5):
    two = IdealLattice.from_integer(q5, 2)
    res = list(two.residues())
    assert len(res) == 4
    assert len({two.reduce(r).coords for r in res}) == 4
    with pytest.raises(ResidueCapError):
        list(IdealLattice.from_integer(q5, 2000).residues())  # norm 4 * 10**6


def test_power_basis_index(q5):
    assert power_basis_index(q5) == 1
    alt = NumberField(
        [-5, 0, 1],
        integral_basis=[[1, 0], [__import__("fractions").Fraction(1, 2),
                                 __import__("fractions").Fraction(1, 2)]],
    )
    assert power_basis_index(alt) == 2
    with pytest.raises(NonMonogenicError):
        split_prime(alt, 2)
    # Odd primes are coprime to the index and must split fine.
    assert len(split_prime(alt, 11)) == 2


def test_factorization_deterministic(q5):
    a = IdealLattice.from_integer(q5, 44)  # 4 * 11
    f1 = [(pid.sort_key(), e) for pid, e in a.factor()]
    b = IdealLattice.from_integer(q5, 44)
    f2 = [(pid.sort_key(), e) for pid, e in b.factor()]
    assert f1 == f2


def test_ideal_sum_and_coprime(q5):
    p11a, p11b = [pid.ideal for pid, _ in IdealLattice.from_integer(q5, 11).factor()]
    assert p11a.is_coprime(p11b)
    assert not p11a.is_coprime(p11a)
    assert (p11a + p11b).is_unit_ideal()


def test_iter_ideals_complete(q5, q5_ideals_200):
    # Ideal counts by norm must match the Dedekind zeta coefficients:
    # a_n = #{ideals of norm n}; multiplicative; for Q(sqrt5):
    # split p (p = +-1 mod 5): a_{p^k} = k+1; inert: a_{p^2k} = 1;
    # ramified 5: a_{5^k} = 1.
    from collections import Counter

    counts = Counter(a.norm for a in q5_ideals_200)
    assert counts[1] == 1
    assert counts[4] == 1 and counts[2] == 0  # 2 inert
    assert counts[5] == 1 and counts[25] == 1
    assert counts[11] == 2 and counts[121] == 3
    assert counts[19] == 2
    assert counts[9] == 1  # 3 inert
    assert counts[44] == 2  # 4 * 11: 1 * 2


# Fresh fields, so that no prime of theirs has been split or built yet.
LAZY_FIELDS = {
    "q_sqrt5": lambda: load_field_spec("q_sqrt5").field,
    "q_i": lambda: load_field_spec("q_i").field,
    "cubic-23": lambda: NumberField([-1, -1, 0, 1], name="cubic-23"),
}


@pytest.mark.parametrize("name", sorted(LAZY_FIELDS))
def test_lazy_prime_ideals_match_kummer_dedekind(name):
    # split_prime builds no HNF; each prime's lazily built ideal is
    # (p, g(theta)) of norm p^f, and the primes above p multiply back to
    # (p) with their ramification indices.
    field = LAZY_FIELDS[name]()
    idx = power_basis_index(field)
    for p in prime_table(2999):
        if idx % p == 0:
            continue
        primes = split_prime(field, p)
        assert all(pid._ideal is None for pid in primes)
        assert sum(pid.ramification * pid.residue_degree for pid in primes) == field.degree
        product = IdealLattice.unit_ideal(field)
        for pid in primes:
            gen = field.from_theta_poly(pid.generator_poly)
            expected = IdealLattice.from_generators(field, [field.rational(p), gen])
            assert pid.ideal == expected
            assert pid.ideal.norm == p**pid.residue_degree
            product = product * pid.ideal**pid.ramification
        assert product == IdealLattice.from_integer(field, p)


@pytest.mark.parametrize("name", sorted(LAZY_FIELDS))
def test_valuation_at_matches_element_valuation(name):
    # The ideal route (containment of the ideal in P^k) and the element
    # route (membership of the element in P^k) agree on principal ideals,
    # and the powers cached on each prime are the ideal powers.
    field = LAZY_FIELDS[name]()
    primes = [pid for p in (2, 3, 5, 7, 11) for pid in split_prime(field, p)]
    for pid in primes:
        for k in range(1, 4):
            assert prime_power(pid, k) == pid.ideal**k
        assert pid._powers[0] is pid.ideal
    for coords in itertools.product(range(-3, 4), repeat=field.degree):
        if not any(coords):
            continue
        alpha = field.element(coords) * field.rational(12)
        ideal = IdealLattice.principal(alpha)
        for pid in primes:
            assert ideal.valuation_at(pid) == element_valuation(alpha, pid)


def test_euler_density_builds_only_excluded_and_bad_prime_ideals():
    field = LAZY_FIELDS["q_sqrt5"]()
    poly = SievePolynomial.x_squared_minus(4 * field.element((0, 1)))
    excluded = tuple(split_prime(field, 11))
    params = DensityParams(order=SubOrder.maximal(field), poly=poly, excluded=excluded, m=2)
    euler_density(params, 10**4)
    allowed = set(excluded) | bad_reduction_primes(poly)
    primes = [pid for above in field._prime_cache.values() for pid in above]
    assert len(primes) > 1000
    built = {pid for pid in primes if pid._ideal is not None}
    assert built and built <= allowed


def test_prime_ideal_identity_builds_no_ideal(q5):
    other = NumberField([-1, -1, 1], name="Q(sqrt5)")
    split = split_prime(q5, 11) + split_prime(q5, 19)
    twins = [PrimeIdealData(q5, pid.p, pid.generator_poly, pid.ramification) for pid in split]
    strangers = [PrimeIdealData(other, pid.p, pid.generator_poly, pid.ramification) for pid in split]
    assert twins == split and [hash(a) for a in twins] == [hash(a) for a in split]
    assert all(a != b for a, b in zip(split, strangers))
    assert split[0] != split[1] and split[0] in set(twins)
    assert sorted(reversed(twins), key=PrimeIdealData.sort_key) == split
    assert all(pid._ideal is None for pid in twins + strangers)


def test_prime_ideal_with_wrong_generator_fails_norm_check(q5):
    # theta + 1 is no root of X^2 - X - 1 mod 11: (11, theta + 1) is the unit
    # ideal, whose norm is not 11.
    pid = PrimeIdealData(q5, 11, (1, 1), 1)
    assert pid == PrimeIdealData(q5, 11, (1, 1), 1)
    with pytest.raises(ArithmeticError):
        pid.ideal


def test_split_prime_rejects_factors_that_do_not_multiply_back(monkeypatch):
    # Right degrees, wrong factor: X + 1 does not divide X^2 - X - 1 mod 11,
    # whose roots are 4 and 8.  The degree sum alone would pass this.
    field = LAZY_FIELDS["q_sqrt5"]()
    monkeypatch.setattr("unitring.ideal.fpoly.factor_mod_p", lambda poly, p: [((1, 1), 1), ((3, 1), 1)])
    with pytest.raises(ArithmeticError):
        split_prime(field, 11)
