import os
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from order_oracle import root_count_order_crt
from unitring.field import NumberField
from unitring.geometry import FloatRegionFilter, RegionBox, region_runs
from unitring.ideal import (
    IdealLattice,
    NonMonogenicError,
    PrimeIdealData,
    ResidueCapError,
    split_prime,
)
from unitring.intfactor import prime_table
from unitring.poly import trim
from unitring.order import SubOrder
from unitring import cli, density
from unitring.density import (
    _poly_discriminant_element,
    _reduce_to_residue_field,
    DensityParams,
    FixedDivisorError,
    GapReport,
    HypothesisError,
    SieveInputError,
    SievePolynomial,
    bad_reduction_primes,
    check_hypotheses,
    conductor_sum,
    count_roots_prime_power,
    density_gap_check,
    empirical_count,
    empirical_count_oracle,
    error_exponent,
    euler_density,
    find_fixed_divisor_mth_power,
    local_product,
    mfree_threshold,
    root_count,
    root_count_bruteforce,
    root_count_order_bruteforce,
    run_norms,
    run_values,
    value_at,
    with_conductor_support,
)


@pytest.fixture(scope="module")
def q5():
    return NumberField([-1, -1, 1], name="Q(sqrt5)")


@pytest.fixture(scope="module")
def f_theta(q5):
    return SievePolynomial.x_squared_minus(4 * q5.theta)


@pytest.fixture(scope="module")
def eta(q5):
    return q5.rational(2) + (2 * q5.theta - q5.one)


@pytest.fixture(scope="module")
def f_eta(eta):
    return SievePolynomial.x_squared_minus(4 * eta)


@pytest.fixture(scope="module")
def z_sqrt5(q5):
    return SubOrder(q5, [(1, 0), (-1, 2)])


def test_sieve_polynomial_validation(q5, z_sqrt5):
    th = q5.theta
    with pytest.raises(ValueError):
        SievePolynomial([q5.one])  # degree 0
    maximal = SubOrder.maximal(q5)
    # Any degree is a polynomial; the sieve takes only a certified one.
    cubic = SievePolynomial([-th, q5.zero, q5.zero, q5.one])
    assert cubic.degree == 3
    with pytest.raises(SieveInputError,
                       match="no certificate of irreducibility for degree above 2"):
        DensityParams(order=maximal, poly=cubic, excluded=(), m=2)
    # X^2 - (theta+1) is reducible: theta+1 = theta^2.  Irreducibility is
    # decided first: theta + 1 lies outside Z[sqrt5], m = 1 is below the
    # threshold and the conductor support is not excluded.
    reducible = SievePolynomial([-(th + q5.one), q5.zero, q5.one])
    for order, m in ((maximal, 2), (z_sqrt5, 1)):
        with pytest.raises(SieveInputError,
                           match="quadratic is reducible: discriminant is a square"):
            DensityParams(order=order, poly=reducible, excluded=(), m=m)
    with pytest.raises(SieveInputError, match="coefficients in the order"):
        DensityParams(order=z_sqrt5, poly=SievePolynomial([-th, q5.zero, q5.one]), excluded=(), m=1)
    line = SievePolynomial([-q5.one, q5.one])
    assert DensityParams(order=maximal, poly=line, excluded=(), m=2).poly is line
    f = SievePolynomial.x_squared_minus(4 * th)
    assert f.degree == 2
    assert f(q5.one) == q5.one - 4 * th
    # Zero leading coefficients are trimmed before the degree is read.
    padded = SievePolynomial([-4 * th, q5.zero, q5.one, q5.zero, q5.zero])
    assert padded.degree == 2 and padded.coeffs == f.coeffs


def test_root_count_spec_examples(q5, f_theta):
    two = IdealLattice.from_integer(q5, 2)
    assert root_count(f_theta, two) == 1  # f == X^2 mod the inert (2)
    assert root_count(f_theta, two * two) == 4
    assert root_count(f_theta, IdealLattice.unit_ideal(q5)) == 1


def test_root_count_matches_bruteforce_to_200(q5, f_theta):
    from unitring.ideal import iter_ideals

    for a in iter_ideals(q5, 200):
        fast = root_count(f_theta, a)
        slow = root_count_bruteforce(f_theta, a)
        assert fast == slow, f"L mismatch at norm {a.norm}"


def test_root_count_hensel_vs_brute_prime_powers(q5, f_theta, f_eta):
    # Powers where Hensel lifting actually engages, against brute force.
    # N(3 + theta) = 11: f-bar = X^2 is inseparable at the prime (3 + theta).
    f_11 = SievePolynomial.x_squared_minus(4 * (q5.theta + q5.rational(3)))
    for f in (f_theta, f_eta, f_11):
        for p in (2, 3, 5, 11, 19):
            for pid in split_prime(q5, p):
                for e in (1, 2, 3):
                    if pid.norm**e > 10**6:
                        continue
                    fast = count_roots_prime_power(f, pid, e)
                    target = pid.ideal**e
                    slow = root_count_bruteforce(f, target)
                    assert fast == slow, (p, e)


def test_root_count_order_examples(q5, f_eta, z_sqrt5):
    two = IdealLattice.from_integer(q5, 2)
    assert root_count_order_bruteforce(f_eta, two, SubOrder.maximal(q5)) == root_count(f_eta, two)
    assert root_count_order_bruteforce(f_eta, two, z_sqrt5) == 1  # residues {0,1}: only 0
    assert root_count_order_bruteforce(f_eta, IdealLattice.unit_ideal(q5), z_sqrt5) == 1
    assert root_count_order_crt(f_eta, two, z_sqrt5) == 1


def test_root_count_order_when_contractions_meet(q5):
    # In O = Z + 11 O_K both primes above 11 contract to the one order
    # prime 11 O_K, so the prime-power parts of a = P P' are not comaximal
    # in O and form one CRT group: L_O(a) = 2, where the product over the
    # parts would give 4.
    order = SubOrder(q5, [(1, 0), (0, 11)])
    f = SievePolynomial.x_squared_minus(4 * q5.element((3, 11)))
    p, p_conj = split_prime(q5, 11)
    a = p.ideal * p_conj.ideal
    assert [order.contract(q.ideal)[0] for q in (p, p_conj)] == [((11, 0), (0, 11))] * 2
    assert root_count_order_crt(f, a, order) == root_count_order_bruteforce(f, a, order) == 2


def test_root_count_order_le_root_count(q5, f_eta, z_sqrt5):
    from unitring.ideal import iter_ideals

    for a in iter_ideals(q5, 60):
        assert root_count_order_bruteforce(f_eta, a, z_sqrt5) <= root_count(f_eta, a)


def test_order_multiplicativity_crt(q5, f_eta, z_sqrt5):
    # CRT over the order primes against brute force on the whole ideal, also
    # where several O_K primes lie over one order prime (q5 at 11, Q(i) at 5).
    from unitring.ideal import iter_ideals

    for a in iter_ideals(q5, 200):
        crt = root_count_order_crt(f_eta, a, z_sqrt5)
        brute = root_count_order_bruteforce(f_eta, a, z_sqrt5)
        assert crt == brute, f"L_O mismatch at norm {a.norm}"

    qi = NumberField([1, 0, 1], name="Q(i)")
    for field, cs in ((q5, (11, 30, 77)), (qi, (5, 10))):
        ideals = iter_ideals(field, 130)
        for c in cs:
            order, f = _z_plus(field, c)
            for a in ideals:
                crt = root_count_order_crt(f, a, order)
                assert crt == root_count_order_bruteforce(f, a, order), (field.name, c, a.norm)


def test_mfree_threshold():
    assert mfree_threshold(1) == 2
    assert mfree_threshold(2) == 2
    assert mfree_threshold(3) == 3
    assert mfree_threshold(4) == 4
    assert mfree_threshold(5) == 5
    assert mfree_threshold(6) == 6


def test_error_exponent_examples():
    assert error_exponent(2, 2, 2) == (1, Fraction(10, 11), Fraction(1, 22), Fraction(1, 22))
    assert error_exponent(2, 2, 4) == (2, Fraction(7, 12), Fraction(1, 3), Fraction(1, 3))
    with pytest.raises(ValueError):
        error_exponent(2, 2, 1)


def test_error_exponent_full_grid():
    for g in range(1, 7):
        for m in range(mfree_threshold(g), g + 4):
            l, c, eps, u = error_exponent(2, g, m)
            assert u > 0
            assert Fraction(1, m) <= c < 1 - eps
            assert 0 < eps <= Fraction(1, 2)
            if m <= g + 1:
                lhs = 1 + Fraction(g, 2 * l + 1) - c * Fraction(
                    (m - l) * (g + 2 * l + 1), g * (2 * l + 1)
                )
                assert lhs <= c
            for n in (2, 3, 5):
                _, _, eps_n, u_n = error_exponent(n, g, m)
                assert eps_n <= Fraction(1, n) and u_n > 0


def test_fixed_divisor_detection(q5):
    th = q5.theta
    f = SievePolynomial.x_squared_minus(4 * th)
    assert find_fixed_divisor_mth_power(f, 2) is None
    # 4(X^2 + X + 1): every value lands in (4) = (2)^2, a fixed divisor.
    g = SievePolynomial([q5.rational(4), q5.rational(4), q5.rational(4)])
    w = find_fixed_divisor_mth_power(g, 2)
    assert w is not None and w.p == 2
    with pytest.raises(FixedDivisorError):
        DensityParams(order=SubOrder.maximal(q5), poly=g, excluded=(), m=2)


def test_fixed_divisor_below_the_mth_power():
    # X^2 - X + 2 over Q(i): alpha (alpha - 1) lies in P = (1 + i), whose
    # residue field is F_2, so every value lies in P; f(0) = 2 lies in
    # P^2 = (2) but f(i) = 1 - i does not.  The sample gcd is P, with
    # exponent 1 < m, so the search ends without a witness.
    qi = NumberField([1, 0, 1])
    f = SievePolynomial([qi.rational(2), -qi.one, qi.one])
    (pid,) = split_prime(qi, 2)
    assert all(pid.ideal.contains(f(qi.element(v))) for v in ((0, 0), (1, 0), (0, 1), (1, 1)))
    assert not IdealLattice.from_integer(qi, 2).contains(f(qi.theta))
    assert count_roots_prime_power(f, pid, 2) < pid.norm**2
    assert find_fixed_divisor_mth_power(f, 2) is None
    DensityParams(order=SubOrder.maximal(qi), poly=f, excluded=(), m=2)


def test_euler_density_zero_witness_path(q5):
    # Bypass parameter validation to reach the Euler product itself:
    # 4(X^2+X+1) has (2)^2 as a fixed divisor, so the local factor at the
    # inert (2) vanishes and the product reads D = [0, 0].
    g = SievePolynomial([q5.rational(4), q5.rational(4), q5.rational(4)])
    params = DensityParams.__new__(DensityParams)
    object.__setattr__(params, "order", SubOrder.maximal(q5))
    object.__setattr__(params, "poly", g)
    object.__setattr__(params, "excluded", ())
    object.__setattr__(params, "m", 2)
    rep = euler_density(params, 50)
    assert rep.d_lower == rep.d_upper == 0


def test_fixed_divisor_beyond_the_residue_cap(q5):
    # 37^2 (X^2 + X + 1): (37) is inert, so (37)^2 has 37^4 > 10^6 residues
    # and every value lies in it; the fixed divisor must be found all the same.
    c = q5.rational(37**2)
    g = SievePolynomial([c, c, c])
    p37 = split_prime(q5, 37)[0]
    assert p37.residue_degree == 2
    assert count_roots_prime_power(g, p37, 2) == 37**4
    assert find_fixed_divisor_mth_power(g, 2) == p37
    with pytest.raises(FixedDivisorError):
        DensityParams(order=SubOrder.maximal(q5), poly=g, excluded=(), m=2)


def test_degenerate_hensel_lift_hits_the_residue_cap(q5):
    # At the inert P above 1000003, X^2 - 4 * 1000003 theta reduces to X^2,
    # whose double root 0 has N(P) = 1000003^2 candidate lifts mod P^2.
    p = 1000003
    f = SievePolynomial.x_squared_minus(4 * p * q5.theta)
    (pid,) = split_prime(q5, p)
    assert pid.residue_degree == 2
    with pytest.raises(ResidueCapError):
        count_roots_prime_power(f, pid, 2)


def test_density_params_validation(q5, f_eta, z_sqrt5):
    ps2 = tuple(split_prime(q5, 2))
    DensityParams(order=z_sqrt5, poly=f_eta, excluded=ps2, m=2)
    with pytest.raises(ValueError):
        DensityParams(order=z_sqrt5, poly=f_eta, excluded=(), m=2)  # misses conductor
    with pytest.raises(ValueError):
        DensityParams(order=z_sqrt5, poly=f_eta, excluded=ps2, m=1)  # below threshold


def test_conductor_sum_examples(q5, f_theta, f_eta, z_sqrt5):
    okp = DensityParams(order=SubOrder.maximal(q5), poly=f_theta, excluded=(), m=2)
    assert conductor_sum(okp) == 1
    ps2 = tuple(split_prime(q5, 2))
    op = DensityParams(order=z_sqrt5, poly=f_eta, excluded=ps2, m=2)
    assert conductor_sum(op) == Fraction(1, 2)


def conductor_sum_by_subsets(params):
    """The conductor sum as its definition reads: mu(a) L_O(a) / [O : a cap O]
    summed over the products a of the subsets of the conductor support,
    each L_O(a) a brute-force walk over the whole of O/(a cap O)."""
    order, poly = params.order, params.poly
    support = order.conductor_support()
    total = Fraction(0)
    for mask in range(1 << len(support)):
        a = IdealLattice.unit_ideal(params.field)
        for i, pid in enumerate(support):
            if mask >> i & 1:
                a = a * pid.ideal
        _, idx = order.contract(a)
        total += Fraction((-1) ** bin(mask).count("1")
                          * root_count_order_bruteforce(poly, a, order), idx)
    return total


def _z_plus(field, c):
    """The order Z + c O_K, with the sieve polynomial X^2 - 4 (1 + c theta)."""
    n = field.degree
    order = SubOrder(field, [[1] + [0] * (n - 1)]
                     + [[0] * i + [c] + [0] * (n - 1 - i) for i in range(1, n)])
    return order, SievePolynomial.x_squared_minus(4 * (field.one + c * field.theta))


def test_conductor_sum_product_identity(q5, z_sqrt5):
    # Proof identity: the divisor sum collapses to the order's local product
    # prod (1 - L_O(p) / [O : p]) over the order primes p above f.  In five
    # of these orders two O_K primes lie over one order prime: q5 at 11 and
    # 77, Q(i) at 5, 10 and 30.
    from unitring.order import order_primes_over_conductor

    qi = NumberField([1, 0, 1], name="Q(i)")
    k3 = NumberField([-1, -1, 0, 1], name="cubic-23")
    cases = [_z_plus(q5, c) for c in (2, 3, 6, 10, 11, 30, 77, 210)]
    cases += [(z_sqrt5, SievePolynomial.x_squared_minus(4 * eta))
              for eta in (q5.element((1, 2)), q5.element((-3, 2)))]
    cases += [_z_plus(qi, c) for c in (2, 5, 6, 10, 30)]
    cases += [_z_plus(k3, c) for c in (2, 3, 6)]
    shared = 0
    for order, f in cases:
        params = DensityParams(order=order, poly=f,
                               excluded=with_conductor_support(order, ()), m=2)
        lhs = conductor_sum(params)
        assert lhs == conductor_sum_by_subsets(params), order.basis_hnf
        rhs = Fraction(1)
        primes = order_primes_over_conductor(order)
        for _rows, idx, fac in primes:
            pid = fac[0][0]
            rhs *= 1 - Fraction(root_count_order_crt(f, pid.ideal, order), idx)
        assert lhs == rhs, order.basis_hnf
        shared += len(primes) < len(order.conductor_support())
    assert shared == 5


def test_local_factor_example(q5, f_theta):
    pid2 = split_prime(q5, 2)[0]
    l_val = count_roots_prime_power(f_theta, pid2, 2)
    assert 1 - Fraction(l_val, pid2.norm**2) == Fraction(3, 4)


def test_bad_reduction_primes(q5, f_theta):
    bad = bad_reduction_primes(f_theta)
    # disc(X^2 - 4 theta) = 16 theta, supported at (2) only (theta is a unit).
    assert {pid.p for pid in bad} == {2}


def test_bad_reduction_primes_hold_the_leading_coefficient():
    # lead(f) divides Res(f, f') = -a (b^2 - 4ac), so the support of
    # Res(f, f') alone holds every prime of the leading coefficient.
    cases = 0
    for min_poly in ([-1, -1, 1], [-2, 0, 1], [1, 0, 1], [-1, -1, 0, 1], [1, 0, 0, 0, 1]):
        field = NumberField(min_poly)
        th, one = field.theta, field.one
        for a in (2 * one, 3 * one, 6 * one, one + th, one):
            for b, c in ((one, th), (th, one), (field.zero, 3 * one + th), (one, 2 * th - one)):
                poly = SievePolynomial([c, b, a])
                res = -(a * (b * b - 4 * (a * c)))
                want = {pid for x in (a, res) for pid, _ in IdealLattice.principal(x).factor()}
                assert bad_reduction_primes(poly) == want, (min_poly, a, b, c)
                cases += 1
    assert cases == 100


coords3 = st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(-1, -1, 1), (1, 0, 1), (-1, -1, 0, 1)]), coords3, coords3, coords3)
def test_poly_discriminant_element_quadratic(min_poly, ca, cb, cc):
    # Res(f, f') = -a (b^2 - 4ac) for f = aX^2 + bX + c over O_K.
    field = NumberField(min_poly)
    n = field.degree
    a, b, c = (field.element(x[:n]) for x in (ca, cb, cc))
    assume(not a.is_zero())
    poly = SievePolynomial([c, b, a])
    assert _poly_discriminant_element(poly) == -(a * (b * b - 4 * (a * c)))


DIFF_FIELDS = {
    "q_sqrt5": [-1, -1, 1],
    "q_sqrt2": [-2, 0, 1],
    "q_i": [1, 0, 1],
    "cubic-23": [-1, -1, 0, 1],
}


@pytest.fixture(scope="module")
def diff_fields():
    return {name: NumberField(min_poly, name=name) for name, min_poly in DIFF_FIELDS.items()}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(DIFF_FIELDS)), coords3, coords3, coords3,
       st.sampled_from((1, 2, 3)), st.data())
def test_root_count_prime_powers_differential(diff_fields, name, ca, cb, cc, e, data):
    # aX^2 + bX + c against brute force mod P^e.  P runs over primes above
    # 2 and 3 and above small divisors of N(a) N(b^2 - 4ac), so both the
    # separable gcd count and the inseparable lifting route are exercised.
    field = diff_fields[name]
    n = field.degree
    a, b, c = (field.element(x[:n]) for x in (ca, cb, cc))
    assume(not a.is_zero())
    poly = SievePolynomial([c, b, a])
    bad = a.norm() * (b * b - 4 * (a * c)).norm()
    pids = [
        pid
        for p in (2, 3, 5, 7, 11, 13)
        if p <= 3 or bad % p == 0
        for pid in split_prime(field, p)
        if pid.norm**e <= 2000
    ]
    pid = data.draw(st.sampled_from(pids))
    assert count_roots_prime_power(poly, pid, e) == root_count_bruteforce(poly, pid.ideal**e)


@pytest.mark.parametrize("p", [2, 3, 11, 19])
def test_root_count_simple_root_of_inseparable_reduction(q5, p):
    # X^3 - X^2 + c with c in P reduces to X^2 (X - 1): the double root 0
    # is lifted by brute force and the simple root 1 lifts uniquely.
    th = q5.theta
    for c in (q5.rational(p), p * th, q5.rational(p * p), p * (q5.one + th)):
        poly = SievePolynomial([c, q5.zero, -q5.one, q5.one])
        for pid in split_prime(q5, p):
            for e in (2, 3):
                assert count_roots_prime_power(poly, pid, e) == root_count_bruteforce(
                    poly, pid.ideal**e)


def test_euler_density_nested_intervals(q5, f_theta):
    params = DensityParams(order=SubOrder.maximal(q5), poly=f_theta, excluded=(), m=2)
    r100 = euler_density(params, 100)
    r500 = euler_density(params, 500)
    r2000 = euler_density(params, 2000)
    assert r100.d_lower <= r500.d_lower <= r2000.d_lower
    assert r2000.d_upper <= r500.d_upper <= r100.d_upper
    assert r2000.d_lower < r2000.d_upper
    assert r500.width < r100.width


@pytest.mark.parametrize("T", [-5, 0, 1, 2])
def test_euler_density_refuses_small_truncation(q5, f_theta, T):
    # The tail [1 - n g T^(1-m) / (m-1), 1] needs T >= 1 and a positive
    # lower end: n g = 4 and m = 2 refuse every T <= 4 alike.
    params = DensityParams(order=SubOrder.maximal(q5), poly=f_theta, excluded=(), m=2)
    with pytest.raises(SieveInputError, match="truncation"):
        euler_density(params, T)


def test_euler_density_positive_factors_invariant(q5, f_eta):
    # (1 - L(P)/NP) > 1/2 for every prime under the gap hypotheses,
    # asserted over all primes of norm <= 10^4.
    from unitring.intfactor import is_prime

    checked = 0
    p = 2
    while p <= 10**4:
        if is_prime(p):
            for pid in split_prime(q5, p):
                if pid.norm <= 10**4:
                    l_val = root_count(f_eta, pid.ideal)
                    assert 1 - Fraction(l_val, pid.norm) > Fraction(1, 2), pid
                    checked += 1
        p += 1
    assert checked > 1200


def test_empirical_count_examples(q5, f_theta):
    params = DensityParams(order=SubOrder.maximal(q5), poly=f_theta, excluded=(), m=2)
    box22 = RegionBox(q5.signature, [4, 4])
    box11 = RegionBox(q5.signature, [1, 1])
    assert empirical_count(params, [box22]) == [1]
    assert empirical_count(params, [box11]) == [1]
    ps2 = tuple(split_prime(q5, 2))
    params2 = DensityParams(order=SubOrder.maximal(q5), poly=f_theta, excluded=ps2, m=2)
    assert empirical_count(params2, [box22]) == [1]


def test_empirical_count_matches_oracle(q5, f_theta, f_eta, z_sqrt5):
    ps2 = tuple(split_prime(q5, 2))
    cases = [
        (DensityParams(order=SubOrder.maximal(q5), poly=f_theta, excluded=(), m=2), 400),
        (DensityParams(order=z_sqrt5, poly=f_eta, excluded=ps2, m=2), 400),
        (DensityParams(order=SubOrder.maximal(q5), poly=f_theta, excluded=ps2, m=3), 150),
        (DensityParams(order=SubOrder.maximal(q5), poly=f_theta, excluded=(), m=2), 2000),
    ]
    for params, vol in cases:
        box = RegionBox.cube(q5.signature, vol)
        assert empirical_count(params, [box]) == [empirical_count_oracle(params, box)]


def test_empirical_count_shards(q5, f_theta):
    params = DensityParams(order=SubOrder.maximal(q5), poly=f_theta, excluded=(), m=2)
    box = RegionBox.cube(q5.signature, 300)
    [full] = empirical_count(params, [box])
    for shards in (2, 4):
        total = sum(empirical_count(params, [box], shard=(i, shards))[0] for i in range(shards))
        assert total == full


# q_sqrt5 (real places), q_i (a disk) and cubic-23 (both), with the
# squared box bounds up to which the oracles stay quick.
FIELDS = {"q_sqrt5": ([-1, -1, 1], 400), "q_i": ([1, 0, 1], 200), "cubic-23": ([-1, -1, 0, 1], 9)}


@pytest.fixture(scope="module")
def fields():
    return {name: NumberField(poly, name=name) for name, (poly, _) in FIELDS.items()}


def coords(n, lo, hi):
    return st.lists(st.integers(lo, hi), min_size=n, max_size=n)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.integers(1, 4), st.data())
def test_run_norms_match_horner(fields, name, g, data):
    # The run's value polynomial against Horner over O_K at every point of
    # a run, and its integer forward differences against field.norm of
    # those values, runs shorter than the D + 1 = n g + 1 starting points
    # included.
    field = fields[name]
    n = field.degree
    coeffs = [field.element(data.draw(coords(n, -9, 9))) for _ in range(g + 1)]
    assume(not coeffs[-1].is_zero())
    poly = SievePolynomial(coeffs)
    base, step = data.draw(coords(n, -30, 30)), data.draw(coords(n, -5, 5))
    lo = data.draw(st.integers(-20, 20))
    hi = lo + data.draw(st.one_of(st.integers(0, n * g + 1), st.integers(0, 40)))
    horner = [poly(field.element([a + c * b for a, b in zip(base, step)]))
              for c in range(lo, hi + 1)]
    values = run_values(poly, base, step)
    assert len(values) == g + 1
    assert [value_at(values, c) for c in range(lo, hi + 1)] == [v.coords for v in horner]
    assert list(run_norms(field, values, lo, hi)) == [field.norm(v) for v in horner]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.sampled_from([2, 3]), st.booleans(), st.data())
def test_empirical_count_nested_boxes_match_oracle(fields, name, m, exclude_2, data):
    # One pass over several boxes, nested or not, against the per-box
    # oracle; the shards of 2 partition every count.
    field = fields[name]
    r, s = field.signature
    top = FIELDS[name][1]
    poly = SievePolynomial.x_squared_minus(4 * field.theta)
    excluded = tuple(split_prime(field, 2)) if exclude_2 else ()
    params = DensityParams(order=SubOrder.maximal(field), poly=poly, excluded=excluded, m=m)
    boxes = [
        RegionBox(field.signature, data.draw(st.lists(
            st.fractions(1, top, max_denominator=4), min_size=r + s, max_size=r + s)))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    counts = empirical_count(params, boxes)
    assert counts == [empirical_count_oracle(params, box) for box in boxes]
    halves = [empirical_count(params, boxes, shard=(i, 2)) for i in range(2)]
    assert [a + b for a, b in zip(*halves)] == counts


def test_empirical_count_norm_route_matches_oracle(fields, q5, f_eta, z_sqrt5):
    # The norm route with its per-run memo, against the oracle's full
    # factorization, on boxes whose runs outlast p^m for the small p:
    # q_i, where 2 ramifies, at m = 2 and 3; Z[sqrt5] with the primes above
    # 2 excluded; and Q(sqrt5) at m = 3.
    qi = fields["q_i"]
    ps2 = tuple(split_prime(q5, 2))
    f_qi = SievePolynomial.x_squared_minus(4 * qi.element([1, 1]))
    cases = [
        (DensityParams(order=SubOrder.maximal(qi), poly=f_qi, excluded=(), m=2), 600),
        (DensityParams(order=SubOrder.maximal(qi), poly=f_qi, excluded=(), m=3), 400),
        (DensityParams(order=SubOrder.maximal(qi), poly=f_qi,
                       excluded=tuple(split_prime(qi, 2)), m=2), 400),
        (DensityParams(order=z_sqrt5, poly=f_eta, excluded=ps2, m=2), 1600),
        (DensityParams(order=SubOrder.maximal(q5),
                       poly=SievePolynomial.x_squared_minus(4 * q5.theta), excluded=(), m=3), 1600),
    ]
    for params, vol in cases:
        boxes = [RegionBox.cube(params.field.signature, x) for x in (vol // 4, vol)]
        assert empirical_count(params, boxes) == [empirical_count_oracle(params, b) for b in boxes]


def test_empirical_count_skips_zero_values(q5):
    # f = X - 1 vanishes at alpha = 1, inside every box: N = 0 there.
    f = SievePolynomial([-q5.one, q5.one])
    params = DensityParams(order=SubOrder.maximal(q5), poly=f, excluded=(), m=2)
    boxes = [RegionBox.cube(q5.signature, x) for x in (1, 30, 300)]
    counts = empirical_count(params, boxes)
    assert counts == [empirical_count_oracle(params, b) for b in boxes]
    assert counts[0] == 0


# Sieves on which counting drops the values that N(P)^m | N rejects, at each
# small prime of N(Res(f, f')) with one prime P above it, before the m-free
# kernel: 2 is inert in Q(sqrt5) and cubic-23 and ramified in Q(i) and
# Q(sqrt2).  The etas 3 + theta, 2 + i and 3 + sqrt2 add 11, 5 and 7, which
# split, so N(P)^m | N does not decide there.  Z[sqrt5] excludes the primes
# above 2.  (field, min_poly, order, eta, exclude 2, m, squared outer bound)
PRESIEVE_CASES = [
    ("q_sqrt5", [-1, -1, 1], None, [0, 1], False, 2, 900),
    ("q_sqrt5", [-1, -1, 1], None, [3, 1], False, 2, 900),
    ("q_sqrt5", [-1, -1, 1], None, [3, 1], False, 3, 900),
    ("q_sqrt5", [-1, -1, 1], [(1, 0), (-1, 2)], [1, 2], True, 2, 900),
    ("q_i", [1, 0, 1], None, [1, 1], False, 2, 200),
    ("q_i", [1, 0, 1], None, [1, 1], False, 3, 200),
    ("q_i", [1, 0, 1], None, [2, 1], False, 2, 200),
    ("q_sqrt2", [-2, 0, 1], None, [0, 1], False, 2, 900),
    ("q_sqrt2", [-2, 0, 1], None, [3, 1], False, 3, 900),
    ("cubic-23", [-1, -1, 0, 1], None, [0, 1, 0], False, 2, 9),
]


def oracle_rejects(params, alpha):
    val = params.poly(alpha)
    return (val.is_zero() or any(pid.ideal.contains(val) for pid in params.excluded)
            or any(e >= params.m for _, e in IdealLattice.principal(val).factor()))


@pytest.mark.parametrize("case", PRESIEVE_CASES, ids=lambda c: f"{c[0]}-{c[3]}-m{c[5]}")
def test_presieved_counts_match_the_oracle(case):
    # Nested boxes against the oracle, one pass and shards of 2 and of 3.
    # The inner boxes' sub-runs include some that start and some that end on
    # a rejected value, where the counts read off the sorted index lists
    # meet their ends.
    name, min_poly, order_rows, eta, exclude_2, m, top = case
    field = NumberField(min_poly, name=name)
    order = SubOrder.maximal(field) if order_rows is None else SubOrder(field, order_rows)
    excluded = tuple(split_prime(field, 2)) if exclude_2 else ()
    poly = SievePolynomial.x_squared_minus(4 * field.element(eta))
    params = DensityParams(order=order, poly=poly, excluded=excluded, m=m)
    r, s = field.signature
    outer = RegionBox(field.signature, [top] * (r + s))
    boxes = [outer] + [RegionBox(field.signature, [Fraction(top * k, 7 + j) for j in range(r + s)])
                       for k in (2, 3, 5)]
    counts = empirical_count(params, boxes)
    assert counts == [empirical_count_oracle(params, box) for box in boxes]
    for shards in (2, 3):
        parts = [empirical_count(params, boxes, shard=(i, shards)) for i in range(shards)]
        assert [sum(col) for col in zip(*parts)] == counts
    ends = set()
    for base, step, lo, hi, _ in region_runs(field, outer, order.basis_hnf):
        for box in boxes[1:]:
            a, b = FloatRegionFilter(field, box).run(base, step, lo, hi)
            for end, c in (("start", a), ("end", b)):
                if a <= b and oracle_rejects(params, field.element(
                        [x + c * y for x, y in zip(base, step)])):
                    ends.add(end)
    assert ends == {"start", "end"}


def test_presieve_spares_the_kernel(monkeypatch):
    # The values that reach the m-free kernel on the seed-0 counts of the
    # count-quadratic benchmark.  Every region point did before the
    # pre-sieve (44,720 and 31,417); now those with 16 | N on Q(sqrt5) and
    # 4 | N on Q(i) are rejected first.
    seen = []
    kernel = density.mth_power_primes_chunk
    monkeypatch.setattr(density, "mth_power_primes_chunk",
                        lambda ns, m: seen.append(len(ns)) or kernel(ns, m))
    for field, eta, boxes, values in (("q_sqrt5", "0,1", "100,1000,10000,100000", 33_540),
                                      ("q_i", "1,1", "100,1000,10000", 15_712)):
        seen.clear()
        argv = ["count", "--field", field, f"--eta={eta}", "--boxes", boxes, "--out", os.devnull]
        assert cli.main(argv) == 0
        assert sum(seen) == values


def _reduce_per_element(poly, pid):
    # The per-element route: every coefficient through Fractions at pid.
    fq = pid.residue_field()
    out = []
    for c in poly.coeffs:
        coeffs = []
        for x in poly.field.theta_poly_of(c):
            x = Fraction(x)
            if x.denominator % pid.p == 0:
                raise NonMonogenicError(pid.p)
            coeffs.append(x.numerator * pow(x.denominator, -1, pid.p) % pid.p)
        out.append(fq.elem(coeffs))
    return trim(out, fq)


def test_reduce_to_residue_field_matches_per_element(fields):
    # Every prime ideal of norm <= 2000, on two sieve polynomials per field.
    for name, field in fields.items():
        n = field.degree
        polys = [
            SievePolynomial.x_squared_minus(4 * field.theta),
            SievePolynomial([field.element([3] + [-1] * (n - 1)), field.element([0] * (n - 1) + [5]),
                             field.element([2] + [0] * (n - 1)), field.element([1, 1] + [0] * (n - 2))]),
        ]
        checked = 0
        for p in prime_table(2000):
            for pid in split_prime(field, p):
                if pid.norm <= 2000:
                    for poly in polys:
                        fbar, fq = _reduce_to_residue_field(poly, pid)
                        assert fq is pid.residue_field()
                        assert fbar == _reduce_per_element(poly, pid)
                        checked += 1
        assert checked > 300


def test_reduce_to_residue_field_common_denominator():
    # Q(sqrt5) on the basis 1, (1 + sqrt5)/2: theta-coefficients have
    # denominator 2, invertible at every odd p and not at p = 2.
    k = NumberField([-5, 0, 1], integral_basis=[[1, 0], [Fraction(1, 2), Fraction(1, 2)]])
    w = k.element([0, 1])
    poly = SievePolynomial([w, 3 * w, k.one])
    assert poly.theta_numerators[0] == 2
    for p in (3, 7, 11, 19, 29, 31):
        for pid in split_prime(k, p):
            assert _reduce_to_residue_field(poly, pid)[0] == _reduce_per_element(poly, pid)
    two = PrimeIdealData(k, 2, (1, 1), 2)
    for route in (_reduce_to_residue_field, _reduce_per_element):
        with pytest.raises(NonMonogenicError):
            route(poly, two)


def test_empirical_count_nested_cubes(q5, f_theta):
    # The CLI's nested cubes, plus two boxes that are not nested.
    params = DensityParams(order=SubOrder.maximal(q5), poly=f_theta, excluded=(), m=2)
    boxes = [RegionBox.cube(q5.signature, x) for x in (100, 400, 1000)]
    boxes += [RegionBox(q5.signature, [900, 100]), RegionBox(q5.signature, [100, 900])]
    assert empirical_count(params, boxes) == [empirical_count_oracle(params, b) for b in boxes]


def test_gap_check_exact_values(q5, eta, z_sqrt5):
    ps2 = tuple(split_prime(q5, 2))
    gap = density_gap_check(z_sqrt5, eta, ps2, truncation_norm=200)
    assert gap.lhs == Fraction(1, 4)
    assert gap.rhs == Fraction(3, 4)
    assert gap.strict_gap
    assert gap.d_order.d_upper < gap.d_maximal.d_lower  # D_O < D visibly


def test_gap_check_runs_the_main_product_once(monkeypatch, q5, eta, z_sqrt5):
    # The order's and O_K's reports share the polynomial, the exclusions,
    # m = 2 and T, so their main product's local factors run once: half
    # the calls at e = 2 of two independent euler_density calls.
    calls = Counter()

    def counted(poly, pid, e):
        calls[pid.p, pid.generator_poly, e] += 1
        return count_roots_prime_power(poly, pid, e)

    ps2 = tuple(split_prime(q5, 2))
    poly = SievePolynomial.x_squared_minus(4 * eta)
    excluded = with_conductor_support(z_sqrt5, ps2)
    params = [DensityParams(order=o, poly=poly, excluded=excluded, m=2)
              for o in (z_sqrt5, SubOrder.maximal(q5))]
    monkeypatch.setattr(density, "count_roots_prime_power", counted)
    gap = density_gap_check(z_sqrt5, eta, ps2, truncation_norm=1000)
    shared = calls.copy()
    calls.clear()
    d_order, d_max = (euler_density(p, 1000) for p in params)
    twice = calls.copy()
    monkeypatch.undo()
    lhs = Fraction(1, z_sqrt5.index) * d_order.conductor_sum
    rhs = local_product(poly, z_sqrt5.conductor_support())
    assert gap == GapReport(lhs, rhs, lhs < rhs, d_order, d_max)
    main = {k for k in twice if k[2] == 2}
    assert len(main) > 100
    assert all(twice[k] == 2 * shared[k] for k in main)
    assert {k for k in shared if k[2] == 2} == main


def test_gap_check_rejects_maximal(q5, eta):
    from unitring.density import HypothesisError

    with pytest.raises(HypothesisError):
        density_gap_check(SubOrder.maximal(q5), eta, (), truncation_norm=100)


def test_gap_check_rejects_bad_field():
    from unitring.density import HypothesisError

    q2 = NumberField([-2, 0, 1])
    order = SubOrder(q2, [(1, 0), (0, 2)])
    eta2 = q2.element((1, 1))
    with pytest.raises(HypothesisError):
        density_gap_check(order, eta2, (), truncation_norm=100)


def test_check_hypotheses_three_fields(q5):
    check_hypotheses(q5)
    for poly in ([-2, 0, 1], [1, 0, 1]):
        with pytest.raises(HypothesisError, match=r"K\(sqrt\(5\)\)"):
            check_hypotheses(NumberField(poly))
