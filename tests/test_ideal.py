import itertools
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ideal_oracle import is_mfree, mobius, valuation_by_membership
from lattice_oracle import reduce_mod_lattice
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
    in_mth_power_above,
    iter_ideals,
    mth_power_by_norm,
    prime_power,
    split_prime,
)
from unitring.intfactor import mth_power_primes, prime_table
from unitring.linalg import det_triangular, hnf
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


# Each field, and the norm's verdict at its ramified p where P^m | (v): the
# one prime above 5 in Q(sqrt5) and above 2 in Q(i) is decided by the norm,
# but 23 = P^2 Q in cubic-23 has two primes above it, so membership decides.
NORM_RULE_FIELDS = {"q_sqrt5": ([-1, -1, 1], True), "q_i": ([1, 0, 1], True),
                    "cubic-23": ([-1, -1, 0, 1], None)}


def prime_kind(pids):
    if any(pid.ramification > 1 for pid in pids):
        return "ramified"
    return "inert" if len(pids) == 1 else "split"


@pytest.mark.parametrize("name", sorted(NORM_RULE_FIELDS))
def test_norm_rule_matches_membership(name):
    # At every p with p^m | N(v), over a box of elements and their
    # multiples by small primes: where the norm decides, it agrees with
    # membership in some P^m, and it decides every p with one prime above
    # it.  Q(sqrt5) has 2 inert, 5 ramified and 11 split; Q(i) 3 inert,
    # 2 ramified and 5 split; cubic-23 2 and 3 inert, 23 = P^2 Q and 5 split
    # into residue degrees 1 and 2.
    min_poly, ramified = NORM_RULE_FIELDS[name]
    field = NumberField(min_poly, name=name)
    side = 5 if field.degree == 2 else 2
    box = [field.element(c) for c in itertools.product(range(-side, side + 1), repeat=field.degree)]
    values = box + [v * k for v in box[::7] for k in (4, 8, 9, 25, 27, 121, 23**2, 5**3)]
    seen = set()
    for v in values:
        norm = v.norm()
        for m in (2, 3):
            for p in mth_power_primes(norm, m) if norm else ():
                pids = split_prime(field, p)
                decided = mth_power_by_norm(field, p, m, norm)
                held = in_mth_power_above(v, p, m)
                assert decided in (None, held)
                assert (decided is None) == (len(pids) > 1 and not norm % min(
                    pid.norm for pid in pids) ** m)
                seen.add((prime_kind(pids), decided, held))
    # The norm clears an inert p with p^m | N(v) but not N(P)^m, and finds
    # P^m above an inert p; a split p goes to membership, which finds both
    # answers.
    assert {("inert", False, False), ("inert", True, True), ("ramified", ramified, True),
            ("split", None, False), ("split", None, True)} <= seen


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
    assert len({reduce_mod_lattice(r.coords, two.hnf) for r in res}) == 4
    with pytest.raises(ResidueCapError):
        list(IdealLattice.from_integer(q5, 2000).residues())  # norm 4 * 10**6


def hnf_power_basis_index(field):
    """Oracle: [O_K : Z[theta]] as the HNF index of the coordinates of
    1, theta, ..., theta^(n-1) on the integral basis."""
    rows = []
    power = field.one
    for _ in range(field.degree):
        rows.append(power.coords)
        power = power * field.theta
    h = hnf(rows)
    assert len(h) == field.degree
    return abs(det_triangular(h))


def test_power_basis_index():
    # Q(sqrt5) on its power basis; X^2 - 5 with basis {1, (1 + theta)/2};
    # Dedekind's cubic X^3 - X^2 - 2X - 8, d_K = -503, with basis
    # {1, theta, (theta + theta^2)/2}.  2 divides the index of the last two.
    half = Fraction(1, 2)
    # The last column is the (e, f) of each prime above 11: X^2 - X - 1 and
    # X^2 - 5 have a root mod 11, the cubic has none.
    for field, index, disc, above_11 in (
        (NumberField([-1, -1, 1]), 1, 5, [(1, 1), (1, 1)]),
        (NumberField([-5, 0, 1], integral_basis=[[1, 0], [half, half]]), 2, 5,
         [(1, 1), (1, 1)]),
        (NumberField([-8, -2, -1, 1], integral_basis=[[1, 0, 0], [0, 1, 0], [0, half, half]]),
         2, -503, [(1, 3)]),
    ):
        assert field.disc == disc
        assert field.power_basis_index == hnf_power_basis_index(field) == index
        if index % 2 == 0:
            with pytest.raises(NonMonogenicError, match=f"= {index};"):
                split_prime(field, 2)
        # Odd primes are coprime to these indices and must split fine.
        primes = split_prime(field, 11)
        assert sorted((pid.ramification, pid.residue_degree) for pid in primes) == above_11
        assert sum(e * f for e, f in above_11) == field.degree


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
    idx = field.power_basis_index
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
    # element_valuation, the valuation of the ideal (alpha) by containment
    # in P^k, agrees with the membership of alpha in P^k, on the multiples
    # of 12 of a small box and on seeded elements times powers of 2, 5 and
    # 11; the powers cached on each prime are the ideal powers.
    field = LAZY_FIELDS[name]()
    primes = [pid for p in (2, 3, 5, 7, 11) for pid in split_prime(field, p)]
    for pid in primes:
        for k in range(1, 4):
            assert prime_power(pid, k) == pid.ideal**k
        assert pid._powers[0] is pid.ideal
    elements = [field.element(coords) * field.rational(12)
                for coords in itertools.product(range(-3, 4), repeat=field.degree) if any(coords)]
    rng = random.Random(27)
    for _ in range(40):
        coords = [rng.randint(-99, 99) for _ in range(field.degree)]
        scale = 2 ** rng.randint(0, 4) * 5 ** rng.randint(0, 2) * 11 ** rng.randint(0, 1)
        if any(coords):
            elements.append(field.element(coords) * field.rational(scale))
    for alpha in elements:
        for pid in primes:
            assert element_valuation(alpha, pid) == valuation_by_membership(alpha, pid)


def test_element_valuation_of_zero_raises_at_once(q5):
    # The membership loop walks P^k for ever on 0; the ideal (0) is refused.
    def stop(signum, frame):
        raise TimeoutError("element_valuation(0, P) still running after 1 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(ValueError, match="zero ideal rejected"):
            element_valuation(q5.zero, split_prime(q5, 11)[0])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
