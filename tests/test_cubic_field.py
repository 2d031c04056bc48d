"""Degree-3 and imaginary-quadratic exercises for the whole stack.

The cubic X^3 - X - 1 has discriminant -23, squarefree, so the power
basis is certainly the maximal order; signature (1,1) drives the complex
embedding paths.  The Gaussian field drives the r = 0 region logic.
"""

from fractions import Fraction

import pytest

from ideal_oracle import mobius
from unitring.density import (
    DensityParams,
    SievePolynomial,
    empirical_count,
    empirical_count_oracle,
    euler_density,
    root_count,
    root_count_bruteforce,
)
from unitring.field import NumberField, is_square_in_field
from unitring.geometry import FloatRegionFilter, RegionBox, enumerate_region, in_region
from unitring.ideal import IdealLattice, iter_ideals, split_prime
from unitring.linalg import identity
from unitring.order import SubOrder


@pytest.fixture(scope="module")
def k3():
    return NumberField([-1, -1, 0, 1], name="cubic-23")


@pytest.fixture(scope="module")
def qi():
    return NumberField([1, 0, 1], name="Q(i)")


def test_cubic_basics(k3):
    assert k3.signature == (1, 1)
    assert k3.disc == -23
    th = k3.theta
    assert th.norm() == 1  # constant term -(-1)
    assert th.is_unit()
    assert th * th * th == th + k3.one


def test_cubic_splitting(k3):
    # 2 and 3 are inert (no roots mod p for a cubic means irreducible).
    for p in (2, 3):
        pids = split_prime(k3, p)
        assert len(pids) == 1 and pids[0].residue_degree == 3
    # 23 ramifies.
    p23 = split_prime(k3, 23)
    assert sorted(p.ramification for p in p23) in ([1, 2], [3])
    assert sum(p.ramification * p.residue_degree for p in p23) == 3
    assert any(p.ramification > 1 for p in p23)
    # 59 = norm of some element? just check the e*f sum identity on a few.
    for p in (5, 7, 11, 13, 59):
        pids = split_prime(k3, p)
        assert sum(q.ramification * q.residue_degree for q in pids) == 3


def test_cubic_ideal_consistency(k3):
    ideals = iter_ideals(k3, 100)
    # Norm multiplicativity on sampled pairs.
    small = [a for a in ideals if a.norm <= 10]
    for a in small:
        for b in small:
            assert (a * b).norm == a.norm * b.norm
    # Moebius sum over divisors vanishes except at (1).
    for b in ideals:
        if b.norm > 50:
            continue
        fac = b.factor()
        total = 0

        def rec(idx, current):
            nonlocal total
            if idx == len(fac):
                total += mobius(current)
                return
            pid, e = fac[idx]
            cur = current
            for k in range(e + 1):
                rec(idx + 1, cur)
                if k < e:
                    cur = cur * pid.ideal

        rec(0, IdealLattice.unit_ideal(k3))
        assert total == (1 if b.is_unit_ideal() else 0)


def test_cubic_norm_oracles(k3):
    from unitring.rootiso import resultant

    for coords in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, -1, 3), (-4, 0, 1)]:
        alpha = k3.element(coords)
        assert alpha.norm() == resultant(k3.min_poly, k3.theta_poly_of(alpha))


def test_cubic_is_square(k3):
    th = k3.theta
    assert is_square_in_field(th * th)
    assert is_square_in_field((th + k3.one) ** 2)
    assert not is_square_in_field(-k3.one)  # real embedding exists
    assert not is_square_in_field(k3.rational(2))


def test_cubic_region_membership(k3):
    # A box holds one bound per place: r + s = 2 of them, not n = 3.
    box = RegionBox(k3.signature, [Fraction(4), Fraction(4)])
    assert len(box.bounds_sq) == 2
    # 1 is totally positive with |sigma| = 1 everywhere.
    assert in_region(k3.one, box)
    # theta: real embedding 1.3247 > 0, |complex|^2 = N/real = 1/1.3247 < 4.
    assert in_region(k3.theta, box)
    # -1 is not totally positive.
    assert not in_region(-k3.one, box)
    # 3 exceeds the bound 2 at the real embedding.
    assert not in_region(k3.rational(3), box)
    # Complex-modulus boundary tie: |sigma_2(2)|^2 = 4 == bound -> inside.
    assert in_region(k3.rational(2), box)


def test_cubic_enumeration_consistency(k3):
    rows = identity(3)
    box_small = RegionBox(k3.signature, [Fraction(4), Fraction(4)])  # sides 2
    pts_small = {p.coords for p in enumerate_region(k3, box_small, rows)}
    box_big = RegionBox(k3.signature, [Fraction(36), Fraction(36)])  # sides 6
    pts_big = {p.coords for p in enumerate_region(k3, box_big, rows)}
    assert pts_small <= pts_big
    assert (1, 0, 0) in pts_small
    assert (2, 0, 0) in pts_small  # boundary tie at the real wall
    assert (3, 0, 0) not in pts_small and (3, 0, 0) in pts_big
    # Shard partition stays exact in degree 3.
    for shards in (2, 3):
        combined = []
        for i in range(shards):
            combined.extend(
                p.coords for p in enumerate_region(k3, box_big, rows, shard=(i, shards))
            )
        assert sorted(combined) == sorted(pts_big)


def test_cubic_root_counts_vs_bruteforce(k3):
    f = SievePolynomial.x_squared_minus(4 * k3.theta)
    for a in iter_ideals(k3, 80):
        assert root_count(f, a) == root_count_bruteforce(f, a), a.norm


def test_cubic_sieve_end_to_end(k3):
    # Full m-free sieve on the cubic: fast path vs from-scratch oracle.
    f = SievePolynomial.x_squared_minus(4 * k3.theta)
    params = DensityParams(order=SubOrder.maximal(k3), poly=f, excluded=(), m=2)
    box = RegionBox(k3.signature, [Fraction(9), Fraction(9)])
    [n_fast] = empirical_count(params, [box])
    n_oracle = empirical_count_oracle(params, box)
    assert n_fast == n_oracle
    assert n_fast > 0
    rep = euler_density(params, 300)
    assert 0 < rep.d_lower <= rep.d_upper
    # check_hypotheses holds here (2 and 3 inert), so the gap theory applies.
    from unitring.density import check_hypotheses

    check_hypotheses(k3)


def test_cubic_counts_screen_inner_boxes_on_their_own_lines(k3, monkeypatch):
    # The benchmark's cubic count.  Under a cap of 5,000 lines, below the
    # naive box's 8,051 at x = 27000, the counts stay those of the uncapped
    # walk.  Each inner box screens only the outer runs on its own lines:
    # between its own runs (281 and 1,146) and its own lines (361 and
    # 1,442), not all 2,606 runs of the outer walk.
    f = SievePolynomial.x_squared_minus(4 * k3.theta)
    params = DensityParams(order=SubOrder.maximal(k3), poly=f, excluded=(), m=2)
    boxes = [RegionBox.cube(k3.signature, x) for x in (1000, 8000, 27000)]
    expected = empirical_count(params, boxes)
    screened = {}
    run = FloatRegionFilter.run

    def counted(self, *args):
        screened[self.box] = screened.get(self.box, 0) + 1
        return run(self, *args)

    monkeypatch.setattr("unitring.ideal.RESIDUE_CAP", 5000)
    monkeypatch.setattr(FloatRegionFilter, "run", counted)
    assert empirical_count(params, boxes) == expected
    assert 281 <= screened[boxes[0]] <= 361
    assert 1146 <= screened[boxes[1]] <= 1442


def test_gaussian_sieve_end_to_end(qi):
    # r = 0: every element is vacuously totally positive; disk region.
    i = qi.theta
    f = SievePolynomial.x_squared_minus(4 * i)
    params = DensityParams(order=SubOrder.maximal(qi), poly=f, excluded=(), m=2)
    box = RegionBox.cube(qi.signature, 100)  # disk of radius 10
    [n_fast] = empirical_count(params, [box])
    n_oracle = empirical_count_oracle(params, box)
    assert n_fast == n_oracle
    assert n_fast > 0
    rep = euler_density(params, 300)
    assert 0 < rep.d_lower <= rep.d_upper
    # D has the (2 pi)^s prefactor: for Z[i], c1 = 2 pi / 2 = pi, so the
    # density cannot exceed pi and the count ratio should be in its ballpark.
    ratio = Fraction(n_fast, 100)
    assert abs(ratio - rep.d_mid) / rep.d_mid < Fraction(1, 2)


def test_gaussian_enumeration_is_disk(qi):
    # enumerate_region over Z[i] with volume x: count = Gauss circle number
    # for radius sqrt(x) (boundary included).
    box = RegionBox.cube(qi.signature, 25)  # radius 5
    pts = {p.coords for p in enumerate_region(qi, box, identity(2))}
    expected = {
        (a, b)
        for a in range(-6, 7)
        for b in range(-6, 7)
        if a * a + b * b <= 25
    }
    assert pts == expected
