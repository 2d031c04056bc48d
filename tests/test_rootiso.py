from fractions import Fraction

import pytest

from unitring.poly import QQ, add, divmod, evaluate, mul
from unitring.rootiso import (
    MAX_BITS,
    PrecisionError,
    RootIsolation,
    precisions,
    resultant,
    sturm_count_real_roots,
)


def test_sturm_counts():
    assert sturm_count_real_roots((-1, -1, 1)) == 2  # X^2 - X - 1
    assert sturm_count_real_roots((1, 0, 1)) == 0  # X^2 + 1
    assert sturm_count_real_roots((-2, 0, 1)) == 2  # X^2 - 2
    assert sturm_count_real_roots((-2, -1, 0, 1)) == 1  # X^3 - X - 2
    assert sturm_count_real_roots((0, -1, 0, 0, 0, 1)) == 3  # X^5 - X


def test_resultant_vs_root_products():
    # For p monic with roots z_i: Res(p, q) = prod q(z_i).
    p = (-1, -1, 1)  # roots phi, psi with phi + psi = 1, phi*psi = -1
    assert resultant(p, (0, 1)) == -1  # prod z_i
    # q = X + 1: (phi+1)(psi+1) = phi*psi + phi + psi + 1 = -1 + 1 + 1 = 1
    assert resultant(p, (1, 1)) == 1


def test_resultant_bilinear_small_cases():
    # Res(X - a, X - b) = b - a? Convention: prod over roots z of first: q(z) = z - b -> a - b.
    assert resultant((-3, 1), (-5, 1)) == 3 - 5
    # Res of coprime quadratics is nonzero.
    assert resultant((1, 0, 1), (-2, 0, 1)) != 0
    # Common root -> zero.
    common = mul((-1, 1), (1, 0, 1), QQ)
    assert resultant(common, (-1, 1)) == 0


def test_poly_divmod_roundtrip():
    num = (3, -2, 0, 5, 1)
    den = (1, 2, 1)
    q, r = divmod(num, den, QQ)
    assert len(r) < len(den)
    assert add(mul(q, den, QQ), r, QQ) == num


@pytest.mark.parametrize(
    "poly,expected_sig",
    [
        ((-1, -1, 1), (2, 0)),
        ((1, 0, 1), (0, 1)),
        ((-2, 0, 1), (2, 0)),
        ((-2, -1, 0, 1), (1, 1)),
        ((1, 0, 0, 0, 1), (0, 2)),  # X^4 + 1
        ((-1, -4, 0, 0, 1), (2, 1)),  # X^4 - 4X - 1
    ],
)
def test_enclosures_contain_roots(poly, expected_sig):
    iso = RootIsolation(poly)
    iso.refine(96)
    assert iso.signature == expected_sig
    n = len(poly) - 1
    assert len(iso.enclosures) == n
    # Certificate: radius formula must be verifiable by sign changes for
    # real roots: p changes sign across the real interval.
    for enc in iso.enclosures:
        if enc.is_real:
            re, im = enc.box()
            assert im.lo == im.hi == 0
            vlo = evaluate(poly, re.lo, QQ)
            vhi = evaluate(poly, re.hi, QQ)
            assert vlo == 0 or vhi == 0 or (vlo < 0) != (vhi < 0)
    # Pairwise disjoint disks.
    for i in range(n):
        for j in range(i + 1, n):
            zi, zj = iso.enclosures[i], iso.enclosures[j]
            d2 = (zi.center[0] - zj.center[0]) ** 2 + (zi.center[1] - zj.center[1]) ** 2
            assert d2 > (zi.radius + zj.radius) ** 2


def test_refinement_monotone():
    iso = RootIsolation((-1, -1, 1))
    r64 = iso.enclosures[0].radius
    iso.refine(256)
    r256 = iso.enclosures[0].radius
    assert r256 < r64
    assert r256 <= Fraction(1, 1 << 256)


def test_real_root_centers_are_real():
    iso = RootIsolation((-2, -1, 0, 1))
    reals = [e for e in iso.enclosures if e.is_real]
    assert len(reals) == 1
    assert reals[0].center[1] == 0


def test_rejects_nonmonic():
    with pytest.raises(ValueError):
        RootIsolation((1, 0, 2))


def test_initial_disks_start_near_the_roots():
    # Roots near +-2^64 and +-2^64.5 with a constant term near 2^257: started
    # inside the scaled Fujiwara bound, the float iterates converge, and
    # Newton polishing only refines them.
    a, b = 2**128 + 3, 2**129 + 5
    iso = RootIsolation((a * b + 1, 0, -(a + b), 0, 1))
    for re, im in iso._initial_disks():
        gap = min(abs(complex(re - e.center[0], im - e.center[1])) / abs(float(e.center[0]))
                  for e in iso.enclosures)
        assert gap < 2.0**-20


@pytest.mark.parametrize("start, rungs", [(64, 9), (96, 8), (MAX_BITS, 1), (MAX_BITS + 1, 0)])
def test_precision_ladder(start, rungs):
    # The start precision doubled while at most MAX_BITS, then the error
    # naming the decision.
    seen = []
    with pytest.raises(PrecisionError, match=r"^squareness undecided at MAX_BITS = 16384$"):
        for bits in precisions(start, "squareness"):
            seen.append(bits)
    assert seen == [start << k for k in range(rungs)]
