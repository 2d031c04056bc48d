"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with -s to see the PASS lines and timings.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from lattice_oracle import cofactor_adjugate, leibniz_det
from order_oracle import root_count_order_crt
from unitring.density import (
    DensityParams,
    SievePolynomial,
    conductor_sum,
    density_gap_check,
    empirical_count,
    error_exponent,
    euler_density,
    mfree_threshold,
    root_count,
    root_count_bruteforce,
    root_count_order_bruteforce,
)
from unitring.field import NumberField
from unitring.geometry import EmbeddedLattice, RegionBox, enumerate_region, widmer_bound
from unitring.ideal import IdealLattice, iter_ideals, split_prime
from unitring.intervals import PI, RatInterval
from unitring.linalg import identity
from unitring.order import SubOrder, index_lower_bound
from unitring.tower import belcher_criterion, build_tower, verify_unit_generation

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def q5():
    return NumberField([-1, -1, 1], name="Q(sqrt5)")


@pytest.fixture(scope="module")
def q2():
    return NumberField([-2, 0, 1], name="Q(sqrt2)")


@pytest.fixture(scope="module")
def qi():
    return NumberField([1, 0, 1], name="Q(i)")


def _report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_1_density_convergence(q5):
    t_start = time.monotonic()
    f = SievePolynomial.x_squared_minus(4 * q5.theta)
    params = DensityParams(order=SubOrder.maximal(q5), poly=f, excluded=(), m=2)
    rep = euler_density(params, 10**4)
    assert rep.width <= Fraction(1, 1000), f"width {float(rep.width)}"
    xs = (100, 1000, 10**4)
    counts = dict(zip(xs, empirical_count(params, [RegionBox.cube(q5.signature, x) for x in xs])))
    mid = rep.d_mid
    rel = {x: abs(Fraction(n, x) - mid) / mid for x, n in counts.items()}
    assert rel[10**4] <= Fraction(15, 100), f"relative error {float(rel[10**4])}"
    assert rel[10**4] <= rel[100], "relative error must not grow from 10^2 to 10^4"
    elapsed = time.monotonic() - t_start
    assert elapsed <= 300, f"runtime {elapsed:.1f}s exceeds 5 minutes"
    _report(
        "criterion 1 (density convergence)",
        f"D width={float(rep.width):.2e}, N={counts}, "
        f"rel(10^4)={float(rel[10**4]):.4f} <= 0.15, {elapsed:.1f}s",
    )


def test_criterion_2_order_variant(q5):
    t_start = time.monotonic()
    eta = q5.rational(2) + (2 * q5.theta - q5.one)
    z_sqrt5 = SubOrder(q5, [(1, 0), (-1, 2)])
    f = SievePolynomial.x_squared_minus(4 * eta)
    ps2 = tuple(split_prime(q5, 2))
    params = DensityParams(order=z_sqrt5, poly=f, excluded=ps2, m=2)
    assert conductor_sum(params) == Fraction(1, 2)
    gap = density_gap_check(z_sqrt5, eta, ps2, truncation_norm=200)
    assert gap.lhs == Fraction(1, 4) and gap.rhs == Fraction(3, 4) and gap.strict_gap
    rep = euler_density(params, 10**4)
    assert rep.width <= Fraction(1, 1000)
    xs = (100, 1000, 10**4)
    counts = dict(zip(xs, empirical_count(params, [RegionBox.cube(q5.signature, x) for x in xs])))
    mid = rep.d_mid
    rel = {x: abs(Fraction(n, x) - mid) / mid for x, n in counts.items()}
    assert rel[10**4] <= Fraction(15, 100)
    assert rel[10**4] <= rel[100]
    elapsed = time.monotonic() - t_start
    assert elapsed <= 300
    _report(
        "criterion 2 (order variant)",
        f"cond_sum=1/2, gap 1/4 < 3/4, N={counts}, rel(10^4)={float(rel[10**4]):.4f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_oracle_equivalence(q5, q2, qi):
    cases = [
        (q5, SievePolynomial.x_squared_minus(4 * q5.theta), [
            SubOrder.maximal(q5), SubOrder(q5, [(1, 0), (-1, 2)]),
        ]),
        (q5, SievePolynomial.x_squared_minus(12 * q5.theta), [
            SubOrder(q5, [(1, 0), (0, 3)]),
        ]),
        (q2, SievePolynomial.x_squared_minus(4 * q2.theta), [SubOrder.maximal(q2)]),
        (qi, SievePolynomial.x_squared_minus(4 * qi.theta), [SubOrder.maximal(qi)]),
    ]
    checked = 0
    for field, f, orders in cases:
        for a in iter_ideals(field, 200):
            fast = root_count(f, a)
            slow = root_count_bruteforce(f, a)
            assert fast == slow, (field.name, a.norm)
            checked += 1
            for order in orders:
                if not f.in_order(order):
                    continue
                lo_fast = root_count_order_crt(f, a, order)
                lo_slow = root_count_order_bruteforce(f, a, order)
                assert lo_fast == lo_slow, (field.name, order.index, a.norm)
                assert lo_fast <= fast
                checked += 1
    _report("criterion 3 (oracle equivalence)", f"{checked} exact comparisons, zero tolerance")


def test_criterion_4_lemma5_suite(q5):
    ideals = iter_ideals(q5, 500)
    orders = [SubOrder(q5, [(1, 0), (-1, 2)]), SubOrder(q5, [(1, 0), (0, 3)])]
    checked = 0
    for order in orders:
        f = order.conductor()
        for a in ideals:
            if not a.is_coprime(f):
                continue
            rows, idx = order.contract(a)
            assert idx == a.norm
            assert order.extend_contracted(rows) == a
            checked += 1
    _report("criterion 4 (contraction bijection)", f"{checked} round trips exact, index == norm")


def test_criterion_5_lemma7(q5):
    z_sqrt5 = SubOrder(q5, [(1, 0), (-1, 2)])
    z_3theta = SubOrder(q5, [(1, 0), (0, 3)])
    b1, eq1 = index_lower_bound(z_sqrt5)
    assert (b1, eq1) == (Fraction(2), True) and z_sqrt5.index == 2
    b2, eq2 = index_lower_bound(z_3theta)
    assert (b2, eq2) == (Fraction(3), True) and z_3theta.index == 3
    # Order whose conductor strictly exceeds the prime product: Z + 4 O_K.
    z4 = SubOrder(q5, [(1, 0), (0, 4)])
    assert z4.conductor() == IdealLattice.from_integer(q5, 4)
    b3, eq3 = index_lower_bound(z4)
    assert b3 == Fraction(2) and not eq3 and b3 < z4.index == 4
    _report(
        "criterion 5 (index bound)",
        "equality on Z[sqrt5] (2) and Z[3theta] (3); strict 2 < 4 on Z + 4 O_K",
    )


def _count_in_box(rows, dims):
    # The box is sized from the cofactor oracle, independently of linalg.
    n = len(rows)
    d, adj = leibniz_det(rows), cofactor_adjugate(rows)
    bound = []
    for k in range(n):
        reach = sum(abs(Fraction(adj[j][k], d)) * dims[j] for j in range(n))
        bound.append(int(reach) + 1)
    count = 0

    def rec(idx, point):
        nonlocal count
        if idx == n:
            if all(0 <= point[k] <= dims[k] for k in range(n)):
                count += 1
            return
        for c in range(-bound[idx], bound[idx] + 1):
            rec(idx + 1, [point[k] + c * rows[idx][k] for k in range(n)])

    rec(0, [0] * n)
    return count


def test_criterion_6_lattice_counting(q5, q2, qi):
    rng = random.Random(20260808)
    instances = 0
    for _ in range(60):
        while True:
            rows = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
            det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            if det != 0:
                break
        dims = [rng.randint(1, 12), rng.randint(1, 12)]
        lat = EmbeddedLattice.from_basis_matrix(rows)
        count = _count_in_box(rows, dims)
        main = Fraction(dims[0] * dims[1]) / abs(Fraction(det))
        bound = widmer_bound(lat, 4, Fraction(max(dims)))
        assert abs(Fraction(count) - main) <= bound, (rows, dims)
        instances += 1
    for _ in range(40):
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            from unitring.linalg import det

            if det(rows) != 0:
                break
        dims = [rng.randint(1, 5) for _ in range(3)]
        lat = EmbeddedLattice.from_basis_matrix(rows)
        count = _count_in_box(rows, dims)
        main = Fraction(dims[0] * dims[1] * dims[2]) / abs(Fraction(det(rows)))
        bound = widmer_bound(lat, 6, Fraction(2 * max(dims)))
        assert abs(Fraction(count) - main) <= bound, (rows, dims)
        instances += 1
    # sigma(O_K) instances for the bundled fields.
    for field, vol in ((q5, 100), (q2, 100), (qi, 100)):
        box = RegionBox.cube(field.signature, vol)
        count = sum(1 for _ in enumerate_region(field, box, identity(2)))
        lat = EmbeddedLattice.from_sigma(field, identity(2))
        r, s = field.signature
        # vol(B) = pi^s * x; det = 2^{-s} sqrt|d_K|; Lip = 2 pi x^{1/n}.
        x = Fraction(vol)
        volume_iv = (PI**s) * x
        det_iv = RatInterval(lat.det_sq).sqrt(96)
        main_iv = volume_iv / det_iv
        side = RatInterval(box.bounds_sq[0]).sqrt(96)
        lip = (2 * PI * side).hi
        bound = widmer_bound(lat, 2 * r + s, lip)
        err_hi = max(abs(Fraction(count) - main_iv.lo), abs(Fraction(count) - main_iv.hi))
        assert err_hi <= bound, field.name
        instances += 1
    # det T == 1 within 1e-12 on 100 random admissible boxes.
    for _ in range(100):
        r, s = rng.choice([(2, 0), (1, 1), (0, 1), (3, 0), (2, 1), (0, 2)])
        n = r + 2 * s
        xs = [1.0 + 20 * rng.random() for _ in range(r + s)]
        full = xs[:r] + [v for v in xs[r:] for _ in (0, 1)]
        x = 1.0
        for v in full:
            x *= v
        det = 1.0
        for v in full:
            det *= (x ** (1.0 / n)) / v
        assert abs(det - 1.0) <= 1e-12
    _report(
        "criterion 6 (lattice counting)",
        f"{instances} lattice/box inequalities + 100 det T checks at 1e-12",
    )


def test_criterion_7_tower_pipeline(q5):
    eta = q5.rational(2) + (2 * q5.theta - q5.one)
    z_sqrt5 = SubOrder(q5, [(1, 0), (-1, 2)])
    t_start = time.monotonic()
    tower = build_tower(q5, start_order=z_sqrt5, eta=eta)
    rep = verify_unit_generation(tower)
    elapsed = time.monotonic() - t_start
    assert len(tower.steps) == 1
    assert tower.steps[0].omega == q5.theta
    assert tower.final_index == 1
    assert rep.all_passed(), rep.as_dict()
    assert elapsed <= 1.0, f"tower construction took {elapsed:.3f}s"
    proc = subprocess.run(
        [sys.executable, "-m", "unitring.cli", "tower", "--field", "q_sqrt2",
         "--eta", "1,1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    diag = json.loads(proc.stderr.splitlines()[-1])
    assert "sqrt(5)" in diag["message"]
    _report(
        "criterion 7 (tower pipeline)",
        f"one step, omega=theta, five checks pass in {elapsed * 1000:.0f}ms; "
        "Q(sqrt2) exits 2 naming the base-change remedy",
    )


def test_criterion_8_exponent_calculus():
    checked = 0
    for g in range(1, 7):
        for m in range(mfree_threshold(g), g + 4):
            for n in (2, 3, 4):
                l, c, eps, u = error_exponent(n, g, m)
                assert u > 0
                assert Fraction(1, m) <= c < 1 - eps
                assert 0 < eps <= Fraction(1, n)
                assert 1 <= l <= m - 1
                if m <= g + 1:
                    lhs = 1 + Fraction(g, 2 * l + 1) - c * Fraction(
                        (m - l) * (g + 2 * l + 1), g * (2 * l + 1)
                    )
                    assert lhs <= c
                checked += 1
    _report("criterion 8 (exponent calculus)", f"{checked} parameter tuples verified exactly")


def test_criterion_9_belcher_table(tmp_path):
    from unitring.cli import main

    out1 = tmp_path / "belcher1.tsv"
    out2 = tmp_path / "belcher2.tsv"
    assert main(["belcher", "--table", "100", "--out", str(out1)]) == 0
    assert main(["belcher", "--table", "100", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    fixture = (FIXTURES / "belcher_table.tsv").read_bytes()
    assert out1.read_bytes() == fixture
    table = dict(
        line.split("\t") for line in out1.read_text().splitlines()[1:]
    )
    assert table["-1"] == "True" and table["-3"] == "True"
    assert table["2"] == "True" and table["5"] == "True"
    for d, expected in table.items():
        assert str(belcher_criterion(int(d))) == expected
    _report("criterion 9 (quadratic criterion table)",
            f"{len(table)} squarefree d, fixture byte-identical, paper spots agree")
