import dataclasses
import json
from itertools import product
from math import isqrt
from pathlib import Path

import pytest

from ideal_oracle import is_mfree
from unitring.cli import _tower_to_json, main
from unitring.density import HypothesisError
from unitring.field import NumberField
from unitring.ideal import IdealLattice, split_prime
from unitring.linalg import char_poly
from unitring.order import SubOrder
from unitring.tower import (
    SearchExhausted,
    Tower,
    alpha_char_poly,
    belcher_criterion,
    build_tower,
    candidate_elements,
    find_omega,
    quadratic_step,
    step_refusal,
    unit_order,
    verify_unit_generation,
)


@pytest.fixture(scope="module")
def q5():
    return NumberField([-1, -1, 1], name="Q(sqrt5)")


@pytest.fixture(scope="module")
def eta(q5):
    return q5.rational(2) + (2 * q5.theta - q5.one)  # 2 + sqrt5 = theta^3


@pytest.fixture(scope="module")
def z_sqrt5(q5):
    return SubOrder(q5, [(1, 0), (-1, 2)])


def test_unit_order_examples(q5, eta):
    assert unit_order(q5, [q5.theta]).index == 1
    o2 = unit_order(q5, [eta])
    assert o2.index == 2
    assert o2.basis_hnf == SubOrder(q5, [(1, 0), (-1, 2)]).basis_hnf
    with pytest.raises(ValueError):
        unit_order(q5, [q5.one])  # rank deficient
    with pytest.raises(ValueError):
        unit_order(q5, [q5.rational(2)])  # not a unit


# The five fields of the differential tests, each with the coordinate
# range its units are drawn from: Q(sqrt5), Q(sqrt2), Q(i), cubic-23 and
# X^4 + 1.
UNIT_FIELDS = [([-1, -1, 1], 3), ([-2, 0, 1], 3), ([1, 0, 1], 3), ([-1, -1, 0, 1], 2),
               ([1, 0, 0, 0, 1], 1)]


def small_units(field, bound):
    return [u for u in map(field.element, product(range(-bound, bound + 1), repeat=field.degree))
            if not u.is_zero() and u.is_unit()]


def unit_inverse(u):
    """u^-1 = -c_0 (u^{n-1} + c_{n-1} u^{n-2} + ... + c_1) from the
    characteristic polynomial c_0 + c_1 X + ... + X^n of the unit u."""
    cp = char_poly(u.field.mult_matrix(u))
    acc = u.field.zero
    for c in reversed(cp[1:]):
        acc = acc * u + u.field.rational(c)
    assert acc * u * (-cp[0]) == u.field.one
    return acc * (-cp[0])


def generated_or_refused(generate):
    try:
        return generate().basis_hnf
    except ValueError as e:
        assert "rank" in str(e)
        return "rank"


def test_unit_order_holds_the_inverses():
    # A unit's inverse lies in the ring its powers generate, so the order
    # of 1 and the units equals the order of 1, the units and their
    # inverses; either both refuse for rank or both are the same order.
    indices = set()
    cases = 0
    for min_poly, bound in UNIT_FIELDS:
        field = NumberField(min_poly)
        units = small_units(field, bound)
        for gens in [[u] for u in units] + [list(pair) for pair in zip(units, units[1:])]:
            rows = [field.one_coords]
            for u in gens:
                rows += [u.coords, unit_inverse(u).coords]
            want = generated_or_refused(lambda: SubOrder.generated(field, rows))
            assert generated_or_refused(lambda: unit_order(field, gens)) == want, (min_poly, gens)
            if want != "rank":
                indices.add(SubOrder(field, want).index)
            cases += 1
    assert cases == 167 and min(indices) == 1 and max(indices) == 8


def test_candidate_order_prefix(q5):
    stream = candidate_elements(q5)
    prefix = [next(stream).coords for _ in range(9)]
    assert prefix == [
        (0, 0),
        (0, 1), (0, -1), (1, 0), (1, 1), (1, -1), (-1, 0), (-1, 1), (-1, -1),
    ]
    stream = candidate_elements(NumberField([-1, -1, 0, 1]))  # cubic-23
    prefix = [next(stream).coords for _ in range(27)]
    assert prefix == [
        (0, 0, 0),
        (0, 0, 1), (0, 0, -1), (0, 1, 0), (0, 1, 1), (0, 1, -1), (0, -1, 0), (0, -1, 1),
        (0, -1, -1), (1, 0, 0), (1, 0, 1), (1, 0, -1), (1, 1, 0), (1, 1, 1), (1, 1, -1),
        (1, -1, 0), (1, -1, 1), (1, -1, -1), (-1, 0, 0), (-1, 0, 1), (-1, 0, -1), (-1, 1, 0),
        (-1, 1, 1), (-1, 1, -1), (-1, -1, 0), (-1, -1, 1), (-1, -1, -1),
    ]


def test_find_omega_first_witness(q5, eta, z_sqrt5):
    ps2 = tuple(split_prime(q5, 2))
    w = find_omega(z_sqrt5, ps2, eta)
    assert w == q5.theta
    value = w * w - 4 * eta
    assert value.norm() == -19
    # Independent re-verification of the three conclusions.
    assert not z_sqrt5.contains(w)
    assert all(not pid.ideal.contains(value) for pid in ps2)
    assert is_mfree(IdealLattice.principal(value), 2)


def test_find_omega_with_19_excluded(q5, eta, z_sqrt5):
    # Excluding the prime above 19 that divides f(theta): the next witness
    # in the deterministic order is 1 + theta with value norm -11.
    # (The spec sheet quotes theta + 2 here, but 1 + theta qualifies and
    # precedes it in every shell ordering; verified independently below.)
    ps2 = list(split_prime(q5, 2))
    val_theta = q5.theta * q5.theta - 4 * eta
    p19 = [p for p in split_prime(q5, 19) if p.ideal.contains(val_theta)]
    assert len(p19) == 1
    w = find_omega(z_sqrt5, tuple(ps2 + p19), eta)
    assert w == q5.one + q5.theta
    value = w * w - 4 * eta
    assert value.norm() == -11
    assert not z_sqrt5.contains(w)
    assert not p19[0].ideal.contains(value)
    assert is_mfree(IdealLattice.principal(value), 2)


def test_find_omega_exhaustion(q5, eta, z_sqrt5):
    with pytest.raises(SearchExhausted):
        find_omega(z_sqrt5, tuple(split_prime(q5, 2)), eta, search_bound=0)


@pytest.mark.parametrize("rows, eta_coords, omega_coords", [
    # Z + 5 O_K, eta = -theta^5: omega = theta gives theta^8, a unit square.
    ([(1, 0), (0, 5)], (-3, -5), (1, 1)),
    ([(1, 0), (-1, 2)], (1, 2), (0, 1)),
    ([(1, 0), (-1, 2)], (-1, -2), (0, 1)),
    ([(1, 0), (-1, 2)], (-3, 2), (0, 1)),
    ([(1, 0), (-1, 2)], (3, -2), (0, 1)),
])
def test_find_omega_passes_the_step_certificate(q5, rows, eta_coords, omega_coords):
    eta = q5.element(eta_coords)
    omega = find_omega(SubOrder(q5, rows), (), eta)
    assert omega.coords == omega_coords
    quadratic_step(omega, eta)


def test_quadratic_step_example(q5, eta):
    st = quadratic_step(q5.theta, eta)
    assert st.disc_ideal.norm == 19
    assert st.disc_element_norm == -19


def test_alpha_char_poly(q5, eta):
    # alpha^2 - theta alpha + (2 + sqrt5): a root of X^4 - X^3 + 3X^2 + 3X - 1,
    # constant term N(eta) = -1, so alpha is a unit.
    assert alpha_char_poly(q5.theta, eta) == (-1, 3, 3, -1, 1)
    # eta = 3: constant term N(3) = 9, so alpha is not a unit.
    cp = alpha_char_poly(q5.theta, q5.rational(3))
    assert cp[0] == 9 and cp[-1] == 1


def test_quadratic_step_rejections(q5, eta):
    with pytest.raises(ValueError):
        quadratic_step(q5.zero, eta)  # -4 eta is even
    # omega with square discriminant: omega = theta + inverse-ish... build
    # omega^2 - 4 eta square: eta = theta^2 gives omega = 0 disc -4 theta^2;
    # even anyway. Simpler reducible case: eta = -1 (unit), omega = 0:
    # disc = 4: even -> parity error fires first; use omega = 1, eta = -2:
    # 1 + 8 = 9 = 3^2 rational square.
    with pytest.raises(ValueError):
        quadratic_step(q5.one, q5.rational(-2))


def test_step_refusal_reasons(q5):
    # Each refusal of the step certificate, and the values it certifies.
    # 3 is inert in Q(sqrt5), so the norm of 9 theta alone shows (3)^2; 11
    # splits as (3 + 2 theta)(5 - 2 theta), so only membership tells
    # (3 + 2 theta)^2 theta from 11 theta.
    th = q5.theta
    pi = q5.element((3, 2))
    assert pi.norm() == 11
    assert step_refusal(q5.zero) == "discriminant value is zero"
    assert step_refusal(q5.rational(6)) == "discriminant value is not coprime to 2"
    assert step_refusal(q5.rational(9)).startswith("discriminant value is a square")
    for value in (9 * th, pi * pi * th):
        assert step_refusal(value) == "discriminant value is not squarefree"
    for value in (th, 11 * th, 3 * th):
        assert step_refusal(value) is None


def test_quadratic_step_valuations_prime_by_prime(q5, eta):
    # Each ramified prime of a step discriminant carries valuation exactly 1.
    from unitring.ideal import element_valuation

    for omega in (q5.theta, q5.one + q5.theta, q5.element((1, -1))):
        try:
            st = quadratic_step(omega, eta)
        except ValueError:
            continue
        value = st.disc_value(eta)
        for pid, e in st.disc_ideal.factor():
            assert e == 1
            assert element_valuation(value, pid) == 1


def test_compositum_single_and_pair(q5, eta, z_sqrt5):
    tower = Tower(q5, z_sqrt5, eta)
    st1 = tower.extend(q5.theta)
    assert tower.compositum_sets == [frozenset(), frozenset({0})]
    # A second step with coprime discriminant: omega = 1 + theta, norm -11.
    st2 = tower.extend(q5.one + q5.theta)
    assert st2.disc_ideal.is_coprime(st1.disc_ideal)
    assert tower.compositum_sets == [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    assert [o.index for o in tower.orders] == [2, 1, 1]


def test_compositum_collapse(q5, eta, z_sqrt5):
    tower = Tower(q5, z_sqrt5, eta)
    tower.extend(q5.theta)
    tower.extend(-q5.theta)  # same discriminant value
    assert tower.compositum_sets == [frozenset(), frozenset({0})]
    assert len(tower.steps) == 2
    # Two steps with one discriminant, and two steps from index 2.
    report = verify_unit_generation(tower)
    assert not report.discs_coprime_and_odd and not report.step_count_bounded


TWO_STEP_TOWER = Path(__file__).parent / "fixtures" / "tower_q_sqrt5_two_steps.json"


def test_two_step_tower_verifies(q5):
    # Z + 4 O_K with eta = -theta^6: omega = -1 + 2 theta and then theta
    # each halve the index, and check (d) compares the pair of step
    # discriminants, of norms 401 and 45.  The fixture holds this tower.
    tower = Tower(q5, SubOrder(q5, [(1, 0), (0, 4)]), q5.element((-5, -8)))
    for omega in ((-1, 2), (0, 1)):
        tower.extend(q5.element(omega))
    assert [o.index for o in tower.orders] == [4, 2, 1]
    assert [st.disc_element_norm for st in tower.steps] == [401, 45]
    report = verify_unit_generation(tower)
    assert report.all_passed()
    doc = dict(_tower_to_json("q_sqrt5", tower), verification=report.as_dict())
    assert json.loads(TWO_STEP_TOWER.read_text()) == doc
    assert main(["verify", "--tower", str(TWO_STEP_TOWER)]) == 0


UNIT_ORDER_TOWER = Path(__file__).parent / "fixtures" / "tower_q_sqrt5_unit_order.json"


def test_tower_from_the_unit_order(tmp_path):
    # With no --order and no --eta, tower starts at the order of the
    # declared unit -theta^6 = (-5, -8), which is Z + 8 O_K, takes that
    # unit as eta and needs one step, omega = theta.
    spec = tmp_path / "q5_units.json"
    spec.write_text(json.dumps({"name": "Q(sqrt5)", "min_poly": [-1, -1, 1],
                                "units": [[-5, -8]]}))
    out = tmp_path / "tower.json"
    assert main(["tower", "--field", str(spec), "--out", str(out)]) == 0
    assert out.read_bytes() == UNIT_ORDER_TOWER.read_bytes()
    doc = json.loads(out.read_text())
    assert doc["start_order"] == [[1, 0], [0, 8]] and doc["eta"] == [-5, -8]
    assert [st["omega"] for st in doc["steps"]] == [[0, 1]]
    assert main(["verify", "--tower", str(UNIT_ORDER_TOWER)]) == 0


def test_compositum_coprimality_error(q5, eta, z_sqrt5):
    st1 = quadratic_step(q5.theta, eta)
    # Another step whose disc shares the prime above 19 but is a different
    # field: value = disc1 * unit^2 would collapse; we need a true overlap.
    # omega = 4 + theta: value = (4+theta)^2 - 4 eta = 16 + 8 theta + theta
    # + 1 - 4 - 8 theta = 13 + theta; norm = 169 + 13 - 1 = 181 prime: coprime.
    # Search a small overlap instead:
    found = None
    for a in range(-6, 7):
        for b in range(-6, 7):
            w = q5.element((a, b))
            v = w * w - 4 * eta
            if v.is_zero():
                continue
            try:
                st = quadratic_step(w, eta)
            except (ValueError, ArithmeticError):
                continue
            shares_19 = not st.disc_ideal.is_coprime(st1.disc_ideal)
            if shares_19 and st.disc_ideal != st1.disc_ideal:
                found = st
                break
        if found:
            break
    if found is None:
        pytest.skip("no small overlapping-disc witness")
    collapse_free = True
    from unitring.field import is_square_in_field

    if is_square_in_field(found.disc_value(eta) * st1.disc_value(eta)):
        collapse_free = False
    if collapse_free:
        tower = Tower(q5, z_sqrt5, eta)
        tower.extend(st1.omega)
        with pytest.raises(ValueError):
            tower.extend(found.omega)
        assert len(tower.steps) == len(tower.orders) - 1 == 1


def test_build_tower_one_step(q5, eta, z_sqrt5):
    t = build_tower(q5, start_order=z_sqrt5, eta=eta)
    assert len(t.steps) == 1
    assert t.steps[0].omega == q5.theta
    assert t.final_index == 1
    rep = verify_unit_generation(t)
    assert rep.all_passed()
    assert rep.as_dict() == {
        "eta_is_unit": True,
        "symbolic_identity": True,
        "reaches_maximal": True,
        "discs_coprime_and_odd": True,
        "step_count_bounded": True,
    }


def test_build_tower_deterministic(q5, eta, z_sqrt5):
    t1 = build_tower(q5, start_order=z_sqrt5, eta=eta)
    t2 = build_tower(q5, start_order=z_sqrt5, eta=eta)
    assert [s.omega.coords for s in t1.steps] == [s.omega.coords for s in t2.steps]


def test_build_tower_index_halving(q5, eta):
    # Deeper start: Z + 4 O_K has index 4; every step at least halves.
    # eta must be a non-square unit of that order: -theta^6 = -(5 + 8 theta).
    z4 = SubOrder(q5, [(1, 0), (0, 4)])
    eta4 = -(eta * eta)
    assert z4.contains(eta4) and abs(eta4.norm()) == 1
    t = build_tower(q5, start_order=z4, eta=eta4)
    indices = [z4.index]
    current = z4
    for st in t.steps:
        current = current.adjoin(st.omega)
        indices.append(current.index)
    for a, b in zip(indices, indices[1:]):
        assert b <= a // 2
    assert indices[-1] == 1
    assert len(t.steps) <= 2  # log2(4)
    assert verify_unit_generation(t).all_passed()


def test_build_tower_from_units(q5, eta):
    t = build_tower(q5, unit_order(q5, [eta]), eta)
    assert t.start_order.index == 2
    assert t.final_index == 1
    assert verify_unit_generation(t).all_passed()


def test_build_tower_empty(q5, eta):
    t = build_tower(q5, start_order=SubOrder.maximal(q5), eta=eta)
    assert t.steps == []
    assert t.final_index == 1
    assert verify_unit_generation(t).all_passed()


def test_build_tower_hypothesis_failure(eta):
    q2 = NumberField([-2, 0, 1])
    with pytest.raises(HypothesisError) as exc:
        build_tower(q2, start_order=SubOrder.maximal(q2), eta=q2.element((1, 1)))
    assert "sqrt(5)" in str(exc.value)


def test_verify_detects_tampering(q5, eta, z_sqrt5):
    # A stored discriminant ideal doubled to an even one: only check (d) fails.
    t = build_tower(q5, start_order=z_sqrt5, eta=eta)
    st = t.steps[0]
    two = IdealLattice.from_integer(q5, 2)
    t.steps[0] = dataclasses.replace(st, disc_ideal=st.disc_ideal * two)
    assert verify_unit_generation(t).as_dict() == {
        "eta_is_unit": True,
        "symbolic_identity": True,
        "reaches_maximal": True,
        "discs_coprime_and_odd": False,
        "step_count_bounded": True,
    }


def test_verify_detects_wrong_minpoly(q5, z_sqrt5):
    # omega = theta replayed with eta = 3 in place of a unit: X^2 - theta X + 3
    # certifies (value theta - 11, norm 109) and reaches O_K, but alpha's
    # characteristic polynomial has constant term 9, so (a) and (b) fail.
    t = Tower(q5, z_sqrt5, q5.rational(3))
    st = t.extend(q5.theta)
    assert st.disc_value(t.eta) == q5.theta - q5.rational(11) and st.disc_element_norm == 109
    assert verify_unit_generation(t).as_dict() == {
        "eta_is_unit": False,
        "symbolic_identity": False,
        "reaches_maximal": True,
        "discs_coprime_and_odd": True,
        "step_count_bounded": True,
    }


def test_belcher_paper_values():
    assert belcher_criterion(-1)
    assert belcher_criterion(-3)
    assert belcher_criterion(2)
    assert belcher_criterion(5)
    assert not belcher_criterion(79)
    assert not belcher_criterion(-5)
    assert belcher_criterion(3)  # 3+1 = 4
    assert not belcher_criterion(7)
    with pytest.raises(ValueError):
        belcher_criterion(12)
    with pytest.raises(ValueError):
        belcher_criterion(0)
    with pytest.raises(ValueError):
        belcher_criterion(1)


def test_belcher_stability():
    table1 = {d: belcher_criterion(d) for d in range(-100, 101)
              if d not in (0, 1) and _squarefree(d)}
    table2 = {d: belcher_criterion(d) for d in range(-100, 101)
              if d not in (0, 1) and _squarefree(d)}
    assert table1 == table2


def _squarefree(d):
    from unitring.intfactor import is_squarefree_int

    return is_squarefree_int(d)


def _generated_by_units_oracle(d):
    """Whether O_K of Q(sqrt d) is generated by its units, from the
    fundamental unit rather than from Belcher's criterion.

    For d < 0 the units are roots of unity, which generate O_K only for
    d = -1 and -3.  For d > 0 let omega be sqrt d, or (1 + sqrt d)/2 when
    d = 1 mod 4.  The first convergent p/q of omega's continued fraction
    with N(p - q omega) = +-1 gives the fundamental unit eps = p - q omega.
    Every unit lies in Z[eps], as eps^-1 = +-(Tr eps - eps), and
    [O_K : Z[eps]] = q.
    """
    if d < 0:
        return d in (-1, -3)
    quarter = d % 4 == 1
    big_p, big_q = (1, 2) if quarter else (0, 1)  # omega = (P + sqrt d) / Q
    p0, p1, q0, q1 = 0, 1, 1, 0
    while True:
        a = (big_p + isqrt(d)) // big_q
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        if quarter:
            norm = p1 * p1 - p1 * q1 + q1 * q1 * (1 - d) // 4
        else:
            norm = p1 * p1 - d * q1 * q1
        if abs(norm) == 1:
            return q1 == 1
        big_p = a * big_q - big_p
        big_q = (d - big_p * big_p) // big_q


def test_belcher_matches_fundamental_unit_oracle():
    ds = [d for d in range(-1000, 1001)
          if d not in (0, 1) and all(d % (k * k) for k in range(2, 32))]
    assert len(ds) == 1215
    assert [d for d in ds if belcher_criterion(d) != _generated_by_units_oracle(d)] == []
