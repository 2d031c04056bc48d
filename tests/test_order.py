from fractions import Fraction
from itertools import product

import pytest

from unitring.field import NumberField
from unitring.fieldspec import BUNDLED, load_field_spec
from unitring.ideal import IdealLattice, iter_ideals
from unitring.linalg import hnf, lattice_sum
from unitring.order import CoprimalityError, SubOrder, index_lower_bound


@pytest.fixture(scope="module")
def q5():
    return NumberField([-1, -1, 1], name="Q(sqrt5)")


@pytest.fixture(scope="module")
def z_sqrt5(q5):
    return SubOrder(q5, [(1, 0), (-1, 2)])


@pytest.fixture(scope="module")
def z_3theta(q5):
    return SubOrder(q5, [(1, 0), (0, 3)])


def test_conductor_examples(q5, z_sqrt5, z_3theta):
    assert SubOrder.maximal(q5).conductor() == IdealLattice.unit_ideal(q5)
    assert z_sqrt5.conductor() == IdealLattice.from_integer(q5, 2)
    assert z_3theta.conductor() == IdealLattice.from_integer(q5, 3)


def test_conductor_maximality(q5, z_sqrt5):
    # Largest-ideal property: for every alpha in the order but outside the
    # conductor, the O_K-ideal generated by alpha does not fit inside the
    # order, so no one-element enlargement of f stays an ideal inside O.
    f = z_sqrt5.conductor()
    outside = [
        q5.element(r)
        for r in [(1, 0), (0, 2), (1, 2), (-1, 2)]
        if not f.contains(q5.element(r))
    ]
    assert outside
    for alpha in outside:
        assert z_sqrt5.contains(alpha)
        gen = IdealLattice.principal(alpha) + f
        assert not all(z_sqrt5.contains(q5.element(r)) for r in gen.hnf)


def test_order_invariants(q5, z_sqrt5):
    assert z_sqrt5.contains(q5.one)
    assert z_sqrt5.index == 2
    with pytest.raises(ValueError):
        SubOrder(q5, [(2, 0), (0, 2)])  # does not contain 1
    with pytest.raises(ValueError):
        SubOrder(q5, [(1, 0)])  # not full rank


def test_contract_examples(q5, z_sqrt5):
    assert z_sqrt5.contract(IdealLattice.unit_ideal(q5))[1] == 1
    assert z_sqrt5.contract(IdealLattice.from_integer(q5, 3))[1] == 9
    assert z_sqrt5.contract(IdealLattice.from_integer(q5, 2))[1] == 2


def test_lemma5_index_and_roundtrip_500(q5, z_sqrt5, z_3theta):
    ideals = iter_ideals(q5, 500)
    for order in (z_sqrt5, z_3theta):
        f = order.conductor()
        for a in ideals:
            if not a.is_coprime(f):
                continue
            rows, idx = order.contract(a)
            assert idx == a.norm, f"index formula fails at norm {a.norm}"
            assert order.extend_contracted(rows) == a


def test_lemma5_comaximality_200(q5, z_sqrt5):
    # Contractions of coprime ideals (both coprime to the conductor) are
    # comaximal in the order; contractions of conductor divisors too.
    ideals = [a for a in iter_ideals(q5, 200) if not a.is_unit_ideal()]
    f = z_sqrt5.conductor()
    coprime = [a for a in ideals if a.is_coprime(f)]
    divisors = [a for a in ideals if f.divides(a) or a.divides(f)]
    for i, a in enumerate(coprime):
        ra, _ = z_sqrt5.contract(a)
        for b in coprime[i + 1:]:
            if a.is_coprime(b):
                rb, _ = z_sqrt5.contract(b)
                assert lattice_sum(ra, rb) == z_sqrt5.basis_hnf
        for b in divisors:
            if b.divides(f):
                rb, _ = z_sqrt5.contract(b)
                assert lattice_sum(ra, rb) == z_sqrt5.basis_hnf


def test_extend_contracted_rejects_conductor_divisor(q5, z_sqrt5):
    rows, _ = z_sqrt5.contract(IdealLattice.from_integer(q5, 2))
    with pytest.raises(CoprimalityError):
        z_sqrt5.extend_contracted(rows)


def test_phi_psi_inverse_both_ways(q5, z_sqrt5):
    # psi(phi(a)) == a tested above; now phi(psi(c)) == c for order ideals
    # coprime to the conductor, generated from contracted ideals.
    for norm_target in (3, 11, 19, 9):
        for pid, _ in IdealLattice.from_integer(q5, norm_target).factor():
            rows, _ = z_sqrt5.contract(pid.ideal)
            ext = z_sqrt5.extend_contracted(rows)
            back, _ = z_sqrt5.contract(ext)
            assert hnf(back) == hnf(rows)


def test_index_lower_bound_examples(q5, z_sqrt5, z_3theta):
    assert index_lower_bound(SubOrder.maximal(q5)) == (Fraction(1), True)
    b5, eq5 = index_lower_bound(z_sqrt5)
    assert b5 == 2 and eq5 and z_sqrt5.index == 2
    b3, eq3 = index_lower_bound(z_3theta)
    assert b3 == 3 and eq3 and z_3theta.index == 3


def test_index_lower_bound_strict(q5):
    # Z + 4 O_K: conductor (4) strictly exceeds the prime product (2).
    z4 = SubOrder(q5, [(1, 0), (0, 4)])
    bound, equality = index_lower_bound(z4)
    assert bound == 2 and not equality
    assert bound < z4.index == 4


def test_index_lower_bound_always_lower(q5):
    for rows in ([(1, 0), (0, 2)], [(1, 0), (0, 4)], [(1, 0), (0, 6)], [(1, 0), (-1, 2)]):
        order = SubOrder(q5, rows)
        if order.is_maximal():
            continue
        bound, equality = index_lower_bound(order)
        assert bound <= order.index
        if equality:
            assert bound == order.index


def test_adjoin(q5, z_sqrt5):
    enlarged = z_sqrt5.adjoin(q5.theta)
    assert enlarged.is_maximal()
    same = z_sqrt5.adjoin(q5.element((-1, 2)))  # sqrt5 already inside
    assert same == z_sqrt5


@pytest.mark.parametrize("name", BUNDLED)
def test_generated_returns_bundled_orders_unchanged(name):
    spec = load_field_spec(name)
    for order in [SubOrder.maximal(spec.field), *spec.orders.values()]:
        assert SubOrder.generated(spec.field, order.basis_hnf) == order


def test_generated_ring_closure(q5, z_sqrt5):
    # Z[sqrt5] from 1 and sqrt5 alone: sqrt5^2 = 5 is already in the span.
    assert SubOrder.generated(q5, [(1, 0), (-1, 2)]) == z_sqrt5
    # In a cubic field 1 and theta span a rank-2 module; its closure adds
    # theta^2 and reaches Z[theta] = O_K.
    cubic = NumberField([-1, -1, 0, 1])
    assert SubOrder.generated(cubic, [(1, 0, 0), (0, 1, 0)]).is_maximal()
    with pytest.raises(ValueError):
        SubOrder.generated(q5, [(1, 0)])  # Z has rank 1


def test_conductor_support(q5, z_sqrt5, z_3theta):
    assert SubOrder.maximal(q5).conductor_support() == ()
    for order in (z_sqrt5, z_3theta, SubOrder(q5, [(1, 0), (0, 4)])):
        support = order.conductor_support()
        assert support == tuple(pid for pid, _ in order.conductor().factor())
        assert list(support) == sorted(support, key=lambda q: q.sort_key())
        assert order.conductor_support() is support
    assert [pid.p for pid in z_3theta.conductor_support()] == [3]


def _z_plus(field, k):
    """The order Z + k O_K."""
    n = field.degree
    rows = [[k * (i == j) for j in range(n)] for i in range(n)]
    return SubOrder(field, [field.one_coords, *rows])


def _conductor_oracle(order):
    """The conductor from its definition: d O_K lies in it for d = [O_K : O],
    so it is spanned by d O_K and the residues x mod d O_K with every x w_j
    in the order."""
    field = order.field
    n, d = field.degree, order.index
    basis = [field.element(tuple(int(i == j) for j in range(n))) for i in range(n)]
    kept = [
        c for c in product(range(d), repeat=n)
        if all(order.contains(field.element(c) * w) for w in basis)
    ]
    return hnf(kept + [tuple(d * (i == j) for j in range(n)) for i in range(n)])


@pytest.mark.parametrize("poly, rows", [
    ([-1, -1, 1], [(1, 0), (-1, 2)]),  # Z[sqrt5]
    ([-1, -1, 1], [(1, 0), (0, 3)]),  # Z[3 theta]
    ([-1, -1, 1], 4),
    ([1, 0, 1], 2),
    ([1, 0, 1], 3),
    ([-1, -1, 0, 1], 2),  # cubic-23
    ([-1, -1, 0, 1], 3),
    ([1, 0, 0, 0, 1], 2),  # X^4 + 1
], ids=["q5_z_sqrt5", "q5_z_3theta", "q5_z_4", "qi_z_2", "qi_z_3", "cubic23_z_2",
        "cubic23_z_3", "x4p1_z_2"])
def test_conductor_matches_residue_oracle(poly, rows):
    field = NumberField(poly)
    order = SubOrder(field, rows) if isinstance(rows, list) else _z_plus(field, rows)
    assert order.conductor().hnf == _conductor_oracle(order)
