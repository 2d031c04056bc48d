"""Constructive tower of quadratic extensions over a unit-generated order.

The loop: starting from the order generated by the supplied units, search
for an element w outside the current order whose discriminant value
w^2 - 4 eta is squarefree, odd, and avoids the accumulated prime set;
adjoin it, halve the index, repeat.  Each accepted step certifies a
quadratic extension K(alpha), alpha^2 = w alpha - eta, whose ring of
integers is the full polynomial ring O_K[alpha] because every ramified
prime carries discriminant valuation exactly 1.  A compositum basis of
products of the alphas then exhibits the top ring of integers as generated
by units over the base.
"""

from dataclasses import dataclass
from math import gcd, isqrt

from .density import HypothesisError, check_hypotheses, with_conductor_support
from .field import is_square_in_field
from .ideal import IdealLattice, element_is_mfree, split_prime
from .intfactor import is_squarefree_int
from .order import SubOrder


# Engineering cap on the number of tower steps; each step halves the index.
MAX_STEPS = 64


class SearchExhausted(RuntimeError):
    """The candidate search hit its engineering cap without a witness."""


@dataclass(frozen=True)
class TowerStep:
    omega: object
    eta: object
    disc_ideal: IdealLattice
    disc_element_norm: int
    alpha_minpoly: tuple  # (eta, -omega, 1): X^2 - omega X + eta, constant first

    def disc_value(self):
        return self.omega * self.omega - 4 * self.eta


@dataclass
class Tower:
    field: object
    start_order: SubOrder
    eta: object
    steps: list
    final_order: SubOrder
    compositum_sets: list  # subsets of step indices labelling the basis products
    relative_disc: IdealLattice

    @property
    def final_index(self):
        return self.final_order.index


def unit_order(field, unit_gens):
    """The order generated by 1 and the given units with their inverses.

    Rejects non-units; rejects generator sets whose ring closure does not
    reach full rank (the ring would not be an order).
    """
    rows = [field.one_coords]
    for u in unit_gens:
        if abs(u.norm()) != 1:
            raise ValueError(f"generator with norm {u.norm()} is not a unit")
        rows += [u.coords, u.inverse().coords]
    return SubOrder.generated(field, rows)


def candidate_elements(field, start_shell=0):
    """Deterministic stream of elements: shells of increasing coordinate
    max-norm, ordered inside a shell by (|c|, sign) per coordinate."""
    n = field.degree
    shell = start_shell

    def key_order(bound):
        vals = [0]
        for v in range(1, bound + 1):
            vals.extend([v, -v])
        return vals

    while True:
        vals = key_order(shell)

        def rec(idx, current, on_boundary):
            if idx == n:
                if on_boundary:
                    yield tuple(current)
                return
            for v in vals:
                current.append(v)
                yield from rec(idx + 1, current, on_boundary or abs(v) == shell)
                current.pop()

        for coords in rec(0, [], shell == 0):
            yield field.element(coords)
        shell += 1


def find_omega(order, excluded, eta, search_bound=2000):
    """First element w (in the deterministic candidate order) with
    w outside the order, w^2 - 4 eta outside every excluded prime, and
    (w^2 - 4 eta) squarefree."""
    field = order.field
    if order.is_maximal():
        raise HypothesisError("the order is already maximal; nothing to adjoin")
    if not order.contains(eta):
        raise HypothesisError("eta must lie in the order")
    if is_square_in_field(eta):
        raise HypothesisError("eta must not be a square in the field")
    # The gap argument needs the conductor support excluded as well.
    full_excluded = with_conductor_support(order, excluded)
    tried = 0
    for omega in candidate_elements(field):
        tried += 1
        if tried > search_bound:
            raise SearchExhausted(
                f"no admissible element within {search_bound} candidates"
            )
        if order.contains(omega):
            continue
        value = omega * omega - 4 * eta
        if value.is_zero():
            continue
        if any(pid.ideal.contains(value) for pid in full_excluded):
            continue
        if not element_is_mfree(value, 2):
            continue
        return omega
    raise SearchExhausted("candidate stream ended unexpectedly")


def quadratic_step(omega, eta):
    """Certify one tower step: X^2 - omega X + eta with squarefree odd
    discriminant value defines a quadratic extension whose ring of
    integers is the polynomial ring; discriminant valuations are verified
    prime by prime through the power-valuation formula."""
    field = omega.field
    value = omega * omega - 4 * eta
    if value.is_zero():
        raise ValueError("discriminant value is zero")
    nrm = value.norm()
    if nrm % 2 == 0:
        raise ValueError("discriminant value is not coprime to 2")
    if is_square_in_field(value):
        raise ValueError("discriminant value is a square: the quadratic is reducible")
    disc_ideal = IdealLattice.principal(value)
    if not element_is_mfree(value, 2):
        raise ValueError("discriminant value is not squarefree")
    # Lemma check: every ramified prime gets valuation exactly 1.
    for pid, e in disc_ideal.factor():
        v = llorente_nart_valuation(2, 0, e)
        if v != 1 or e != 1:
            raise ArithmeticError("squarefree discriminant should have valuation 1")
    return TowerStep(
        omega=omega,
        eta=eta,
        disc_ideal=disc_ideal,
        disc_element_norm=nrm,
        alpha_minpoly=(eta, -omega, field.one),
    )


def llorente_nart_valuation(r, v_p_of_r, v_p_of_beta):
    """Discriminant valuation of the radical extension X^r - beta at a
    prime not dividing gcd(r, v_P(beta)): r*v_P(r) + r - gcd(r, v_P(beta))."""
    if r < 2:
        raise ValueError("radical degree must be at least 2")
    if v_p_of_r < 0 or v_p_of_beta < 0:
        raise ValueError("valuations must be nonnegative")
    return r * v_p_of_r + r - gcd(r, v_p_of_beta)


def compositum_basis(steps):
    """Index sets of the compositum integral basis and the relative
    discriminant of the full tower over the base field.

    A later step falling inside the compositum of the earlier ones (its
    discriminant value differing from a product of earlier ones by a
    square) collapses; otherwise pairwise coprimality of the discriminants
    is required and the discriminant multiplies as disc(L)^2 * (d_i)^[L:K].
    """
    if not steps:
        raise ValueError("empty step list")
    field = steps[0].omega.field
    kept = []
    sets = [frozenset()]
    rel_disc = IdealLattice.unit_ideal(field)
    for idx, step in enumerate(steps):
        value = step.disc_value()
        collapsed = False
        for mask in range(1, 1 << len(kept)):
            prod = value
            for i, kstep in enumerate(kept):
                if mask >> i & 1:
                    prod = prod * kstep.disc_value()
            if is_square_in_field(prod):
                collapsed = True
                break
        if collapsed:
            continue
        for kstep in kept:
            if not step.disc_ideal.is_coprime(kstep.disc_ideal):
                raise ValueError(
                    "step discriminants are not pairwise coprime; "
                    "the compositum basis construction does not apply"
                )
        # D_{LL'} = D_L^{[L':K]} * D_{L'}^{[L:K]}, iterated over the steps.
        degree_so_far = 1 << len(kept)
        rel_disc = (rel_disc * rel_disc) * (step.disc_ideal**degree_so_far)
        new_sets = list(sets)
        for s in sets:
            new_sets.append(s | {idx})
        sets = new_sets
        kept.append(step)
    return sets, rel_disc


def build_tower(field, unit_gens=None, start_order=None, eta=None, search_bound=2000):
    """Run the full construction: check hypotheses, iterate the element
    search, enlarge the order until it is maximal, and verify."""
    if not check_hypotheses(field):
        raise HypothesisError(
            "a prime above 2 or 3 has residue degree 1; the construction "
            "applies after base-change to K(sqrt(5))"
        )
    if start_order is None:
        if not unit_gens:
            raise ValueError("need unit generators or an explicit start order")
        start_order = unit_order(field, unit_gens)
    if eta is None:
        raise ValueError("an explicit non-square unit eta is required")
    if abs(eta.norm()) != 1:
        raise HypothesisError("eta must be a unit")
    if not start_order.contains(eta):
        raise HypothesisError("eta must lie in the starting order")
    if is_square_in_field(eta):
        raise HypothesisError("eta must not be a square in the field")

    current = start_order
    excluded = set(split_prime(field, 2))
    steps = []
    while not current.is_maximal():
        if len(steps) >= MAX_STEPS:
            raise SearchExhausted("maximum number of tower steps exceeded")
        omega = find_omega(current, tuple(excluded), eta, search_bound)
        step = quadratic_step(omega, eta)
        enlarged = current.adjoin(omega)
        if enlarged.index * 2 > current.index:
            raise ArithmeticError("index did not halve after adjoining the witness")
        steps.append(step)
        excluded |= {pid for pid, _ in step.disc_ideal.factor()}
        current = enlarged
    if steps:
        sets, rel_disc = compositum_basis(steps)
    else:
        sets, rel_disc = [frozenset()], IdealLattice.unit_ideal(field)
    return Tower(
        field=field,
        start_order=start_order,
        eta=eta,
        steps=steps,
        final_order=current,
        compositum_sets=sets,
        relative_disc=rel_disc,
    )


@dataclass
class VerificationReport:
    eta_is_unit: bool
    symbolic_identity: bool
    reaches_maximal: bool
    discs_coprime_and_odd: bool
    step_count_bounded: bool

    def all_passed(self):
        return all(
            (
                self.eta_is_unit,
                self.symbolic_identity,
                self.reaches_maximal,
                self.discs_coprime_and_odd,
                self.step_count_bounded,
            )
        )

    def as_dict(self):
        return {
            "eta_is_unit": self.eta_is_unit,
            "symbolic_identity": self.symbolic_identity,
            "reaches_maximal": self.reaches_maximal,
            "discs_coprime_and_odd": self.discs_coprime_and_odd,
            "step_count_bounded": self.step_count_bounded,
        }


def verify_unit_generation(tower):
    """Re-verify the five structural claims of a built tower.

    (a) every step's constant term is a unit (so each alpha is a unit);
    (b) each step's alpha_minpoly is X^2 - omega X + eta, so that
        alpha (omega - alpha) = eta, i.e. omega = alpha + eta/alpha, holds
        in O_K[X]/(alpha_minpoly); (c) adjoining all omegas to the start order reaches
        the maximal order; (d) the step discriminants are odd and pairwise
        coprime; (e) the number of steps is at most log2 of the start index.
    """
    field = tower.field
    eta_ok = all(abs(st.eta.norm()) == 1 for st in tower.steps)

    symbolic_ok = all(st.alpha_minpoly == (st.eta, -st.omega, field.one) for st in tower.steps)

    rebuilt = tower.start_order
    for st in tower.steps:
        rebuilt = rebuilt.adjoin(st.omega)
    reaches = rebuilt.is_maximal() and tower.final_order.is_maximal()

    discs_ok = True
    two = IdealLattice.from_integer(field, 2)
    for i, st in enumerate(tower.steps):
        if not st.disc_ideal.is_coprime(two):
            discs_ok = False
        for st2 in tower.steps[i + 1:]:
            if not st.disc_ideal.is_coprime(st2.disc_ideal):
                discs_ok = False

    start_index = tower.start_order.index
    bound = 0
    while 1 << (bound + 1) <= start_index:
        bound += 1
    count_ok = len(tower.steps) <= bound or (start_index == 1 and not tower.steps)

    return VerificationReport(
        eta_is_unit=eta_ok,
        symbolic_identity=symbolic_ok,
        reaches_maximal=reaches,
        discs_coprime_and_odd=discs_ok,
        step_count_bounded=count_ok,
    )


def belcher_criterion(d):
    """Quadratic-field unit-generation test for a squarefree d not 0 or 1.

    True exactly when d is -1 or -3; or d > 0, d != 1 mod 4, and d-1 or
    d+1 is a perfect square; or d > 0, d == 1 mod 4, and d-4 or d+4 is a
    perfect square.
    """
    if d in (0, 1):
        raise ValueError("d must be a squarefree integer other than 0 and 1")
    if not is_squarefree_int(d):
        raise ValueError(f"{d} is not squarefree")
    if d in (-1, -3):
        return True
    if d < 0:
        return False
    if d % 4 != 1:
        return _is_square(d + 1) or _is_square(d - 1)
    return _is_square(d + 4) or _is_square(d - 4)


def _is_square(v):
    if v < 0:
        return False
    r = isqrt(v)
    return r * r == v
