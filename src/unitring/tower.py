"""Constructive tower of quadratic extensions over a unit-generated order.

The loop: starting from the order generated by the supplied units (which
holds their inverses, see unit_order), search for an element w outside
the current order whose discriminant value w^2 - 4 eta avoids the
accumulated prime set and passes the step certificate (step_refusal:
nonzero, odd, not a square, squarefree), the one rule that both the
search and quadratic_step apply; adjoin it, halve the index, repeat.
Each accepted step certifies a quadratic extension K(alpha),
alpha^2 = w alpha - eta, whose ring of integers is the full polynomial
ring O_K[alpha] because every ramified prime carries discriminant
valuation exactly 1.  A compositum basis of products of the alphas then
exhibits the top ring of integers as generated by units over the base:
the step discriminants are pairwise coprime (check (d) of
verify_unit_generation), so those products span it.  The hypotheses on
eta (in the order, not a square) are checked once, by density.check_eta,
when a Tower is made and when find_omega starts; build_tower adds that
eta is a unit.
"""

from dataclasses import asdict, dataclass
from itertools import count, product

from .density import HypothesisError, check_eta, check_hypotheses, with_conductor_support
from .field import is_square_in_field
from .ideal import IdealLattice, element_is_mfree
from .intfactor import exact_root, is_squarefree_int
from .linalg import char_poly
from .order import SubOrder


# Engineering cap on the number of tower steps; each step halves the index.
MAX_STEPS = 64


class SearchExhausted(RuntimeError):
    """The candidate search hit its engineering cap without a witness."""


@dataclass(frozen=True)
class TowerStep:
    omega: object
    disc_ideal: IdealLattice
    disc_element_norm: int

    def disc_value(self, eta):
        return self.omega * self.omega - 4 * eta


class Tower:
    """A tower is its inputs: the field, the start order, the eta and
    the steps, which `extend` grows one omega at a time.  What the steps
    imply is derived there, once per step: the chain of orders from the
    start order and the steps that enlarge the compositum basis (`kept`).
    Raises HypothesisError unless eta lies in the start order and is not
    a square (density.check_eta)."""

    def __init__(self, field, start_order, eta):
        check_eta(start_order, eta)
        self.field = field
        self.start_order = start_order
        self.eta = eta
        self.steps = []
        self.orders = [start_order]
        self.kept = []

    @property
    def final_index(self):
        return self.orders[-1].index

    @property
    def compositum_sets(self):
        """Subsets of step indices labelling the basis products of alphas."""
        sets = [frozenset()]
        for i in self.kept:
            sets += [s | {i} for s in sets]
        return sets

    def extend(self, omega):
        """Certify the step X^2 - omega X + eta, add it to the compositum
        basis and adjoin omega to the top order; returns the step.

        A step whose discriminant value differs from a product of kept ones
        by a square lies in their compositum and is not kept; otherwise its
        discriminant must be coprime to theirs.  Raises ValueError on a
        step that does not certify.
        """
        step = quadratic_step(omega, self.eta)
        kept = [self.steps[i] for i in self.kept]
        products = [step.disc_value(self.eta)]
        for k in kept:
            products += [v * k.disc_value(self.eta) for v in products]
        if not any(is_square_in_field(v) for v in products[1:]):
            if not all(step.disc_ideal.is_coprime(k.disc_ideal) for k in kept):
                raise ValueError(
                    "step discriminants are not pairwise coprime; "
                    "the compositum basis construction does not apply"
                )
            self.kept.append(len(self.steps))
        self.orders.append(self.orders[-1].adjoin(omega))
        self.steps.append(step)
        return step


def unit_order(field, unit_gens):
    """The order generated by 1 and the given units, which holds their
    inverses: a unit u is a root of its characteristic polynomial
    X^n + c_{n-1} X^{n-1} + ... + c_0 with c_0 = +-1, so
    u^-1 = -c_0 (u^{n-1} + c_{n-1} u^{n-2} + ... + c_1) lies in Z[u].

    Rejects non-units; rejects generator sets whose ring closure does not
    reach full rank (the ring would not be an order).
    """
    for u in unit_gens:
        if not u.is_unit():
            raise ValueError(f"generator with norm {u.norm()} is not a unit")
    return SubOrder.generated(field, [field.one_coords] + [u.coords for u in unit_gens])


def candidate_elements(field):
    """Deterministic stream of elements: shells of increasing coordinate
    max-norm, ordered inside a shell by (|c|, sign) per coordinate."""
    for shell in count():
        vals = [0] + [v for k in range(1, shell + 1) for v in (k, -k)]
        for coords in product(vals, repeat=field.degree):
            if max(map(abs, coords)) == shell:
                yield field.element(coords)


def find_omega(order, excluded, eta, search_bound=2000):
    """First element w (in the deterministic candidate order) outside the
    order whose discriminant value w^2 - 4 eta lies outside every excluded
    prime and passes the step certificate (step_refusal).  The candidate
    stream is endless, so only search_bound ends a fruitless search."""
    if order.is_maximal():
        raise HypothesisError("the order is already maximal; nothing to adjoin")
    check_eta(order, eta)
    # The gap argument needs the conductor support excluded as well.
    full_excluded = with_conductor_support(order, excluded)
    tried = 0
    for omega in candidate_elements(order.field):
        tried += 1
        if tried > search_bound:
            raise SearchExhausted(
                f"no admissible element within {search_bound} candidates"
            )
        if order.contains(omega):
            continue
        value = omega * omega - 4 * eta
        if any(pid.ideal.contains(value) for pid in full_excluded):
            continue
        if step_refusal(value) is None:
            return omega


def step_refusal(value):
    """Why a quadratic X^2 - omega X + eta with discriminant value
    omega^2 - 4 eta certifies no tower step, or None when it does: the
    value must be nonzero, odd, not a square and squarefree."""
    if value.is_zero():
        return "discriminant value is zero"
    if value.norm() % 2 == 0:
        return "discriminant value is not coprime to 2"
    if is_square_in_field(value):
        return "discriminant value is a square: the quadratic is reducible"
    if not element_is_mfree(value, 2):
        return "discriminant value is not squarefree"
    return None


def quadratic_step(omega, eta):
    """Certify one tower step: X^2 - omega X + eta with squarefree odd
    discriminant value defines a quadratic extension whose ring of
    integers is the polynomial ring, since the value's squarefree ideal
    gives every ramified prime discriminant valuation exactly 1.  Raises
    ValueError with the step_refusal reason on a step that does not
    certify."""
    value = omega * omega - 4 * eta
    reason = step_refusal(value)
    if reason is not None:
        raise ValueError(reason)
    return TowerStep(omega=omega, disc_ideal=IdealLattice.principal(value),
                     disc_element_norm=value.norm())


def build_tower(field, start_order, eta, search_bound=2000):
    """Run the full construction from start_order and the unit eta: check
    the field's hypotheses and that eta is a unit (Tower checks the rest of
    eta's), then extend the tower by the first admissible omega until
    its top order is maximal, each step at least halving the index."""
    check_hypotheses(field)
    if not eta.is_unit():
        raise HypothesisError("eta must be a unit")

    tower = Tower(field, start_order, eta)
    excluded = set()
    while not tower.orders[-1].is_maximal():
        if len(tower.steps) >= MAX_STEPS:
            raise SearchExhausted("maximum number of tower steps exceeded")
        omega = find_omega(tower.orders[-1], tuple(excluded), eta, search_bound)
        step = tower.extend(omega)
        if tower.orders[-1].index * 2 > tower.orders[-2].index:
            raise ArithmeticError("index did not halve after adjoining the witness")
        excluded |= {pid for pid, _ in step.disc_ideal.factor()}
    return tower


@dataclass
class VerificationReport:
    eta_is_unit: bool
    symbolic_identity: bool
    reaches_maximal: bool
    discs_coprime_and_odd: bool
    step_count_bounded: bool

    def all_passed(self):
        return all(self.as_dict().values())

    def as_dict(self):
        return asdict(self)


def alpha_char_poly(omega, eta):
    """Characteristic polynomial over Q, constant first, of a root alpha of
    X^2 - omega X + eta: that of the 2n x 2n integer matrix of
    multiplication by alpha on O_K + O_K alpha, where alpha w_i = w_i alpha
    and alpha w_i alpha = -eta w_i + omega w_i alpha."""
    n = omega.field.degree
    minus_eta = omega.field.mult_matrix(-eta)
    times_omega = omega.field.mult_matrix(omega)
    rows = [(0,) * n + tuple(int(i == j) for j in range(n)) for i in range(n)]
    rows += [minus_eta[i] + times_omega[i] for i in range(n)]
    return char_poly(rows)


def verify_unit_generation(tower):
    """Re-verify the five claims of a tower.

    (a) eta is a unit; (b) each alpha is a unit: its characteristic
        polynomial over Q is monic with constant term +-1, so alpha^-1 is
        integral and omega = alpha + eta alpha^-1.  That constant term is
        N_{L/Q}(alpha) = N_{K/Q}(eta), so (b) passes exactly when (a) does:
        it is not an independent check; (c) the tower's chain of
        orders ends at the maximal order; (d) the step discriminants are odd
        and pairwise coprime; (e) the number of steps is at most log2 of the
        start index.
    """
    field = tower.field
    eta_ok = tower.eta.is_unit()
    char_polys = [alpha_char_poly(st.omega, tower.eta) for st in tower.steps]
    symbolic_ok = all(cp[-1] == 1 and cp[0] in (1, -1) for cp in char_polys)
    reaches = tower.orders[-1].is_maximal()

    discs_ok = True
    two = IdealLattice.from_integer(field, 2)
    for i, st in enumerate(tower.steps):
        if not st.disc_ideal.is_coprime(two):
            discs_ok = False
        for st2 in tower.steps[i + 1:]:
            if not st.disc_ideal.is_coprime(st2.disc_ideal):
                discs_ok = False

    count_ok = len(tower.steps) <= tower.start_order.index.bit_length() - 1

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
    k = 1 if d % 4 != 1 else 4
    return any(exact_root(d + t, 2) is not None for t in (k, -k))
