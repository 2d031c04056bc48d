"""Orders below the maximal order: conductors, contraction, extension.

A suborder is a full-rank subring of O_K stored as the HNF of its
coordinate lattice.  The conductor is the colon ideal
{x in O_K : x * O_K is inside the order}, read off one integer kernel
modulo the index [O_K : O].  Contraction and extension implement the
coprime-to-conductor bijection between ideal monoids, with the index
formula [O : a cap O] = N(a) on the coprime side.
"""

from fractions import Fraction

from .ideal import IdealLattice
from .linalg import (
    det_triangular,
    hnf,
    hnf_kernel,
    identity,
    in_lattice,
    lattice_intersection,
    lattice_sum,
    mat_inv_frac,
    vec_mat,
)


class CoprimalityError(ValueError):
    """An operation that requires coprimality to the conductor got a violator."""


class SubOrder:
    """An order of the field, as an HNF sublattice of O_K closed under products."""

    __slots__ = ("field", "basis_hnf", "index", "_conductor", "_conductor_support")

    def __init__(self, field, basis_rows):
        h = hnf(basis_rows)
        if len(h) != field.degree:
            raise ValueError("order must have full rank")
        self.field = field
        self.basis_hnf = h
        self.index = abs(det_triangular(h))
        if not in_lattice(field.one_coords, h):
            raise ValueError("order must contain 1")
        if not all(in_lattice(v, h) for v in field.products(h, h)):
            raise ValueError("lattice is not closed under multiplication")
        self._conductor = None
        self._conductor_support = None

    @classmethod
    def maximal(cls, field):
        return cls(field, identity(field.degree))

    @classmethod
    def generated(cls, field, rows):
        """The ring generated by the rows, which must span 1: their HNF,
        closed under pairwise products of its rows until it stops changing.

        Raises ValueError when the ring has rank below the field degree.
        """
        current = hnf(rows)
        while True:
            nxt = hnf(list(current) + field.products(current, current))
            if nxt == current:
                break
            current = nxt
        if len(current) < field.degree:
            raise ValueError(f"the generators span a ring of rank {len(current)} < {field.degree}")
        return cls(field, current)

    def is_maximal(self):
        return self.index == 1

    def contains(self, alpha):
        return in_lattice(alpha.coords, self.basis_hnf)

    def __eq__(self, other):
        return (
            isinstance(other, SubOrder)
            and self.field is other.field
            and self.basis_hnf == other.basis_hnf
        )

    def __hash__(self):
        return hash((id(self.field), self.basis_hnf))

    def __repr__(self):
        return f"SubOrder(index={self.index})"

    # -- conductor -------------------------------------------------------------

    def conductor(self):
        """Largest O_K-ideal contained in the order.

        With H the order's HNF, d = [O_K : O] and A = d H^-1 (integral), x
        is in the conductor iff every x w_j is in O, i.e. coords(x w_j) A is
        0 mod d.  Row i of block B_j is coords(w_i w_j) A, so the conductor
        is the v with v [B_1 ... B_n] in d Z^(n^2): the first n coordinates
        of the integer kernel of that matrix stacked over d I.
        """
        if self._conductor is not None:
            return self._conductor
        field = self.field
        n = field.degree
        d = self.index
        a = [[int(x * d) for x in row] for row in mat_inv_frac(self.basis_hnf)]
        prods = field.products(identity(n), identity(n))  # w_i w_j at i n + j
        rows = [[x % d for j in range(n) for x in vec_mat(prods[i * n + j], a)] for i in range(n)]
        rows += [[d if k == i else 0 for k in range(n * n)] for i in range(n * n)]
        self._conductor = IdealLattice(field, hnf([v[:n] for v in hnf_kernel(rows)]))
        return self._conductor

    def conductor_support(self):
        """The prime ideals of O_K dividing the conductor, sorted by sort_key."""
        if self._conductor_support is None:
            self._conductor_support = tuple(pid for pid, _ in self.conductor().factor())
        return self._conductor_support

    # -- contraction / extension ------------------------------------------------

    def contract(self, ideal):
        """(HNF rows of a cap O, index [O : a cap O])."""
        rows = lattice_intersection(ideal.hnf, self.basis_hnf)
        idx = abs(det_triangular(rows)) // self.index
        return rows, idx

    def extend(self, rows):
        """The O_K-ideal generated by an O-submodule given by rows."""
        return IdealLattice.from_generators(self.field, [self.field.element(r) for r in rows])

    def extend_contracted(self, rows):
        """psi on the coprime-to-conductor monoid; checks c + (f cap O) = O."""
        f_rows, _ = self.contract(self.conductor())
        if lattice_sum(rows, f_rows) != self.basis_hnf:
            raise CoprimalityError("module is not coprime to the conductor in O")
        return self.extend(rows)

    # -- order enlargement --------------------------------------------------------

    def adjoin(self, alpha):
        """The order O[alpha] for an algebraic integer alpha."""
        return SubOrder.generated(self.field, list(self.basis_hnf) + [alpha.coords])


def order_primes_over_conductor(order):
    """Primes of the order containing the conductor, with their O_K data.

    Returns a list of records (p_rows, index_in_order, [(PrimeIdealData, e)])
    where p_rows is the HNF of the order-prime p = P cap O, index_in_order
    is [O : p], and the last entry factors p*O_K.
    """
    groups = dict(order.contract(pid.ideal) for pid in order.conductor_support())
    return [(rows, idx, order.extend(rows).factor()) for rows, idx in sorted(groups.items())]


def index_lower_bound(order):
    """Lemma-style lower bound for [O_K : O] from the conductor primes.

    Returns (bound as Fraction, attains_equality) where equality holds iff
    the conductor divides the product of all O_K-primes over the order
    primes, with their extension exponents.
    """
    field = order.field
    if order.is_maximal():
        return Fraction(1), True
    bound = Fraction(1)
    big_product = IdealLattice.unit_ideal(field)
    for _rows, idx, fac in order_primes_over_conductor(order):
        term = Fraction(1, idx)
        for pid, e in fac:
            term *= pid.norm**e
            big_product = big_product * (pid.ideal**e)
        bound *= term
    equality = order.conductor().divides(big_product)
    return bound, equality
