"""Orders below the maximal order: conductors, contraction, extension.

A suborder is a full-rank subring of O_K stored as the HNF of its
coordinate lattice.  The conductor is computed as the colon ideal
{x in O_K : x * O_K is inside the order}, one multiplication-matrix
preimage per basis element.  Contraction and extension implement the
coprime-to-conductor bijection between ideal monoids, with the index
formula [O : a cap O] = N(a) on the coprime side.
"""

from fractions import Fraction

from .ideal import RESIDUE_CAP, IdealLattice, ResidueCapError, split_prime
from .linalg import (
    det_triangular,
    hnf,
    identity,
    in_lattice,
    lattice_intersection,
    lattice_scale_preimage,
    lattice_sum,
    quotient_box,
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
        for i in range(field.degree):
            a = field.element_from_coords_unchecked(h[i])
            for j in range(i, field.degree):
                b = field.element_from_coords_unchecked(h[j])
                if not in_lattice((a * b).coords, h):
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
            els = [field.element_from_coords_unchecked(r) for r in current]
            products = [(a * b).coords for i, a in enumerate(els) for b in els[i:]]
            nxt = hnf(list(current) + products)
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
        """Largest O_K-ideal contained in the order."""
        if self._conductor is not None:
            return self._conductor
        field = self.field
        n = field.degree
        current = self.basis_hnf
        for j in range(n):
            basis_j = field.element_from_coords_unchecked(
                tuple(1 if k == j else 0 for k in range(n))
            )
            mj = field.mult_matrix(basis_j)
            mj_frac = tuple(tuple(Fraction(x) for x in row) for row in mj)
            pre = lattice_scale_preimage(self.basis_hnf, mj_frac)
            current = lattice_intersection(current, pre)
        self._conductor = IdealLattice(field, hnf(current))
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
        field = self.field
        gens = []
        for r in rows:
            alpha = field.element_from_coords_unchecked(r)
            gens.append(alpha)
        return IdealLattice.from_generators(field, gens)

    def extend_contracted(self, rows):
        """psi on the coprime-to-conductor monoid; checks c + (f cap O) = O."""
        f_rows, _ = self.contract(self.conductor())
        if lattice_sum(rows, f_rows) != self.basis_hnf:
            raise CoprimalityError("module is not coprime to the conductor in O")
        return self.extend(rows)

    def residues_mod(self, sub_rows):
        """Transversal of the sublattice sub_rows inside the order."""
        h = hnf(sub_rows)
        count = abs(det_triangular(h)) // self.index
        if count > RESIDUE_CAP:
            raise ResidueCapError(f"residue system of size {count} exceeds cap {RESIDUE_CAP}")
        for v in quotient_box(h, self.basis_hnf):
            yield self.field.element(v)

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
    field = order.field
    groups = {}
    for pid in order.conductor_support():
        rows, idx = order.contract(pid.ideal)
        groups.setdefault(rows, (idx, []))[1].append(pid)
    out = []
    for rows, (idx, pids) in sorted(groups.items()):
        ext = order.extend(rows)
        fac = []
        seen = set()
        for p in sorted({q.p for q in pids}):
            for pid in split_prime(field, p):
                e = ext.valuation_at(pid)
                if e and pid not in seen:
                    fac.append((pid, e))
                    seen.add(pid)
        fac.sort(key=lambda t: t[0].sort_key())
        out.append((rows, idx, fac))
    return out


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
