"""Every element of a finite residue field, by enumeration: the reference
that root finding and arithmetic over F_q are checked against."""

from itertools import product

from unitring.poly import PrimeField, trim


def field_elements(fq):
    """The elements of a PrimeField or ResidueField, the coefficient tuples
    with the constant term varying fastest."""
    if isinstance(fq, PrimeField):
        return list(range(fq.p))
    return [trim(t[::-1], fq.base) for t in product(range(fq.p), repeat=fq.f)]
