"""L_O(a) by CRT over the order primes: the multiplicativity of the root
count over an order, checked against the one walk over O/(a cap O) of
density.root_count_order_bruteforce."""

from math import prod

from unitring.density import root_count, root_count_order_bruteforce
from unitring.ideal import IdealLattice, prime_power


def root_count_order_crt(poly, ideal, order):
    """L_O(a) as a product over the order primes below a.

    The prime-power parts of a that lie over one order prime p = P cap O
    form a group.  Contractions of groups over distinct order primes have
    distinct radicals, so they are comaximal in O, and L_O(a) is the
    product of the groups' brute-force counts.  On O_K it is root_count.
    """
    if order.is_maximal():
        return root_count(poly, ideal)
    groups = {}
    for pid, e in ideal.factor():
        groups.setdefault(order.contract(pid.ideal)[0], []).append(prime_power(pid, e))
    one = IdealLattice.unit_ideal(poly.field)
    return prod(root_count_order_bruteforce(poly, prod(parts, start=one), order)
                for parts in groups.values())
