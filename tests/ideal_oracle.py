"""Ideal-level m-freeness and the Moebius function, from the full
factorization of an ideal: references for the element-level test
ideal.element_is_mfree and for ideal counts over iter_ideals; and the
valuation of an element by membership, the reference for
ideal.element_valuation."""

from unitring.ideal import prime_power
from unitring.intfactor import is_power_free


def mobius(ideal):
    """Moebius function: (-1)^k on squarefree ideals with k primes, else 0."""
    if ideal.is_unit_ideal():
        return 1
    fac = ideal.factor()
    if any(e >= 2 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def is_mfree(ideal, m):
    """True iff no prime ideal power P^m divides the ideal.

    Fast path: if the rational integer norm is m-free then so is the ideal,
    because P^m | a forces p^m | norm(a).
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if ideal.is_unit_ideal():
        return True
    if is_power_free(ideal.norm, m):
        return True
    return all(e < m for _, e in ideal.factor())


def valuation_by_membership(alpha, pid):
    """v_P(alpha) for nonzero alpha by iterated membership of alpha in the
    cached powers of P; on alpha = 0 it never returns."""
    v = 0
    while prime_power(pid, v + 1).contains(alpha):
        v += 1
    return v
