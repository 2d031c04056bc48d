"""Integer factorization sized for norm values from desk-scale sieves.

Strategy: trial division over a shared prime table (hot kernel), then
Brent's cycle-finding rho with a deterministic Miller-Rabin certificate on
every cofactor.  The thirteen Miller-Rabin bases 2..41 are a proof of
primality below PSI_13 (about 3.3 * 10**24), well above the norms of
the bundled workloads.  A composite verdict is a proof at any size; a number
at or above PSI_13 that passes every base raises PrimalityUnproven
instead of being called prime.
"""

from math import gcd, isqrt

from . import kernel

TRIAL_LIMIT = 10**6

_primes = None


class PrimalityUnproven(ArithmeticError):
    """n >= PSI_13 passed every Miller-Rabin base: prime is not proven."""

    def __init__(self, n):
        super().__init__(f"{n} passes every Miller-Rabin base but is not below PSI_13")
        self.n = n


class FactorizationTimeout(Exception):
    """Raised when the rho stage exhausts its iteration budget."""

    def __init__(self, n):
        super().__init__(f"failed to factor {n} within budget")
        self.n = n


def primes():
    global _primes
    if _primes is None:
        _primes = kernel.prime_table(TRIAL_LIMIT)
    return _primes


# Deterministic for n < PSI_13 (Sorenson & Webster).  PSI_13 itself, the
# smallest strong pseudoprime to all thirteen bases, is 1287836182261 *
# 2575672364521.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def is_prime(n):
    """Proven primality test; raises PrimalityUnproven where no proof is at hand."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PSI_13:
        raise PrimalityUnproven(n)
    return True


def _brent_rho(n, max_iter=10**7):
    """One nontrivial factor of composite odd n, deterministic seed schedule."""
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        it = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
            it += r
            if it > max_iter:
                break
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    raise FactorizationTimeout(n)


def factor(n):
    """Sorted list of (prime, exponent) pairs; factor(1) == []."""
    if n < 0:
        n = -n
    if n == 0:
        raise ValueError("cannot factor 0")
    if n == 1:
        return []
    fac, cof = kernel.trial_divide(n, primes())
    fac = [(int(p), int(e)) for p, e in fac]
    if cof > 1:
        stack = [cof]
        extra = {}
        while stack:
            c = stack.pop()
            if is_prime(c):
                extra[c] = extra.get(c, 0) + 1
                continue
            r = isqrt(c)
            if r * r == c:
                stack += [r, r]
                continue
            d = _brent_rho(c)
            stack += [d, c // d]
        merged = {}
        for p, e in fac:
            merged[p] = merged.get(p, 0) + e
        for p, e in extra.items():
            merged[p] = merged.get(p, 0) + e
        fac = sorted(merged.items())
    return fac


def is_power_free(n, m):
    """True iff no prime power p**m divides |n|.  n must be nonzero."""
    if n < 0:
        n = -n
    if n == 0:
        raise ValueError("0 is not m-free")
    if n == 1:
        return True
    verdict = kernel.power_free_part_known(n, m, primes())
    if verdict != 2:
        return bool(verdict)
    # Cofactor above the table square: finish the job properly.
    return all(e < m for _, e in factor(n))


def is_squarefree_int(n):
    return is_power_free(n, 2)
