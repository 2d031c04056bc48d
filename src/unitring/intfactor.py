"""Integer factorization sized for norm values from desk-scale sieves.

Strategy: trial division over a shared prime table, then Brent's
cycle-finding rho with a deterministic Miller-Rabin certificate on every
cofactor.  The table of primes up to TRIAL_LIMIT is built only when trial
division passes the last prime below SMOOTH_BOUND.  The m-free test has one
kernel, a chunk of values at a time, which returns only the values that
are not m-free: for the chunk's largest value M it takes the primes below
a power of two B > M**(1/(m+1)) out of every value through iterated gcds
with their product (Bernstein, "How to find smooth parts of integers",
2004), reading that product modulo each value down a remainder tree.  The
cofactor left has at most m prime factors, so one exact root decides, and
no trial division is left.

The thirteen Miller-Rabin bases 2..41 are a proof of primality below
PSI_13 (about 3.3 * 10**24), well above the norms of the bundled
workloads.  A composite verdict is a proof at any size.  A cofactor at
or above PSI_13 that passes every base gets one bounded rho attempt; if
that splits it, factoring goes on with the parts, and otherwise it raises
PrimalityUnproven instead of being called prime.
"""

from array import array
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt, prod

TRIAL_LIMIT = 10**6
# Trial division reads the primes below this bound from a small table while
# the square root of the cofactor stays below its last prime.
SMOOTH_BOUND = 4096
# Iterations of the one rho attempt on a cofactor that passes every
# Miller-Rabin base at or above PSI_13: a few seconds at most.
UNPROVEN_RHO_ITER = 2 * 10**6

_primes = None
_below = {}


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


def prime_table(limit):
    """array('Q') of all primes <= limit (cached by caller): 2, then a
    sieve of the odd numbers, entry i standing for 2 i + 1."""
    if limit < 2:
        return array("Q", [])
    sieve = bytearray([1]) * ((limit + 1) // 2)
    sieve[0] = 0
    for i in range(1, (isqrt(limit) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = bytearray(len(range(p * p // 2, len(sieve), p)))
    return array("Q", [2]) + array("Q", compress(range(1, limit + 1, 2), sieve))


def primes():
    global _primes
    if _primes is None:
        _primes = prime_table(TRIAL_LIMIT)
    return _primes


def _primes_below(bound):
    """(B, the primes below B, their product), cached, for the least power
    of two B >= bound."""
    top = 1 << (bound - 1).bit_length()
    if top not in _below:
        table = prime_table(top - 1)
        _below[top] = (top, table, tree_product(table))
    return _below[top]


def tree_product(xs):
    """The product of the integers xs by a balanced tree: each level
    multiplies neighbours of similar size, not a long product by a short
    factor."""
    while len(xs) > 1:
        xs = [prod(xs[i:i + 2]) for i in range(0, len(xs), 2)]
    return xs[0] if xs else 1


def iroot(n, k):
    """Largest r with r**k <= n, for integers n >= 0 and k >= 2."""
    if n < 2:
        return n
    if k == 2:
        return isqrt(n)
    # Integer Newton from above decreases monotonically to the floor root.
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def exact_root(x, k):
    """The r >= 0 with r**k == x, for an int or Fraction x and k >= 2: an
    int for an int x, a Fraction for a Fraction; None when x has no exact
    k-th root, negative x included."""
    if x < 0:
        return None
    if isinstance(x, Fraction):
        num, den = exact_root(x.numerator, k), exact_root(x.denominator, k)
        return None if num is None or den is None else Fraction(num, den)
    r = iroot(x, k)
    return r if r**k == x else None


def _trial_divide(n):
    """Divide the table primes p out of n while p**2 <= the cofactor.

    Returns (factors, cofactor, done): (p, e) pairs in increasing p, and
    done is True when the cofactor fell below p**2 for the next prime p,
    so that it is 1 or a prime above the last one divided out; done is
    False when the table ran out first with a cofactor above 1.
    """
    factors = []
    lim = isqrt(n)
    # lim only falls; below the last small prime, the small table suffices.
    small = _primes_below(SMOOTH_BOUND)[1]
    for p in small if lim < small[-1] else primes():
        if p > lim:
            return factors, n, True
        if n % p == 0:
            n, e = _remove(n, p)
            factors.append((p, e))
            lim = isqrt(n)
    return factors, n, n == 1


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


def _brent_rho(n, max_iter=10**7, seeds=49):
    """One nontrivial factor of composite odd n, deterministic seed schedule:
    the seeds c = 1 .. seeds, each with at most about max_iter iterations."""
    if n % 2 == 0:
        return 2
    for c in range(1, seeds + 1):
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
    fac, cof, done = _trial_divide(n)
    if cof == 1:
        return fac
    if done:
        # Fewer than two prime factors left: the cofactor is a prime.
        return fac + [(cof, 1)]
    return fac + _split(cof)


def _split(n):
    """Sorted (prime, exponent) pairs of n > 1 by rho and Miller-Rabin."""
    counts = {}
    stack = [n]
    while stack:
        c = stack.pop()
        try:
            prime = is_prime(c)
        except PrimalityUnproven:
            # Every base passed above PSI_13: a rho split still proves c
            # composite; a prime never splits, so the attempt is bounded.
            try:
                d = _brent_rho(c, UNPROVEN_RHO_ITER, seeds=1)
            except FactorizationTimeout:
                raise PrimalityUnproven(c) from None
            stack += [d, c // d]
            continue
        if prime:
            counts[c] = counts.get(c, 0) + 1
            continue
        r = exact_root(c, 2)
        if r is not None:
            stack += [r, r]
            continue
        d = _brent_rho(c)
        stack += [d, c // d]
    return sorted(counts.items())


def mth_power_primes(n, m):
    """Increasing list of the primes p with p**m | n, for n != 0 and m >= 2."""
    if n == 0:
        raise ValueError("0 is not m-free")
    return dict(mth_power_primes_chunk([n], m)).get(0, [])


def mth_power_primes_chunk(ns, m):
    """The values of ns that are not m-free, m >= 2, as (i, primes) in
    increasing i: primes is the increasing list of the primes p with
    p**m | ns[i], or None for ns[i] == 0.  An m-free value is left out.

    The primes below B > max |n| ** (1/(m+1)), B a power of two, leave each
    n by the gcd chain, whose first gcd(n, P), P their product, reads P mod
    X for a multiple X of n: a remainder tree over groups of eight values.
    Most values end at the second gcd, n / d_0 prime to d_0.  The cofactor
    left has at most m prime factors: below B**m it is m-free, and above it
    one exact root decides.  A chunk whose largest |n| reaches
    TRIAL_LIMIT**(m+1) is factored value by value instead."""
    ns = [abs(n) for n in ns]
    top = max(ns, default=0)
    if top >= TRIAL_LIMIT ** (m + 1):
        out = [(i, [p for p, e in factor(n) if e >= m] if n else None) for i, n in enumerate(ns)]
        return [(i, ps) for i, ps in out if ps != []]
    bound, table, primorial = _primes_below(iroot(top, m + 1) + 1)
    floor = bound**m
    leaves = [n or 1 for n in ns]
    tree = [[prod(leaves[i:i + 8]) for i in range(0, len(ns), 8)]]
    # Above the first level whose products pass P, P % X is P itself.
    while len(tree[-1]) > 1 and tree[-1][0] <= primorial:
        level = tree[-1]
        tree.append([a * b for a, b in zip(level[::2], level[1::2])] + level[len(level) & ~1:])
    rems = [primorial % x for x in tree.pop()]
    for level in reversed(tree):
        rems = [rems[i >> 1] % x for i, x in enumerate(level)]
    out = []
    for i, n in enumerate(ns):
        d = gcd(n, rems[i >> 3]) if n else 1
        if d > 1:
            n //= d
            d = gcd(n, d)
        found, n = _small_part(n, d, m - 1, table) if d > 1 else ([], n)
        if n >= floor:
            r = iroot(n, m)
            if r**m == n:
                found.append(r)
        if found or not n:
            out.append((i, found if n else None))
    return out


def _small_part(n, d, m, table):
    """(the increasing primes p of the table with p**m | n, the cofactor of
    n prime to the table), from d_0 = d = gcd(n, product of the table):
    d_k = gcd(n / (d_0 ... d_{k-1}), d_{k-1}) is the product of those whose
    (k+1)-th power divides n, a d_k of 1 ends it, and d_{m-1} is split."""
    out = []
    for _ in range(m - 1):
        if d == 1:
            return out, n
        n //= d
        d = gcd(n, d)
    if d > 1:
        for p in table:
            if p * p > d:
                break
            if d % p == 0:
                d //= p
                out.append(p)
                n = _remove(n, p)[0]
        if d > 1:
            out.append(d)
            n = _remove(n, d)[0]
    return out, n


def _remove(n, p):
    """(n / p**e, e) for the largest e with p**e | n."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def is_power_free(n, m):
    """True iff no prime power p**m divides |n|.  n must be nonzero."""
    return not mth_power_primes(n, m)


def is_squarefree_int(n):
    return is_power_free(n, 2)
