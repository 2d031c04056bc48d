import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitring.intfactor import (
    PSI_13,
    TRIAL_LIMIT,
    PrimalityUnproven,
    _brent_rho,
    _primes_below,
    exact_root,
    factor,
    iroot,
    is_power_free,
    is_prime,
    is_squarefree_int,
    mth_power_primes,
    mth_power_primes_chunk,
    prime_table,
)


def brute_factor(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=10**6))
def test_factor_matches_bruteforce(n):
    assert factor(n) == brute_factor(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10**5), st.integers(min_value=2, max_value=4))
def test_power_free_matches_bruteforce(n, m):
    expected = all(e < m for _, e in brute_factor(n))
    assert is_power_free(n, m) == expected


def mth_power_primes_by_factor(n, m):
    return [p for p, e in factor(n) if e >= m]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=10**20), st.sampled_from([2, 3, 4]))
def test_mth_power_primes_matches_factor(n, m):
    assert mth_power_primes(n, m) == mth_power_primes_by_factor(n, m)
    assert is_power_free(n, m) == (not mth_power_primes_by_factor(n, m))


# Primes planted as p**m: p = 1009 lies above the early trial-division
# cutoff of small cofactors, 999983 is the last table prime, and the rest
# lie above TRIAL_LIMIT.  The factor q > TRIAL_LIMIT pushes the cofactor
# of p**2 * q past the table's reach (the fallback range).
PLANTED = (2, 1009, 65537, 999983, 1_000_003, 10_000_019)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=10**4),
    st.sampled_from(PLANTED),
    st.sampled_from([1, 1_000_033, 998_244_353]),
    st.sampled_from([2, 3, 4]),
)
def test_mth_power_primes_planted(a, p, q, m):
    n = a * q * p**m
    got = mth_power_primes(n, m)
    assert p in got
    assert got == mth_power_primes_by_factor(n, m)


# Primes on either side of 2**11 and 2**12, which the kernel takes for its
# bound B (a power of two above |n|**(1/(m+1))) on values near 2**(11(m+1))
# and 2**(12(m+1)), and 1_000_003 above TRIAL_LIMIT.
NEAR_BOUND = (2039, 2053, 4093, 4099, 1_000_003)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=10**6),
    st.sampled_from(NEAR_BOUND),
    st.sampled_from([1, 2029, 2053, 4099, 1_000_033]),
    st.sampled_from([2, 3, 4]),
)
def test_mth_power_primes_near_smooth_bound(a, p, q, m):
    n = a * q * p**m
    got = mth_power_primes(n, m)
    assert p in got
    assert got == mth_power_primes_by_factor(n, m)


def kernel_bound(n, m):
    """The kernel's B for a chunk whose largest |value| is |n|."""
    return _primes_below(iroot(abs(n), m + 1) + 1)[0]


def test_mth_power_primes_gcd_route_cofactors():
    # The gcd chain takes the primes below B out of n; what is left has at
    # most m prime factors.  Below B**m it is m-free as it stands, in
    # [B**m, B**(m+1)) one exact root decides, and at or above
    # TRIAL_LIMIT**(m+1) the value goes to factor instead.  Primes are
    # planted just below and just above B = 2048 and B = 4096.
    for n, m, b, cofactor_class in (
        (4093**2 * 4099, 2, 4096, "below"),
        (4099**2 * 4079, 2, 4096, "between"),
        (4099 * 4111, 2, 512, "between"),
        (2039**3 * 2053, 3, 2048, "below"),
        (2053**3 * 2029, 3, 2048, "between"),
        (2039**4 * 2053, 4, 2048, "below"),
        (2053**4 * 2027, 4, 2048, "between"),
        (-(2**5) * 3 * 2053**2, 2, 1024, "between"),
        (1_000_003**2 * 1_000_033, 2, None, "factor"),
        (2**6 * 1_000_003**3 * 1_000_033, 3, None, "factor"),
    ):
        expected = mth_power_primes_by_factor(n, m)
        assert mth_power_primes(n, m) == expected
        if cofactor_class == "factor":
            assert abs(n) >= TRIAL_LIMIT ** (m + 1) and expected
            continue
        assert kernel_bound(n, m) == b
        cofactor = prod(p**e for p, e in factor(n) if p > b)
        assert (cofactor < b**m) == (cofactor_class == "below")
        assert cofactor < b ** (m + 1)
        assert mth_power_primes_chunk([n, 0, 1], m) == by_value([n, 0, 1], m)


# Cofactors prime to the small primes drawn below: 1; squares of primes above
# 2**11, which one exact root decides, and above TRIAL_LIMIT; a
# table-prime square times a prime; and products of several primes above
# 2**11 for every m in {2, 3, 4}, which the chunk's bound B takes out.
COFACTORS = (1, 2203**2, 7919**2, 1_000_003**2, 999983**2 * 2207,
             10007**3 * 10009 * 2213, 2207**5 * 2213 * 1_000_033)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from((2, 3, 5, 7, 11, 13, 2179)), st.integers(1, 6)),
             max_size=4),
    st.sampled_from(COFACTORS),
    st.sampled_from([2, 3, 4]),
    st.booleans(),
)
def test_mth_power_primes_iterated_gcd(small, cofactor, m, negative):
    # Small squares, cubes and higher powers go through the iterated gcds
    # d_0 .. d_{m-1}; only d_{m-1} is split.
    n = cofactor
    for p, e in small:
        n *= p**e
    if negative:
        n = -n
    assert mth_power_primes(n, m) == mth_power_primes_by_factor(n, m)
    assert factor(n) == brute_small_part(abs(n)) + factor(cofactor)


def brute_small_part(n):
    out = []
    for p in (2, 3, 5, 7, 11, 13, 2179):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    return out


def test_small_inputs_build_no_full_prime_table():
    # Tiny norms, a small count and a density run at truncation 1000 use
    # only the primes below SMOOTH_BOUND; a cofactor that needs trial
    # division past the bound builds the full table.
    code = "\n".join([
        "import os",
        "from unitring import cli, intfactor",
        "assert intfactor.factor(256) == [(2, 8)]",
        "argv = ['--field', 'q_sqrt5', '--eta=0,1', '--boxes', '100,1000', '--out', os.devnull]",
        "assert cli.main(['count'] + argv) == 0",
        "assert cli.main(['density', '--truncation', '1000'] + argv) == 0",
        "print(intfactor._primes is None)",
        "assert intfactor.factor(2203**2 * 2207) == [(2203, 2), (2207, 1)]",
        "print(intfactor._primes is None)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


def test_mth_power_primes_fallback_range():
    # Cofactors at or above the table's reach, with and without a square.
    p, q, r = 1_000_003, 1_000_033, 1_000_037
    assert p * q * r > TRIAL_LIMIT**3
    assert mth_power_primes(p * q * r, 2) == []
    assert mth_power_primes(p * p * q, 2) == [p]
    assert mth_power_primes(4 * p * p * q, 2) == [2, p]
    assert mth_power_primes(999983**3, 2) == [999983]
    assert mth_power_primes(-(p**3) * q, 3) == [p]
    with pytest.raises(ValueError):
        mth_power_primes(0, 2)


def by_value(ns, m):
    """The kernel's answer by factor: (i, primes) for each value of ns that
    is not m-free, primes None for 0."""
    out = [(i, mth_power_primes_by_factor(n, m) if n else None) for i, n in enumerate(ns)]
    return [(i, ps) for i, ps in out if ps != []]


def prime_at_least(n):
    while not is_prime(n):
        n += 1
    return n


def prime_below(n):
    n -= 1
    while not is_prime(n):
        n -= 1
    return n


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("bound", [8, 64, 2048, 4096])
def test_chunk_kernel_at_its_bound(m, bound):
    # The largest value (bound - 1)**(m+1) sets the chunk's bound B, up to
    # which the remainder tree takes primes out: m-th powers of the last
    # prime below B (a cofactor below B**m would be called m-free) and of
    # the first one above it (decided by the exact root), next to 0 and +-1.
    top = (bound - 1) ** (m + 1)
    assert _primes_below(iroot(top, m + 1) + 1)[0] == bound
    lo, hi = prime_below(bound), prime_at_least(bound)
    chunk = [top, 0, 1, -1, lo**m, -(lo**m) * 3, lo ** (m + 1), lo ** (m - 1) * hi,
             hi**m, -(hi**m), 2**m * hi**m, lo**m * hi, lo * hi ** (m - 1), 6, 1 - top]
    chunk = [n for n in chunk if abs(n) <= top]
    got = dict(mth_power_primes_chunk(chunk, m))
    assert list(got.items()) == by_value(chunk, m)
    assert got[chunk.index(lo**m)] == [lo] and got[chunk.index(hi**m)] == [hi]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.integers(-10**13, 10**13),
                          st.tuples(st.integers(1, 3000), st.integers(-10**4, 10**4))),
                max_size=300),
       st.sampled_from([2, 3, 4]))
def test_chunk_kernel_matches_mth_power_primes(items, m):
    # Chunks of any length, with planted m-th powers of primes on either
    # side of every bound the chunk may pick; each value's own chunk of one
    # (mth_power_primes) takes a bound of its own.
    chunk = [x if isinstance(x, int) else x[0] ** m * x[1] for x in items]
    expected = by_value(chunk, m)
    assert mth_power_primes_chunk(chunk, m) == expected
    own = [(i, mth_power_primes(n, m) if n else None) for i, n in enumerate(chunk)]
    assert [(i, ps) for i, ps in own if ps != []] == expected


def test_chunk_kernel_falls_back_past_the_table():
    # A largest value at or above TRIAL_LIMIT**(m+1) sends the chunk value
    # by value to factor: the full table and rho.
    p, q = 1_000_003, 1_000_033
    chunk = [p * p * q, 0, 12, p * q * 2, -(999983**2)]
    assert max(chunk) >= TRIAL_LIMIT**3
    assert mth_power_primes_chunk(chunk, 2) == [(0, [p]), (1, None), (2, [2]), (4, [999983])]


@pytest.mark.parametrize("m", [2, 3])
def test_chunk_kernel_factor_route_flags_only_what_is_not_mfree(m):
    # A chunk whose largest value is TRIAL_LIMIT**(m+1) itself or above it,
    # with zeros, ones and negative values: only the values that are not
    # m-free come back, each with its index, and 0 with None.
    p, q = 1_000_003, 1_000_033
    for top in (TRIAL_LIMIT ** (m + 1), -(p**m) * q):
        chunk = [0, 1, -1, top, -(2**m) * 3, 5 * q, 0, -(999983**m), p * q, 1]
        assert max(map(abs, chunk)) >= TRIAL_LIMIT ** (m + 1)
        got = mth_power_primes_chunk(chunk, m)
        assert got == by_value(chunk, m)
        assert [i for i, _ in got] == [0, 3, 4, 6, 7]
        assert got[0] == (0, None) and got[-1] == (7, [999983])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**40), st.integers(min_value=2, max_value=5))
def test_iroot_is_floor_root(n, k):
    r = iroot(n, k)
    assert r**k <= n < (r + 1) ** k


@settings(max_examples=300, deadline=None)
@given(st.integers(-50, 10**30), st.integers(2, 7), st.integers(1, 10**6))
def test_exact_root_is_none_unless_exact(n, k, den):
    r = exact_root(n, k)
    assert r == (iroot(n, k) if n >= 0 and iroot(n, k) ** k == n else None)
    # Exact powers, of ints and of Fractions, are drawn as often as others.
    m = abs(n) % 10**6
    assert exact_root(m**k, k) == m and exact_root(-(m**k) - 1, k) is None
    assert exact_root(Fraction(m, den) ** k, k) == Fraction(m, den)
    x = Fraction(n, den)
    q = exact_root(x, k)
    if x < 0:
        assert q is None
    else:
        floor_root = Fraction(iroot(x.numerator, k), iroot(x.denominator, k))
        assert q == (floor_root if floor_root**k == x else None)
        assert q is None or type(q) is Fraction


def test_factor_products_reconstruct():
    for n in [2, 12, 360, 2**10, 999983, 10**12 + 39, 2_305_843_009_213_693_951]:
        prod = 1
        for p, e in factor(n):
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_large_semiprime():
    p, q = 1_000_003, 1_000_033
    assert factor(p * q) == [(p, 1), (q, 1)]


def test_beyond_trial_limit_square():
    p = 10_000_019  # above the 10^6 trial table
    assert not is_power_free(p * p, 2)
    assert is_power_free(p * p, 3)
    assert factor(p * p) == [(p, 2)]


def test_is_prime_spot_values():
    assert is_prime(2) and is_prime(3) and is_prime(999983)
    assert not is_prime(1) and not is_prime(561) and not is_prime(10**12)
    # Carmichael-heavy stress
    for n in (341, 561, 645, 1105, 1729, 2465, 2821, 6601):
        assert not is_prime(n)


def test_squarefree_negative_input():
    assert is_squarefree_int(-5)
    assert not is_squarefree_int(-12)
    with pytest.raises(ValueError):
        is_power_free(0, 2)


def test_factor_one_and_sign():
    assert factor(1) == []
    assert factor(-12) == [(2, 2), (3, 1)]
    with pytest.raises(ValueError, match="cannot factor 0"):
        factor(0)


def test_prime_table_contents():
    assert list(prime_table(20)) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert len(prime_table(1)) == 0


def test_brent_rho_splits_every_small_odd_composite():
    primes = set(prime_table(2 * 10**4))
    composites = [n for n in range(9, 2 * 10**4, 2) if n not in primes]
    assert len(composites) == 7738
    for n in composites:
        g = _brent_rho(n)
        assert 1 < g < n and n % g == 0, n


def test_brent_rho_backtrack_and_even_input():
    # With the one seed c = 1 the batched gcd of these reaches n itself;
    # only the step-by-step backtrack from the saved ys finds the factor.
    for n in (49, 55, 65, 77, 91):
        g = _brent_rho(n, seeds=1)
        assert 1 < g < n and n % g == 0, n
    assert _brent_rho(2 * 1_000_003) == 2


def test_psi13_is_not_called_prime():
    # PSI_13 is a strong pseudoprime to every Miller-Rabin base in use.
    assert PSI_13 == 1287836182261 * 2575672364521
    with pytest.raises(PrimalityUnproven):
        is_prime(PSI_13)
    # Composite verdicts stay proofs above the bound ...
    assert not is_prime(43 * PSI_13)
    assert not is_prime((2**61 - 1) * (2**31 - 1) * 1_000_003)
    # ... and primes below it are still certified.
    assert is_prime(PSI_13 - 168)


def test_factor_splits_psi13_by_rho():
    # Every base passes, yet one bounded rho attempt splits it.
    assert factor(PSI_13) == [(1287836182261, 1), (2575672364521, 1)]
    assert mth_power_primes(4 * PSI_13, 2) == [2]


def test_prime_above_psi13_raises_within_seconds():
    # PSI_13 + 142 is prime (Pocklington: n - 1 = 2q with q prime below
    # PSI_13, and 2 witnesses it) and passes every base: the bounded rho
    # attempt cannot split it, so it raises instead of being called prime.
    p = PSI_13 + 142
    for n in (p, 1_000_003 * p):
        start = time.monotonic()
        with pytest.raises(PrimalityUnproven):
            factor(n)
        assert time.monotonic() - start < 20


def _naive_primes(n):
    return [k for k in range(2, n + 1) if all(k % d for d in range(2, isqrt(k) + 1))]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5000))
def test_prime_table_matches_naive_filter(n):
    assert list(prime_table(n)) == _naive_primes(n)


def test_prime_table_small_limits():
    for n in (0, 1, 2, 3, 5000):
        table = prime_table(n)
        assert table.typecode == "Q"
        assert list(table) == _naive_primes(n)


def _full_sieve(limit):
    """The primes <= limit from a sieve over every number, even ones
    included: prime_table's odd-only sieve must give the same table."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = bytearray(min(2, limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [k for k in range(limit + 1) if sieve[k]]


def test_prime_table_odd_sieve_matches_the_full_sieve():
    for limit in range(2000):
        assert list(prime_table(limit)) == _full_sieve(limit), limit
    assert len(prime_table(10**6)) == 78498
