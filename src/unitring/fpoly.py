"""Factorization over F_p and roots over residue fields F_q.

The arithmetic lives in `unitring.poly`: polynomials are coefficient
tuples, constant first, over a field object, and this module only picks
the field.  F_p is `PrimeField(p)` on plain ints; a residue field O_K/P is
`residue_field(p, g)`, again a `PrimeField` at residue degree 1 and a
`ResidueField` on coefficient tuples above it.

A quadratic aX^2 + bX + c over an odd prime field takes the discriminant
route: D = b^2 - 4ac gives one Legendre symbol and at most one
Tonelli-Shanks square root, and the roots (-b +- sqrt D)/(2a).  Degree
>= 3, p = 2 and residue degree >= 2 take the generic route, also the
discriminant route's oracle: factorization is squarefree decomposition +
distinct-degree + equal-degree splitting, and roots in F_q come from
gcd(X^q - X, f), split by Cantor-Zassenhaus for every field size; no field
is scanned element by element.  The splitting stages need random
elements; randomness comes from a small deterministic LCG seeded by
(p, poly) so factorizations are reproducible across runs and platforms.
"""

from .poly import (
    PrimeField,
    ResidueField,
    add,
    deriv,
    divmod,
    gcd,
    monic,
    powmod,
    sub,
    trim,
)


class _LCG:
    """Deterministic pseudo-random stream for equal-degree splitting."""

    def __init__(self, seed):
        self.state = (seed * 6364136223846793005 + 1442695040888963407) % (1 << 64)

    def next(self, bound):
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        return (self.state >> 16) % bound


def _split_attempt(a, size, f, K):
    """A factor of f that splits it for about half of all a, when every
    irreducible factor of f has a residue field of the given size:
    gcd(a^((size-1)/2) - 1, f), or in characteristic 2 the gcd of f with
    the trace a + a^2 + ... + a^(size/2).
    """
    if size % 2:
        return gcd(sub(powmod(a, (size - 1) // 2, f, K), (K.one,), K), f, K)
    t = acc = a
    while size > 2:
        t = K.mulmod(t, t, f)
        acc = add(acc, t, K)
        size //= 2
    return gcd(acc, f, K)


def _squarefree_decomposition(f, F):
    """Yun-style decomposition in characteristic p; f monic nonconstant.

    Returns [(squarefree monic factor, multiplicity)], factors coprime.
    """
    p = F.p
    out = []
    df = deriv(f, F)
    if df == (0,):
        # A p-th power: Frobenius fixes F_p, so its p-th root is f[::p].
        return [(h, m * p) for h, m in _squarefree_decomposition(f[::p], F)]
    c = gcd(f, df, F)
    if c == (F.one,):
        # Squarefree already, as at every p that does not divide disc(f).
        return [(f, 1)]
    w = divmod(f, c, F)[0]
    i = 1
    while len(w) > 1:
        y = gcd(w, c, F)
        z = divmod(w, y, F)[0]
        if len(z) > 1:
            out.append((monic(z, F), i))
        w = y
        c = divmod(c, y, F)[0]
        i += 1
    if len(c) > 1:
        out.extend((h, m * p) for h, m in _squarefree_decomposition(c[::p], F))
    return out


def _distinct_degree(f, F):
    """[(product of irreducible factors of degree d, d)], f squarefree monic."""
    out = []
    x = (0, 1)
    h = x
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = powmod(h, F.p, f, F)
        g = gcd(sub(h, x, F), f, F)
        if len(g) > 1:
            out.append((g, d))
            f = divmod(f, g, F)[0]
            h = divmod(h, f, F)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree_split(f, d, K, rng):
    """Factor a monic squarefree product of degree-d irreducibles over K.

    Each random a has deg f coefficients drawn through the field, K.f LCG
    draws each.  In characteristic 2 the trace of a at roots r, r' differs
    by Tr(a(r) - a(r')); with a = X + s alone, roots whose difference has
    trace 0 would never separate.
    """
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = trim([K.elem([rng.next(K.p) for _ in range(K.f)]) for _ in range(n)], K)
        if a == (K.zero,):
            continue
        split = gcd(a, f, K)
        if not 0 < len(split) - 1 < n:
            split = _split_attempt(a, K.q**d, f, K)
        if 0 < len(split) - 1 < n:
            return sorted(
                _equal_degree_split(split, d, K, rng)
                + _equal_degree_split(divmod(f, split, K)[0], d, K, rng)
            )


def _rng_for(f, K):
    """The LCG seeded by p and the coefficients of f over K."""
    seed = K.p
    for c in f:
        for ci in K.coeffs(c):
            seed = (seed * 1000003 + ci) % (1 << 62)
    return _LCG(seed)


def _discriminant(f, F):
    """b^2 - 4ac of f = aX^2 + bX + c over an odd prime field, else None."""
    if len(f) == 3 and F.f == 1 and F.p != 2:
        return (f[1] * f[1] - 4 * f[2] * f[0]) % F.p
    return None


def _quadratic_roots(f, F, disc):
    """The sorted distinct roots (-b +- sqrt disc)/(2a) of the quadratic f."""
    if F.legendre(disc) < 0:
        return []
    p, s, b = F.p, F.sqrt(disc), f[1]
    inv = pow(2 * f[2], -1, p)
    return sorted({(s - b) * inv % p, (-s - b) * inv % p})


def factor_mod_p(poly, p):
    """Deterministic factorization of poly over F_p.

    Returns a sorted list of (monic irreducible factor, multiplicity).
    """
    F = PrimeField(p)
    f = trim([c % p for c in poly], F)
    if len(f) <= 1:
        raise ValueError("cannot factor a constant polynomial")
    f = monic(f, F)
    disc = _discriminant(f, F)
    if disc is not None:
        roots = _quadratic_roots(f, F, disc)  # a lone root is double
        return sorted(((-r % p, 1), 3 - len(roots)) for r in roots) or [(f, 1)]
    rng = _rng_for(f, F)
    out = []
    for sq, mult in _squarefree_decomposition(f, F):
        for prod, d in _distinct_degree(sq, F):
            for fac in _equal_degree_split(prod, d, F, rng):
                out.append((fac, mult))
    return sorted(out)


# ---------------------------------------------------------------------------
# Residue fields F_q = F_p[y]/(g)


def residue_field(p, g):
    """F_p[y]/(g) for g irreducible mod p.

    Degree 1 gives a PrimeField on ints, where y is the root of g; higher
    degrees give a ResidueField on coefficient tuples.
    """
    F = PrimeField(p)
    g = monic(trim([c % p for c in g], F), F)
    if len(g) == 2:
        return PrimeField(p, -g[0] % p)
    return ResidueField(p, g)


def _linear_part(f, fq):
    """gcd(X^q - X, f): the product of the distinct monic linear factors."""
    x = (fq.zero, fq.one)
    return gcd(sub(powmod(x, fq.q, f, fq), x, fq), f, fq)


def count_roots_in_fq(f, fq):
    """Number of roots in F_q of a nonzero polynomial over F_q.

    deg gcd(X^q - X, f): X^q - X is the product of all monic linear
    factors, so the gcd collects exactly the distinct roots.
    """
    if f == (fq.zero,):
        raise ValueError("zero polynomial")
    disc = _discriminant(f, fq)
    if disc is not None:
        return 1 + fq.legendre(disc)
    return len(_linear_part(f, fq)) - 1


def roots_in_fq(f, fq):
    """All roots in F_q of a nonzero polynomial, sorted: the constant terms,
    negated, of the linear factors of gcd(X^q - X, f)."""
    if f == (fq.zero,):
        raise ValueError("zero polynomial")
    disc = _discriminant(f, fq)
    if disc is not None:
        return _quadratic_roots(f, fq, disc)
    g = _linear_part(f, fq)
    if len(g) == 1:
        return []
    return sorted(fq.sub(fq.zero, h[0]) for h in _equal_degree_split(g, 1, fq, _rng_for(g, fq)))


def is_separable(f, fq):
    """Whether nonzero f over F_q has no repeated root: gcd(f, f') = 1."""
    disc = _discriminant(f, fq)
    if disc is not None:
        return disc != 0
    return len(gcd(f, deriv(f, fq), fq)) == 1
