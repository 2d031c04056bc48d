"""Polynomial arithmetic over F_p and F_q = F_p[y]/(g).

Polynomials are coefficient tuples, constant first, entries reduced mod p.
Factorization is squarefree decomposition + distinct-degree + equal-degree
splitting.  Roots in F_q come from gcd(X^q - X, f), split by
Cantor-Zassenhaus for every field size; no field is scanned element by
element.  Root counts at residue degree 1 run that gcd on plain-int
polynomials over F_p instead of 1-tuple F_q elements.  The splitting
stages need random elements; randomness comes from a small deterministic
LCG seeded by (p, poly) so factorizations are reproducible across runs and
platforms.
"""


def _trim(a):
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return tuple(a)


def p_add(a, b, p):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return _trim((x + y) % p for x, y in zip(a, b))


def p_sub(a, b, p):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return _trim((x - y) % p for x, y in zip(a, b))


def p_mul(a, b, p):
    if a == (0,) or b == (0,):
        return (0,)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def p_divmod(a, b, p):
    a = list(a)
    b = _trim(b)
    if b == (0,):
        raise ZeroDivisionError
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(1, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv_lead) % p
        q[i] = c
        if c:
            for j, d in enumerate(b):
                a[i + j] = (a[i + j] - c * d) % p
    return _trim(q), _trim(a[: len(b) - 1] or [0])


def p_mod(a, b, p):
    return p_divmod(a, b, p)[1]


def p_gcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b != (0,):
        a, b = b, p_mod(a, b, p)
    if a != (0,):
        inv = pow(a[-1], -1, p)
        a = _trim((x * inv) % p for x in a)
    return a


def p_powmod(base, e, mod, p):
    result = (1,)
    base = p_mod(base, mod, p)
    while e:
        if e & 1:
            result = p_mod(p_mul(result, base, p), mod, p)
        base = p_mod(p_mul(base, base, p), mod, p)
        e >>= 1
    return result


def p_deriv(a, p):
    if len(a) <= 1:
        return (0,)
    return _trim((i * a[i]) % p for i in range(1, len(a)))


def p_eval(a, x, p):
    out = 0
    for c in reversed(a):
        out = (out * x + c) % p
    return out


def _monic(a, p):
    if a == (0,):
        return a
    inv = pow(a[-1], -1, p)
    return _trim((x * inv) % p for x in a)


class _LCG:
    """Deterministic pseudo-random stream for equal-degree splitting."""

    def __init__(self, seed):
        self.state = (seed * 6364136223846793005 + 1442695040888963407) % (1 << 64)

    def next(self, bound):
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        return (self.state >> 16) % bound


def _pth_root(f, p):
    """p-th root of a p-th power over F_p (Frobenius fixes coefficients)."""
    return _trim([f[i] for i in range(0, len(f), p)])


def _squarefree_decomposition(f, p):
    """Yun-style decomposition in characteristic p; f monic nonconstant.

    Returns [(squarefree monic factor, multiplicity)], factors coprime.
    """
    out = []
    df = p_deriv(f, p)
    if df == (0,):
        return [(h, m * p) for h, m in _squarefree_decomposition(_pth_root(f, p), p)]
    c = p_gcd(f, df, p)
    w = p_divmod(f, c, p)[0]
    i = 1
    while len(w) > 1:
        y = p_gcd(w, c, p)
        z = p_divmod(w, y, p)[0]
        if len(z) > 1:
            out.append((_monic(z, p), i))
        w = y
        c = p_divmod(c, y, p)[0]
        i += 1
    if len(c) > 1:
        out.extend((h, m * p) for h, m in _squarefree_decomposition(_pth_root(c, p), p))
    return out


def _distinct_degree(f, p):
    """[(product of irreducible factors of degree d, d)], f squarefree monic."""
    out = []
    x = (0, 1)
    h = x
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = p_powmod(h, p, f, p)
        g = p_gcd(p_sub(h, x, p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = p_divmod(f, g, p)[0]
            h = p_mod(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree_split(f, d, p, rng):
    """Factor a monic squarefree product of degree-d irreducibles."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _trim([rng.next(p) for _ in range(n)])
        if len(a) == 1 and a[0] == 0:
            continue
        g = p_gcd(a, f, p)
        if 0 < len(g) - 1 < n:
            split = g
        elif p == 2:
            t = a
            acc = a
            for _ in range(d - 1):
                t = p_mod(p_mul(t, t, p), f, p)
                acc = p_add(acc, t, p)
            split = p_gcd(acc, f, p)
        else:
            e = (p**d - 1) // 2
            t = p_powmod(a, e, f, p)
            split = p_gcd(p_sub(t, (1,), p), f, p)
        deg = len(split) - 1
        if 0 < deg < n:
            left = _monic(split, p)
            right = p_divmod(f, left, p)[0]
            return sorted(
                _equal_degree_split(left, d, p, rng)
                + _equal_degree_split(right, d, p, rng)
            )


def factor_mod_p(poly, p):
    """Deterministic factorization of poly over F_p.

    Returns a sorted list of (monic irreducible factor, multiplicity).
    """
    f = _trim(tuple(c % p for c in poly))
    if len(f) <= 1:
        raise ValueError("cannot factor a constant polynomial")
    f = _monic(f, p)
    seed = p
    for c in f:
        seed = (seed * 1000003 + c) % (1 << 62)
    rng = _LCG(seed)
    out = []
    for sq, mult in _squarefree_decomposition(f, p):
        for prod, d in _distinct_degree(sq, p):
            for fac in _equal_degree_split(prod, d, p, rng):
                out.append((fac, mult))
    return sorted(out)


def roots_mod_p(poly, p):
    """Sorted roots in F_p of a nonzero polynomial."""
    f = _trim(tuple(c % p for c in poly))
    if f == (0,):
        raise ValueError("zero polynomial")
    if len(f) == 1:
        return []
    roots = []
    for fac, _ in factor_mod_p(f, p):
        if len(fac) == 2:
            roots.append((-fac[0] * pow(fac[1], -1, p)) % p)
    return sorted(roots)


# ---------------------------------------------------------------------------
# F_q = F_p[y]/(g): elements are reduced coefficient tuples.


class ResidueField:
    """The finite field F_{p^f} realized as F_p[y]/(g), g irreducible."""

    def __init__(self, p, g):
        self.p = p
        self.g = _monic(_trim(g), p)
        self.f = len(self.g) - 1
        self.q = p**self.f

    def elem(self, coeffs):
        return p_mod(_trim(tuple(c % self.p for c in coeffs)), self.g, self.p)

    @property
    def zero(self):
        return (0,)

    @property
    def one(self):
        return (1,)

    def add(self, a, b):
        return p_add(a, b, self.p)

    def sub(self, a, b):
        return p_sub(a, b, self.p)

    def mul(self, a, b):
        return p_mod(p_mul(a, b, self.p), self.g, self.p)

    def scalar(self, k):
        return ((k % self.p),)

    def inv(self, a):
        if a == (0,):
            raise ZeroDivisionError
        r0, r1 = self.g, _trim(a)
        s0, s1 = (0,), (1,)
        while r1 != (0,):
            q, r = p_divmod(r0, r1, self.p)
            r0, r1 = r1, r
            s0, s1 = s1, p_sub(s0, p_mul(q, s1, self.p), self.p)
        lead_inv = pow(r0[-1], -1, self.p)
        return p_mod(_trim((x * lead_inv) % self.p for x in s0), self.g, self.p)

    def iter_elements(self):
        idx = [0] * self.f
        while True:
            yield _trim(idx)
            j = 0
            while j < self.f:
                idx[j] += 1
                if idx[j] < self.p:
                    break
                idx[j] = 0
                j += 1
            if j == self.f:
                return


ZERO_Q = ((0,),)


def qtrim(poly):
    poly = list(poly)
    while len(poly) > 1 and poly[-1] == (0,):
        poly.pop()
    return tuple(poly)


def q_add(a, b, fq):
    n = max(len(a), len(b))
    a = tuple(a) + ((0,),) * (n - len(a))
    b = tuple(b) + ((0,),) * (n - len(b))
    return qtrim([fq.add(x, y) for x, y in zip(a, b)])


def q_sub(a, b, fq):
    n = max(len(a), len(b))
    a = tuple(a) + ((0,),) * (n - len(a))
    b = tuple(b) + ((0,),) * (n - len(b))
    return qtrim([fq.sub(x, y) for x, y in zip(a, b)])


def q_mul(a, b, fq):
    out = [(0,)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != (0,):
            for j, y in enumerate(b):
                out[i + j] = fq.add(out[i + j], fq.mul(x, y))
    return qtrim(out)


def q_divmod(a, b, fq):
    a = list(a)
    b = qtrim(b)
    if b == ZERO_Q:
        raise ZeroDivisionError
    inv_lead = fq.inv(b[-1])
    q = [(0,)] * max(1, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = fq.mul(a[i + len(b) - 1], inv_lead)
        q[i] = c
        if c != (0,):
            for j, d in enumerate(b):
                a[i + j] = fq.sub(a[i + j], fq.mul(c, d))
    return qtrim(q), qtrim(a[: len(b) - 1] or [(0,)])


def q_gcd(a, b, fq):
    a, b = qtrim(a), qtrim(b)
    while b != ZERO_Q:
        a, b = b, q_divmod(a, b, fq)[1]
    if a != ZERO_Q:
        inv = fq.inv(a[-1])
        a = qtrim([fq.mul(x, inv) for x in a])
    return a


def q_powmod(base, e, mod, fq):
    result = ((1,),)
    base = q_divmod(base, mod, fq)[1]
    while e:
        if e & 1:
            result = q_divmod(q_mul(result, base, fq), mod, fq)[1]
        base = q_divmod(q_mul(base, base, fq), mod, fq)[1]
        e >>= 1
    return result


def q_eval(poly, x, fq):
    out = (0,)
    for c in reversed(poly):
        out = fq.add(fq.mul(out, x), c)
    return out


def q_deriv(poly, fq):
    if len(poly) <= 1:
        return ZERO_Q
    out = []
    for i in range(1, len(poly)):
        k = i % fq.p
        acc = (0,)
        for _ in range(k):
            acc = fq.add(acc, poly[i])
        out.append(acc)
    return qtrim(out)


def _linear_part(poly, fq):
    """gcd(X^q - X, poly): the product of the distinct monic linear factors."""
    x = ((0,), (1,))
    return q_gcd(q_sub(q_powmod(x, fq.q, poly, fq), x, fq), poly, fq)


def count_roots_in_fq(poly, fq):
    """Number of roots in F_q of a nonzero polynomial over F_q.

    deg gcd(X^q - X, poly): X^q - X is the product of all monic linear
    factors, so the gcd collects exactly the distinct roots.  At residue
    degree 1 the elements are 1-tuples and the gcd runs over F_p on ints.
    """
    poly = qtrim(poly)
    if poly == ZERO_Q:
        raise ValueError("zero polynomial")
    if len(poly) == 1:
        return 0
    if fq.f == 1:
        p = fq.p
        f = tuple(c[0] for c in poly)
        xp = p_powmod((0, 1), p, f, p)
        return len(p_gcd(p_sub(xp, (0, 1), p), f, p)) - 1
    return len(_linear_part(poly, fq)) - 1


def roots_in_fq(poly, fq):
    """All roots in F_q of a nonzero polynomial, deterministically ordered."""
    poly = qtrim(poly)
    if poly == ZERO_Q:
        raise ValueError("zero polynomial")
    if len(poly) == 1:
        return []
    return sorted(_split_linear(_linear_part(poly, fq), fq))


def _split_linear(g, fq):
    """Roots of a monic product of distinct linear factors over F_q.

    Splits with a = c X + s for random c != 0 and s.  In characteristic 2
    the trace of a at roots r, r' differs by Tr(c (r - r')), so c must vary:
    with c = 1 roots whose difference has trace 0 never separate.
    """
    deg = len(g) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [fq.sub((0,), fq.mul(g[0], fq.inv(g[1])))]
    seed = fq.p
    for c in g:
        for ci in c:
            seed = (seed * 1000003 + ci + 7) % (1 << 62)
    rng = _LCG(seed)
    while True:
        scale = fq.elem(tuple(rng.next(fq.p) for _ in range(fq.f)))
        if scale == (0,):
            continue
        shift = fq.elem(tuple(rng.next(fq.p) for _ in range(fq.f)))
        a = (shift, scale)
        if fq.p == 2:
            t = a
            acc = a
            for _ in range(fq.f - 1):
                t = q_divmod(q_mul(t, t, fq), g, fq)[1]
                acc = q_add(acc, t, fq)
            h = q_gcd(acc, g, fq)
        else:
            t = q_powmod(a, (fq.q - 1) // 2, g, fq)
            h = q_gcd(q_sub(t, ((1,),), fq), g, fq)
        if 0 < len(h) - 1 < deg:
            return _split_linear(h, fq) + _split_linear(q_divmod(g, h, fq)[0], fq)
