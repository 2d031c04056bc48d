"""Matrix products, permutation-expansion determinants and adjugates, and
canonical residues modulo an HNF lattice, and successive minima by brute
force: the references that tests check linalg's transforms, determinants
and adjugates, the residue walks of ideals and quotients, and
EmbeddedLattice.minima_sq, against."""

from fractions import Fraction
from itertools import permutations, product
from math import isqrt, lcm


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def reduce_mod_lattice(v, h):
    """Canonical representative of v modulo the row lattice of h (HNF)."""
    v = list(v)
    for i in range(len(h)):
        q = v[i] // h[i][i]
        if q:
            for j in range(i, len(v)):
                v[j] -= q * h[i][j]
    return tuple(v)


def leibniz_det(rows):
    """Oracle: the permutation expansion, sign by inversion count."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def cofactor_adjugate(rows):
    """Oracle: adj A[j][i] = (-1)^(i+j) det of A without row i and column j."""
    n = len(rows)
    return tuple(
        tuple((-1) ** (i + j) * leibniz_det([r[:j] + r[j + 1:] for r in rows[:i] + rows[i + 1:]])
              for i in range(n))
        for j in range(n)
    )


def minima_box(gram):
    """The radii r_a of a box |c_a| <= r_a that holds every integer vector
    c with c^T G c <= bound, for bound the largest diagonal entry of the
    Gram matrix G of Fractions: c_a^2 <= (c^T G c) (G^-1)_aa by
    Cauchy-Schwarz in the form G, and r_a = isqrt(bound (G^-1)_aa) + 1."""
    bound = max(gram[a][a] for a in range(len(gram)))
    g_det, g_adj = leibniz_det(gram), cofactor_adjugate(gram)
    return [isqrt(int(bound * g_adj[a][a] / g_det)) + 1 for a in range(len(gram))]


def minima_sq_oracle(gram):
    """Oracle for EmbeddedLattice.minima_sq, by brute force over the box
    of minima_box: the values c^T G c <= bound of its nonzero vectors in
    increasing order, each taken when the Gram determinant of its vector
    and those taken before it is nonzero.  The values are summed on G
    times the common denominator of its entries."""
    n = len(gram)
    den = lcm(*(x.denominator for row in gram for x in row))
    whole = [[int(x * den) for x in row] for row in gram]
    top = max(whole[a][a] for a in range(n))
    vecs = []
    for c in product(*(range(-r, r + 1) for r in minima_box(gram))):
        val = sum(x * g * y for x, row in zip(c, whole) for g, y in zip(row, c))
        if any(c) and val <= top:
            vecs.append((val, c))
    vecs.sort()
    minima, chosen = [], []
    for val, c in vecs:
        rows = chosen + [c]
        if leibniz_det(mat_mul(rows, list(zip(*rows)))):
            chosen.append(c)
            minima.append(Fraction(val, den))
            if len(minima) == n:
                break
    return tuple(minima)
