"""Matrix products, permutation-expansion determinants and adjugates, and
canonical residues modulo an HNF lattice: the references that tests check
linalg's transforms, determinants and adjugates, and the residue walks of
ideals and quotients, against."""

from itertools import permutations


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
