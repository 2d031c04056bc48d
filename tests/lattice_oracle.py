"""Matrix products and canonical residues modulo an HNF lattice: the
references that tests check linalg's transforms and inverses, and the
residue walks of ideals and quotients, against."""


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
