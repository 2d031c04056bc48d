"""Exact linear algebra over the integers and rationals.

char_poly is the package's one elimination over a field: det reads the
determinant off its constant term and adjugate the inverse, adj A / det A,
off all of it by Cayley-Hamilton.  Division-free, so the same code serves
integer, rational and algebraic-integer matrices, and an integer matrix has
an integer adjugate.

Row convention throughout: a lattice is the set of integer combinations of
the rows of its basis matrix.  Hermite normal form is row-style, upper
triangular with positive diagonal and entries above each pivot reduced into
[0, pivot).  Matrices are tuples of tuples so they can be hashed and used as
dictionary keys.
"""

from itertools import product
from operator import mul


def mat_freeze(rows):
    return tuple(tuple(r) for r in rows)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def vec_mat(v, m):
    cols = list(zip(*m))
    return tuple(sum(x * y for x, y in zip(v, col)) for col in cols)


def hnf(rows):
    """Row-style Hermite normal form of an integer matrix.

    Zero rows are dropped, so the result has exactly rank(rows) rows.
    """
    work = [list(r) for r in rows]
    m = len(work)
    n = len(work[0]) if m else 0

    pivot_row = 0
    for col in range(n):
        # Euclidean elimination below the pivot row.
        while True:
            nz = [i for i in range(pivot_row, m) if work[i][col] != 0]
            if not nz:
                break
            i_min = min(nz, key=lambda i: abs(work[i][col]))
            if i_min != pivot_row:
                work[pivot_row], work[i_min] = work[i_min], work[pivot_row]
            if work[pivot_row][col] < 0:
                work[pivot_row] = [-x for x in work[pivot_row]]
            done = True
            piv = work[pivot_row][col]
            for i in range(pivot_row + 1, m):
                if work[i][col] != 0:
                    q = work[i][col] // piv
                    work[i] = [a - q * b for a, b in zip(work[i], work[pivot_row])]
                    if work[i][col] != 0:
                        done = False
            if done:
                break
        if pivot_row < m and work[pivot_row][col] != 0:
            piv = work[pivot_row][col]
            # Reduce the entries above the pivot.
            for i in range(pivot_row):
                q = work[i][col] // piv
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], work[pivot_row])]
            pivot_row += 1

    return mat_freeze(work[:pivot_row])


def hnf_kernel(rows):
    """Basis (tuple of rows) of the left integer kernel {v : v * rows = 0}.

    The rows (v * rows, v) of [rows | I] meet {0} x Z^m exactly in the
    kernel, and the rows of their echelon form that vanish on the columns
    of rows, those whose pivots lie in the I block, span that meet.
    """
    n = len(rows[0])
    h = hnf([tuple(r) + e for r, e in zip(rows, identity(len(rows)))])
    return tuple(r[n:] for r in h if not any(r[:n]))


def det_triangular(h):
    d = 1
    for i, row in enumerate(h):
        d *= row[i]
    return d


def char_poly(rows, one=1):
    """Characteristic polynomial det(t*I - rows), monic, constant term first.

    Berkowitz's division-free algorithm, so it runs over any commutative
    ring: int, Fraction, or AlgebraicInt entries with one=field.one.  The
    polynomial of each leading k x k block is carried to the next by the
    Toeplitz vector (1, -a, -R C, -R B C, ..., -R B^(k-1) C) of the border
    row R, column C and corner a around that block B.  O(n^4) ring
    operations.
    """
    zero = one - one
    cp = [one]  # leading block's polynomial, highest degree first
    for k in range(len(rows)):
        block = [r[:k] for r in rows[:k]]
        row = rows[k][:k]
        v = [r[k] for r in rows[:k]]
        toeplitz = [one, -rows[k][k]]
        for step in range(k):
            toeplitz.append(-sum(map(mul, row, v), zero))
            if step < k - 1:
                v = [sum(map(mul, b, v), zero) for b in block]
        cp = [sum(map(mul, toeplitz[i::-1], cp), zero) for i in range(k + 2)]
    return tuple(reversed(cp))


def det(rows, one=1):
    """Determinant over any commutative ring: (-1)^n times char_poly's constant."""
    c0 = char_poly(rows, one)[0]
    return -c0 if len(rows) % 2 else c0


def adjugate(rows):
    """(det A, adj A) of a square matrix A, from one char_poly.

    With char_poly c_0 + c_1 t + ... + t^n, Cayley-Hamilton gives
    adj A = (-1)^(n-1) (A^(n-1) + c_(n-1) A^(n-2) + ... + c_1 I), evaluated
    by Horner's rule, and det A = (-1)^n c_0.  No division, so an integer
    matrix has an integer adjugate; A^-1 = adj A / det A when det A != 0.
    """
    n = len(rows)
    cp = char_poly(rows)
    cols = tuple(zip(*rows))
    acc = identity(n)
    for c in cp[n - 1:0:-1]:
        acc = [[sum(map(mul, r, col)) + (c if i == j else 0) for j, col in enumerate(cols)]
               for i, r in enumerate(acc)]
    sign = 1 if n % 2 else -1
    return -sign * cp[0], tuple(tuple(sign * x for x in r) for r in acc)


def solve_upper_int(h, v):
    """Solve c * h == v over the integers for square upper-triangular
    full-rank h.

    Returns the coefficient tuple, or None if v is not in the row lattice.
    Step i zeroes v[i], so no entry of v is left over at the end.
    """
    n = len(h)
    v = list(v)
    c = [0] * n
    for i in range(n):
        piv = h[i][i]
        if v[i] % piv:
            return None
        q = v[i] // piv
        c[i] = q
        if q:
            for j in range(i, n):
                v[j] -= q * h[i][j]
    return tuple(c)


def in_lattice(v, h):
    return solve_upper_int(h, v) is not None


def lattice_sum(a_rows, b_rows):
    return hnf(list(a_rows) + list(b_rows))


def lattice_intersection(a_rows, b_rows):
    """Intersection of two full-rank integer lattices given by row bases."""
    n = len(a_rows[0])
    stacked = [list(r) for r in a_rows] + [[-x for x in r] for r in b_rows]
    kern = hnf_kernel(stacked)
    gens = []
    for k in kern:
        left = k[: len(a_rows)]
        gens.append(vec_mat(left, a_rows))
    return hnf(gens)


def residue_transversal(h):
    """Stream coordinate vectors of a complete residue system modulo the
    row lattice of upper-triangular full-rank h, in lexicographic order.

    The representatives are all vectors with 0 <= v_i < h[i][i].
    """
    return product(*(range(h[i][i]) for i in range(len(h))))


def quotient_box(sub_h, super_h):
    """Diagonal radices and lifted representatives of super/sub.

    Both arguments are HNF bases of full-rank lattices with sub contained in
    super.  Yields coordinate vectors (in ambient coordinates) of a complete
    transversal of sub inside super, deterministically.
    """
    n = len(super_h)
    # Coordinates of sub basis on super basis: integer matrix.
    coords = []
    for row in sub_h:
        c = solve_upper_int(super_h, row)
        if c is None:
            raise ValueError("sub lattice not contained in super lattice")
        coords.append(c)
    h = hnf(coords)
    for t in residue_transversal(h):
        yield vec_mat(t, super_h)
