from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_oracle import cofactor_adjugate, leibniz_det, mat_mul, reduce_mod_lattice
from unitring.linalg import (
    adjugate,
    char_poly,
    det,
    det_triangular,
    hnf,
    hnf_kernel,
    in_lattice,
    lattice_intersection,
    lattice_sum,
    quotient_box,
    residue_transversal,
    solve_upper_int,
    vec_mat,
)

small_int = st.integers(min_value=-30, max_value=30)


def mat_strategy(n):
    return st.lists(
        st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n
    ).filter(lambda rows: det(rows) != 0)


@settings(max_examples=60, deadline=None)
@given(mat_strategy(3))
def test_hnf_shape_and_determinant(rows):
    h = hnf(rows)
    assert len(h) == 3
    # Upper triangular, positive pivots, reduced above.
    for i in range(3):
        assert h[i][i] > 0
        for j in range(i):
            assert h[i][j] == 0
        for k in range(i):
            assert 0 <= h[k][i] < h[i][i]
    assert abs(det(rows)) == det_triangular(h)


@settings(max_examples=60, deadline=None)
@given(mat_strategy(3))
def test_hnf_preserves_row_space(rows):
    h = hnf(rows)
    for r in rows:
        assert in_lattice(r, h)
    for r in h:
        c = solve_upper_int(h, r)
        assert c is not None


@settings(max_examples=40, deadline=None)
@given(mat_strategy(3))
def test_hnf_idempotent(rows):
    h = hnf(rows)
    assert hnf(h) == h


@settings(max_examples=40, deadline=None)
@given(mat_strategy(2), mat_strategy(2))
def test_intersection_and_sum(a_rows, b_rows):
    a, b = hnf(a_rows), hnf(b_rows)
    cap = lattice_intersection(a, b)
    for r in cap:
        assert in_lattice(r, a) and in_lattice(r, b)
    s = lattice_sum(a, b)
    for r in list(a) + list(b):
        assert in_lattice(r, s)
    # |A/(A cap B)| * |sum/(B)| relation via determinants:
    # det(cap) * det(sum) == det(a) * det(b) for full-rank planar lattices.
    assert det_triangular(cap) * det_triangular(s) == det_triangular(a) * det_triangular(b)


def _rank(rows):
    """Rank over Q, by Gaussian elimination in Fractions."""
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(work[0])):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][col] / work[rank][col]
            work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


@st.composite
def low_rank_matrices(draw):
    """m x n integer matrices C B with C m x r and B r x n, r <= min(m, n):
    rank deficient whenever r < m, and with a zero row for each zero row of C."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    r = draw(st.integers(1, min(m, n)))
    entries = st.integers(-3, 3)
    b = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=r, max_size=r))
    c = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=m, max_size=m))
    return [list(row) for row in mat_mul(c, b)]


@settings(max_examples=80, deadline=None)
@given(low_rank_matrices())
def test_kernel_is_the_saturated_left_kernel(rows):
    kern = hnf_kernel(rows)
    m, n = len(rows), len(rows[0])
    assert all(vec_mat(k, rows) == (0,) * n for k in kern)
    assert len(kern) == m - _rank(rows)
    # Saturated: every integer v with v * rows = 0 in a small box is an
    # integer combination of the kernel rows.
    span = hnf(kern)
    for v in product(range(-2, 3), repeat=m):
        if vec_mat(v, rows) == (0,) * n:
            assert hnf(list(span) + [v]) == span, v


def test_kernel_rows_annihilate():
    rows = [(1, 2), (2, 4), (3, 5)]
    kern = hnf_kernel(rows)
    assert len(kern) == 1
    for k in kern:
        assert vec_mat(k, rows) == (0, 0)


def test_residue_transversal_counts():
    h = ((2, 1), (0, 3))
    reps = list(residue_transversal(h))
    assert len(reps) == 6
    assert len({reduce_mod_lattice(r, h) for r in reps}) == 6


def test_reduce_mod_lattice_fixed_point():
    h = ((2, 1), (0, 3))
    for v in [(5, 7), (-4, 11), (0, 0), (13, -2)]:
        red = reduce_mod_lattice(v, h)
        assert reduce_mod_lattice(red, h) == red
        diff = tuple(a - b for a, b in zip(v, red))
        assert in_lattice(diff, h)


def test_quotient_box():
    sub = ((4, 0), (0, 6))
    sup = ((2, 0), (0, 3))
    reps = list(quotient_box(sub, sup))
    assert len(reps) == 4  # index (4*6)/(2*3)
    seen = {reduce_mod_lattice(r, sub) for r in reps}
    assert len(seen) == 4


def test_det_rational_entries():
    rows = [[Fraction(1, 2), Fraction(3)], [Fraction(-2), Fraction(5, 7)]]
    expected = Fraction(1, 2) * Fraction(5, 7) - Fraction(3) * Fraction(-2)
    assert det(rows) == expected


def square_matrices(entries):
    return st.integers(min_value=0, max_value=5).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


small_frac = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@settings(max_examples=150, deadline=None)
@given(square_matrices(small_int))
def test_det_matches_leibniz_int(rows):
    assert det(rows) == leibniz_det(rows)


@settings(max_examples=100, deadline=None)
@given(square_matrices(small_frac))
def test_det_matches_leibniz_fraction(rows):
    assert det(rows) == leibniz_det(rows)


@settings(max_examples=60, deadline=None)
@given(square_matrices(small_frac), small_frac)
def test_char_poly_matches_leibniz(rows, t):
    n = len(rows)
    cp = char_poly(rows)
    assert len(cp) == n + 1 and cp[-1] == 1
    shifted = [[(t if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)]
    assert sum(c * t**k for k, c in enumerate(cp)) == leibniz_det(shifted)


@st.composite
def maybe_singular(draw, entries):
    """A square matrix of size 0..6; half the time of size >= 2, one row is
    made a multiple of another, so the matrix is singular."""
    n = draw(st.integers(min_value=0, max_value=6))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        k = draw(entries)
        rows[j] = [k * x for x in rows[i]]
    return rows


def check_adjugate(rows):
    n = len(rows)
    d, adj = adjugate(rows)
    assert d == det(rows)
    scalar = tuple(tuple(d if i == j else 0 for j in range(n)) for i in range(n))
    assert mat_mul(rows, adj) == scalar
    assert mat_mul(adj, rows) == scalar
    assert adj == cofactor_adjugate(rows)
    return d, adj


@settings(max_examples=60, deadline=None)
@given(maybe_singular(st.integers(min_value=-4, max_value=4)))
def test_adjugate_int(rows):
    d, adj = check_adjugate(rows)
    assert type(d) is int and all(type(x) is int for r in adj for x in r)


@settings(max_examples=40, deadline=None)
@given(maybe_singular(small_frac))
def test_adjugate_fraction(rows):
    check_adjugate(rows)


def test_adjugate_examples():
    assert adjugate([[1, 2], [3, 5]]) == (-1, ((5, -2), (-3, 1)))
    assert adjugate([[1, 2], [2, 4]]) == (0, ((4, -2), (-2, 1)))
    assert adjugate([[7]]) == (7, ((1,),))
    assert adjugate([]) == (1, ())


def test_solve_upper_int_membership():
    h = hnf([(2, 1), (0, 3)])
    assert solve_upper_int(h, (2, 1)) is not None
    assert solve_upper_int(h, (1, 0)) is None
    c = solve_upper_int(h, (4, 8))
    if c is not None:
        assert vec_mat(c, h) == (4, 8)
