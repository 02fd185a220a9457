import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitkit import ratmat
from circuitkit.errors import (
    DeskScaleExceeded,
    InternalError,
    NonIntegerMatrix,
    SingularBasis,
)
from circuitkit.imbalance import chibar, is_TU
from circuitkit.ratmat import (
    RatMatrix,
    bareiss_det,
    bareiss_step,
    bases,
    basis_form,
    fraction_nth_root,
    greedy_basis,
    int_nth_root,
    invert,
    is_conformal,
    neg_part,
    norm1,
    norm2_sq,
    pos_part,
    rank,
    rref,
    rref_kernel,
    solve_linear,
    vec,
    vec_dot,
)
from circuitkit.subspace import Subspace
from util import (
    bases_by_det,
    fraction_matvec,
    fraction_neg_part,
    fraction_norm1,
    fraction_norm2_sq,
    fraction_pos_part,
    fraction_rref,
    fraction_vec_dot,
    fraction_vecmat,
    greedy_basis_by_rank,
    int_kernel_line,
    integer_normalize,
    naive_det,
    random_int_matrix,
    rational_matrices,
    subdet_stats,
)

fracs = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)


# Kernel entries: ints, zeros of both types, small fractions and fractions
# whose large denominators make the running lcm grow.
kernel_entries = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-50, 50),
    fracs,
    st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**15),
)


def kernel_vectors(n):
    return st.lists(kernel_entries, min_size=n, max_size=n).map(tuple)


@st.composite
def kernel_cases(draw):
    """(a, b, M, v, w): two vectors of one length n in 0..6, and an m x n
    matrix M, m in 0..4, with vectors v and w fit for M v and w M."""
    n = draw(st.integers(0, 6))
    m = draw(st.integers(0, 4))
    rows = tuple(draw(kernel_vectors(n)) for _ in range(m))
    return (
        draw(kernel_vectors(n)),
        draw(kernel_vectors(n)),
        RatMatrix(data=rows, cols=n),
        draw(kernel_vectors(n)),
        draw(kernel_vectors(m)),
    )


@given(kernel_cases())
@settings(max_examples=150, deadline=None)
def test_the_dot_kernels_equal_the_per_term_fraction_sums(case):
    a, b, M, v, w = case
    for got, want in [
        (vec_dot(a, b), fraction_vec_dot(a, b)),
        (norm1(a), fraction_norm1(a)),
        (norm2_sq(a), fraction_norm2_sq(a)),
    ]:
        assert type(got) is Fraction and got == want
    for got, want in [(M.matvec(v), fraction_matvec(M, v)), (M.vecmat(w), fraction_vecmat(M, w))]:
        assert all(type(x) is Fraction for x in got) and got == want


@given(kernel_cases())
@settings(max_examples=150, deadline=None)
def test_a_matrix_keeps_the_integer_rows_of_its_data(case):
    _, _, M, _, _ = case
    assert M.int_rows == ratmat._int_rows(M.data)
    assert M.int_rows is M.int_rows  # read once and kept
    # The same values held as Fractions: an equal matrix with an equal hash.
    twin = RatMatrix.from_rows(M.data, cols=M.cols)
    assert twin == M and hash(twin) == hash(M)
    if M.rows and M.cols:
        bumped = list(map(list, M.data))
        bumped[-1][-1] += Fraction(1, 2)
        assert RatMatrix.from_rows(bumped, cols=M.cols) != M


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), max_size=4))
def test_matrices_of_ints_and_of_fractions_are_equal_and_hash_equal(rows):
    ints = RatMatrix(data=tuple(map(tuple, rows)), cols=3)
    fractions = RatMatrix.from_rows(rows, cols=3)
    assert ints == fractions and hash(ints) == hash(fractions)
    assert all(type(x) is Fraction for r in fractions.data for x in r)
    assert ints != RatMatrix(data=ints.data, cols=4)


@given(st.lists(fracs, max_size=6))
def test_the_sign_parts_and_norm1_match_their_fraction_forms(entries):
    a = vec(entries)
    for got, want in [
        (pos_part(a), fraction_pos_part(a)),
        (neg_part(a), fraction_neg_part(a)),
        (norm1(a), fraction_norm1(a)),
    ]:
        assert got == want
    assert all(type(x) is Fraction for x in (*pos_part(a), *neg_part(a), norm1(a)))


def test_a_dot_of_unequal_lengths_raises():
    with pytest.raises(ValueError):
        vec_dot(vec([1, 2]), vec([1]))
    with pytest.raises(ValueError):
        vec_dot((), (Fraction(1, 2),))


def test_vec_parts():
    a = vec([3, -2, 0, Fraction(1, 2)])
    assert pos_part(a) == (3, 0, 0, Fraction(1, 2))
    assert neg_part(a) == (0, 2, 0, 0)
    assert norm1(a) == Fraction(11, 2)


def test_is_conformal():
    assert is_conformal(vec([1, 0, -2]), vec([3, 5, -1]))
    assert not is_conformal(vec([1, 0, 2]), vec([3, 5, -1]))
    # zero entries of z force zero entries of g
    assert not is_conformal(vec([1, 1, 0]), vec([1, 0, 1]))


def test_rank_and_kernel(A_int, A_app):
    assert rank(A_int) == 2
    assert rank(A_app) == 2
    r, piv, kern = rref_kernel(A_int)
    assert r == 2 and kern.rows == 1
    k = kern.data[0]
    nz = next(v for v in k if v)
    assert tuple(v / nz for v in k) in ((1, -1, 1), (-1, 1, -1))
    assert rref_kernel(A_app)[2].rows == 2


def test_basis_form_app(A_app):
    B = basis_form(A_app, [0, 1])
    assert B.data[0] == (1, 0, Fraction(25, 13), Fraction(9, 13))
    assert B.data[1] == (0, 1, Fraction(9, 13), Fraction(10, 13))
    # every entry is 1/5850-integral
    for row in B.data:
        for x in row:
            assert (5850 * x).denominator == 1


def test_basis_form_int(A_int):
    B = basis_form(A_int, [0, 1])
    assert B.data == ((1, 0, -1), (0, 1, 1))
    with pytest.raises(SingularBasis):
        basis_form(A_int, [0])


def test_bareiss_matches_cofactor_expansion():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 4)
        M = random_int_matrix(rng, n, n)
        assert bareiss_det(M) == naive_det(M)


def test_bareiss_rational_entries():
    M = RatMatrix.from_rows([[Fraction(1, 2), 1], [1, Fraction(3, 4)]], cols=2)
    assert bareiss_det(M) == Fraction(3, 8) - 1


def test_det_2x2_app_columns(A_app):
    assert bareiss_det(A_app.take_cols([1, 2])) == -25


def test_solve_and_invert():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        M = random_int_matrix(rng, n, n)
        if bareiss_det(M) == 0:
            continue
        x = vec([rng.randint(-5, 5) for _ in range(n)])
        b = M.matvec(x)
        assert solve_linear(M, b) == x
        assert invert(M).mul(M).data == RatMatrix.identity(n).data


def test_rref_reproduces_rowspace():
    rng = random.Random(3)
    for _ in range(15):
        M = random_int_matrix(rng, 3, 5)
        r, piv, R = rref(M)
        assert r == rank(M)
        # every original row is a combination of the rref rows
        stacked = RatMatrix.from_rows(list(R.data) + list(M.data), cols=5)
        assert rank(stacked) == rank(M)


def test_subdet_stats_app(A_app):
    st_ = subdet_stats(A_app)
    assert st_.delta_lcm % 5850 == 0
    sub = A_app.submatrix(*st_.witness_max)
    assert abs(bareiss_det(sub)) == st_.delta_max


def test_subdet_stats_db(A_db):
    # two node-disjoint triangles give a subdeterminant of 4
    assert subdet_stats(A_db).delta_max == 4


def test_subdet_stats_rejects_rationals():
    M = RatMatrix.from_rows([[Fraction(1, 2)]], cols=1)
    with pytest.raises(NonIntegerMatrix):
        subdet_stats(M)


def test_integer_normalize():
    v = vec([Fraction(1, 2), Fraction(-3, 4), 0])
    g, scale = integer_normalize(v)
    assert g == (2, -3, 0)
    assert scale == Fraction(1, 4)
    assert tuple(scale * x for x in g) == v


def test_int_nth_root():
    assert int_nth_root(27, 3) == (3, True)
    assert int_nth_root(28, 3) == (3, False)
    assert int_nth_root(1, 7) == (1, True)
    assert fraction_nth_root(Fraction(8, 27), 3) == Fraction(2, 3)
    assert fraction_nth_root(Fraction(2, 3), 2) is None


@given(st.integers(0, 10**400), st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_int_nth_root_brackets_the_root(x, n):
    r, exact = int_nth_root(x, n)
    assert r**n <= x < (r + 1) ** n
    assert exact == (r**n == x)


def test_int_nth_root_of_huge_values():
    # A float seed overflowed on the first and stepped by 1 from a seed
    # about 10^134 off on the second.
    r, exact = int_nth_root(10**400, 3)
    assert r**3 <= 10**400 < (r + 1) ** 3 and not exact
    assert int_nth_root(10**300, 2) == (10**150, True)


def test_desk_scale_cap(monkeypatch):
    monkeypatch.setattr(ratmat, "MAX_ENUM_COLS", 3)
    M = RatMatrix.identity(4)
    with pytest.raises(DeskScaleExceeded):
        subdet_stats(M)


@given(st.lists(fracs, min_size=1, max_size=6))
def test_pos_neg_split(entries):
    a = vec(entries)
    p, m = pos_part(a), neg_part(a)
    assert all(x >= 0 for x in p) and all(x >= 0 for x in m)
    assert tuple(x - y for x, y in zip(p, m)) == a


@given(
    st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=3, max_size=3)
)
@settings(max_examples=60)
def test_det_transpose_invariant(rows):
    M = RatMatrix.from_rows(rows, cols=3)
    assert bareiss_det(M) == bareiss_det(M.transpose())


@st.composite
def int_rows(draw):
    m = draw(st.integers(0, 5))
    n = draw(st.integers(1, 7))
    return [[draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(m)], n


@given(int_rows())
@settings(max_examples=300, deadline=None)
def test_int_kernel_line_matches_the_rational_kernel(case):
    rows, n = case
    _, _, K = rref_kernel(RatMatrix.from_rows(rows, cols=n))
    v = int_kernel_line([list(r) for r in rows], n)
    if K.rows != 1:
        assert v is None
    else:
        # a positive multiple of the RREF kernel vector, which has some entry 1
        scale = Fraction(v[K.row(0).index(1)])
        assert scale > 0
        assert tuple(Fraction(x) for x in v) == tuple(scale * x for x in K.row(0))


def test_bareiss_step():
    # pivot 3 over D = 1 on the row (2, 5, 1) with pivot row (3, 1, 4)
    assert bareiss_step([2, 5, 1], [3, 1, 4], 2, 3, 1, 8) == [0, 13, -5]
    # f = 0 and p = D: the row comes back as it is
    row = [0, 7, -2]
    assert bareiss_step(row, [2, 1, 1], 0, 2, 2, 4) is row


def test_inexact_bareiss_step_raises():
    # (2 * 5 - 1 * 4) / 4 is not an integer
    with pytest.raises(InternalError):
        bareiss_step([1, 5], [2, 4], 1, 2, 4, 6)
    # f = 0: 3 * 3 / 2 is not an integer either
    with pytest.raises(InternalError):
        bareiss_step([0, 3], [3, 1], 0, 3, 2, 4)


@given(rational_matrices(rows=(1, 4), cols=(1, 7)), st.data())
@settings(max_examples=200, deadline=None)
def test_greedy_basis_matches_the_rank_scan(A, data):
    order = data.draw(st.permutations(range(A.cols)))
    order = order[: data.draw(st.integers(0, A.cols))]
    assert greedy_basis(A, order) == greedy_basis_by_rank(A, order)


@given(rational_matrices(rows=(1, 4), cols=(1, 7)), st.data())
@settings(max_examples=200, deadline=None)
def test_bases_match_the_determinant_loop(A, data):
    assert list(bases(A)) == list(bases_by_det(A))
    over = sorted(data.draw(st.sets(st.integers(0, A.cols - 1))))
    assert list(bases(A, over)) == list(bases_by_det(A, over))


def test_bases_enumerate_past_the_cap(monkeypatch):
    # the cap is checked by the scans that use bases (chibar), not by bases
    monkeypatch.setattr(ratmat, "MAX_ENUM_COLS", 3)
    assert [B for B, _ in bases(RatMatrix.identity(4))] == [(0, 1, 2, 3)]
    assert len(list(bases(RatMatrix.identity(4), over=[0, 1, 3]))) == 0


def test_each_scan_checks_the_one_cap(monkeypatch):
    monkeypatch.setattr(ratmat, "MAX_ENUM_COLS", 3)
    # full row rank, entries in {0, 1, -1}, and not a network matrix either
    # way round, so is_TU reaches its scan
    A = RatMatrix.from_rows([[1, 1, 1, 1], [1, -1, 1, 0]], cols=4)
    scans = [
        (lambda: Subspace.from_kernel_matrix(A).circuit_list, "circuit enumeration"),
        (lambda: is_TU(A), "unimodularity enumeration"),
        (lambda: chibar(A), "basis enumeration"),
    ]
    for scan, what in scans:
        with pytest.raises(DeskScaleExceeded, match=f"^{what} over 4 columns exceeds the cap of 3$"):
            scan()


@st.composite
def elimination_cases(draw):
    """(M, b): 0-5 x 1-6 rational matrices, some with zero rows, zero
    columns, duplicate rows or an entry of 10^400."""
    m = draw(st.integers(0, 5))
    n = draw(st.integers(1, 6))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    data = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if m:
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["plain", "zero-row", "zero-col", "duplicate", "huge"]))
        if kind == "zero-row":
            data[i] = [Fraction(0)] * n
        elif kind == "zero-col":
            for row in data:
                row[j] = Fraction(0)
        elif kind == "duplicate":
            data[i] = list(data[0])
        elif kind == "huge":
            big = Fraction(10**400)
            data[i][j] = draw(st.sampled_from([big, -big, 1 / big]))
    b = [draw(entry) for _ in range(m)]
    return RatMatrix.from_rows(data, cols=n), vec(b)


def _oracle_rref(M: RatMatrix, extra: RatMatrix | None = None):
    """fraction_rref of [M | extra]: (rank, pivot columns, reduced rows)."""
    extra = extra or RatMatrix.zeros(M.rows, 0)
    rows = [list(r + x) for r, x in zip(M.data, extra.data)]
    r, pivots = fraction_rref(rows, M.cols + extra.cols)
    return r, tuple(pivots), rows


@given(elimination_cases())
@settings(max_examples=150, deadline=None)
def test_elimination_matches_the_fraction_rref(case):
    M, b = case
    r, pivots, rows = _oracle_rref(M)
    assert rref(M) == (r, pivots, RatMatrix.from_rows(rows, cols=M.cols))

    r, pivots, rows = _oracle_rref(M, RatMatrix.from_rows([[x] for x in b], cols=1))
    x = solve_linear(M, b)
    if M.cols in pivots:
        assert x is None
    else:
        expect = [Fraction(0)] * M.cols
        for row, p in zip(rows, pivots):
            expect[p] = row[M.cols]
        assert x == tuple(expect) and M.matvec(x) == b

    k = min(M.rows, M.cols)
    S = M.submatrix(range(k), range(k))
    assert bareiss_det(S) == naive_det(S)
    r, pivots, rows = _oracle_rref(S, RatMatrix.identity(k))
    if r < k or pivots[:k] != tuple(range(k)):
        with pytest.raises(SingularBasis):
            invert(S)
    else:
        assert invert(S) == RatMatrix.from_rows([row[k:] for row in rows], cols=k)

    if M.rows and M.rows <= M.cols:
        B = tuple(range(M.cols - M.rows, M.cols))
        AB = M.take_cols(B)
        if naive_det(AB) == 0:
            with pytest.raises(SingularBasis):
                basis_form(M, B)
        else:
            _, _, rows = _oracle_rref(AB, M)
            assert basis_form(M, B) == RatMatrix.from_rows([row[M.rows :] for row in rows])


@given(rational_matrices(rows=(0, 4), cols=(1, 7)))
@settings(max_examples=200, deadline=None)
def test_rank_counts_the_pivots_of_the_rref(A):
    # `rank` reads the pivot count of the integer elimination and builds no
    # Fraction RREF; the RREF and the Fraction elimination agree with it.
    assert rank(A) == rref(A)[0] == fraction_rref([list(r) for r in A.data], A.cols)[0]


def test_vec_passes_a_fraction_tuple_through_and_converts_the_rest():
    t = (Fraction(1, 2), Fraction(3))
    assert vec(t) is t
    assert vec(()) == ()
    for other in ([Fraction(1, 2), 3], (Fraction(1, 2), 3), (Fraction(1, 2), "3"), iter(t)):
        out = vec(other)
        assert out == t and type(out) is tuple and all(type(v) is Fraction for v in out)
    assert type(vec((True,))[0]) is Fraction
    with pytest.raises(TypeError):
        vec((Fraction(1), 0.5))
