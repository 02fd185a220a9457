from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circuitkit import graver
from circuitkit.errors import (
    AuditFailure,
    BoxTooLarge,
    CircuitKitError,
    NonIntegerMatrix,
    NotIntegerKernelVector,
)
from circuitkit.generate import (
    GeneratorSpec,
    complete_graph_incidence,
    dumbbell_incidence,
    generate,
)
from circuitkit.graver import (
    _BOX_LIMIT,
    COUNTEREXAMPLE_MATRIX,
    _appendix_qualifiers,
    _integer_kernel_basis,
    appendix_counterexample,
    conjecture_decompose,
    ej_check,
    graver_basis,
    hk_check,
    ip_proximity_check,
)
from circuitkit.imbalance import imbalances
from circuitkit.ratmat import RatMatrix, rank, vec
from circuitkit.subspace import Subspace
from util import (
    brute_ip_proximity,
    fraction_appendix_counterexample,
    fraction_conjecture_decompose,
    graver_box,
    oracle_graver_basis,
    window_appendix_qualifiers,
)


def test_graver_single_circuit(A_int):
    gb = graver_basis(A_int)
    assert sorted(gb.elements) == [(-1, 1, -1), (1, -1, 1)]
    assert gb.g1 == 3
    assert gb.ginf == 1


def test_graver_dumbbell(A_db):
    gb = graver_basis(A_db)
    assert gb.ginf == 2
    for g in gb.elements:
        assert tuple(-v for v in g) in gb.elements
        assert all(int(v) == v for v in g)
        assert any(v != 0 for v in g)
        assert all(x == 0 for x in A_db.matvec(vec(g)))


def test_graver_sandwich(A_int, A_db):
    for A in (A_int, A_db):
        gb = graver_basis(A)
        n = A.cols
        kb = imbalances(Subspace.from_kernel_matrix(A)).kappa_bar
        assert kb <= gb.ginf <= n * kb
        assert gb.ginf <= gb.g1


def test_graver_minimality(A_db):
    gb = graver_basis(A_db)
    elems = set(gb.elements)
    for g in elems:
        for h in elems:
            if h == g:
                continue
            # no distinct element fits conformally under another
            if all(hv * gv >= 0 and abs(hv) <= abs(gv) for hv, gv in zip(h, g)):
                raise AssertionError(f"{h} sits under {g}")


def test_ip_proximity_fractional_relaxation():
    A = RatMatrix.from_rows([[2, 1]], cols=2)
    x_lp, x_ip, distance, bound = ip_proximity_check(A, [3], [-1, 0])
    assert x_lp == (Fraction(3, 2), Fraction(0))
    assert tuple(x_ip) == (1, 1)
    assert distance == Fraction(3, 2)
    assert bound == 4
    assert distance <= bound


def test_ip_proximity_integral_relaxation(A_int):
    x_lp, x_ip, distance, bound = ip_proximity_check(A_int, [2, 2], [1, 0, 1])
    assert distance == 0
    assert tuple(x_ip) == tuple(x_lp) == (0, 2, 0)


def test_ip_proximity_box_guard():
    A = RatMatrix.from_rows([[1, 1000]], cols=2)
    with pytest.raises(BoxTooLarge):
        ip_proximity_check(A, [1000], [0, 0])


def test_a_better_point_outside_the_ball_is_an_ip_finding(monkeypatch):
    # x_lp = (3/2, 0) and the ball has radius 4; (6, 0) lies 9/2 away, so a
    # scan that reports it finds a box optimum the ball misses
    scan = graver._scan_integer_points
    monkeypatch.setattr(graver, "_scan_integer_points", lambda *a: [*scan(*a), (6, 0)])
    A = RatMatrix.from_rows([[2, 1]], cols=2)
    with pytest.raises(AuditFailure) as exc:
        ip_proximity_check(A, [3], [-1, 0])
    assert (exc.value.prop, exc.value.detail) == (
        "ip-ball-optimum",
        "full box scan found a better point",
    )


def test_an_ip_optimum_measured_past_the_bound_is_a_finding(monkeypatch):
    # x_ip = (1, 1) lies 3/2 from x_lp; the audit measures it afresh
    norm1 = graver.norm1
    monkeypatch.setattr(graver, "norm1", lambda v: norm1(v) + 3)
    A = RatMatrix.from_rows([[2, 1]], cols=2)
    with pytest.raises(AuditFailure) as exc:
        ip_proximity_check(A, [3], [-1, 0])
    assert (exc.value.prop, exc.value.detail) == ("ip-proximity", "distance 9/2 exceeds 4")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CircuitKitError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ip_proximity_matches_the_box_product_oracle(data):
    m = data.draw(st.integers(1, 2))
    n = data.draw(st.integers(2, 4))
    entry = st.integers(-2, 2)
    A = RatMatrix.from_rows([[data.draw(entry) for _ in range(n)] for _ in range(m)], cols=n)
    b = [data.draw(st.integers(0, 3)) for _ in range(m)]
    c = [data.draw(entry) for _ in range(n)]
    # (x_lp, x_ip, distance, bound), or the class of the refusal
    assert _outcome(ip_proximity_check, A, b, c) == _outcome(brute_ip_proximity, A, b, c)


def test_conjecture_holds_single(A_int):
    W = Subspace.from_kernel_matrix(A_int)
    rep = conjecture_decompose(W, [2, -2, 2])
    assert rep.status == "holds"
    total = [Fraction(0)] * 3
    for coeff, g in rep.decomposition:
        kd = imbalances(W).kappa_dot
        assert (coeff * kd).denominator == 1
        assert coeff > 0
        for i in range(3):
            total[i] += coeff * g[i]
            assert g[i] * rep.target[i] >= 0
    assert tuple(total) == rep.target


def test_conjecture_holds_dumbbell(A_db):
    W = Subspace.from_kernel_matrix(A_db)
    g = W.circuit_list[0].vector
    z = [int(2 * v) for v in g] if any(v.denominator == 2 for v in g) else [int(v) for v in g]
    rep = conjecture_decompose(W, z)
    assert rep.status == "holds"
    assert rep.searched >= 0


def test_conjecture_zero_target(A_int):
    W = Subspace.from_kernel_matrix(A_int)
    rep = conjecture_decompose(W, [0, 0, 0])
    assert rep.status == "holds"
    assert rep.decomposition == ()


def test_conjecture_rejects_bad_targets(A_int):
    W = Subspace.from_kernel_matrix(A_int)
    with pytest.raises(NotIntegerKernelVector):
        conjecture_decompose(W, [1, 0, 0])
    with pytest.raises(NotIntegerKernelVector):
        conjecture_decompose(W, [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)])


def test_hk_dumbbell_witness_lcm(A_db):
    W = Subspace.from_kernel_matrix(A_db)
    rep = hk_check(W, trials=50, seed=11)
    assert rep.kappa_dot == 2
    assert rep.witness_lcm == 2
    assert rep.kappa_dot % rep.random_lcm == 0
    assert rep.feasible_trials <= rep.trials == 50


def test_hk_trivial_denominators(A_int):
    W = Subspace.from_kernel_matrix(A_int)
    rep = hk_check(W, trials=30, seed=5)
    assert rep.kappa_dot == 1
    assert rep.random_lcm == 1
    assert rep.witness_lcm == 1


def test_appendix_report():
    rep = appendix_counterexample()
    assert rep.kappa_dot == 5850
    assert sorted(rep.vectors) == [(0, 1), (9, -4), (10, -3), (13, -3)]
    assert len(rep.products) == 6
    assert len(rep.witnesses) == 6
    for (v, w, rows), (i, j) in zip(rep.products, rep.witnesses):
        assert 0 <= i < j < 4
        M = RatMatrix.from_rows(rows, cols=4)
        S = M.submatrix([0, 1], [i, j])
        from circuitkit.ratmat import bareiss_det, invert

        assert bareiss_det(S) != 0
        inv = invert(S)
        assert any(
            (5850 * inv.entry(r, s)).denominator != 1 for r in range(2) for s in range(2)
        )


def test_appendix_matrix_is_the_fixture(A_app):
    assert COUNTEREXAMPLE_MATRIX.data == A_app.data


def test_ej_small_column_sums(A_db):
    assert ej_check(A_db) is True


def test_ej_declines_large_columns(A_app):
    assert ej_check(A_app) is False


def test_ej_rejects_fractions():
    A = RatMatrix.from_rows([[Fraction(1, 2), 1]], cols=2)
    with pytest.raises(NonIntegerMatrix):
        ej_check(A)


@st.composite
def tiny_int_matrices(draw, rows, cols, bound):
    """Integer matrices of the given shape ranges, entries in [-bound, bound],
    with up to two columns forced to zero."""
    m = draw(st.integers(*rows))
    n = draw(st.integers(*cols))
    data = [[draw(st.integers(-bound, bound)) for _ in range(n)] for _ in range(m)]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in data:
            row[j] = 0
    return RatMatrix.from_rows(data, cols=n)


@settings(max_examples=100, deadline=None)
@given(tiny_int_matrices((1, 3), (1, 6), 4))
def test_integer_kernel_basis_spans_the_kernel(A):
    basis = _integer_kernel_basis(A)
    assert len(basis) == A.cols - rank(A)
    for x in basis:
        assert all(v == 0 for v in A.matvec(vec(x)))


@settings(max_examples=60, deadline=None)
@given(tiny_int_matrices((1, 2), (3, 5), 2))
@example(RatMatrix.from_rows([[2, 2, 3, 3, -2], [-1, 2, 2, 3, -3]], cols=5))
def test_graver_basis_matches_the_all_pairs_oracle(A):
    points = graver_box(A)[3]
    if points > _BOX_LIMIT:
        with pytest.raises(BoxTooLarge):
            oracle_graver_basis(A)
        with pytest.raises(BoxTooLarge):
            graver_basis(A)
        return
    # the all-pairs oracle is quadratic in the box; a few thousand points
    # keep it to a fraction of a second
    assume(points <= 4000)
    assert graver_basis(A) == oracle_graver_basis(A)


CONJECTURE_FIXTURES = [
    COUNTEREXAMPLE_MATRIX,
    complete_graph_incidence(4),
    dumbbell_incidence(),
    generate(GeneratorSpec("tu-network", size=5, seed=0)),
]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_conjecture_decompose_matches_the_fraction_oracle(data):
    A = data.draw(st.sampled_from(CONJECTURE_FIXTURES))
    basis = _integer_kernel_basis(A)
    coeffs = data.draw(st.lists(st.integers(-1, 1), min_size=len(basis), max_size=len(basis)))
    z = [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(A.cols)]
    W = Subspace.from_kernel_matrix(A)
    got, want = conjecture_decompose(W, z), fraction_conjecture_decompose(W, z)
    # the oracle counts the last term down too, so it may search more
    assert (got.target, got.status, got.decomposition) == (
        want.target, want.status, want.decomposition)
    assert got.searched <= want.searched


def test_conjecture_solves_the_last_term_of_a_large_target():
    # Counting the last coefficient down from amax searched 2N + 2 pairs.
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows([[1, 1, -2]], cols=3))
    N = 10**6
    rep = conjecture_decompose(W, (N, N, N))
    assert rep.status == "holds"
    assert rep.decomposition == ((Fraction(N, 2), (0, 2, 1)), (Fraction(N, 2), (2, 0, 1)))
    assert rep.searched == 4


def test_appendix_matches_the_fraction_oracle():
    assert appendix_counterexample() == fraction_appendix_counterexample()


@pytest.mark.parametrize("kd", [5850, 1, 13, 60, 390, 2 * 3 * 5 * 7 * 13])
def test_the_divisor_search_finds_the_window_scan_qualifiers(kd):
    A = COUNTEREXAMPLE_MATRIX
    cols = [(int(A.entry(0, j)), int(A.entry(1, j))) for j in range(4)]
    found = _appendix_qualifiers(cols, kd)
    assert found == window_appendix_qualifiers(A, kd)
    if kd == 5850:
        assert len(found) == 16
