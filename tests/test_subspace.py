import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitkit.errors import EmptyIndexSet, NotInProjection, NotInSubspace
from circuitkit.ratmat import (
    RatMatrix,
    is_conformal,
    norm2_sq,
    rref_kernel,
    vec,
    vec_dot,
    vec_sub,
)
from circuitkit.subspace import (
    Subspace,
    _enumerate_circuits,
    circuits,
    components,
    conformal_circuit,
    conformal_decompose,
    dual,
    is_separable,
    lift_min_norm,
    minor,
    oriented_circuits,
)
from circuitkit import subspace
from circuitkit.generate import GeneratorSpec, generate
import util
from util import (
    brute_circuits,
    fraction_enumerate_circuits,
    fraction_lift_min_norm,
    fraction_project_onto_perp,
    hypergraph_components,
    int_enumerate_circuits,
    integer_normalize,
    random_int_matrix,
    rational_matrices,
    unpruned_enumerate_circuits,
)


def canon(v):
    lead = next(x for x in v if x)
    return tuple(x if lead > 0 else -x for x in v)


def test_circuits_int(A_int):
    W = Subspace.from_kernel_matrix(A_int)
    evs = circuits(W)
    assert len(evs) == 1
    assert canon(evs[0].vector) == (1, -1, 1)
    assert evs[0].support == (0, 1, 2)


def test_circuits_w3(W3):
    got = sorted(canon(ev.vector) for ev in circuits(W3))
    assert got == sorted(
        [(0, 1, 1, 3), (1, 0, 3, 1), (1, -3, 0, -8), (3, -1, 8, 0)]
    )
    supports = sorted(ev.support for ev in circuits(W3))
    assert supports == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_circuits_db(A_db):
    W = Subspace.from_kernel_matrix(A_db)
    entry_sets = [set(abs(v) for v in ev.vector if v) for ev in circuits(W)]
    assert {1, 2} in entry_sets


def test_circuits_against_brute_force():
    rng = random.Random(21)
    for _ in range(12):
        A = random_int_matrix(rng, 2, rng.randint(3, 5), lo=-3, hi=3)
        W = Subspace.from_kernel_matrix(A)
        got = sorted(canon(ev.vector) for ev in circuits(W))
        assert got == brute_circuits(A)


def test_dual_is_orthogonal_complement(W3):
    D = dual(W3)
    assert D.dim == W3.ambient_dim - W3.dim
    for w in W3.span_rep.data:
        for z in D.span_rep.data:
            assert sum(a * b for a, b in zip(w, z)) == 0


@given(rational_matrices(rows=(1, 3), cols=(2, 6)))
@settings(max_examples=60, deadline=None)
def test_oriented_circuits_are_int_vectors_in_both_signs(A):
    W = Subspace.from_kernel_matrix(A)
    got = list(oriented_circuits(W))
    assert len(got) == 2 * len(W.circuit_list)
    for ev, plus, minus in zip(W.circuit_list, got[::2], got[1::2]):
        assert plus == ev
        assert minus.support == ev.support
        assert minus.vector == tuple(-x for x in ev.vector)
        for g in (plus, minus):
            assert type(g.vector) is tuple and all(type(x) is int for x in g.vector)
        assert next(x for x in plus.vector if x) > 0


@given(rational_matrices(rows=(1, 4), cols=(1, 7)))
@settings(max_examples=100, deadline=None)
def test_the_int_kernel_rows_are_the_gcd_normalized_rows(A):
    # The integer rows kernel_rep keeps are coprime with a positive first
    # entry, since each RREF row has a pivot 1: the gcd normalization.
    W = Subspace.from_kernel_matrix(A)
    want = tuple(integer_normalize(row)[0] for row in W.kernel_rep.data)
    assert W.int_kernel_rows == want
    assert all(type(x) is int for row in W.int_kernel_rows for x in row)


def test_conformal_decompose_int(A_int):
    W = Subspace.from_kernel_matrix(A_int)
    dec = conformal_decompose(W, vec([3, -3, 3]))
    assert len(dec.terms) == 1
    alpha, g = dec.terms[0]
    assert alpha * Fraction(g[0]) == 3


def test_conformal_decompose_w3(W3):
    z = vec([1, 1, 4, 4])
    dec = conformal_decompose(W3, z)
    assert len(dec.terms) == 2
    total = [Fraction(0)] * 4
    for alpha, g in dec.terms:
        assert alpha > 0
        assert is_conformal(vec(g), z)
        total = [t + alpha * x for t, x in zip(total, g)]
    assert tuple(total) == z


def test_conformal_decompose_rejects_outsiders(W3):
    with pytest.raises(NotInSubspace):
        conformal_decompose(W3, vec([1, 0, 0, 0]))


def test_conformal_circuit_none_for_zero(W3):
    assert conformal_circuit(W3, vec([0, 0, 0, 0])) is None


def test_minor_restrict_trivial(A_int):
    W = Subspace.from_kernel_matrix(A_int)
    R = minor(W, [0, 1], "restrict")
    assert R.is_trivial()


def test_minor_project(A_int):
    W = Subspace.from_kernel_matrix(A_int)
    P = minor(W, [0, 2], "project")
    assert P.dim == 1
    assert P.contains(vec([1, 1]))
    with pytest.raises(EmptyIndexSet):
        minor(W, [], "project")


def test_lift_min_norm(W3):
    # pinning both free coordinates leaves a unique lift
    assert lift_min_norm(W3, [0, 1], (Fraction(1), Fraction(1))) == (1, 1, 4, 4)
    # pinning one coordinate leaves a line; the lift must beat every
    # perturbation along it
    lifted = lift_min_norm(W3, [0], (Fraction(1),))
    assert W3.contains(lifted) and lifted[0] == 1
    direction = vec([0, 1, 1, 3])
    for t in (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)):
        other = tuple(a + t * b for a, b in zip(lifted, direction))
        assert norm2_sq(lifted) <= norm2_sq(other)
    with pytest.raises(NotInProjection):
        lift_min_norm(
            Subspace.from_kernel_matrix(RatMatrix.identity(3)),
            [0],
            (Fraction(1),),
        )


def test_components(A_int, W3):
    assert components(Subspace.from_kernel_matrix(A_int)) == ((0, 1, 2),)
    assert components(W3) == ((0, 1, 2, 3),)


def test_separable_block_diagonal():
    A = RatMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]], cols=4)
    W = Subspace.from_kernel_matrix(A)
    assert is_separable(W)
    assert len(components(W)) == 2


@given(st.integers(0, 2**30 - 1))
@settings(max_examples=25, deadline=None)
def test_decomposition_invariants(seed):
    rng = random.Random(seed)
    A = random_int_matrix(rng, 2, 4, lo=-3, hi=3)
    W = Subspace.from_kernel_matrix(A)
    if W.is_trivial():
        return
    coeffs = [rng.randint(-3, 3) for _ in range(W.span_rep.rows)]
    z = W.span_rep.vecmat(vec(coeffs))
    if all(x == 0 for x in z):
        return
    dec = conformal_decompose(W, z)
    assert len(dec.terms) <= 4
    total = [Fraction(0)] * 4
    for alpha, g in dec.terms:
        assert alpha > 0
        assert is_conformal(vec(g), vec(z))
        total = [t + alpha * x for t, x in zip(total, g)]
    assert tuple(total) == tuple(z)


@given(st.integers(0, 2**30 - 1))
@settings(max_examples=20, deadline=None)
def test_dual_involution(seed):
    rng = random.Random(seed)
    A = random_int_matrix(rng, 2, rng.randint(3, 5), lo=-3, hi=3)
    W = Subspace.from_kernel_matrix(A)
    DD = dual(dual(W))
    assert DD.dim == W.dim
    for row in W.span_rep.data:
        assert DD.contains(row)


@given(rational_matrices(rows=(2, 5), cols=(4, 9)))
@settings(max_examples=100, deadline=None)
def test_integer_enumeration_matches_fraction_enumeration(A):
    W = Subspace.from_kernel_matrix(A)
    assert _enumerate_circuits(W) == fraction_enumerate_circuits(W)


@pytest.mark.parametrize(
    "rows",
    [[[0, 0, 0, 0]], [[1, 2], [3, 4]], [[2, 0, 1], [4, 0, 2]]],
    ids=["whole-space", "zero-space", "rank-one-zero-column"],
)
def test_integer_enumeration_on_degenerate_kernels(rows):
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows(rows))
    assert _enumerate_circuits(W) == fraction_enumerate_circuits(W)


@st.composite
def degenerate_int_matrices(draw):
    """1-4 x 1-9 integer matrices with entries in [-3, 3], some zero
    columns, some columns parallel to another and some rows that are
    combinations of two others."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 9))
    rows = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(m)]
    for j, k, f in draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3)),
                 max_size=3)
    ):
        for row in rows:
            row[j] = f * row[k]
    for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[i] = [a * x + b * y for x, y in zip(rows[(i + 1) % m], rows[(i + 2) % m])]
    if not any(any(row) for row in rows):
        rows[0][0] = 1
    return RatMatrix.from_rows(rows, cols=n)


@given(degenerate_int_matrices())
@settings(max_examples=300, deadline=None)
def test_independent_set_growth_matches_both_support_enumerators(A):
    W = Subspace.from_kernel_matrix(A)
    assert W.circuit_list == int_enumerate_circuits(W) == fraction_enumerate_circuits(W)


@st.composite
def maybe_block_diagonal(draw):
    """A `degenerate_int_matrices` draw, half the time cut into two
    diagonal blocks (entries off the blocks set to 0)."""
    A = draw(degenerate_int_matrices())
    if not draw(st.booleans()):
        return A
    k = draw(st.integers(0, A.rows))
    split = draw(st.integers(0, A.cols))
    rows = [
        [x if (i < k) == (j < split) else 0 for j, x in enumerate(row)]
        for i, row in enumerate(A.data)
    ]
    if not any(any(row) for row in rows):
        rows[0][0] = 1
    return RatMatrix.from_rows(rows, cols=A.cols)


@given(maybe_block_diagonal())
@settings(max_examples=300, deadline=None)
def test_components_match_the_circuit_hypergraph(A):
    W = Subspace.from_kernel_matrix(A)
    assert components(W) == hypergraph_components(W)


def test_components_of_a_wide_block_diagonal_matrix_enumerate_nothing(monkeypatch):
    # 20 columns is past the enumeration cap, so a single enumeration would
    # also raise DeskScaleExceeded
    calls = []
    monkeypatch.setattr(subspace, "_enumerate_circuits", lambda W: calls.append(W))
    # four connected 2 x 5 blocks on the diagonal of an 8 x 20 matrix
    rows = []
    for b in range(4):
        for block_row in ([1, 1, 1, 1, 1], [1, 2, 3, 4, 5 + b]):
            row = [0] * 20
            row[5 * b : 5 * b + 5] = block_row
            rows.append(row)
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows(rows, cols=20))
    assert is_separable(W)
    assert components(W) == tuple(tuple(range(5 * b, 5 * b + 5)) for b in range(4))
    assert calls == []


@st.composite
def sparse_int_matrices(draw):
    """1-6 x 2-11 integer matrices, about two entries in three zero, so that
    many independent sets have a coloop in their tail."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(2, 11))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3])
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if not any(any(row) for row in rows):
        rows[0][0] = 1
    return RatMatrix.from_rows(rows, cols=n)


def flow_matrices(sizes):
    """The constraint matrices of the `flow` family's LPs with `sizes` nodes."""
    return st.builds(
        lambda size, seed: generate(GeneratorSpec("flow", size=size, seed=seed)).A,
        st.sampled_from(sizes),
        st.integers(0, 10**6),
    )


@given(sparse_int_matrices() | flow_matrices([3, 4, 5, 6, 7]))
@settings(max_examples=200, deadline=None)
def test_the_coloop_cut_keeps_every_circuit(A):
    W = Subspace.from_kernel_matrix(A)
    assert _enumerate_circuits(W) == unpruned_enumerate_circuits(W)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_growth_keeps_every_circuit_of_a_9_node_flow(seed):
    # A child's other rows are eliminated only after its pivoted rows pass
    # the coloop cut; on the 9-node flows (8 x 12 incidence rows) most
    # children are cut, and the circuits are still those of the uncut
    # growth.
    W = Subspace.from_kernel_matrix(generate(GeneratorSpec("flow", size=9, seed=seed)).A)
    assert W.kernel_rep.shape == (8, 12)
    assert _enumerate_circuits(W) == unpruned_enumerate_circuits(W)


def test_the_coloop_cut_takes_fewer_steps_on_a_flow(monkeypatch):
    # The 9-node flow LP (9 x 12) has few circuits and many independent
    # sets whose subtrees hold none.
    W = Subspace.from_kernel_matrix(generate(GeneratorSpec("flow", size=9, seed=1)).A)
    calls = []
    step = subspace.bareiss_step

    def counted(*args):
        calls.append(None)
        return step(*args)

    monkeypatch.setattr(subspace, "bareiss_step", counted)
    monkeypatch.setattr(util, "bareiss_step", counted)
    cut = _enumerate_circuits(W)
    cut_steps = len(calls)
    calls.clear()
    assert cut == unpruned_enumerate_circuits(W)
    assert 0 < cut_steps < len(calls) // 2


@st.composite
def side_matrices(draw):
    """Integer matrices whose kernels fall on either side of the circuit
    enumeration's rule (dim W <= rank A or not), with the shapes its growth
    treats apart: zero columns, parallel columns, coloops (a row with one
    nonzero entry), dependent rows, block-diagonal matrices and
    dim W in {0, 1, n}."""
    n = draw(st.integers(1, 8))
    entry = st.integers(-3, 3)
    dim = draw(st.sampled_from(["any", "any", "any", "zero", "one", "full"]))
    if dim == "full" or dim == "one" and n == 1:
        return RatMatrix.from_rows([[0] * n], cols=n)
    if dim == "any":
        m = draw(st.integers(1, n))
        rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    else:
        # triangular with a nonzero diagonal: rank n (dim W = 0) or n - 1
        m = n if dim == "zero" else n - 1
        nonzero = st.sampled_from([1, -1, 2, -3])
        rows = [
            [0] * i + [draw(nonzero)] + [draw(entry) for _ in range(n - i - 1)]
            for i in range(m)
        ]
    if dim == "any" and n >= 4 and draw(st.booleans()):
        # two diagonal blocks
        k = draw(st.integers(1, n - 1))
        rows = [r[:k] + [0] * (n - k) for r in rows] + [
            [0] * k + [draw(entry) for _ in range(n - k)] for _ in rows
        ]
    if dim == "any" and n >= 2:
        for _ in range(draw(st.integers(0, 2))):
            j = draw(st.integers(0, n - 1))
            shape = draw(st.sampled_from(["zero", "parallel", "coloop"]))
            if shape == "zero":
                for r in rows:
                    r[j] = 0
            elif shape == "parallel":
                i = draw(st.integers(0, n - 1).filter(lambda i: i != j))
                f = draw(st.sampled_from([1, -1, 2, -3]))
                for r in rows:
                    r[j] = f * r[i]
            else:
                rows.append([0] * j + [draw(st.sampled_from([1, -2]))] + [0] * (n - j - 1))
    if draw(st.booleans()):
        # a dependent row: the input is rank deficient
        a, b = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows.append([x + 2 * y for x, y in zip(rows[a], rows[b])])
    if not any(map(any, rows)):
        rows[0][0] = 1
    return RatMatrix.from_rows(rows, cols=n)


@given(side_matrices())
@settings(max_examples=300, deadline=None)
def test_both_sides_find_the_circuits_of_the_brute_force(A):
    W = Subspace.from_kernel_matrix(A)
    got = _enumerate_circuits(W)
    assert got == unpruned_enumerate_circuits(W)
    assert sorted(ev.vector for ev in got) == brute_circuits(A)


@pytest.mark.parametrize(
    "rows, dual_side",
    [
        ([[1, 2, 0], [0, 1, 1], [1, 0, 3]], True),  # dim W = 0
        ([[1, 2, 0, 1], [0, 1, 1, 0], [1, 0, 3, 0]], True),  # dim W = 1
        ([[0, 0, 0, 0]], False),  # dim W = n: every column a circuit
        # a zero column, parallel columns and a dependent row
        ([[1, 2, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [1, 2, 1, 1, 0]], True),
        ([[1, 2, 0, 0, 0, 1], [0, 0, 1, 0, 0, 1]], False),
        ([[1, 2, 3, 4, 5, 6]], False),
        ([[1, 0, 0, 2, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 0, 1, 0, 1], [2, 2, 0, 4, 2, 0]], True),
    ],
)
def test_the_side_rule(monkeypatch, rows, dual_side):
    # The dual side runs exactly when dim W <= rank A, and both sides give
    # the circuits of the support-by-support search.
    A = RatMatrix.from_rows(rows, cols=len(rows[0]))
    W = Subspace.from_kernel_matrix(A)
    calls = []
    original = subspace._dual_circuits
    monkeypatch.setattr(subspace, "_dual_circuits", lambda *a: calls.append(1) or original(*a))
    got = _enumerate_circuits(W)
    assert (calls == [1]) == dual_side == (W.dim <= W.codim)
    assert got == unpruned_enumerate_circuits(W) == int_enumerate_circuits(W)


@st.composite
def last_level_matrices(draw):
    """Integer matrices with dim W > rank A, so that the primal side grows
    their circuits and closes its last level: columns drawn from a small
    pool, so that some repeat, up to sign; up to two zero columns (loops);
    and entries mostly zero, so that kernel lines at the last level have
    zero entries."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2 * m + 1, 11))  # dim W >= n - m > m >= rank A
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    pool = [[draw(entry) for _ in range(m)] for _ in range(draw(st.integers(1, n)))]
    cols = []
    for _ in range(n):
        sign = draw(st.sampled_from([1, -1]))
        cols.append([sign * x for x in draw(st.sampled_from(pool))])
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        cols[j] = [0] * m
    if not any(map(any, cols)):
        cols[0][0] = 1
    return RatMatrix.from_rows([list(r) for r in zip(*cols)], cols=n)


@given(last_level_matrices())
@settings(max_examples=300, deadline=None)
def test_the_closed_last_level_keeps_every_circuit(A):
    W = Subspace.from_kernel_matrix(A)
    assert W.dim > W.codim
    assert _enumerate_circuits(W) == unpruned_enumerate_circuits(W)


@given(rational_matrices(rows=(1, 4), cols=(1, 7)), st.data())
@settings(max_examples=150, deadline=None)
def test_the_projection_matches_the_fraction_gram_solve(A, data):
    W = Subspace.from_kernel_matrix(A)
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    v = vec(data.draw(st.lists(entry, min_size=A.cols, max_size=A.cols)))
    got = W.project_onto_perp(v)
    assert got == fraction_project_onto_perp(W, v)
    assert W.contains(vec_sub(v, got)) and dual(W).contains(got)


@given(rational_matrices(rows=(1, 4), cols=(1, 7)), st.data())
@settings(max_examples=150, deadline=None)
def test_the_least_norm_lift_matches_the_fraction_gram_solve(A, data):
    W = Subspace.from_kernel_matrix(A)
    n = W.ambient_dim
    I = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=W.dim, max_size=W.dim))
    w = W.span_rep.vecmat(vec(coeffs))
    p = tuple(w[i] for i in I)
    got = lift_min_norm(W, I, p)
    assert got == fraction_lift_min_norm(W, I, p)
    assert W.contains(got) and tuple(got[i] for i in I) == p
    # orthogonal to W ∩ {x_I = 0}, the kernel of kernel_rep stacked on e_I
    units = [[int(j == i) for j in range(n)] for i in I]
    _, _, V0 = rref_kernel(RatMatrix.from_rows([*W.kernel_rep.data, *units], cols=n))
    assert all(vec_dot(v, got) == 0 for v in V0.data)


def test_the_projection_onto_the_perp_of_everything_is_zero():
    W = Subspace.from_kernel_matrix(RatMatrix.zeros(1, 3))
    assert W.kernel_rep.rows == 0
    assert W.project_onto_perp(vec([1, 2, 3])) == (0, 0, 0)
