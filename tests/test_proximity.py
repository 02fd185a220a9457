import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circuitkit import lp as lpmod, proximity
from circuitkit.augment import ratio_circuit
from circuitkit.errors import (
    AuditFailure,
    BadParameters,
    CircuitKitError,
    DimensionMismatch,
    InfeasibleSystem,
    InternalError,
    NegativeCost,
    NotOptimalPair,
    OracleInfeasible,
    UnboundedDirection,
)
from circuitkit.generate import flow_to_lp
from circuitkit.imbalance import diameter_bound, diameter_within
from circuitkit.lp import INFEASIBLE, OPTIMAL, LPInstance, solve
from circuitkit.proximity import (
    _nearest_point,
    apx_oracle,
    feasibility_simplified,
    fixing_sets_bounds,
    hoffman_feasibility_witness,
    hoffman_opt_witness,
    lambda_set,
    transfer_bound,
)
from circuitkit.ratmat import RatMatrix, _gauss_jordan, norm1, rank, vec, vec_add, vec_dot, vec_sub
from circuitkit.subspace import Subspace
from util import (
    always_solve_fixing_sets,
    always_solve_transfer_bound,
    face_row_solve,
    fraction_certified_optimum,
    random_int_matrix,
    two_stage_nearest_point,
)


def seeded_subspace_and_shift(seed, n=5, m=2):
    """A subspace with a shift whose translate meets the orthant."""
    rng = random.Random(seed)
    while True:
        A = random_int_matrix(rng, m, n, -3, 3)
        from circuitkit.ratmat import rank

        if rank(A) < m:
            continue
        W = Subspace.from_kernel_matrix(A)
        if W.dim == 0:
            continue
        x_star = vec([Fraction(rng.randint(0, 4)) for _ in range(n)])
        # walk off the orthant along the subspace so d has a negative part
        w = W.span_rep.data[rng.randrange(W.span_rep.rows)]
        d = vec([a + b for a, b in zip(x_star, w)])
        return W, d


def test_lambda_set():
    assert lambda_set([1, -2, 0, -1], [3, 0, -5, 2]) == (0, 1, 3)
    assert lambda_set([1, 1], [-1, -1]) == ()


def test_feasibility_witness_sweep():
    for seed in range(25):
        W, d = seeded_subspace_and_shift(seed)
        wit = hoffman_feasibility_witness(W, d)
        assert wit.slack >= 0
        assert all(v >= 0 for v in wit.point)
        A = W.kernel_rep
        assert A.matvec(wit.point) == A.matvec(d)
        assert max(abs(a - b) for a, b in zip(wit.point, d)) == wit.distance


def test_feasibility_witness_infeasible():
    A = RatMatrix.from_rows([[1, 1]], cols=2)
    W = Subspace.from_kernel_matrix(A)
    with pytest.raises(InfeasibleSystem):
        hoffman_feasibility_witness(W, vec([-1, 0]))


def test_opt_witness_sweep():
    rng = random.Random(99)
    for seed in range(25):
        W, d = seeded_subspace_and_shift(seed)
        n = W.ambient_dim
        c = vec([Fraction(rng.randint(0, 5)) for _ in range(n)])
        wit = hoffman_opt_witness(W, d, c)
        assert wit.slack >= 0
        A = W.kernel_rep
        res = solve(LPInstance.standard(A, A.matvec(d), c))
        assert sum(ci * xi for ci, xi in zip(c, wit.point)) == res.objective


def test_opt_witness_rejects_negative_cost():
    W, d = seeded_subspace_and_shift(0)
    c = [0] * W.ambient_dim
    c[0] = -1
    with pytest.raises(NegativeCost):
        hoffman_opt_witness(W, d, c)


def test_transfer_bound_fixture():
    # take an optimal pair for one shift, carry it to a nearby shift
    W, d0 = seeded_subspace_and_shift(3)
    n = W.ambient_dim
    A = W.kernel_rep
    c = vec([Fraction(1)] * n)
    res = solve(LPInstance.standard(A, A.matvec(d0), c))
    x_tilde = res.x
    s = vec([c[i] - sum(A.data[r][i] * res.y[r] for r in range(A.rows)) for i in range(n)])
    assert all(v >= 0 for v in s)
    d = vec([v + Fraction(1, 7) for v in d0])
    bound, R = transfer_bound(W, x_tilde, s, d)
    assert bound >= 0
    assert all(x_tilde[i] > bound for i in R)


def test_transfer_bound_rejects_non_pair():
    W, d = seeded_subspace_and_shift(1)
    n = W.ambient_dim
    ones = vec([Fraction(1)] * n)
    with pytest.raises(NotOptimalPair):
        transfer_bound(W, ones, ones, d)


def test_fixing_sets_fixture():
    A = RatMatrix.from_rows([[1, 1, 0], [0, 1, 1]], cols=3)
    b = vec([Fraction(2), Fraction(2)])
    u = vec([Fraction(4)] * 3)
    c1 = vec([Fraction(1), Fraction(0), Fraction(1)])
    res = solve(LPInstance.bounded(A, b, c1, u))
    c2 = vec([Fraction(1), Fraction(0), Fraction(1)])
    R0, Ru = fixing_sets_bounds(A, b, u, c1, c2, res.x, res.y)
    # identical costs: the fixing conclusions must not contradict the optimum
    for i in R0:
        assert res.x[i] == 0
    for i in Ru:
        assert res.x[i] == u[i]


def test_fixing_sets_far_costs_fix_nothing():
    A = RatMatrix.from_rows([[1, 1]], cols=2)
    b = vec([Fraction(1)])
    u = vec([Fraction(1), Fraction(1)])
    c1 = vec([Fraction(0), Fraction(1)])
    res = solve(LPInstance.bounded(A, b, c1, u))
    c2 = vec([Fraction(1), Fraction(0)])
    R0, Ru = fixing_sets_bounds(A, b, u, c1, c2, res.x, res.y)
    # swapping the costs moves the optimum, so nothing may be fixed
    assert R0 == () and Ru == ()


def _fixing_instance():
    """min <c, x>, x0 + x1 + x2 = 2, x0, x2 <= 1, x1 free above, with the
    same cost twice: R0 = (2,) and Ru = (0,)."""
    A = RatMatrix.from_rows([[1, 1, 1]], cols=3)
    c = vec([1, 2, 3])
    return A, vec([2]), [1, None, 1], c, c, vec([1, 1, 0]), vec([2])


def _face_costs(tiebreak):
    """(i, sense) of a face check's tie-break cost sense * x_i."""
    [(i, sense)] = [(i, v) for i, v in enumerate(tiebreak) if v != 0]
    return i, sense


def test_fixing_sets_optimize_each_coordinate_over_the_face_in_order(monkeypatch):
    # The c2 solve starts from x1, a vertex: its one free column, x_1, is
    # independent.  Each face check is the tie-break stage of the c2 LP
    # itself (one row, no face row), started from the c2 optimum.
    c2_solves, faces = [], []

    def recording(lp, tiebreak=None, start=None):
        res = solve(lp, tiebreak=tiebreak, start=start)
        if tiebreak is None:
            c2_solves.append((start, res))
        else:
            faces.append((lp.A.shape, _face_costs(tiebreak), start))
        return res

    monkeypatch.setattr(proximity, "solve", recording)
    inst = _fixing_instance()
    assert fixing_sets_bounds(*inst) == ((2,), (0,))
    [(start, res2)] = c2_solves
    assert start == inst[5]
    assert faces == [((1, 3), (2, -1), res2.x), ((1, 3), (0, 1), res2.x)]


@pytest.mark.parametrize(
    "face, prop, detail",
    [
        ((2, -1), "fixing-zero", "max x_2 over the face is 1"),
        ((0, 1), "fixing-upper", "min x_0 over the face is 0"),
    ],
)
def test_a_face_optimum_off_by_one_is_a_fixing_finding(monkeypatch, face, prop, detail):
    # max x_2 is 0 and min x_0 is 1 over the face; one face check whose
    # point is one unit worse in its coordinate must be caught by the audit
    # of that set.  The c2 solve before them starts from x1.
    c2_starts = []

    def off_by_one(lp, tiebreak=None, start=None):
        res = solve(lp, tiebreak=tiebreak, start=start)
        if tiebreak is None:
            c2_starts.append(start)
        elif _face_costs(tiebreak) == face:
            i, sense = face
            x = list(res.x)
            x[i] -= sense
            return res._replace(x=tuple(x))
        return res

    monkeypatch.setattr(proximity, "solve", off_by_one)
    inst = _fixing_instance()
    with pytest.raises(AuditFailure) as exc:
        fixing_sets_bounds(*inst)
    assert (exc.value.prop, exc.value.detail) == (prop, detail)
    assert c2_starts == [inst[5]]


@pytest.mark.parametrize(
    "x1, message",
    [
        ((1, 0, 0), "x1 is not feasible"),  # off A x = b
        ((1, 2, -1), "x1 is not feasible"),  # on A x = b, but negative
        ((2, 0, 0), "x1 violates an upper bound"),
        # rc = c - A^T y1 = (-1, 0, 1)
        ((0, 2, 0), "dual slack negative at 0 with x below its bound"),
        ((1, 0, 1), "dual surplus at 2 with x positive"),
    ],
)
def test_a_pair_that_is_not_optimal_is_refused(x1, message):
    A, b, u, c1, c2, _, y1 = _fixing_instance()
    with pytest.raises(NotOptimalPair, match=f"^{message}$"):
        fixing_sets_bounds(A, b, u, c1, c2, vec(x1), y1)


def test_a_wrong_length_cost_is_a_dimension_mismatch():
    A, b, u, c1, _, x1, y1 = _fixing_instance()
    with pytest.raises(DimensionMismatch):
        fixing_sets_bounds(A, b, u, c1, vec([1, 2]), x1, y1)


@st.composite
def bounded_lp_instances(draw):
    """(A, b, c, u): a feasible LP with some columns capped, bounded below
    (negative costs on capped columns only), and small entries, so that its
    optimal face is often more than a vertex."""
    n = draw(st.integers(1, 5))
    rows = draw(
        st.lists(st.lists(st.sampled_from([-1, 0, 1, 2]), min_size=n, max_size=n), max_size=3)
    )
    A = RatMatrix.from_rows(rows, cols=n)
    u = draw(st.lists(st.sampled_from([None, 1, 2, 3]), min_size=n, max_size=n))
    x0 = [draw(st.integers(0, 3 if ui is None else ui)) for ui in u]
    c = [draw(st.sampled_from([0, 0, 1] if ui is None else [-1, 0, 0, 1])) for ui in u]
    return A, A.matvec(vec(x0)), vec(c), u


@given(bounded_lp_instances())
@settings(max_examples=150, deadline=None)
def test_the_tiebreak_face_values_match_the_face_row_lp(inst):
    A, b, c, u = inst
    lp = LPInstance.bounded(A, b, c, u)
    opt = solve(lp)
    assert opt.status == OPTIMAL
    for i in range(lp.n):
        for sense in (-1, 1):
            e = [0] * lp.n
            e[i] = sense
            res = solve(lp, tiebreak=vec(e), start=opt.x)
            ref = face_row_solve(lp, opt.objective, e)
            assert res.status == ref.status
            if res.status == OPTIMAL:
                assert sense * res.x[i] == ref.objective


def test_float_bounds_and_epsilons_are_type_errors():
    # A float is not exact: Fraction(0.1) would silently be
    # 3602879701896397/36028797018963968, so it is refused like a float in b or c.
    A = RatMatrix.from_rows([[1, 1]], cols=2)
    b, c = vec([1]), vec([0, 1])
    res = solve(LPInstance.bounded(A, b, c, [1, 1]))
    with pytest.raises(TypeError):
        fixing_sets_bounds(A, b, [1.5, None], c, c, res.x, res.y)
    W, d = seeded_subspace_and_shift(0)
    with pytest.raises(TypeError):
        apx_oracle(W, d, [0] * W.ambient_dim, 0.01, 0)
    with pytest.raises(TypeError):
        feasibility_simplified(W, d, epsilon=1e-6)
    assert feasibility_simplified(W, d, epsilon="0") == feasibility_simplified(W, d, epsilon=0)


def test_float_weights_kappas_and_capacities_are_type_errors():
    # Fraction(1.1) would be a 35-digit binary fraction and Fraction(0.1)
    # 3602879701896397/36028797018963968: each is refused as a float bound is.
    with pytest.raises(TypeError):
        diameter_bound(4, 2, 1.1)
    with pytest.raises(TypeError):
        diameter_within(10, 4, 2, 1.1)
    assert diameter_bound(4, 2, "11/10") == diameter_bound(4, 2, Fraction(11, 10))
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows([[1, 1, 0], [0, 1, 1]], cols=3))
    with pytest.raises(TypeError):
        ratio_circuit(W, vec([1, 0, 1]), [0.5, 1, 1])
    arcs = [(0, 1), (1, 2)]
    with pytest.raises(TypeError):
        flow_to_lp([0, 1, 2], arcs, [0.1, 1], [1, 1], [-1, 0, 1])
    with pytest.raises(TypeError):
        flow_to_lp([0, 1, 2], arcs, [1, 1], [1, 1], [-0.5, 0, 0.5])


def test_apx_oracle_constraints():
    for seed in range(12):
        W, d = seeded_subspace_and_shift(seed, n=4, m=2)
        n = W.ambient_dim
        c = vec([Fraction(1)] * n)
        eps = Fraction(1, 50)
        apx = apx_oracle(W, d, c, eps, seed)
        A = W.kernel_rep
        assert A.matvec(apx.x_tilde) == A.matvec(d)
        again = apx_oracle(W, d, c, eps, seed)
        assert again.x_tilde == apx.x_tilde


def test_apx_oracle_zero_epsilon_is_exact():
    W, d = seeded_subspace_and_shift(2, n=4, m=2)
    n = W.ambient_dim
    c = vec([Fraction(1)] * n)
    apx = apx_oracle(W, d, c, 0, 7)
    assert all(v >= 0 for v in apx.x_tilde)


def test_apx_oracle_rejects_negative_epsilon():
    W, d = seeded_subspace_and_shift(0)
    with pytest.raises(BadParameters):
        apx_oracle(W, d, [0] * W.ambient_dim, -1, 0)


def test_feasibility_simplified_sweep():
    for seed in range(20):
        W, d = seeded_subspace_and_shift(seed)
        x = feasibility_simplified(W, d, seed=seed)
        assert all(v >= 0 for v in x)
        A = W.kernel_rep
        assert A.matvec(x) == A.matvec(d)


def test_feasibility_simplified_epsilon_ceiling():
    W, d = seeded_subspace_and_shift(0)
    with pytest.raises(BadParameters):
        feasibility_simplified(W, d, epsilon=Fraction(1, 2))


def test_feasibility_simplified_infeasible():
    A = RatMatrix.from_rows([[1, 1]], cols=2)
    W = Subspace.from_kernel_matrix(A)
    with pytest.raises(OracleInfeasible):
        feasibility_simplified(W, vec([-1, 0]))


def test_projection_idempotent():
    W, d = seeded_subspace_and_shift(5)
    p = W.project_onto_perp(d)
    assert W.project_onto_perp(p) == p
    q = [a - b for a, b in zip(d, p)]
    assert W.contains(vec(q))


@st.composite
def nearest_point_instances(draw):
    """(rows, b, anchor, vertex) for a nonempty region {rows x = b, x >= 0}
    and the vertex its witness solve returns.

    Entries in {-1, 0, 1}, anchors drawn from a few values, and half the
    time a face row c x = opt make ties between nearest points likely.
    """
    n = draw(st.integers(1, 5))
    entries = st.sampled_from([-1, 0, 1])
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=min(3, n)))
    x0 = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    b = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in rows]
    values = st.sampled_from([-1, 0, Fraction(1, 2), 1, 2])
    anchor = vec(draw(st.lists(values, min_size=n, max_size=n)))
    face = draw(st.booleans())
    c = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)) if face else [0] * n
    res = solve(LPInstance.standard(RatMatrix.from_rows(rows, cols=n), b, c))
    if face:
        rows, b = rows + [c], b + [res.objective]
    return [vec(row) for row in rows], vec(b), anchor, res.x


@given(nearest_point_instances())
@settings(max_examples=200, deadline=None)
def test_nearest_point_matches_the_two_stage_oracle(inst):
    rows, b, anchor, vertex = inst
    x, tau = _nearest_point(rows, b, anchor, vertex, range(len(anchor)))
    _, otau, one_norm = two_stage_nearest_point(rows, b, anchor)
    assert tau == otau
    assert sum(abs(v - a) for v, a in zip(x, anchor)) == one_norm


def test_nearest_point_with_no_rows():
    # W = R^n: the feasible set is the orthant, so the point is d^+
    W = Subspace.from_kernel_matrix(RatMatrix.zeros(0, 4))
    d = vec([2, -1, 0, -3])
    wit = hoffman_feasibility_witness(W, d)
    assert (wit.point, wit.bound, wit.slack) == (vec([2, 0, 0, 0]), 4, 1)
    # the optimal face of c fixes x_0, x_2, x_3 at 0; lambda is every index
    owit = hoffman_opt_witness(W, d, vec([1, 0, 2, 1]))
    assert (owit.point, owit.bound, owit.slack) == (vec([0, 0, 0, 0]), 6, 3)


def test_nearest_point_in_the_zero_subspace():
    # W = {0}: W + d = {d}
    W = Subspace.from_kernel_matrix(RatMatrix.identity(3))
    d = vec([1, 0, 2])
    wit = hoffman_feasibility_witness(W, d)
    assert (wit.point, wit.bound, wit.slack) == (d, 0, 0)
    # lambda = supp(c^+) = {0, 1}, so the bound is |d_0| + |d_1|
    owit = hoffman_opt_witness(W, d, vec([1, 1, 0]))
    assert (owit.point, owit.bound, owit.slack) == (d, 1, 1)
    with pytest.raises(InfeasibleSystem):
        hoffman_feasibility_witness(W, vec([1, -1, 2]))


@pytest.mark.parametrize("field", ["objective", "x"])
def test_a_nearest_point_failing_its_recheck_is_an_internal_error(monkeypatch, field):
    def tampered(lp, tiebreak=None, start=None):
        res = solve(lp, tiebreak=tiebreak, start=start)
        if res.status != OPTIMAL:
            return res
        if field == "objective":
            return res._replace(objective=res.objective + 1)
        n = len(tiebreak) // 4
        x = list(res.x)
        x[n] += 1  # r_0 and s_0 both up by one: same x, 1-norm off by 2
        x[2 * n] += 1
        return res._replace(x=tuple(x))

    monkeypatch.setattr(proximity, "solve", tampered)
    with pytest.raises(InternalError):
        _nearest_point([vec([1, 1, 0])], vec([2]), vec([0, 3, 1]), vec([2, 0, 0]), range(3))


def _face_row_oracle(W, d, c, anchor):
    """(tau, 1-norm) of the nearest optimum of LP(W, d, c) to `anchor`, from
    the two-stage oracle on the rows plus the face row c x = opt."""
    lp = LPInstance.from_subspace(W, d, c)
    opt = solve(lp).objective
    _, tau, one_norm = two_stage_nearest_point([*lp.A.data, c], [*lp.b, opt], anchor)
    return tau, one_norm


def _check_nearest_optimum(W, d, c, anchor):
    """`_nearest_optimum` against the face-row oracle; returns (x, tau)."""
    x, tau = proximity._nearest_optimum(W, d, c, anchor)
    lp = LPInstance.from_subspace(W, d, c)
    assert lp.A.matvec(x) == lp.b and min(x, default=0) >= 0
    assert vec_dot(c, x) == solve(lp).objective
    assert (tau, norm1(vec_sub(x, anchor))) == _face_row_oracle(W, d, c, anchor)
    return x, tau


@st.composite
def nearest_optimum_instances(draw):
    """(W, d, c, anchor): W + d meets the orthant at d, c >= 0 is nonzero,
    and small entries make degenerate duals and deleted columns likely."""
    n = draw(st.integers(1, 5))
    entries = st.sampled_from([-1, 0, 1])
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=min(3, n)))
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows(rows, cols=n))
    d = vec(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    c = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    if not any(c):
        c[draw(st.integers(0, n - 1))] = 1
    values = st.sampled_from([-2, -1, 0, Fraction(1, 2), 1, 2, 3])
    anchor = vec(draw(st.lists(values, min_size=n, max_size=n)))
    return W, d, vec(c), anchor


@given(nearest_optimum_instances())
@settings(max_examples=200, deadline=None)
def test_the_nearest_optimum_matches_the_face_row_oracle(inst):
    _check_nearest_optimum(*inst)


def test_a_deleted_coordinate_can_set_tau():
    # x0 + x1 + x2 = 3 with cost x0: y = 0, so rc = (1, 0, 0) deletes x0,
    # and its anchor entry -4 puts tau at 4 though (0, 1, 2) is on the face.
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows([[1, 1, 1]], cols=3))
    x, tau = _check_nearest_optimum(W, vec([1, 1, 1]), vec([1, 0, 0]), vec([-4, 1, 2]))
    assert (x, tau) == (vec([0, 1, 2]), 4)


def test_a_degenerate_dual_keeps_its_zero_reduced_costs_off_the_basis():
    # x0 + x1 + x2 = 3 with cost (1, 1, 2): y = 1 and rc = (0, 0, 1), so one
    # of x0, x1 is basic and the other has reduced cost 0 off the basis;
    # the face is x0 + x1 = 3 with x2 = 0.
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows([[1, 1, 1]], cols=3))
    d, c = vec([1, 1, 1]), vec([1, 1, 2])
    res = solve(LPInstance.from_subspace(W, d, c))
    assert res.y == (1,) and len(res.basis) == 1 and res.basis[0] in (0, 1)
    x, tau = _check_nearest_optimum(W, d, c, vec([0, 5, 1]))
    assert (x, tau) == (vec([0, 3, 0]), 2)


def test_every_column_deleted():
    # W = R^3 and c > 0: rc = c deletes every column, so the face is {0}
    # and the LP keeps only tau, z and the floor row.
    W = Subspace.from_kernel_matrix(RatMatrix.zeros(0, 3))
    d = vec([2, -1, 3])
    x, tau = _check_nearest_optimum(W, d, vec([1, 2, 1]), d)
    assert (x, tau) == (vec([0, 0, 0]), 3)


def test_a_dual_with_a_negative_reduced_cost_is_an_internal_error(monkeypatch):
    # The face is cut only from a dual that has just been certified: a y
    # making a reduced cost negative stops before any column is deleted.
    calls = []

    def tampered(lp, tiebreak=None, start=None):
        calls.append(tiebreak)
        return solve(lp, tiebreak=tiebreak, start=start)._replace(y=(Fraction(1),))

    def no_nearest_point(*args):
        raise AssertionError("the nearest-point LP was built from an uncertified dual")

    monkeypatch.setattr(proximity, "solve", tampered)
    monkeypatch.setattr(proximity, "_nearest_point", no_nearest_point)
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows([[1, 1, 1]], cols=3))
    with pytest.raises(InternalError, match="certificate"):
        hoffman_opt_witness(W, vec([1, 1, 1]), vec([1, 0, 0]))
    assert calls == [None]


def _tampered_solve(**fields):
    """`solve` with the given fields of an optimal result replaced."""

    def tampered(lp, tiebreak=None, start=None):
        return solve(lp, tiebreak=tiebreak, start=start)._replace(**fields)

    return tampered


@pytest.mark.parametrize(
    "rows, d, c, fields",
    [
        # On x0 - x2 = 1, x1 + x2 = 0 the one point is (1, 0, 0), and the
        # zero cost has y = 0.  With y = (0, 1), rc = (0, -1, -1): rc x = 0
        # and c x = b y = 0, so only rc >= 0 refuses it.
        ([[1, 0, -1], [0, 1, 1]], [1, 0, 0], [0, 0, 0], {"y": vec([0, 1])}),
        # The optimum of cost (1, 0, 0) on x0 + x1 + x2 = 3 has y = 0.  With
        # y = -1, rc = (2, 1, 1) >= 0, but rc x = 3 != 0.
        ([[1, 1, 1]], [1, 1, 1], [1, 0, 0], {"y": vec([-1])}),
        # The cost (1, 1, 2) has y = 1 and rc = (0, 0, 1).  With x in the
        # region, c x = b y follows from rc x = 0, so the point is moved off
        # it: (0, 2, 0) has rc x = 0 but c x = 2 != b y = 3, and the
        # certificate refuses it before the region test is reached.
        ([[1, 1, 1]], [1, 1, 1], [1, 1, 2], {"x": vec([0, 2, 0])}),
    ],
)
def test_a_tampered_dual_certificate_is_an_internal_error(monkeypatch, rows, d, c, fields):
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows(rows, cols=3))
    lp = LPInstance.from_subspace(W, vec(d), vec(c))
    with pytest.raises(InternalError, match="certificate"):
        fraction_certified_optimum(lp, solve=_tampered_solve(**fields))
    monkeypatch.setattr(proximity, "solve", _tampered_solve(**fields))
    with pytest.raises(InternalError, match="certificate"):
        proximity._certified_optimum(lp)


@given(nearest_optimum_instances(), st.data())
@settings(max_examples=150, deadline=None)
def test_the_integer_certificate_decides_as_the_fraction_certificate(inst, data):
    # Each answer and each refusal of a dual or a point moved by a small
    # step is the Fraction certificate's, on integer and fractional costs.
    W, d, c, _ = inst
    scale = data.draw(st.sampled_from([1, Fraction(1, 2), Fraction(2, 3)]))
    lp = LPInstance.from_subspace(W, d, vec(scale * v for v in c))
    res = solve(lp)
    step = st.sampled_from([0, 0, Fraction(-1, 2), 1, -1])
    fields = {
        "x": vec(v + data.draw(step) for v in res.x),
        "y": vec(v + data.draw(step) for v in res.y),
    }
    tampered = _tampered_solve(**fields)
    with mock.patch.object(proximity, "solve", tampered):
        got = _outcome(proximity._certified_optimum, lp)
    assert got == _outcome(fraction_certified_optimum, lp, tampered)


def test_a_one_vertex_face_off_the_region_is_an_internal_error(monkeypatch):
    # The rows are x0 - x2 = 0, x1 + x2 = 1; the cost (1, 0, 0) has y = (1, 0)
    # and rc = (0, 0, 1), so it keeps the independent columns x0, x1.  A
    # witness point (0, 2, 0) passes that certificate (rc x = 0, c x = b y =
    # 0) but breaks A x = b, so the one-vertex answer refuses it.
    def tampered(lp, tiebreak=None, start=None):
        return solve(lp, tiebreak=tiebreak, start=start)._replace(x=vec([0, 2, 0]))

    monkeypatch.setattr(proximity, "solve", tampered)
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows([[1, 1, 0], [0, 1, 1]], cols=3))
    with pytest.raises(InternalError, match="not in its region"):
        hoffman_opt_witness(W, vec([2, -1, 2]), vec([1, 0, 0]))


def test_the_nearest_point_solve_starts_from_the_witness_vertex(monkeypatch):
    # The nearest-point LP starts from the vertex its witness solve returned,
    # so its simplex never prices an artificial column: it runs no phase 1.
    calls = []
    run = lpmod._Tableau.run

    def spy_run(tab, cols):
        calls[-1]["phase1"] |= max(cols, default=-1) >= tab.n
        return run(tab, cols)

    def spy_solve(lp, tiebreak=None, start=None):
        calls.append({"start": start, "phase1": False, "shape": lp.A.shape})
        return solve(lp, tiebreak=tiebreak, start=start)

    monkeypatch.setattr(lpmod._Tableau, "run", spy_run)
    monkeypatch.setattr(proximity, "solve", spy_solve)
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows([[1, 1, 0], [0, 1, 1]], cols=3))
    wit = hoffman_feasibility_witness(W, vec([2, -1, 2]))
    witness, nearest = calls
    assert witness == {"start": None, "phase1": True, "shape": (2, 3)}
    assert nearest["start"] is not None and not nearest["phase1"]
    assert (wit.point, wit.distance) == (vec([1, 0, 1]), 1)
    # On x0 + x1 = 1, x2 + x3 = 1 the cost (1, 0, 0, 0) deletes x0, and the
    # kept columns x1, x2, x3 are dependent: the optimal face is the edge
    # x0 = 0, x1 = 1, x2 + x3 = 1, so the nearest-point LP runs.  It has no
    # face row, only the 2 rows on the kept columns, 2 rows per kept column
    # and the floor row, over (x, r, s, w) on the 3 kept columns, tau and
    # z; its start holds z too.
    calls.clear()
    W2 = Subspace.from_kernel_matrix(RatMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]], cols=4))
    owit = hoffman_opt_witness(W2, vec([2, -1, 2, -1]), vec([1, 0, 0, 0]))
    witness, nearest = calls
    assert witness == {"start": None, "phase1": True, "shape": (2, 4)}
    assert nearest["shape"] == (2 + 2 * 3 + 1, 4 * 3 + 2) and not nearest["phase1"]
    assert len(nearest["start"]) == 4 * 3 + 2
    assert (owit.point, owit.distance) == (vec([0, 1, 1, 0]), 2)


class _Spy:
    """Records each `proximity.solve` call as (tiebreak is None, start) and
    whether `_nearest_point` ran; with `cold`, the solves without a
    tie-break run from phase 1 whatever start they are given."""

    def __init__(self, cold=False):
        self.calls, self.nearest_point, self.cold = [], False, cold

    def solve(self, lp, tiebreak=None, start=None):
        self.calls.append((tiebreak is None, start))
        if self.cold and tiebreak is None:
            start = None
        return solve(lp, tiebreak=tiebreak, start=start)

    def _nearest_point(self, *args):
        self.nearest_point = True
        return _nearest_point(*args)

    def __enter__(self):
        self.patch = mock.patch.multiple(
            proximity, solve=self.solve, _nearest_point=self._nearest_point
        )
        self.patch.start()
        return self

    def __exit__(self, *exc):
        self.patch.stop()


def test_each_early_answer_pins_its_solve_count():
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows([[1, 1, 0], [0, 1, 1]], cols=3))
    # A feasible anchor of cost 0: no solve at all.
    with _Spy() as spy:
        wit = hoffman_feasibility_witness(W, vec([1, 0, 1]))
    assert (spy.calls, spy.nearest_point) == ([], False)
    assert (wit.point, wit.distance) == (vec([1, 0, 1]), 0)
    # The cost (1, 0, 0) has rc = (0, 0, 1) on the rows x0 - x2 = 0,
    # x1 + x2 = 1, and keeps the independent columns x0, x1: the face is the
    # one vertex (0, 1, 0), answered by the witness solve alone.
    with _Spy() as spy:
        owit = hoffman_opt_witness(W, vec([2, -1, 2]), vec([1, 0, 0]))
    assert (spy.calls, spy.nearest_point) == ([(True, None)], False)
    assert (owit.point, owit.distance) == (vec([0, 1, 0]), 2)
    # The fixing sets: one c2 solve from the vertex x1, one per face check.
    inst = _fixing_instance()
    with _Spy() as spy:
        assert fixing_sets_bounds(*inst) == ((2,), (0,))
    assert [(plain, start is None) for plain, start in spy.calls] == [
        (True, False),
        (False, False),
        (False, False),
    ]
    assert spy.calls[0][1] == inst[5]
    # No fixing claim on a region with every bound finite: nothing to
    # verify, so no solve at all.
    A, b, u = RatMatrix.from_rows([[1, 1]], cols=2), vec([1]), vec([1, 1])
    c1, c2 = vec([0, 1]), vec([1, 0])
    res = solve(LPInstance.bounded(A, b, c1, u))
    with _Spy() as spy:
        assert fixing_sets_bounds(A, b, u, c1, c2, res.x, res.y) == ((), ())
    assert (spy.calls, spy.nearest_point) == ([], False)
    # The transfer bound on W = ker [1, 0] from x_tilde = (2, 0), s = 0, to
    # d = (5/2, 1): bound 1 and R = (0,).  The optimal face x0 = 5/2 is a
    # ray, so its kept columns are dependent, but the certified vertex
    # (5/2, 0) is within the bound: no nearest-point LP.
    W1 = Subspace.from_kernel_matrix(RatMatrix.from_rows([[1, 0]], cols=2))
    with _Spy() as spy:
        assert transfer_bound(W1, vec([2, 0]), vec([0, 0]), vec([Fraction(5, 2), 1])) == (1, (0,))
    assert (spy.calls, spy.nearest_point) == ([(True, None)], False)
    # A certified vertex beyond the transfer bound: the witness solve, then
    # the nearest-point LP started from that vertex.
    inst = W2, _, s2, d2 = _near_transfer()
    assert solve(LPInstance.from_subspace(W2, d2, s2)).x == vec([Fraction(5, 2), 0])
    with _Spy() as spy:
        assert transfer_bound(*inst) == (1, (1,))
    assert [(plain, start is None) for plain, start in spy.calls] == [(True, True), (False, False)]
    assert spy.nearest_point


def test_the_zero_cost_face_pins_its_solve_count():
    # W = ker [1, 1], x_tilde = (2, 0), s = (0, 1), d = (5/2, 0): bound 1
    # and R = (0,).  The zero-cost face x1 = 0 is the one point (5/2, 0),
    # 1/2 from x_tilde: no solve at all.
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows([[1, 1]], cols=2))
    with _Spy() as spy:
        assert transfer_bound(W, vec([2, 0]), vec([0, 1]), vec([Fraction(5, 2), 0])) == (1, (0,))
    assert (spy.calls, spy.nearest_point) == ([], False)
    # On x0 - x2 = 1/2, x1 + x2 = 2 the cost (1, 0, 1) has the empty
    # zero-cost face x0 = x2 = 0, so LP(W, d, s) is solved: its vertex
    # (1/2, 2, 0) is within the bound 4/3 of x_tilde = (0, 2, 0), and the
    # witness solve is the only one.
    W2 = Subspace.from_kernel_matrix(RatMatrix.from_rows([[1, 0, -1], [0, 1, 1]], cols=3))
    inst = W2, vec([0, 2, 0]), vec([1, 0, 1]), vec([Fraction(1, 2), 2, 0])
    with _Spy() as spy:
        assert transfer_bound(*inst) == (Fraction(4, 3), (1,))
    assert (spy.calls, spy.nearest_point) == ([(True, None)], False)


def test_a_zero_cost_face_point_off_the_region_is_an_internal_error(monkeypatch):
    # One more unit in the elimination's right-hand side moves the face
    # point (5/2, 0) to (3, 0), which the region test refuses.
    def tampered(rows, cols):
        T, D, pivots, sign = _gauss_jordan(rows, cols)
        return [[*T[0][:-1], T[0][-1] + 1], *T[1:]], D, pivots, sign

    monkeypatch.setattr(proximity, "_gauss_jordan", tampered)
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows([[1, 1]], cols=2))
    with pytest.raises(InternalError, match="not in its region"):
        transfer_bound(W, vec([2, 0]), vec([0, 1]), vec([Fraction(5, 2), 0]))


def _check_zero_cost_face(W, s, d):
    """`proximity._zero_cost_face` of LP(W, d, s) against the always-LP
    oracle, the certified simplex optimum: the face answers exactly when its
    columns are independent and the LP's optimum costs 0, and then with the
    oracle's optimum, in the region, 0 where s is not.  Returns the face's
    answer."""
    lp = LPInstance.from_subspace(W, d, s)
    face = proximity._zero_cost_face(W, d, s, lp)
    Z = [j for j, v in enumerate(s) if v == 0]
    try:
        x, _ = fraction_certified_optimum(lp)
    except InfeasibleSystem:
        x = None
    zero_cost = x is not None and vec_dot(s, x) == 0
    assert (face is not None) == (zero_cost and rank(lp.A.take_cols(Z)) == len(Z))
    if face is not None:
        point, K = face
        assert K == Z and point == x and lp.violation(point) is None
        assert all(v == 0 for v, sj in zip(point, s) if sj)
    return face


@pytest.mark.parametrize(
    "rows, s, d, face",
    [
        # one point: x1 = 0 leaves x0 = 5/2
        ([[1, 1]], [0, 1], [Fraction(5, 2), 0], (vec([Fraction(5, 2), 0]), [0])),
        # Z empty and d in W: the face is the origin
        ([[1, 1]], [1, 1], [1, -1], (vec([0, 0]), [])),
        # dependent: x0 + x1 = 3 with x2 = 0 is a segment
        ([[1, 1, 1]], [0, 0, 1], [1, 1, 1], None),
        # empty: x0 = x2 = 0 breaks x0 - x2 = 1/2
        ([[1, 0, -1], [0, 1, 1]], [1, 0, 1], [Fraction(1, 2), 2, 0], None),
        # empty: the one candidate (-1, 0) is negative
        ([[1, 1]], [0, 1], [-2, 1], None),
    ],
)
def test_each_kind_of_zero_cost_face(rows, s, d, face):
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows(rows, cols=len(s)))
    assert _check_zero_cost_face(W, vec(s), vec(d)) == face


def _near_transfer():
    """W = ker [1, 1], x_tilde = (0, 2), s = 0 and d = (1/2, 2): bound 1 and
    R = (1,).  The simplex's vertex (5/2, 0) is 5/2 from x_tilde, beyond the
    bound, and the nearest optimum (0, 5/2) is 1/2 from it."""
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows([[1, 1]], cols=2))
    return W, vec([0, 2]), vec([0, 0]), vec([Fraction(1, 2), 2])


def test_an_optimum_zero_on_the_transfer_set_is_an_internal_error(monkeypatch):
    # An optimum within the bound is positive on R.  With the distance test
    # broken, the vertex (5/2, 0), 0 on R = (1,), is taken as that optimum
    # and the complementary-slackness check refuses it.
    monkeypatch.setattr(proximity, "_sup_dist", lambda x, anchor: Fraction(0))
    with pytest.raises(InternalError, match="not positive on R"):
        transfer_bound(*_near_transfer())


def test_an_unbounded_second_cost_reports_the_ray_of_a_cold_solve():
    # From the vertex x1 = 0 the c2 simplex leaves along (1, 0, 1), from
    # phase 1 along (0, 1, 0): the fixing sets report the ray phase 1 reaches.
    A = RatMatrix.from_rows([[1, 0, -1]], cols=3)
    b, u, zero, c2 = vec([0]), [None] * 3, vec([0, 0, 0]), vec([-1, -1, -1])
    lp2 = LPInstance.bounded(A, b, c2, u)
    assert solve(lp2, start=zero).certificate == vec([1, 0, 1])
    with pytest.raises(UnboundedDirection) as exc:
        fixing_sets_bounds(A, b, u, zero, c2, zero, vec([0]))
    assert exc.value.ray == solve(lp2).certificate == vec([0, 1, 0])


def test_a_zero_cost_anchor_is_not_taken_as_optimal_under_a_negative_cost():
    # (0, 0, 1) is in the region and costs 0, but c has a negative entry
    # and (0, 1, 0) costs -1: the LP answers, not the anchor.
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows([[1, 1, 1]], cols=3))
    anchor = vec([0, 0, 1])
    with _Spy() as spy:
        x, tau = proximity._nearest_optimum(W, anchor, vec([1, -1, 0]), anchor)
    assert (x, tau) == (vec([0, 1, 0]), 1)
    assert spy.calls == [(True, None)]


@st.composite
def feasible_anchor_instances(draw):
    """(W, d, c, anchor): the anchor is a point of W + d, >= 0, and c >= 0
    vanishes on its support, so it costs 0."""
    n = draw(st.integers(1, 5))
    entries = st.sampled_from([-1, 0, 1])
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=min(3, n)))
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows(rows, cols=n))
    anchor = vec(draw(st.lists(st.sampled_from([0, 0, Fraction(1, 2), 1, 2]), min_size=n, max_size=n)))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=W.span_rep.rows, max_size=W.span_rep.rows))
    d = vec(a + w for a, w in zip(anchor, W.span_rep.vecmat(vec(coeffs))))
    c = vec(0 if a else draw(st.integers(0, 2)) for a in anchor)
    return W, d, c, anchor


@given(feasible_anchor_instances())
@settings(max_examples=150, deadline=None)
def test_a_feasible_zero_cost_anchor_is_its_own_nearest_optimum(inst):
    W, d, c, anchor = inst
    with _Spy() as spy:
        assert proximity._nearest_optimum(W, d, c, anchor) == (anchor, 0)
    assert (spy.calls, spy.nearest_point) == ([], False)
    lp = LPInstance.from_subspace(W, d, c)
    res = solve(lp)
    assert _nearest_point(lp.A.data, lp.b, anchor, res.x, range(lp.n)) == (anchor, 0)


@given(nearest_optimum_instances())
@settings(max_examples=200, deadline=None)
def test_independent_kept_columns_are_the_one_point_of_the_face(inst):
    W, d, c, anchor = inst
    with _Spy() as spy:
        x, tau = proximity._nearest_optimum(W, d, c, anchor)
    # only the instances answered by the witness solve alone
    assume(spy.calls == [(True, None)] and not spy.nearest_point)
    lp = LPInstance.from_subspace(W, d, c)
    res = solve(lp)
    rc = vec_sub(c, lp.A.vecmat(res.y))
    keep = [j for j, v in enumerate(rc) if v == 0]
    assert _nearest_point(lp.A.data, lp.b, anchor, res.x, keep) == (x, tau)
    ox, otau, _ = two_stage_nearest_point([*lp.A.data, c], [*lp.b, res.objective], anchor)
    assert (ox, otau) == (x, tau)


def _outcome(f, *args):
    """What `f` returns, or the class, message and fields (a ray, a finding's
    detail) of the package error it raises."""
    try:
        return f(*args)
    except CircuitKitError as exc:
        return type(exc), str(exc), vars(exc)


def _fixing_outcome(spy, *args):
    """`_outcome` of `fixing_sets_bounds` under `spy`."""
    with spy:
        return _outcome(fixing_sets_bounds, *args)


@given(bounded_lp_instances(), st.data())
@settings(max_examples=150, deadline=None)
def test_the_fixing_sets_from_x1_match_a_cold_c2_solve(inst, data):
    A, b, c1, u = inst
    c2 = vec(v + data.draw(st.integers(-1, 1)) for v in c1)
    res = solve(LPInstance.bounded(A, b, c1, u))
    warm, cold = _Spy(), _Spy(cold=True)
    got = _fixing_outcome(warm, A, b, u, c1, c2, res.x, res.y)
    assert got == _fixing_outcome(cold, A, b, u, c1, c2, res.x, res.y)
    if got == ((), ()) and None not in u:
        # no claim on a polytope: nothing is solved
        assert warm.calls == []
    else:
        # the simplex's x1 is a vertex, so the c2 solve starts there
        assert warm.calls[0] == (True, res.x)


@given(bounded_lp_instances(), st.data())
@settings(max_examples=150, deadline=None)
def test_a_non_vertex_x1_runs_the_c2_solve_from_phase_1(inst, data):
    A, b, c1, u = inst
    c2 = vec(v + data.draw(st.integers(-1, 1)) for v in c1)
    lp = LPInstance.bounded(A, b, c1, u)
    opt = solve(lp)
    ends = None
    for i in range(lp.n):
        e = [0] * lp.n
        e[i] = 1
        lo = solve(lp, tiebreak=vec(e), start=opt.x)
        e[i] = -1
        hi = solve(lp, tiebreak=vec(e), start=opt.x)  # unbounded on an uncapped face
        if hi.status == OPTIMAL and lo.x != hi.x:
            ends = lo.x, hi.x
            break
    assume(ends is not None)
    # the midpoint of two optimal points is optimal, and not a vertex
    mid = vec((p + q) / 2 for p, q in zip(*ends))
    spy = _Spy()
    got = _fixing_outcome(spy, A, b, u, c1, c2, mid, opt.y)
    if got == ((), ()) and None not in u:
        # no claim on a polytope: nothing is solved
        assert spy.calls == []
    else:
        assert spy.calls[0] == (True, None)
    assert got == _fixing_outcome(_Spy(), A, b, u, c1, c2, opt.x, opt.y)


@given(bounded_lp_instances(), st.data())
@settings(max_examples=200, deadline=None)
def test_the_fixing_sets_match_the_always_solve_oracle(inst, data):
    # Every answer, the ones given with no solve included, and every error
    # is the oracle's, which solves c2 and each face whatever is claimed.
    A, b, c1, u = inst
    # c2 = c1 often, so that t = 0 and every nonzero reduced cost is a claim
    c2 = vec(v + data.draw(st.sampled_from([-1, 0, 0, 0, 1])) for v in c1)
    res = solve(LPInstance.bounded(A, b, c1, u))
    x1, y1 = list(res.x), list(res.y)
    fault = data.draw(st.sampled_from(["none", "none", "x1", "y1", "c2"]))
    if fault == "x1":
        x1[data.draw(st.integers(0, len(x1) - 1))] += data.draw(st.sampled_from([-1, 1]))
    elif fault == "y1" and y1:
        y1[data.draw(st.integers(0, len(y1) - 1))] += data.draw(st.sampled_from([-1, 1]))
    elif fault == "c2":
        c2 = c2[:-1]
    args = A, b, u, c1, c2, vec(x1), vec(y1)
    assert _outcome(fixing_sets_bounds, *args) == _outcome(always_solve_fixing_sets, *args)


@st.composite
def transfer_instances(draw):
    """(W, x_tilde, s, d): an optimal pair (x_tilde, s), from a solve of
    LP(W, d0, c) or with s = 0 and any x_tilde >= 0, carried to a shift d
    near x_tilde; now and then a pair that is not optimal.  The zero cost
    makes the whole region optimal, so the vertex is often far from
    x_tilde."""
    n = draw(st.integers(1, 5))
    entries = st.sampled_from([-1, 0, 1, 1])
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=min(3, n)))
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows(rows, cols=n))
    if draw(st.booleans()):
        xt = vec(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        s = vec([0] * n)
    else:
        d0 = vec(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        c = vec(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        lp = LPInstance.from_subspace(W, d0, c)
        res = solve(lp)
        xt, s = res.x, vec_sub(c, lp.A.vecmat(res.y))
    if draw(st.integers(0, 9)) == 0:
        s = vec(v + 1 for v in s)  # positive where x_tilde is, unless x_tilde = 0
    shift = [0] * n
    for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
        shift[i] = draw(st.sampled_from([-1, Fraction(1, 2), 1, 2]))
    return W, xt, s, vec_add(xt, vec(shift))


@given(transfer_instances())
@settings(max_examples=200, deadline=None)
def test_the_transfer_bound_matches_the_always_solve_oracle(inst):
    # Every answer, the ones from an optimum already held included, and
    # every error is the oracle's, which solves the nearest optimum and the
    # dual face of each i in R whatever is known.
    assert _outcome(transfer_bound, *inst) == _outcome(always_solve_transfer_bound, *inst)


@given(transfer_instances())
@settings(max_examples=200, deadline=None)
def test_the_zero_cost_face_matches_the_always_lp_oracle(inst):
    W, _, s, d = inst
    _check_zero_cost_face(W, s, d)
