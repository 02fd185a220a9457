import math
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitkit.errors import DimensionMismatch, InfeasibleSystem, InternalError, UnboundedRegion
from circuitkit.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LPInstance,
    _edge_graph,
    _region_is_unbounded,
    _std_system,
    _std_vertices,
    _Tableau,
    edge_graph,
    edge_graph_diameter,
    fractionality,
    solve,
    vertices,
)
from circuitkit.ratmat import RatMatrix, vec, vec_dot
from circuitkit.subspace import Subspace
from util import (
    _FractionTableau,
    box_region_is_unbounded,
    fraction_standardized,
    fraction_violation,
    oracle_solve,
    per_entry_tableau,
    random_int_matrix,
    three_op_duals,
)


def simplex3():
    return LPInstance.standard(
        RatMatrix.from_rows([[1, 1, 1]], cols=3), [1], [0, 0, 0]
    )


def test_solve_optimal_and_duals():
    lp = LPInstance.standard(
        RatMatrix.from_rows([[1, 1, 1]], cols=3), [1], [3, 1, 2]
    )
    res = solve(lp)
    assert res.status == OPTIMAL
    assert res.objective == 1
    assert res.x == (0, 1, 0)
    # strong duality for standard form
    assert sum(yi * bi for yi, bi in zip(res.y, lp.b)) == res.objective
    # dual feasibility: c - y^T A >= 0
    for j in range(3):
        reduced = lp.c[j] - sum(res.y[i] * lp.A.entry(i, j) for i in range(1))
        assert reduced >= 0


def test_solve_infeasible_farkas():
    lp = LPInstance.standard(RatMatrix.from_rows([[1, 1]], cols=2), [-1], [0, 0])
    res = solve(lp)
    assert res.status == INFEASIBLE
    y = res.certificate
    yA = [sum(y[i] * lp.A.entry(i, j) for i in range(1)) for j in range(2)]
    yb = sum(yi * bi for yi, bi in zip(y, lp.b))
    assert all(v <= 0 for v in yA) and yb > 0


def test_solve_unbounded_ray():
    lp = LPInstance.standard(RatMatrix.from_rows([[1, -1]], cols=2), [0], [-1, 0])
    res = solve(lp)
    assert res.status == UNBOUNDED
    ray = res.certificate
    assert lp.A.matvec(ray) == (0,)
    assert all(v >= 0 for v in ray)
    assert sum(ci * ri for ci, ri in zip(lp.c, ray)) < 0


def test_a_float_upper_bound_is_a_type_error():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10: a float
    # bound is refused like a float in b or c.
    A = RatMatrix.from_rows([[1, 1]], cols=2)
    with pytest.raises(TypeError):
        LPInstance.bounded(A, [1], [0, 1], [0.1, None])
    with pytest.raises(TypeError):
        LPInstance.bounded(A, [1.0], [0, 1], [1, None])
    assert LPInstance.bounded(A, [1], [0, 1], ["1/10", None]).u == (Fraction(1, 10), None)


def test_bounded_form_hits_caps():
    lp = LPInstance.bounded(
        RatMatrix.from_rows([[1, 1]], cols=2), [4], [-2, -1], [3, 3]
    )
    res = solve(lp)
    assert res.status == OPTIMAL
    assert res.x == (3, 1)
    assert res.objective == -7


def test_vertices_simplex():
    vs = vertices(simplex3())
    pts = [v for v, _ in vs]
    assert pts == [
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    ]
    for v, basis in vs:
        assert len(basis) == 1
        assert v[basis[0]] == 1


def test_vertices_are_basic():
    rng = random.Random(9)
    for _ in range(8):
        A = random_int_matrix(rng, 2, 4, lo=0, hi=3)
        b = A.matvec(vec([rng.randint(0, 2) for _ in range(4)]))
        lp = LPInstance.standard(A, b, [1, 1, 1, 1])
        for v, basis in vertices(lp):
            assert A.matvec(v) == tuple(b)
            assert all(x >= 0 for x in v)
            # nonzero coordinates sit inside the basis
            assert set(i for i, x in enumerate(v) if x != 0) <= set(basis)


def test_cube_diameter():
    A = RatMatrix.zeros(1, 3)
    lp = LPInstance.bounded(A, [0], [0, 0, 0], [1, 1, 1])
    vs = vertices(lp)
    assert len(vs) == 8
    assert edge_graph_diameter(lp) == 3


def test_edge_graph_simplex():
    verts, adj = edge_graph(simplex3())
    assert len(verts) == 3
    assert all(len(adj[i]) == 2 for i in adj)


def test_diameter_unbounded_region():
    lp = LPInstance.standard(RatMatrix.from_rows([[1, -1]], cols=2), [0], [0, 0])
    with pytest.raises(UnboundedRegion):
        edge_graph_diameter(lp)


def test_fractionality():
    # vertex (1/2, 1/2): x1 + x2 = 1, x1 - x2 = 0
    A = RatMatrix.from_rows([[1, 1], [1, -1]], cols=2)
    lp = LPInstance.standard(A, [1, 0], [0, 0])
    assert fractionality(lp) == 2
    with pytest.raises(InfeasibleSystem):
        fractionality(
            LPInstance.standard(RatMatrix.from_rows([[1, 1]], cols=2), [-1], [0, 0])
        )


def test_fractionality_divides_kappa_dot(A_app):
    # every vertex denominator of {x in ker+d, x >= 0} divides kappa_dot
    rng = random.Random(12)
    W = Subspace.from_kernel_matrix(A_app)
    for _ in range(6):
        d = vec([rng.randint(-4, 4) for _ in range(4)])
        lp = LPInstance.from_subspace(W, d, [0, 0, 0, 0])
        try:
            k = fractionality(lp)
        except InfeasibleSystem:
            continue
        assert 5850 % k == 0


def test_solve_agrees_with_vertex_scan():
    rng = random.Random(77)
    for _ in range(10):
        A = random_int_matrix(rng, 2, 4, lo=0, hi=3)
        b = A.matvec(vec([rng.randint(0, 2) for _ in range(4)]))
        c = [rng.randint(-3, 3) for _ in range(4)]
        lp = LPInstance.standard(A, b, c)
        res = solve(lp)
        vs = vertices(lp)
        if res.status != OPTIMAL:
            continue
        best = min(sum(ci * xi for ci, xi in zip(c, v)) for v, _ in vs)
        assert res.objective <= best
        # an optimal vertex exists when the optimum is attained at a vertex
        if res.objective == best:
            assert any(
                sum(ci * xi for ci, xi in zip(c, v)) == res.objective for v, _ in vs
            )


small_fracs = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 5]))


@st.composite
def lp_instances(draw, max_n=6):
    """Standard or bounded LPs with fractional data, any sign of b, and
    scaled copies of earlier rows (consistent or not) so that phase 1 ends
    with redundant rows to drop; at most `max_n` columns."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, max_n))
    row = st.lists(small_fracs, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    b = draw(st.lists(small_fracs, min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(rows) - 1))
        f = draw(small_fracs.filter(bool))
        rows.append([f * x for x in rows[k]])
        b.append(f * b[k] + draw(st.sampled_from([0, 0, 0, 1])))
    c = draw(row)
    A = RatMatrix.from_rows(rows, cols=n)
    if draw(st.booleans()):
        u = draw(st.lists(st.none() | small_fracs.map(abs), min_size=n, max_size=n))
        return LPInstance.bounded(A, b, c, u)
    return LPInstance.standard(A, b, c)


@st.composite
def nearest_point_instances(draw, max_k=3):
    """Sparse LPs shaped like the nearest-point LP of `proximity` over
    (x, r, s, w, tau): a few rows on x, then per coordinate i a deviation row
    x_i - r_i + s_i = anchor_i and a cap row r_i + s_i + w_i - tau = 0.
    Mostly zeros, fractional anchors and, half the time, some capped
    columns, so that tableau rows keep different denominators.  At most
    `max_k` coordinates, so at most 4 * max_k + 1 columns."""
    k = draw(st.integers(1, max_k))
    width = 4 * k + 1
    rows, b = [], []
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, -3]), min_size=k, max_size=k))
        rows.append(coeffs + [0] * (width - k))
        b.append(draw(small_fracs))
    anchor = draw(st.lists(small_fracs, min_size=k, max_size=k))
    for i in range(k):
        dev, cap = [0] * width, [0] * width
        dev[i], dev[k + i], dev[2 * k + i] = 1, -1, 1
        cap[k + i] = cap[2 * k + i] = cap[3 * k + i] = 1
        cap[4 * k] = -1
        rows += [dev, cap]
        b += [anchor[i], 0]
    tau_cost = [0] * (4 * k) + [1]
    sparse_costs = st.sampled_from([0, 0, 0, 1, -1, Fraction(1, 2)])
    c = draw(st.just(tau_cost) | st.lists(sparse_costs, min_size=width, max_size=width))
    A = RatMatrix.from_rows(rows, cols=width)
    if draw(st.booleans()):
        cap = st.none() | st.none() | small_fracs.map(abs)
        u = draw(st.lists(cap, min_size=width, max_size=width))
        return LPInstance.bounded(A, b, c, u)
    return LPInstance.standard(A, b, c)


@given(lp_instances() | nearest_point_instances())
@settings(max_examples=300, deadline=None)
def test_integer_tableau_matches_fraction_simplex(lp):
    assert solve(lp) == oracle_solve(lp)


@st.composite
def tiebreak_instances(draw, lps):
    """An LP drawn from `lps` and a tie-break cost.  Half the time the LP
    is made feasible (b = A x0 with x0 within the bounds) with a sparse 0/1
    cost, so that its optimal face is more than a vertex."""
    lp = draw(lps)
    n = lp.n
    if draw(st.booleans()):
        x0 = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        if lp.u is not None:
            x0 = [v if u is None else min(v, u) for v, u in zip(x0, lp.u)]
        c = draw(st.lists(st.sampled_from([0, 0, 1]), min_size=n, max_size=n))
        lp = LPInstance(lp.A, lp.A.matvec(vec(x0)), vec(c), lp.u)
    return lp, vec(draw(st.lists(small_fracs, min_size=n, max_size=n)))


@given(tiebreak_instances(lp_instances()) | tiebreak_instances(nearest_point_instances()))
@settings(max_examples=300, deadline=None)
def test_tiebreak_matches_the_fraction_simplex_on_the_face_lp(inst):
    lp, c2 = inst
    plain = solve(lp)
    res = solve(lp, tiebreak=c2)
    assert res == oracle_solve(lp, tiebreak=c2)
    if plain.status != OPTIMAL:
        assert res == plain
        return
    face_A = RatMatrix.from_rows([*lp.A.data, lp.c], cols=lp.n)
    face_b = lp.b + (plain.objective,)
    if lp.u is None:
        face = LPInstance.standard(face_A, face_b, c2)
    else:
        face = LPInstance.bounded(face_A, face_b, c2, lp.u)
    ref = oracle_solve(face)
    assert res.status == ref.status
    if res.status == OPTIMAL:
        # x is on the optimal face and minimizes c2 there; the objective and
        # the duals are the first objective's
        assert face_A.matvec(res.x) == vec(face_b)
        assert all(v >= 0 for v in res.x)
        assert lp.u is None or all(u is None or v <= u for v, u in zip(res.x, lp.u))
        assert vec_dot(c2, res.x) == ref.objective
        assert (res.objective, res.y, res.dual_upper) == (
            plain.objective, plain.y, plain.dual_upper
        )
    else:
        ray = res.certificate
        assert all(v >= 0 for v in ray)
        assert face_A.matvec(ray) == vec([0] * face_A.rows)
        assert vec_dot(c2, ray) < 0


@pytest.mark.parametrize(
    "rows, b, c, status",
    [
        # phase 1 ends with a redundant row that is dropped
        ([[1, 2, 0], [2, 4, 0], [0, 1, 1]], [2, 4, 1], [1, -1, 3], OPTIMAL),
        # drive-out pivots on a negative entry
        ([[1, 2, 2], [-1, -2, 0]], [1, 0], [1, 1, 1], OPTIMAL),
        # fractional rows with negative right-hand sides
        ([["1/2", "-1/3", 1], ["2/5", 1, "-3/4"]], ["-1/2", "7/3"], [1, "1/2", -1], OPTIMAL),
        # inconsistent copy of a row: Farkas certificate
        ([[1, 1, 0], [2, 2, 0]], [1, 3], [0, 0, 0], INFEASIBLE),
        ([[1, -1, 0], [0, 1, -1]], [0, 0], [0, 0, -1], UNBOUNDED),
    ],
)
def test_integer_tableau_matches_fraction_simplex_by_status(rows, b, c, status):
    lp = LPInstance.standard(RatMatrix.from_rows(rows, cols=len(c)), b, c)
    res = solve(lp)
    assert res.status == status
    assert res == oracle_solve(lp)


@st.composite
def zero_row_instances(draw):
    """An LP with no equality rows, optionally with upper bounds (which
    standardize to rows), and an optional tie-break cost."""
    n = draw(st.integers(0, 5))
    fracs = st.lists(small_fracs, min_size=n, max_size=n)
    c = draw(fracs)
    if draw(st.booleans()):
        c = [v if draw(st.booleans()) else Fraction(0) for v in c]
    A = RatMatrix.zeros(0, n)
    if draw(st.booleans()):
        u = draw(st.lists(st.none() | small_fracs.map(abs), min_size=n, max_size=n))
        lp = LPInstance.bounded(A, [], c, u)
    else:
        lp = LPInstance.standard(A, [], c)
    return lp, draw(st.none() | fracs)


@given(zero_row_instances())
@settings(max_examples=300, deadline=None)
def test_zero_row_lps_match_the_fraction_simplex(inst):
    lp, c2 = inst
    res = solve(lp, tiebreak=c2)
    assert repr(res) == repr(oracle_solve(lp, tiebreak=c2))


@st.composite
def cone_instances(draw):
    """Small integer systems A x = 0, some columns capped, so that many
    regions are unbounded and many recession cones miss some coordinates."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) for _ in range(m)]
    u = draw(st.lists(st.none() | st.integers(0, 2), min_size=n, max_size=n))
    return LPInstance.bounded(RatMatrix.from_rows(rows, cols=n), [0] * m, [0] * n, u)


@given(cone_instances() | lp_instances())
@settings(max_examples=300, deadline=None)
def test_recession_cone_lp_matches_the_box_lp(lp):
    assert _region_is_unbounded(_std_system(lp)[0]) == box_region_is_unbounded(lp)


def _scan(f, *args):
    """f(*args), or InfeasibleSystem when it raises that."""
    try:
        return f(*args)
    except InfeasibleSystem:
        return InfeasibleSystem


@given(tiebreak_instances(lp_instances(max_n=4)))
@settings(max_examples=200, deadline=None)
def test_the_vertex_scans_read_the_tableau_as_the_fraction_standardization(inst):
    # The tableau's rows are the standardized rows, each scaled by a positive
    # integer and sign-flipped, which moves no vertex, no basis and no rank.
    # Half the draws are made feasible, so many have vertices to compare.
    lp, _ = inst
    rows, b, c, n, _ = fraction_standardized(lp)
    A, b = RatMatrix.from_rows(rows, cols=len(c)), vec(b)
    A_std, b_std, _ = _std_system(lp)
    want = _std_vertices(A, b)
    assert _std_vertices(A_std, b_std) == want
    dens = [x.denominator for v in want for x in v[:n]]
    assert _scan(fractionality, lp) == (math.lcm(*dens) if want else InfeasibleSystem)
    assert _scan(edge_graph, lp) == _scan(_edge_graph, A, b, n)
    assert _region_is_unbounded(A_std) == box_region_is_unbounded(lp)


def test_inexact_bareiss_step_is_an_internal_error():
    tab = _Tableau(LPInstance.standard(RatMatrix.from_rows([[2, 1], [1, 3]]), [1, 1], [0, 0]))
    tab.pivot(0, 0)
    tab.T[1][1] += 1  # no longer an integer minor, so the next step cannot divide
    with pytest.raises(InternalError):
        tab.pivot(1, 1)
    # Rows over different denominators: row 1 is over D = 15 and the pivot
    # row 0 over 3, so row 1's step divides by 3, which a raised entry breaks.
    rows = [[3, 1, 0], [1, 2, 1], [0, 2, 5]]
    tab = _Tableau(LPInstance.standard(RatMatrix.from_rows(rows), [1] * 3, [0] * 3))
    tab.pivot(0, 0)
    tab.pivot(2, 2)
    assert (tab.D, tab.den) == (15, [3, 15, 5])
    tab.T[1][0] += 1
    with pytest.raises(InternalError):
        tab.pivot(0, 1)


def test_a_stage_past_its_pivot_bound_is_an_internal_error(monkeypatch):
    # Bland's rule visits a basis at most once in a stage, so `run` allows
    # C(width, m) iterations: one more than the pivots of a stage that
    # visits every basis.  With the bound lowered to the pivots this
    # phase 1 takes, the iteration that would see its optimum is missing.
    lp = LPInstance.standard(RatMatrix.from_rows([[1, 1, 0], [0, 1, 1]]), [1, 1], [1, 2, 3])

    def phase_one(bound):
        monkeypatch.setattr(math, "comb", lambda width, m: bound)
        tab = _Tableau(lp)
        tab.set_costs([0] * tab.n + [Fraction(1, s) for s in tab.scale])
        return tab.run(range(tab.width)), tab.pivots

    (status, _), pivots = phase_one(math.comb(5, 2))  # the stated bound
    assert status == OPTIMAL and pivots > 0
    assert phase_one(pivots + 1)[0] == (OPTIMAL, None)
    with pytest.raises(InternalError):
        phase_one(pivots)


@given(lp_instances(), st.data())
@settings(max_examples=300, deadline=None)
def test_the_integer_region_test_matches_the_fraction_oracle(lp, data):
    n = lp.n
    x = vec(data.draw(st.lists(small_fracs.map(abs), min_size=n, max_size=n)))
    j = data.draw(st.integers(0, n - 1))
    # x, then x off by one unit in coordinate j either way
    points = [x, *(tuple(v + step * (i == j) for i, v in enumerate(x)) for step in (-1, 1))]
    regions = [lp, LPInstance(lp.A, lp.A.matvec(x), lp.c, lp.u)]  # the second holds A x = b
    if lp.u is not None and lp.u[j] is not None:
        over = tuple(lp.u[j] + 1 if i == j else v for i, v in enumerate(x))
        points.append(over)
        regions.append(LPInstance(lp.A, lp.A.matvec(over), lp.c, lp.u))
        assert regions[-1].violation(over) == "upper"
    for region in regions:
        for p in points:
            assert region.violation(p) == fraction_violation(region, p)
        with pytest.raises(DimensionMismatch):
            region.violation(x + (Fraction(0),))


sparse_ints = st.sampled_from([0, 0, 0, 1, -1, 2, -3])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_a_pivot_rewrites_only_the_rows_nonzero_in_its_column(data):
    # Integer rows need no scaling, so after any sequence of pivots the
    # tableau reads, row by row over its own denominator, exactly the
    # entries of the Fraction tableau; a row that is 0 in the pivot column
    # is the same list over the same denominator, whatever the pivot.
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 5))
    ints = st.lists(sparse_ints, min_size=n, max_size=n)
    rows = [[Fraction(v) for v in data.draw(ints)] for _ in range(m)]
    b = [Fraction(v) for v in data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))]
    costs = [Fraction(v) for v in data.draw(st.lists(sparse_ints, min_size=n + m, max_size=n + m))]
    tab = _Tableau(LPInstance.standard(RatMatrix.from_rows(rows, cols=n), b, [0] * n))
    ref = _FractionTableau(rows, b)
    tab.set_costs(costs)
    for _ in range(data.draw(st.integers(1, 6))):
        choices = [(r, j) for r in range(m) for j in range(n + m) if tab.T[r][j]]
        if not choices:
            break
        r, j = data.draw(st.sampled_from(choices))
        before = list(zip(tab.T, tab.den))
        reduced, red_den = tab.reduced, tab.red_den
        tab.pivot(r, j)
        ref.pivot(r, j)
        for i, (row, den) in enumerate(before):
            if i != r and row[j] == 0:
                assert tab.T[i] is row and tab.den[i] == den
        if reduced[j] == 0:
            assert tab.reduced is reduced and tab.red_den == red_den
        assert all(den > 0 for den in tab.den)
        for row, den, want in zip(tab.T, tab.den, ref.T):
            assert [Fraction(a, den) for a in row] == want
        got = [Fraction(a, tab.red_den) for a in tab.reduced]
        assert got == ref.reduced_costs(costs) + [-ref.objective(costs)]


@given(lp_instances() | nearest_point_instances())
@settings(max_examples=300, deadline=None)
def test_the_tableau_starts_as_the_per_entry_construction(lp):
    # zeros, negative right-hand sides and mixed denominators, as drawn
    rows, b, _, _, _ = fraction_standardized(lp)
    tab = _Tableau(lp)
    assert (tab.T, tab.den, tab.scale, tab.flip) == per_entry_tableau(rows, b)
    assert all(type(a) is int for row in tab.T for a in row)


def _duals_where_read(lp):
    """(where, duals, three-operation duals) at each point `_solve_standard`
    reads duals: the end of an infeasible phase 1 ("certificate"), else a
    phase-2 optimum ("optimum"), if there is one."""
    c = fraction_standardized(lp)[2]
    tab = _Tableau(lp)
    tab.set_costs([Fraction(0)] * tab.n + [Fraction(1, s) for s in tab.scale])
    assert tab.run(range(tab.width))[0] == OPTIMAL
    if tab.objective() > 0:
        return [("certificate", tab.duals(), three_op_duals(tab))]
    tab.reduced = None
    tab.drive_out_artificials(range(tab.n))
    tab.set_costs(list(c) + [Fraction(0)] * tab.m)
    if tab.run(range(tab.n))[0] != OPTIMAL:
        return []
    return [("optimum", tab.duals(), three_op_duals(tab))]


@pytest.mark.parametrize(
    "rows, b, c, where",
    [
        # an inconsistent copy of a row: the duals are a Farkas certificate
        ([[1, 1, 0], [2, 2, 0]], [1, 3], [0, 0, 0], "certificate"),
        ([["1/2", "-1/3", 1], ["2/5", 1, "-3/4"]], ["-1/2", "7/3"], [1, "1/2", -1], "optimum"),
    ],
)
def test_duals_match_the_three_operation_formula(rows, b, c, where):
    lp = LPInstance.standard(RatMatrix.from_rows(rows, cols=len(c)), b, c)
    [(got_where, y, want)] = _duals_where_read(lp)
    assert (got_where, y) == (where, want)


@given(lp_instances() | nearest_point_instances())
@settings(max_examples=200, deadline=None)
def test_duals_match_the_three_operation_formula_on_random_lps(lp):
    for _, y, want in _duals_where_read(lp):
        assert y == want


def _check_dual_certificate(lp, res):
    """y (and t = dual_upper) is dual feasible for `lp` and complementary to
    res.x: c - A^T y + t >= 0, zero where x > 0, and t = 0 where x < u."""
    red = [ci - yi for ci, yi in zip(lp.c, lp.A.vecmat(res.y))]
    t = res.dual_upper or (Fraction(0),) * lp.n
    for j in range(lp.n):
        assert t[j] >= 0 and red[j] + t[j] >= 0
        if res.x[j] > 0:
            assert red[j] + t[j] == 0
        if t[j] > 0:
            assert res.x[j] == lp.u[j]


def _unique_optimum(lp, res, c2):
    """True when res.x is the only point of the region attaining both its
    objective and its tie-break value: the region is bounded and exactly
    one vertex attains them."""
    if _region_is_unbounded(_std_system(lp)[0]):
        return False
    key = (res.objective, vec_dot(c2, res.x))
    return sum((vec_dot(lp.c, v), vec_dot(c2, v)) == key for v, _ in vertices(lp)) == 1


@given(
    # two coordinates at most: the uniqueness check enumerates every basis
    tiebreak_instances(lp_instances()) | tiebreak_instances(nearest_point_instances(max_k=2)),
    st.lists(st.integers(0, 3), min_size=9, max_size=9),
)
@settings(max_examples=300, deadline=None)
def test_a_solve_from_a_vertex_matches_the_cold_solve(inst, c0):
    # The start is the optimum of another cost c0 >= 0 (never unbounded); the
    # cold solve is the oracle for status, objective and tie-break value, and
    # the Fraction simplex from the same start for the whole result.
    lp, c2 = inst
    seed = solve(LPInstance(lp.A, lp.b, vec(c0[: lp.n]), lp.u))
    if seed.status != OPTIMAL:
        return
    cold = solve(lp, tiebreak=c2)
    warm = solve(lp, tiebreak=c2, start=seed.x)
    assert warm == oracle_solve(lp, tiebreak=c2, start=seed.x)
    assert warm.status == cold.status
    if warm.status == UNBOUNDED:
        ray = warm.certificate
        assert all(v >= 0 for v in ray) and lp.A.matvec(ray) == vec([0] * lp.A.rows)
        assert lp.u is None or all(u is None or v == 0 for v, u in zip(ray, lp.u))
        assert vec_dot(lp.c, ray) < 0 or (vec_dot(lp.c, ray) == 0 and vec_dot(c2, ray) < 0)
        return
    assert lp.A.matvec(warm.x) == lp.b and all(v >= 0 for v in warm.x)
    assert lp.u is None or all(u is None or v <= u for v, u in zip(warm.x, lp.u))
    assert warm.objective == cold.objective == vec_dot(lp.c, warm.x)
    assert vec_dot(c2, warm.x) == vec_dot(c2, cold.x)
    _check_dual_certificate(lp, warm)
    if _unique_optimum(lp, cold, c2):
        assert warm.x == cold.x


@pytest.mark.parametrize(
    "u, start, why",
    [
        (None, [1, 1, 0], "not a vertex"),  # two columns of a one-row system
        (None, [1, 0, 0], "not feasible"),  # A x = 1, not 2
        (None, [3, -1, 0], "not feasible"),  # A x = b, but x_1 < 0
        ([1, 2, 2], [2, 0, 0], "not feasible"),  # A x = b, but x_0 > u_0
    ],
)
def test_a_start_that_is_not_a_feasible_vertex_is_an_internal_error(u, start, why):
    A = RatMatrix.from_rows([[1, 1, 1]], cols=3)
    lp = LPInstance.standard(A, [2], [1, 2, 3])
    if u is not None:
        lp = LPInstance.bounded(A, [2], [1, 2, 3], u)
    with pytest.raises(InternalError, match=why):
        solve(lp, start=start)
