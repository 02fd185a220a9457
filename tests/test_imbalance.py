import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circuitkit import imbalance, ratmat
from circuitkit.errors import SeparableInput
from circuitkit.imbalance import (
    CircuitRatioDigraph,
    GeoMeanValue,
    _log2_enclosure,
    _max_mean,
    _mult_bellman_ford,
    _tight_arcs,
    _tight_witness,
    chibar,
    diameter_bound,
    diameter_within,
    imbalances,
    is_TU,
    kappa_star,
    pairwise,
    rescale,
)
from circuitkit.ratmat import RatMatrix, bareiss_det
from circuitkit.subspace import Subspace, dual, is_separable, minor
from util import (
    brute_circuits,
    brute_is_TU,
    brute_kappa,
    brute_kappa_bar,
    brute_kappa_dot,
    brute_kappa_star,
    brute_witness_cycle,
    check_kappa_star_one,
    delta_min_angle,
    estimate_kappa,
    fraction_bellman_ford,
    fraction_check_feasible,
    fraction_kappa_star,
    fraction_tight_witness,
    int_max_mean_cycle,
    int_representation,
    kappa_via_basis_forms,
    knuth_basis,
    oracle_imbalances,
    oracle_kappa_star,
    oracle_pair_maxima,
    prime_powers,
    random_int_matrix,
    rational_matrices,
    small_int_matrices,
)


def test_app_measures(A_app):
    rep = imbalances(Subspace.from_kernel_matrix(A_app))
    assert rep.kappa == Fraction(25, 9)
    assert rep.kappa_dot == 5850
    assert rep.kappa_bar == 25
    assert kappa_via_basis_forms(A_app) == Fraction(25, 9)


def test_int_measures(A_int):
    rep = imbalances(Subspace.from_kernel_matrix(A_int))
    assert (rep.kappa, rep.kappa_dot, rep.kappa_bar) == (1, 1, 1)
    assert kappa_via_basis_forms(A_int) == 1


def test_db_measures(A_db):
    rep = imbalances(Subspace.from_kernel_matrix(A_db))
    assert rep.kappa_dot == 2


def test_w3_measures(W3):
    rep = imbalances(W3)
    assert rep.kappa == 8
    assert rep.kappa_bar == 8
    assert rep.kappa_dot == 24


def test_measures_match_brute_force():
    rng = random.Random(31)
    for _ in range(10):
        A = random_int_matrix(rng, 2, 4, lo=-3, hi=3)
        W = Subspace.from_kernel_matrix(A)
        if W.is_trivial():
            continue
        rep = imbalances(W)
        assert rep.kappa == brute_kappa(A)
        assert rep.kappa_dot == brute_kappa_dot(A)
        assert rep.kappa_bar == brute_kappa_bar(A)


def test_witnesses_attain(A_app):
    rep = imbalances(Subspace.from_kernel_matrix(A_app))
    circuit, (i, j) = rep.witnesses.kappa
    v = circuit.vector
    assert Fraction(abs(v[j]), abs(v[i])) == rep.kappa


def test_self_duality(W3, A_app):
    for W in (W3, Subspace.from_kernel_matrix(A_app)):
        a = imbalances(W)
        b = imbalances(dual(W))
        assert a.kappa == b.kappa
        assert a.kappa_dot == b.kappa_dot


def test_chain(A_app, W3):
    for W in (Subspace.from_kernel_matrix(A_app), W3):
        rep = imbalances(W)
        assert 1 <= rep.kappa <= rep.kappa_bar <= rep.kappa_dot


def test_pairwise_w3(W3):
    G = pairwise(W3)
    assert G.kappa[(2, 3)] == 3
    assert G.kappa[(3, 2)] == 3
    # circuit ratios are closed under inversion between the two orders
    for (i, j), vals in G.sets.items():
        assert G.sets[(j, i)] == frozenset(1 / v for v in vals)


def test_pairwise_triangle_inequality(W3):
    G = pairwise(W3)
    n = 4
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) < 3:
                    continue
                assert G.kappa[(i, j)] <= G.kappa[(i, k)] * G.kappa[(k, j)]


def test_pairwise_rejects_separable():
    A = RatMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]], cols=4)
    with pytest.raises(SeparableInput):
        pairwise(Subspace.from_kernel_matrix(A))


def test_kappa_star_w3(W3):
    res = kappa_star(W3)
    # cross-power equality with 3
    assert res.value.product == 3 ** res.value.length
    assert res.rescaling == (1, 1, Fraction(3, 8), Fraction(3, 8))
    scaled = rescale(W3, res.rescaling)
    assert imbalances(scaled).kappa == 3


def test_kappa_star_dominates_cycles(W3):
    res = kappa_star(W3)
    G = pairwise(W3)
    nodes = range(4)
    # enumerate all simple cycles up to length 4 and compare cross-powered
    import itertools

    for L in range(2, 5):
        for cyc in itertools.permutations(nodes, L):
            if cyc[0] != min(cyc):
                continue
            prod = Fraction(1)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                prod *= G.kappa[(a, b)]
            # res.value >= prod^(1/L)
            assert res.value.product ** L >= prod**res.value.length


def test_kappa_star_attained_by_witness(W3):
    res = kappa_star(W3)
    G = pairwise(W3)
    cyc = res.witness_cycle
    prod = Fraction(1)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        prod *= G.kappa[(a, b)]
    assert prod ** res.value.length == res.value.product ** len(cyc)


def test_estimate_kappa_is_lower_bound(W3):
    xi, table = estimate_kappa(W3)
    assert xi <= imbalances(W3).kappa
    for (i, j), (ratio, ev) in table.items():
        assert i in ev.support and j in ev.support


def test_check_kappa_star_one(A_int, W3):
    res = check_kappa_star_one(A_int)
    assert res.rescaled_tu and res.scaling == (1, 1, 1)
    scaled = RatMatrix.from_rows([[1, 2, 0], [0, 2, 4]], cols=3)
    res2 = check_kappa_star_one(scaled)
    assert res2.rescaled_tu and res2.scaling == (4, 2, 1)
    res3 = check_kappa_star_one(W3.kernel_rep)
    assert not res3.rescaled_tu
    assert res3.witness_product > 1
    i, j = res3.witness_cycle
    G = pairwise(Subspace.from_kernel_matrix(W3.kernel_rep))
    assert G.kappa[(i, j)] * G.kappa[(j, i)] == res3.witness_product


def test_cederbaum_tu_iff_kappa_one():
    rng = random.Random(47)
    checked = 0
    while checked < 25:
        A = random_int_matrix(rng, 2, rng.randint(3, 5), lo=-2, hi=2)
        W = Subspace.from_kernel_matrix(A)
        if W.is_trivial():
            continue
        checked += 1
        rep = imbalances(W)
        tu, _ = is_TU(int_representation(W))
        assert tu == (rep.kappa == 1)


def test_int_representation_app(A_app):
    W = Subspace.from_kernel_matrix(A_app)
    M = int_representation(W)
    assert M.data == ((13, 0, 25, 9), (0, 13, 9, 10))
    kd = imbalances(W).kappa_dot
    for row in M.data:
        for x in row:
            if x != 0:
                assert kd % int(x) == 0


def test_chibar_values(A_int):
    ones = RatMatrix.from_rows([[1, 1, 1, 1]], cols=4)
    assert abs(chibar(ones) - 2.0) < 1e-9
    assert abs(chibar(A_int) - math.sqrt(3)) < 1e-6


def test_chibar_sandwich(A_int, A_db):
    for A in (A_int, A_db):
        W = Subspace.from_kernel_matrix(A)
        kap = float(imbalances(W).kappa)
        n = A.cols
        # chibar is defined on the row space side; use the kernel rep
        val = chibar(A)
        assert math.sqrt(1 + kap * kap) <= val + 1e-6
        assert val <= n * kap + 1e-6


def test_delta_min_angle():
    assert abs(delta_min_angle([(1, 0), (1, 1)]) - math.sin(math.pi / 4)) < 1e-9
    assert abs(delta_min_angle([(1, 0), (10, 1)]) - 1 / math.sqrt(101)) < 1e-9


def test_knuth_basis(A_app):
    B, M, swaps = knuth_basis(A_app, 2)
    assert B == (0, 1)
    assert swaps == 0
    assert all(abs(x) <= 2 for row in M.data for x in row)


def test_diameter_bound_value():
    got = diameter_bound(4, 2, 1)
    assert abs(float(got) - 16 * math.log2(5)) < 1e-9


def test_geo_mean_ordering():
    a = GeoMeanValue(Fraction(9), 2)
    b = GeoMeanValue(Fraction(3), 1)
    assert not a < b and not b < a
    assert GeoMeanValue(Fraction(8), 2) < b
    assert GeoMeanValue(Fraction(16), 4).shortest() == GeoMeanValue(Fraction(2), 1)
    assert GeoMeanValue(Fraction(4), 4).shortest() == GeoMeanValue(Fraction(2), 2)
    assert GeoMeanValue(Fraction(8, 27), 6).shortest() == GeoMeanValue(Fraction(2, 3), 2)
    assert GeoMeanValue(Fraction(2), 2).shortest() == GeoMeanValue(Fraction(2), 2)


@given(st.integers(0, 2**30 - 1))
@settings(max_examples=20, deadline=None)
def test_duality_and_chain_random(seed):
    rng = random.Random(seed)
    A = random_int_matrix(rng, 2, 4, lo=-3, hi=3)
    W = Subspace.from_kernel_matrix(A)
    if W.is_trivial() or W.dim == 4:
        return
    a = imbalances(W)
    b = imbalances(dual(W))
    assert a.kappa == b.kappa
    assert a.kappa_dot == b.kappa_dot
    assert 1 <= a.kappa <= a.kappa_bar <= a.kappa_dot


@given(st.integers(0, 2**30 - 1))
@settings(max_examples=15, deadline=None)
def test_minor_monotone(seed):
    rng = random.Random(seed)
    A = random_int_matrix(rng, 2, 4, lo=-3, hi=3)
    W = Subspace.from_kernel_matrix(A)
    if W.is_trivial():
        return
    kap = imbalances(W).kappa
    for mode in ("project", "restrict"):
        J = sorted(rng.sample(range(4), 3))
        sub = minor(W, J, mode)
        assert imbalances(sub).kappa <= kap


@given(rational_matrices(rows=(2, 4), cols=(3, 8)), st.booleans())
@settings(max_examples=100, deadline=None)
def test_imbalances_match_the_pairwise_scan(A, maxima_first):
    # The report and the pair maxima are two passes cached apart, so each is
    # checked on a fresh object whichever of them is read first.
    K = Subspace.from_kernel_matrix(A).kernel_rep
    W = Subspace(K.cols, K)
    want_report, want_maxima = oracle_imbalances(W), oracle_pair_maxima(W)
    W = Subspace(K.cols, K)
    if maxima_first:
        maxima, report = W.pair_maxima, imbalances(W)
    else:
        report, maxima = imbalances(W), W.pair_maxima
    assert report == want_report
    assert maxima == want_maxima and list(maxima) == list(want_maxima)


@given(rational_matrices(rows=(1, 3), cols=(2, 6)))
@settings(max_examples=60, deadline=None)
def test_each_prime_power_of_kappa_dot_divides_a_circuit_entry(A):
    # kappa_dot is the lcm of the circuit entries, so each p^a exactly
    # dividing it divides some entry, and p <= kappa_bar.  The measures
    # carry no witness for this, so it is checked here.
    W = Subspace.from_kernel_matrix(A)
    rep = imbalances(W)
    entries = [ev.vector[j] for ev in W.circuit_list for j in ev.support]
    powers, rest = prime_powers(rep.kappa_dot, up_to=rep.kappa_bar)
    assert rest == 1
    for p, a in powers.items():
        assert any(e % p**a == 0 for e in entries)


@given(rational_matrices(rows=(2, 4), cols=(4, 8)))
@settings(max_examples=100, deadline=None)
def test_kappa_star_matches_the_fraction_dp(A):
    W = Subspace.from_kernel_matrix(A)
    res = kappa_star(W)
    assert res == oracle_kappa_star(W) == oracle_kappa_star(W, int_max_mean_cycle)
    assert res == fraction_kappa_star(W)
    if is_separable(W):
        # the maximum over the components, against every simple cycle
        best = brute_kappa_star(A)
        if best is None:
            assert res.value == GeoMeanValue(Fraction(1), 1) and res.witness_cycle == ()
        else:
            assert res.value._cmp(best) == 0
        with pytest.raises(SeparableInput):
            pairwise(W)


@st.composite
def ratio_digraphs(draw):
    """Pair maxima on one or two complete digraphs, with few distinct
    values, so that many cycles tie for the largest mean."""
    n = draw(st.integers(2, 7))
    pool = st.sampled_from([(1, 1), (2, 1), (1, 2), (4, 1), (3, 2)])
    values = draw(st.lists(pool, min_size=1, max_size=3))
    side = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    maxima = {}
    for i in range(n):
        for j in range(n):
            if i != j and side[i] == side[j]:
                maxima[(i, j)] = draw(st.sampled_from(values))
    return n, maxima


# The only optimal cycles are (0, 3, 5, 1) and (0, 4, 2, 1), both through
# node 0 and of length 4: the witness is the lexicographically smaller one,
# though the nodes before the last of the other sort smaller, (2, 4) < (3, 5).
TIE_ARCS = {(0, 3), (3, 5), (5, 1), (1, 0), (0, 4), (4, 2), (2, 1)}


@given(ratio_digraphs())
@settings(max_examples=300, deadline=None)
@example((6, {(i, j): (2, 1) if (i, j) in TIE_ARCS else (1, 2)
              for i in range(6) for j in range(6) if i != j}))
def test_karp_matches_the_path_dp_and_the_witness_the_cycle_scan(case):
    n, maxima = case
    kappa = {k: Fraction(p, q) for k, (p, q) in maxima.items()}
    nodes = sorted({i for i, _ in maxima})
    prod, cycle = int_max_mean_cycle(kappa, nodes)
    best = _max_mean(maxima, nodes)
    if prod is None:
        assert best is None
        return
    assert best == GeoMeanValue(prod, len(cycle)).shortest()
    d, got = _rescale_and_witness(maxima, nodes, n, best)
    value, witness = brute_witness_cycle(kappa)
    assert value._cmp(best) == 0
    assert got == witness
    # the integer stages against their Fraction oracles
    assert d == fraction_bellman_ford(kappa, nodes, n, best.product, best.length)
    fraction_check_feasible(kappa, d, best.product, best.length)
    assert fraction_tight_witness(kappa, d, best.product, best.length, nodes) == witness


def _rescale_and_witness(maxima, nodes, n, value):
    """kappa_star's stages after Karp's value: the rescaling and the witness."""
    powered = {arc: (p**value.length, q**value.length) for arc, (p, q) in maxima.items()}
    d = _mult_bellman_ford(powered, nodes, n, value.product)
    return d, _tight_witness(_tight_arcs(powered, d, value.product), nodes)


def test_the_witness_is_the_least_of_the_tied_cycles():
    maxima = {(i, j): (2, 1) if (i, j) in TIE_ARCS else (1, 2)
              for i in range(6) for j in range(6) if i != j}
    kappa = {k: Fraction(p, q) for k, (p, q) in maxima.items()}
    nodes = list(range(6))
    best = _max_mean(maxima, nodes)
    assert best == GeoMeanValue(Fraction(2), 1)
    d, cycle = _rescale_and_witness(maxima, nodes, 6, best)
    assert cycle == (0, 3, 5, 1)
    assert fraction_tight_witness(kappa, d, best.product, best.length, nodes) == cycle


# The optimal cycle (0, 3, 5, 2) has product 400: the value is sqrt(20), at
# length 2, where a form reduced only to length 1 kept (400, 4) and needed
# a second rescaling solve.
SQUARE_MEAN = [[2, 0, 1, 4, 0, -2, 2], [4, 4, 0, 4, -2, -2, 4], [0, -1, 1, 4, -1, 0, -1]]


def test_kappa_star_solves_one_rescaling(monkeypatch, W3, A_app):
    calls = []

    def counted(*args):
        calls.append(args)
        return _mult_bellman_ford(*args)

    monkeypatch.setattr(imbalance, "_mult_bellman_ford", counted)
    for A in (W3.kernel_rep, A_app, RatMatrix.from_rows(SQUARE_MEAN, cols=7)):
        calls.clear()
        W = Subspace.from_kernel_matrix(A)
        res = kappa_star(W)
        assert len(calls) == 1
        powered, _, _, rho = calls[0]
        assert rho == res.value.product
        L = res.value.length
        assert powered == {arc: (p**L, q**L) for arc, (p, q) in W.pair_maxima.items()}
    assert res.value == GeoMeanValue(Fraction(20), 2)
    assert res.witness_cycle == (0, 3, 5, 2)


@given(small_int_matrices())
@settings(max_examples=100, deadline=None)
def test_kappa_star_is_the_best_simple_cycle(A):
    W = Subspace.from_kernel_matrix(A)
    assume(not is_separable(W))
    kappa = {}
    for g in brute_circuits(A):
        supp = [i for i, v in enumerate(g) if v]
        for i, j in itertools.permutations(supp, 2):
            kappa[(i, j)] = max(kappa.get((i, j), 0), Fraction(abs(g[j]), abs(g[i])))
    G = CircuitRatioDigraph(A.cols, kappa, {})
    best = max(
        (
            GeoMeanValue(imbalance._cycle_product(G.kappa, cyc), k)
            for k in range(2, A.cols + 1)
            for cyc in itertools.permutations(range(A.cols), k)
        ),
        key=functools.cmp_to_key(GeoMeanValue._cmp),
    )
    res = kappa_star(W)
    assert res.value._cmp(best) == 0
    cyc = res.witness_cycle
    assert len(set(cyc)) == len(cyc) >= 2
    assert res.value._cmp(GeoMeanValue(imbalance._cycle_product(G.kappa, cyc), len(cyc))) == 0


@st.composite
def unit_matrices(draw):
    """Small {0, +1, -1} matrices; half of them network matrices (at most one
    +1 and one -1 per column), transposed half of those times."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        rows = draw(
            st.lists(st.lists(st.sampled_from((0, 1, -1)), min_size=n, max_size=n),
                     min_size=m, max_size=m)
        )
        return RatMatrix.from_rows(rows, cols=n)
    cols = []
    for _ in range(n):
        col = [0] * m
        plus = draw(st.none() | st.integers(0, m - 1))
        minus = draw(st.none() | st.integers(0, m - 1))
        if plus is not None:
            col[plus] = 1
        if minus is not None and minus != plus:
            col[minus] = -1
        cols.append(col)
    if draw(st.booleans()):
        return RatMatrix.from_rows(cols, cols=m)
    return RatMatrix.from_rows([list(r) for r in zip(*cols)], cols=n)


@given(unit_matrices())
@settings(max_examples=200, deadline=None)
def test_is_TU_matches_the_brute_force_scan(A):
    tu, witness = is_TU(A)
    assert tu == brute_is_TU(A)
    if not tu:
        rows, cols, det = witness
        assert det not in (0, 1, -1) and bareiss_det(A.submatrix(rows, cols)) == det


def test_is_TU_answers_a_network_matrix_without_the_scan(monkeypatch):
    # the 7-node directed graph whose incidence matrix took 5 s to scan
    arcs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0),
            (0, 3), (1, 4), (2, 5), (3, 6), (4, 0)]
    rows = [[1 if u == v else -1 if w == v else 0 for u, w in arcs] for v in range(7)]
    A = RatMatrix.from_rows(rows, cols=12)
    monkeypatch.setattr(ratmat, "MAX_ENUM_COLS", 3)  # the cap binds the scan alone
    dets = []
    monkeypatch.setattr(imbalance, "bareiss_det", lambda M: dets.append(M) or 0)
    assert is_TU(A) == (True, None)
    assert is_TU(A.transpose()) == (True, None)
    assert dets == []


@given(
    st.integers(1, 10**6), st.integers(1, 10**3), st.integers(1, 6)
)
@settings(max_examples=200, deadline=None)
@example(1, 1, 3)
@example(2**40, 1, 5)
@example(10**400 + 3, 1, 2)
def test_log2_enclosure_brackets_the_log(p, q, bits):
    x = Fraction(max(p, q), min(p, q))
    lo, hi = _log2_enclosure(x, bits)
    # 2^lo <= x <= 2^hi, raised to the power 2^bits to stay in integers
    k = 1 << bits
    N = lo * k
    assert N.denominator == 1
    assert 2 ** int(N) * x.denominator**k <= x.numerator**k
    if lo == hi:
        assert 2 ** int(N) * x.denominator**k == x.numerator**k
    else:
        assert hi - lo == Fraction(1, k)
        assert x.numerator**k <= 2 ** int(hi * k) * x.denominator**k


def test_diameter_within_refines_until_decided():
    # kappa = 2^70 makes the 64-bit enclosure about 2^6 wide, wider than 1
    kappa = 2**70
    lo, hi = imbalance._diameter_enclosure(2, 1, kappa, 64)
    assert hi - lo > 1
    fine, _ = imbalance._diameter_enclosure(2, 1, kappa, 256)
    d = int(fine)  # the floor of the bound
    within, bound = diameter_within(d, 2, 1, kappa)
    assert within and d <= bound <= fine
    within, bound = diameter_within(d + 1, 2, 1, kappa)
    assert not within and bound < d + 1
    assert diameter_within(16, 3, 1, 1) == (True, 16)  # 8 * log2(4), exact
    assert diameter_within(17, 3, 1, 1) == (False, 16)
