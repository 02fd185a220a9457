import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circuitkit.errors import SeparableInput
from circuitkit.imbalance import (
    CircuitRatioDigraph,
    GeoMeanValue,
    _max_mean,
    _mult_bellman_ford,
    _tight_witness,
    chibar,
    check_kappa_star_one,
    delta_min_angle,
    diameter_bound,
    estimate_kappa,
    imbalances,
    int_representation,
    is_TU,
    kappa_star,
    kappa_via_basis_forms,
    knuth_basis,
    pairwise,
    rescale,
)
from circuitkit.ratmat import RatMatrix
from circuitkit.subspace import Subspace, dual, is_separable, minor
from util import (
    brute_circuits,
    brute_kappa,
    brute_kappa_bar,
    brute_kappa_dot,
    brute_kappa_star,
    int_max_mean_cycle,
    oracle_imbalances,
    oracle_kappa_star,
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


@given(rational_matrices(rows=(2, 4), cols=(3, 8)))
@settings(max_examples=100, deadline=None)
def test_imbalances_match_the_pairwise_scan(A):
    W = Subspace.from_kernel_matrix(A)
    assert imbalances(W) == oracle_imbalances(W)


@given(rational_matrices(rows=(2, 4), cols=(4, 8)))
@settings(max_examples=100, deadline=None)
def test_kappa_star_matches_the_fraction_dp(A):
    W = Subspace.from_kernel_matrix(A)
    res = kappa_star(W)
    assert res == oracle_kappa_star(W) == oracle_kappa_star(W, int_max_mean_cycle)
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


# The only optimal cycles are (0, 3, 5, 1) and (0, 4, 2, 1): the DP meets
# the second first, whose nodes before the last sort as (2, 4) < (3, 5),
# though the first is lexicographically smaller.
TIE_ARCS = {(0, 3), (3, 5), (5, 1), (1, 0), (0, 4), (4, 2), (2, 1)}


@given(ratio_digraphs())
@settings(max_examples=300, deadline=None)
@example((6, {(i, j): (2, 1) if (i, j) in TIE_ARCS else (1, 2)
              for i in range(6) for j in range(6) if i != j}))
def test_karp_and_the_tight_witness_match_the_path_dp(case):
    n, maxima = case
    kappa = {k: Fraction(p, q) for k, (p, q) in maxima.items()}
    nodes = sorted({i for i, _ in maxima})
    prod, cycle = int_max_mean_cycle(kappa, nodes)
    best = _max_mean(maxima, nodes)
    if prod is None:
        assert best is None
        return
    assert best._cmp(GeoMeanValue(prod, len(cycle))) == 0
    d = _mult_bellman_ford(kappa, nodes, n, best.product, best.length)
    assert _tight_witness(kappa, d, best.product, best.length, nodes) == cycle


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
            GeoMeanValue(G.cycle_product(cyc), k)
            for k in range(2, A.cols + 1)
            for cyc in itertools.permutations(range(A.cols), k)
        ),
        key=functools.cmp_to_key(GeoMeanValue._cmp),
    )
    res = kappa_star(W)
    assert res.value._cmp(best) == 0
    cyc = res.witness_cycle
    assert len(set(cyc)) == len(cyc) >= 2
    assert res.value._cmp(GeoMeanValue(G.cycle_product(cyc), len(cyc))) == 0
