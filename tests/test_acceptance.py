"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single summary line so a verbose run reads as a
checklist.  Tolerances are exact rational comparisons unless a check is
inherently floating point (the spectral sandwich), where 1e-6 is allowed.
Wall-clock budgets are asserted where the guarantee includes one.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from circuitkit import cli, graver
from circuitkit.augment import (
    audit_trace,
    guided_walk,
    run,
)
from circuitkit.errors import BoxTooLarge, InfeasibleSystem
from circuitkit.generate import (
    GeneratorSpec,
    complete_graph_incidence,
    dumbbell_incidence,
    generate,
    max_flow_encoding,
)
from circuitkit.graver import (
    ConjectureReport,
    appendix_counterexample,
    conjecture_decompose,
    graver_basis,
    hk_check,
    ip_proximity_check,
)
from circuitkit.imbalance import (
    GeoMeanValue,
    chibar,
    imbalances,
    is_TU,
    kappa_star,
    pairwise,
)
from circuitkit.lp import OPTIMAL, LPInstance, solve
from circuitkit.proximity import (
    fixing_sets_bounds,
    hoffman_feasibility_witness,
    hoffman_opt_witness,
    transfer_bound,
)
from circuitkit.ratmat import RatMatrix, bareiss_det, invert, rank, rref, vec
from circuitkit.subspace import (
    Subspace,
    conformal_decompose,
    dual,
    is_separable,
)
from util import ford_fulkerson, random_int_matrix


def fixture_matrices(max_cols=10):
    """The standing matrix fixtures, smallest first."""
    mats = [
        RatMatrix.from_rows([[2, 1]], cols=2),
        RatMatrix.from_rows([[1, 1, 0], [0, 1, 1]], cols=3),
        RatMatrix.from_rows([[1, 3, 4, 3], [0, 13, 9, 10]], cols=4),
        complete_graph_incidence(4),
        dumbbell_incidence(),
    ]
    for seed in range(3):
        mats.append(generate(GeneratorSpec("tu-network", size=5, seed=seed)))
    rng = random.Random(20)
    for _ in range(4):
        mats.append(random_int_matrix(rng, 2, 5, -3, 3))
    return [A for A in mats if A.cols <= max_cols and rank(A) < A.cols]


def feasible_shift(seed, n, m):
    """A subspace of codimension m in R^n and a shift with a feasible translate."""
    rng = random.Random(seed)
    while True:
        A = random_int_matrix(rng, m, n, -3, 3)
        if rank(A) < m:
            continue
        W = Subspace.from_kernel_matrix(A)
        if W.dim == 0:
            continue
        x_star = vec([Fraction(rng.randint(0, 4)) for _ in range(n)])
        w = W.span_rep.data[rng.randrange(W.span_rep.rows)]
        return W, vec([a + b for a, b in zip(x_star, w)])


def test_01_counterexample_reproduction_is_bit_exact():
    t0 = time.monotonic()
    rep = appendix_counterexample()
    assert rep.kappa_dot == 5850
    signed = {v for w in rep.vectors for v in (w, (-w[0], -w[1]))}
    assert signed == {
        (9, -4), (-9, 4), (10, -3), (-10, 3), (13, -3), (-13, 3), (0, 1), (0, -1),
    }
    assert len(signed) == 8
    assert len(rep.products) == 6
    for (v, w, rows), (i, j) in zip(rep.products, rep.witnesses):
        M = RatMatrix.from_rows(rows, cols=4)
        S = M.submatrix([0, 1], [i, j])
        assert bareiss_det(S) != 0
        inv = invert(S)
        assert any(
            (5850 * inv.entry(r, s)).denominator != 1
            for r in range(2)
            for s in range(2)
        )
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    print(f"PASS counterexample reproduction: 8 vectors, 6 witnesses, {elapsed:.2f}s")


def test_02_unimodular_iff_kappa_one():
    t0 = time.monotonic()
    rng = random.Random(2024)
    checked = 0
    seed = 0
    while checked < 50:
        seed += 1
        if checked % 2 == 0:
            A = generate(GeneratorSpec("tu-network", size=rng.randint(4, 5), seed=seed))
            # one incidence row is a linear combination of the rest; dropping
            # it keeps the kernel and total unimodularity
            A = A.submatrix(range(A.rows - 1), range(A.cols))
        else:
            A = random_int_matrix(rng, rng.randint(2, 3), rng.randint(4, 8), -3, 3)
        m, n = A.shape
        if n > 8 or rank(A) != m or n == m:
            continue
        r, pivots, _ = rref(A)
        from circuitkit.ratmat import basis_form

        BF = basis_form(A, pivots)
        kappa = imbalances(Subspace.from_kernel_matrix(A)).kappa
        assert is_TU(BF)[0] == (kappa == 1), f"disagreement on seed {seed}"
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"PASS unimodularity equivalence: {checked} matrices, {elapsed:.2f}s")


def test_03_duality_and_chain():
    t0 = time.monotonic()
    count = 0
    for A in fixture_matrices(max_cols=10):
        W = Subspace.from_kernel_matrix(A)
        rep = imbalances(W)
        rep_dual = imbalances(dual(W))
        assert rep.kappa == rep_dual.kappa
        assert rep.kappa_dot == rep_dual.kappa_dot
        assert 1 <= rep.kappa <= rep.kappa_bar <= rep.kappa_dot
        count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(f"PASS duality and chain: {count} fixtures, {elapsed:.2f}s")


def test_04_pairwise_triangle_inequality():
    rng = random.Random(404)
    checked = 0
    while checked < 30:
        m = rng.randint(2, 3)
        n = rng.randint(4, 5)
        A = random_int_matrix(rng, m, n, -3, 3)
        if rank(A) != m:
            continue
        W = Subspace.from_kernel_matrix(A)
        if W.dim == 0 or is_separable(W):
            continue
        table = pairwise(W).kappa
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if len({i, j, k}) < 3:
                        continue
                    assert table[(i, j)] <= table[(i, k)] * table[(k, j)]
        checked += 1
    print(f"PASS pairwise triangle inequality: {checked} fixtures")


def test_05_spectral_sandwich():
    tol = 1e-6
    count = 0
    for A in fixture_matrices(max_cols=7):
        m, n = A.shape
        if rank(A) != m:
            continue
        kappa = float(imbalances(Subspace.from_kernel_matrix(A)).kappa)
        cb = chibar(A)
        assert math.sqrt(1 + kappa * kappa) <= cb + tol
        assert cb <= n * kappa + tol
        count += 1
    assert count >= 4
    print(f"PASS spectral sandwich: {count} fixtures within {tol}")


def test_06_rescaling_value_dominates_every_cycle():
    W3 = Subspace.from_span_matrix(RatMatrix.from_rows([[0, 1, 1, 3], [1, 0, 3, 1]]))
    star = kappa_star(W3)
    table = pairwise(W3).kappa
    n = W3.ambient_dim

    def cycles_from(start):
        stack = [(start, (start,))]
        while stack:
            node, path = stack.pop()
            for nxt in range(n):
                if nxt == start and len(path) >= 2:
                    yield path
                elif nxt not in path and nxt > start - 1:
                    stack.append((nxt, path + (nxt,)))

    dominated = 0
    for start in range(n):
        for cyc in cycles_from(start):
            prod = Fraction(1)
            ok = True
            for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
                if (a, b) not in table:
                    ok = False
                    break
                prod *= table[(a, b)]
            if not ok:
                continue
            assert GeoMeanValue(prod, len(cyc)) <= star.value
            dominated += 1
    # the witness cycle attains the value
    wprod = Fraction(1)
    wc = star.witness_cycle
    for a, b in zip(wc, wc[1:] + (wc[0],)):
        wprod *= table[(a, b)]
    attained = GeoMeanValue(wprod, len(wc))
    assert attained <= star.value and star.value <= attained
    # the 2-cycle on the last two coordinates forces the value up to 3
    two_cycle = GeoMeanValue(table[(2, 3)] * table[(3, 2)], 2)
    assert two_cycle <= star.value
    three = GeoMeanValue(Fraction(3), 1)
    assert three <= star.value and star.value <= three
    print(f"PASS rescaling min-max: {dominated} cycles dominated, witness attains")


def test_07_distance_bound_suite():
    t0 = time.monotonic()
    rng = random.Random(77)
    count = 0
    for seed in range(100):
        n = rng.randint(4, 8)
        m = rng.randint(2, 3)
        W, d = feasible_shift(seed * 31 + 7, n, m)
        n = W.ambient_dim
        A = W.kernel_rep

        wit = hoffman_feasibility_witness(W, d)
        assert wit.slack >= 0
        assert all(v >= 0 for v in wit.point)
        assert A.matvec(wit.point) == A.matvec(d)

        c = vec([Fraction(rng.randint(0, 4)) for _ in range(n)])
        owit = hoffman_opt_witness(W, d, c)
        assert owit.slack >= 0
        res = solve(LPInstance.standard(A, A.matvec(d), c))
        assert sum(ci * xi for ci, xi in zip(c, owit.point)) == res.objective

        s = vec(
            c[i] - sum(A.data[r][i] * res.y[r] for r in range(A.rows))
            for i in range(n)
        )
        d2 = vec([v + Fraction(rng.randint(-1, 1), 3) for v in d])
        try:
            bound, R = transfer_bound(W, res.x, s, d2)
        except InfeasibleSystem:
            bound, R = None, ()
        if bound is not None:
            assert bound >= 0
            assert all(res.x[i] > bound for i in R)

        u = vec([Fraction(9)] * n)
        b2 = A.matvec(d)
        bres = solve(LPInstance.bounded(A, b2, c, u))
        if bres.status == OPTIMAL:
            c2 = vec([ci + Fraction(rng.randint(0, 1)) for ci in c])
            R0, Ru = fixing_sets_bounds(A, b2, u, c, c2, bres.x, bres.y)
            assert isinstance(R0, tuple) and isinstance(Ru, tuple)
        count += 1
    elapsed = time.monotonic() - t0
    assert count >= 100
    assert elapsed < 300
    print(f"PASS distance bounds: {count} instances, {elapsed:.2f}s")


def max_flow_instances():
    out = []
    rng = random.Random(86)
    made = 0
    while made < 10:
        nodes = rng.randint(4, 5)
        arcs = [(i, i + 1) for i in range(nodes - 1)]
        for _ in range(rng.randint(1, 3)):
            u = rng.randrange(nodes)
            v = rng.randrange(nodes)
            if u != v and (u, v) not in arcs and (v, u) not in arcs:
                arcs.append((u, v))
        caps = [rng.randint(1, 4) for _ in arcs]
        lp, _ = max_flow_encoding(list(range(nodes)), arcs, caps, 0, nodes - 1)
        out.append((lp, (nodes, arcs, caps)))
        made += 1
    return out


def box_instances():
    """Pure box minimization: the walk saturates one coordinate per step,
    so traces reach length n and the n-window comparison has real pairs."""
    out = []
    for n in (4, 5, 6):
        rng = random.Random(n)
        A = RatMatrix.from_rows([[0] * n], cols=n)
        c = [-rng.randint(1, 9) for _ in range(n)]
        u = [rng.randint(1, 5) for _ in range(n)]
        out.append(LPInstance.bounded(A, [0], c, u))
    return out


def test_08_steepest_walks_audited_and_counted():
    observed_total = 0
    shape_total = 0.0
    worst = 0.0
    windows_total = 0
    instances = []
    for seed in range(12):
        instances.append((generate(GeneratorSpec("flow", size=4 + seed % 2, seed=seed)), None, None))
    for seed in range(5):
        instances.append((generate(GeneratorSpec("flow", size=6, seed=seed)), None, None))
    for lp in box_instances():
        instances.append((lp, None, vec([0] * lp.A.cols)))
    flows = [(lp, meta, None) for lp, meta in max_flow_instances()]
    instances.extend(flows)
    assert len(instances) >= 30 and len(flows) == 10
    for lp, meta, x0 in instances:
        trace = run(lp, rule="steepest", x0=x0)
        rep = audit_trace(trace, lp.A, u=lp.u)
        assert rep.steps == len(trace.steps)
        windows_total += rep.window_decay_checks
        want = solve(lp).objective
        assert trace.final_objective == want
        if meta is not None:
            nodes, arcs, caps = meta
            assert -want == ford_fulkerson(nodes, arcs, caps, 0, nodes - 1)
        n = lp.A.cols
        m = lp.A.rows
        kappa = imbalances(Subspace.from_kernel_matrix(lp.A)).kappa
        shape = n * n * m * float(kappa) * math.log2(float(kappa) + n)
        observed_total += len(trace.steps)
        shape_total += shape
        worst = max(worst, len(trace.steps) / shape)
    ratio = observed_total / shape_total
    assert ratio < 10
    assert windows_total >= 3
    print(
        "PASS steepest audits: "
        f"{len(instances)} instances, {observed_total} iterations, "
        f"{windows_total} window checks, "
        f"suite observed/shape ratio {ratio:.4f} (worst instance {worst:.4f})"
    )


def test_09_weighted_rule_contracts_the_gap():
    runs = 0
    for seed in range(20):
        capped = generate(GeneratorSpec("flow", size=4 + seed % 2, seed=seed + 100))
        lp = LPInstance.standard(capped.A, capped.b, capped.c)
        opt = solve(lp).objective
        trace = run(lp, rule="ratio")
        assert trace.final_objective == opt
        n = lp.A.cols
        gap = trace.objective_start - opt
        for step in trace.steps:
            new_gap = step.objective_after - opt
            assert new_gap <= (1 - Fraction(1, n)) * gap
            gap = new_gap
        runs += 1
    assert runs >= 20
    print(f"PASS weighted-rule contraction: {runs} runs, every step within (1 - 1/n)")


def test_10_guided_walk_step_lengths_exact():
    walks = 0
    multi = 0
    max_steps = 0
    for seed in range(30):
        lp = generate(GeneratorSpec("flow", size=6, seed=seed))
        res = solve(lp)
        if res.status != OPTIMAL:
            continue
        supp = [i for i, v in enumerate(res.x) if v != 0]
        if supp and rank(lp.A.take_cols(supp)) < len(supp):
            continue
        worst = solve(LPInstance(A=lp.A, b=lp.b, c=tuple(-v for v in lp.c), u=lp.u))
        trace = guided_walk(lp, worst.x, res.x)
        assert trace.terminated == "target-reached"
        assert trace.final_x == res.x
        n = lp.A.cols
        W = Subspace.from_kernel_matrix(lp.A)
        x = vec(worst.x)
        for step in trace.steps:
            diff = tuple(t - v for t, v in zip(res.x, x))
            decomp = conformal_decompose(W, diff)
            coeff = None
            for lam, gint in decomp.terms:
                if tuple(gint) == tuple(step.direction.vector):
                    coeff = lam
                    break
            assert coeff is not None, "step direction missing from the decomposition"
            alpha = Fraction(step.alpha) / coeff
            assert 1 <= alpha <= n
            x = vec(step.x_after)
        pots = [trace.objective_start] + [s.objective_after for s in trace.steps]
        for a, b in zip(pots, pots[1:]):
            assert b <= a
        walks += 1
        if len(trace.steps) >= 2:
            multi += 1
        max_steps = max(max_steps, len(trace.steps))
    assert walks >= 10 and multi >= 5
    print(
        f"PASS guided walk: {walks} walks ({multi} multi-step, max {max_steps}), "
        "step lengths in [1, n]"
    )


def test_11_integer_hull_proximity_and_norm_sandwich():
    fixtures = 0
    for A in fixture_matrices(max_cols=7):
        if not A.is_integral():
            continue
        try:
            gb = graver_basis(A)
        except BoxTooLarge:
            continue
        n = A.cols
        kb = imbalances(Subspace.from_kernel_matrix(A)).kappa_bar
        assert kb <= gb.ginf <= n * kb
        fixtures += 1
    cases = [
        (RatMatrix.from_rows([[2, 1]], cols=2), [3], [-1, 0]),
        (RatMatrix.from_rows([[1, 1, 0], [0, 1, 1]], cols=3), [2, 2], [1, 0, 1]),
        (RatMatrix.from_rows([[2, 1, 1]], cols=3), [5], [0, 1, 0]),
    ]
    solved = 0
    for A, b, c in cases:
        try:
            x_lp, x_ip, distance, bound = ip_proximity_check(A, b, c)
        except BoxTooLarge:
            continue
        assert distance <= bound
        assert all(v == int(v) for v in x_ip)
        solved += 1
    assert fixtures >= 4 and solved >= 3
    print(f"PASS integer proximity: {fixtures} norm sandwiches, {solved} hull checks")


def test_12_fractionality_divides_the_lcm_invariant():
    fixtures = [
        RatMatrix.from_rows([[1, 1, 0], [0, 1, 1]], cols=3),
        RatMatrix.from_rows([[1, 3, 4, 3], [0, 13, 9, 10]], cols=4),
        dumbbell_incidence(),
    ]
    lcms = []
    for i, A in enumerate(fixtures):
        W = Subspace.from_kernel_matrix(A)
        rep = hk_check(W, trials=50, seed=500 + i)
        assert rep.trials == 50
        assert rep.kappa_dot % rep.random_lcm == 0
        assert rep.witness_lcm == rep.kappa_dot
        lcms.append(rep.kappa_dot)
    # the handle-and-bars incidence matrix realizes denominator 2 exactly
    assert lcms[-1] == 2
    print(f"PASS fractionality grid: 50 shifts per fixture, witness lcms {lcms}")


def test_13_decomposition_sweep_holds_and_violations_exit_one(tmp_path, monkeypatch, capsys):
    swept = 0
    for A in fixture_matrices(max_cols=6):
        if not A.is_integral():
            continue
        try:
            gb = graver_basis(A)
        except BoxTooLarge:
            continue
        W = Subspace.from_kernel_matrix(A)
        kd = imbalances(W).kappa_dot
        for g in gb.elements:
            rep = conjecture_decompose(W, g)
            assert rep.status == "holds"
            total = [Fraction(0)] * A.cols
            for lam, circ in rep.decomposition:
                assert lam > 0 and (lam * kd).denominator == 1
                for i, v in enumerate(circ):
                    assert v * rep.target[i] >= 0
                    total[i] += lam * v
            assert tuple(total) == rep.target
            swept += 1
    assert swept >= 6

    mat = tmp_path / "m.json"
    mat.write_text(
        '{"schema_version": "1", "A": [["1", "1", "0"], ["0", "1", "1"]]}\n'
    )
    target = tmp_path / "z.json"
    target.write_text('["2", "-2", "2"]\n')

    def fake(W, z):
        return ConjectureReport(
            target=(2, -2, 2), status="violated", decomposition=(), searched=7
        )

    monkeypatch.setattr(graver, "conjecture_decompose", fake)
    code = cli.main(
        ["conjecture", "--input", str(mat), "--target", str(target)]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert '"status": "violated"' in out
    print(f"PASS decomposition sweep: {swept} elements hold; violations exit 1")
