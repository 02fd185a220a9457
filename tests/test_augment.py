import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitkit import augment
from circuitkit.augment import (
    AugmentStep,
    AugmentationTrace,
    audit_trace,
    dantzig_direction,
    deepest_direction,
    epsilon_of,
    guided_walk,
    maximal_step,
    ratio_circuit,
    run,
    steepest_direction,
    support_circuit,
)
from circuitkit.errors import (
    AlreadyOptimal,
    AuditFailure,
    BadParameters,
    InternalError,
    TargetNotBasic,
    UnboundedDirection,
)
from circuitkit.generate import GeneratorSpec, flow_to_lp, generate, max_flow_encoding
from circuitkit.imbalance import imbalances
from circuitkit.lp import OPTIMAL, LPInstance, solve, vertices
from circuitkit.ratmat import RatMatrix, vec
from circuitkit.subspace import ConformalDecomposition, Subspace
from util import dual_epsilon, ford_fulkerson, random_int_matrix, steepness_spectrum

# Diamond digraph: s=0, t=3, two disjoint unit-capacity paths.
DIAMOND_ARCS = [(0, 1), (1, 3), (0, 2), (2, 3)]


def interior_instance():
    """min x1 + 2x3 over ker(A_int) + (1,1,1), x >= 0; optimum at (0,2,0)."""
    A = RatMatrix.from_rows([[1, 1, 0], [0, 1, 1]], cols=3)
    lp = LPInstance.standard(A, A.matvec(vec([1, 1, 1])), [1, 0, 1])
    return lp, Subspace.from_kernel_matrix(A)


def test_direction_rules_agree_on_single_circuit():
    lp, W = interior_instance()
    x = vec([1, 1, 1])
    g, steep = steepest_direction(W, lp.c, x)
    assert tuple(g.vector) == (-1, 1, -1)
    assert steep == Fraction(2, 3)
    assert tuple(dantzig_direction(W, lp.c, x).vector) == (-1, 1, -1)
    gd, alpha = deepest_direction(W, lp.c, x)
    assert tuple(gd.vector) == (-1, 1, -1)
    assert alpha == 1


def test_direction_rules_raise_at_optimum():
    lp, W = interior_instance()
    with pytest.raises(AlreadyOptimal):
        steepest_direction(W, lp.c, vec([0, 2, 0]))
    # the weighted rule signals the optimum with the same class
    with pytest.raises(AlreadyOptimal):
        ratio_circuit(W, lp.c, (None, Fraction(1, 2), None))


def test_epsilon_of():
    lp, W = interior_instance()
    assert epsilon_of(lp.A, lp.c, vec([1, 1, 1])) > 0
    assert epsilon_of(lp.A, lp.c, vec([0, 2, 0])) <= 0


@given(st.integers(4, 5), st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_epsilon_of_matches_the_dual_lp_on_capped_flows(size, seed):
    # Every vertex, so the degenerate points and the optimal ones with
    # eps = 0 are covered, and every iterate of a steepest walk.
    lp = generate(GeneratorSpec("flow", size=size, seed=seed))
    points = [v for v, _ in vertices(lp)] + run(lp, rule="steepest").iterates()
    for x in points:
        assert epsilon_of(lp.A, lp.c, x, lp.u) == dual_epsilon(lp.A, lp.c, x, lp.u)


@given(st.integers(1, 3), st.integers(2, 6), st.booleans(), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_epsilon_of_matches_the_dual_lp_on_dense_lps(m, n, capped, seed):
    rng = random.Random(seed)
    A = random_int_matrix(rng, m, n, -3, 3)
    x = vec([rng.randint(0, 2) for _ in range(n)])
    u = tuple(xi + rng.randint(0, 1) for xi in x) if capped else None
    c = vec([rng.randint(-3, 3) for _ in range(n)])
    lp = LPInstance(A=A, b=A.matvec(x), c=c, u=u)
    points = [x]
    res = solve(lp)
    if res.status == OPTIMAL:
        points.append(res.x)
    for p in points:
        assert epsilon_of(A, c, p, u) == dual_epsilon(A, c, p, u)


def test_a_steepest_walk_solves_one_lp_per_step(monkeypatch):
    # One steepness LP per step, then the phase-1 start, eps at the last
    # iterate and the optimum that the final iterate is checked against.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(augment, "solve", counted)
    lp = generate(GeneratorSpec("flow", size=5, seed=3))
    trace = run(lp, rule="steepest")
    assert trace.terminated == "optimal" and trace.steps
    assert len(calls) == len(trace.steps) + 3


def test_maximal_step_and_unbounded():
    assert maximal_step(vec([1, 1, 1]), vec([-1, 1, -1])) == 1
    with pytest.raises(UnboundedDirection):
        maximal_step(vec([1, 1]), vec([1, 1]))


def test_run_all_rules_reach_optimum():
    lp, W = interior_instance()
    want = solve(lp).objective
    for rule in ("steepest", "dantzig", "deepest", "ratio"):
        trace = run(lp, rule=rule, x0=vec([1, 1, 1]))
        assert trace.terminated == "optimal"
        assert trace.final_objective == want
        assert len(trace.steps) >= 1


def test_run_support_rule_reaches_basic_point():
    lp, _ = interior_instance()
    trace = run(lp, rule="support", x0=vec([1, 1, 1]))
    assert trace.terminated == "basic"
    x = trace.final_x
    cols = [i for i, v in enumerate(x) if v != 0]
    from circuitkit.ratmat import rank

    assert rank(lp.A.take_cols(cols)) == len(cols)


def test_run_records_epsilons_for_steepest():
    lp, _ = interior_instance()
    trace = run(lp, rule="steepest", x0=vec([1, 1, 1]))
    assert trace.epsilons is not None
    assert len(trace.epsilons) == len(trace.steps) + 1
    # epsilon never increases along the walk
    for a, b in zip(trace.epsilons, trace.epsilons[1:]):
        assert b <= a


def test_audit_trace_passes_and_catches_mutation():
    lp, _ = interior_instance()
    trace = run(lp, rule="steepest", x0=vec([1, 1, 1]))
    rep = audit_trace(trace, lp.A, u=lp.u)
    assert rep.steps == len(trace.steps)
    assert 0 < rep.decay_factor < 1
    broken = AugmentationTrace(
        rule=trace.rule,
        start=trace.start,
        objective_start=trace.objective_start,
        steps=tuple(
            AugmentStep(s.direction, s.alpha * 2, s.x_after, s.objective_after)
            for s in trace.steps
        ),
        terminated=trace.terminated,
        epsilons=trace.epsilons,
    )
    with pytest.raises(AuditFailure):
        audit_trace(broken, lp.A, u=lp.u)


def cube_walk():
    """The steepest walk on the unit cube from (0, 1, 0) for c = (-3, 2, -1):
    each step moves one coordinate to a bound, most negative slope first."""
    A = RatMatrix.from_rows([[0, 0, 0]], cols=3)
    lp = LPInstance.bounded(A, [0], [-3, 2, -1], [1, 1, 1])
    return lp, run(lp, rule="steepest", x0=vec([0, 1, 0]))


def _restep(trace, t, alpha):
    """`trace` with step t taken at length alpha, its iterate recomputed."""
    prev = trace.iterates()[t]
    step = trace.steps[t]
    x = tuple(xi + alpha * gi for xi, gi in zip(prev, step.direction.vector))
    steps = list(trace.steps)
    steps[t] = step._replace(alpha=alpha, x_after=x)
    return trace._replace(steps=tuple(steps))


def test_the_cube_walk_passes_every_audit():
    lp, trace = cube_walk()
    assert trace.epsilons == (3, 2, 1, -1)
    assert [s.x_after for s in trace.steps] == [(1, 1, 0), (1, 0, 0), (1, 0, 1)]
    rep = audit_trace(trace, lp.A, u=lp.u)
    assert (rep.epsilon_monotone_checks, rep.window_decay_checks) == (3, 1)


@pytest.mark.parametrize(
    "mutate, prop, step, detail",
    [
        (lambda tr: tr._replace(epsilons=(3, 2, 3, -1)), "epsilon-monotone", 1, "3 > 2"),
        (
            lambda tr: tr._replace(epsilons=(3, 2, 1, Fraction(1, 2))),
            "epsilon-window-decay", 0, "1/2 > 0 * 3",
        ),
        (
            lambda tr: tr._replace(
                steps=(tr.steps[0], tr.steps[1]._replace(x_after=vec([1, 1, 0])), tr.steps[2])
            ),
            "step-consistency", 1, "iterate does not match step data",
        ),
        (lambda tr: _restep(tr, 1, 2), "feasibility", 1, "negative coordinate"),
        (lambda tr: _restep(tr, 0, 2), "feasibility", 0, "upper bound violated"),
        (lambda tr: _restep(tr, 0, Fraction(1, 2)), "maximal-step", 0, "no new tight constraint"),
    ],
    ids=["monotone", "window", "consistency", "negative", "upper", "maximal"],
)
def test_each_trace_audit_catches_its_mutation(mutate, prop, step, detail):
    lp, trace = cube_walk()
    with pytest.raises(AuditFailure) as exc:
        audit_trace(mutate(trace), lp.A, u=lp.u)
    assert (exc.value.prop, exc.value.step, exc.value.detail) == (prop, step, detail)


@pytest.mark.parametrize("epsilons", [None, (), (3, 2, 1)], ids=["none", "empty", "one-short"])
def test_a_trace_without_its_epsilons_is_a_parameter_error(epsilons):
    lp, trace = cube_walk()
    with pytest.raises(BadParameters, match="one recorded epsilon per iterate"):
        audit_trace(trace._replace(epsilons=epsilons), lp.A, u=lp.u)


def test_ratio_rule_decay():
    for seed in range(6):
        capped = generate(GeneratorSpec("flow", size=4, seed=seed))
        lp = LPInstance.standard(capped.A, capped.b, capped.c)
        trace = run(lp, rule="ratio")
        assert trace.terminated == "optimal"
        assert trace.final_objective == solve(lp).objective


def test_ratio_rule_rejects_caps():
    capped = generate(GeneratorSpec("flow", size=4, seed=0))
    with pytest.raises(BadParameters):
        run(capped, rule="ratio")


def test_ratio_circuit_weighted_optimum():
    lp, W = interior_instance()
    g = ratio_circuit(W, lp.c, vec([1, 1, 1]))
    assert tuple(g.vector) == (-1, 1, -1)


def test_support_circuit_shrinks_support():
    A = RatMatrix.from_rows([[1, 1, 0], [0, 1, 1]], cols=3)
    g = support_circuit(Subspace.from_kernel_matrix(A), vec([0, 0, 0]), vec([1, 1, 1]))
    x = vec([1, 1, 1])
    alpha = maximal_step(x, g.vector)
    moved = tuple(a + alpha * b for a, b in zip(x, g.vector))
    assert sum(1 for v in moved if v == 0) > 0


def test_guided_walk_reaches_target():
    lp, _ = interior_instance()
    res = solve(lp)
    trace = guided_walk(lp, vec([1, 1, 1]), res.x)
    assert trace.terminated == "target-reached"
    assert trace.final_x == res.x
    n = lp.A.cols
    for step in trace.steps:
        pass  # alphas validated inside guided_walk; reaching here means they held


def test_walk_points_must_respect_the_upper_bounds():
    # x_start = (0, 0, 3) meets A x = b and x >= 0 but puts 3 on an arc of
    # capacity 1.
    lp = flow_to_lp([0, 1, 2], [(0, 1), (1, 2), (0, 2)], [5, 5, 1], [1, 1, 5], [-3, 0, 3])
    target = solve(lp).x
    over = vec([0, 0, 3])
    with pytest.raises(BadParameters, match="x_start is not feasible"):
        guided_walk(lp, over, target)
    with pytest.raises(TargetNotBasic, match="x_target is not feasible"):
        guided_walk(lp, target, over)
    with pytest.raises(BadParameters, match="starting point violates an upper bound"):
        run(lp, rule="steepest", x0=over)
    with pytest.raises(BadParameters, match="starting point is not feasible"):
        run(lp, rule="steepest", x0=vec([0, 0, 2]))


def test_guided_walk_over_its_step_bound_is_an_internal_error(monkeypatch):
    # Half of a conformal term, one unit at a time: every step halves part of
    # the gap and the walk never lands on the target.
    decompose = augment.conformal_decompose

    def halved(W, z):
        return ConformalDecomposition(z, tuple((c / 2, g) for c, g in decompose(W, z).terms))

    monkeypatch.setattr(augment, "conformal_decompose", halved)
    monkeypatch.setattr(augment, "maximal_step", lambda x, h, u: Fraction(1))
    lp, _ = interior_instance()
    with pytest.raises(InternalError, match="guided walk failed to converge"):
        guided_walk(lp, vec([1, 1, 1]), solve(lp).x)


def test_steepness_spectrum():
    _, W = interior_instance()
    spec = steepness_spectrum(W, vec([1, 0, 1]))
    assert Fraction(2, 3) in spec


def test_flow_lp_matches_ford_fulkerson():
    lp, arcs = max_flow_encoding(list(range(4)), DIAMOND_ARCS, [1, 1, 1, 1], 0, 3)
    res = solve(lp)
    assert res.status == OPTIMAL
    assert -res.objective == ford_fulkerson(4, DIAMOND_ARCS, [1, 1, 1, 1], 0, 3) == 2


def test_flow_incidence_is_tu():
    lp = flow_to_lp([0, 1, 2], [(0, 1), (1, 2)], [2, 2], [1, 1], [-1, 0, 1])
    from circuitkit.imbalance import is_TU

    assert is_TU(lp.A)[0]


def test_max_flow_steepest_follows_shortest_path():
    # s-t paths of lengths 2 and 3; steepest augments along the short one
    arcs = [(0, 1), (1, 3), (0, 2), (2, 4), (4, 3)]
    lp, all_arcs = max_flow_encoding(list(range(5)), arcs, [1, 1, 1, 1, 1], 0, 3)
    W = Subspace.from_kernel_matrix(lp.A)
    x0 = vec([0] * lp.A.cols)
    g, steep = steepest_direction(W, lp.c, x0, lp.u)
    chosen = [all_arcs[i] for i, v in enumerate(g.vector) if v != 0]
    assert (0, 1) in chosen and (1, 3) in chosen
    assert (0, 2) not in chosen
    # steepness = 1 / (path length + return arc)
    assert steep == Fraction(1, 3)


def test_max_flow_runs_to_optimum():
    rng = random.Random(8)
    for seed in range(4):
        rng2 = random.Random(seed)
        n = 5
        arcs = list(DIAMOND_ARCS) + [(1, 2)]
        caps = [rng2.randint(1, 3) for _ in arcs]
        lp, _ = max_flow_encoding(list(range(4)), arcs, caps, 0, 3)
        trace = run(lp, rule="steepest")
        want = ford_fulkerson(4, arcs, caps, 0, 3)
        assert -trace.final_objective == want


def test_run_unbounded_reports_direction():
    lp = LPInstance.standard(
        RatMatrix.from_rows([[1, -1]], cols=2), [0], [-1, 0]
    )
    with pytest.raises(UnboundedDirection):
        run(lp, rule="steepest", x0=vec([0, 0]))


def test_window_decay_matches_kappa():
    lp, W = interior_instance()
    trace = run(lp, rule="steepest", x0=vec([1, 1, 1]))
    rep = audit_trace(trace, lp.A, u=lp.u)
    kappa = imbalances(W).kappa
    m = lp.A.rows
    assert rep.decay_factor == 1 - Fraction(1, 1 + (m - 1) * kappa)
