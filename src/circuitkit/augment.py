"""Circuit augmentation: direction rules, maximal steps, traces, and audits.

Directions are computed twice wherever a second route exists (exhaustive
circuit scan vs. an exact LP formulation) and the two must agree; a
disagreement raises AuditFailure rather than silently preferring one.  The
steepness eps(x) is one LP, `epsilon_of`, which the steepest rule audits
against its scan at every step; the walk records the audited value.

Every rule chooses its circuit with `_least`, the one arg-min over scored
circuits (oriented-circuit scans and conformal terms alike), and
`_blocked` is the one test of a coordinate at the bound that a direction
pushes against.

Orientation convention: returned directions g satisfy <c, g> < 0, except
support_circuit which allows <c, g> = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    AlreadyBasic,
    AlreadyOptimal,
    AuditFailure,
    BadParameters,
    InfeasibleSystem,
    InternalError,
    TargetNotBasic,
    UnboundedDirection,
)
from .lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPInstance, solve
from .ratmat import RatMatrix, greedy_basis, neg_part, norm1, vec, vec_dot
from .subspace import ElementaryVector, Subspace, conformal_decompose, oriented_circuits

STEEPEST = "steepest"
DANTZIG = "dantzig"
DEEPEST = "deepest"
RATIO = "ratio"
SUPPORT = "support"
GUIDED = "guided"

RULES = (STEEPEST, DANTZIG, DEEPEST, RATIO, SUPPORT, GUIDED)


class AugmentStep(NamedTuple):
    direction: ElementaryVector  # oriented
    alpha: Fraction
    x_after: tuple
    objective_after: Fraction


class AugmentationTrace(NamedTuple):
    rule: str
    start: tuple
    objective_start: Fraction
    steps: tuple
    terminated: str  # "optimal" | "iteration-cap" | "basic" | "target-reached"
    epsilons: tuple | None = None  # aligned with iterates(), steepest only

    def iterates(self) -> list:
        return [self.start] + [s.x_after for s in self.steps]

    @property
    def final_x(self) -> tuple:
        return self.steps[-1].x_after if self.steps else self.start

    @property
    def final_objective(self) -> Fraction:
        return self.steps[-1].objective_after if self.steps else self.objective_start


class AuditReport(NamedTuple):
    steps: int
    epsilon_monotone_checks: int
    window_decay_checks: int
    decay_factor: Fraction
    freezing: tuple  # (coordinate, first step frozen, "zero" | "upper")


def _blocked(x, u, i, gi) -> bool:
    """True when coordinate i sits at the bound that the entry gi pushes
    against: x_i = 0 with gi < 0, or x_i = u_i with gi > 0."""
    if gi < 0:
        return x[i] == 0
    return gi > 0 and u is not None and u[i] is not None and x[i] == u[i]


def _least(scored):
    """The (score, circuit) pair with the least (score, support, vector),
    the first such in scan order, or None when there is none."""
    return min(scored, key=lambda sg: (sg[0], sg[1].support, sg[1].vector), default=None)


def _circuit(gint) -> ElementaryVector:
    """The integer vector gint with its support."""
    return ElementaryVector(tuple(i for i, v in enumerate(gint) if v), gint)


def _residual_set(x, u, n: int) -> list:
    """N(x) in [2n]: i while x_i is below its cap, n+j while x_j > 0."""
    return [i for i in range(n) if not _blocked(x, u, i, 1)] + [
        n + j for j in range(n) if not _blocked(x, u, j, -1)
    ]


def _best_direction(W: Subspace, c, x, u, score):
    """Among the oriented circuits g that improve (<c, g> < 0) and are
    feasible at x (g_i >= 0 where x_i = 0, g_i <= 0 where x_i = u_i), the
    one with the least (score(g.vector, <c, g>), support, vector), and that
    score; AlreadyOptimal when there is none."""
    best = _least(
        (score(g.vector, cg), g)
        for g in oriented_circuits(W)
        if not any(_blocked(x, u, i, gi) for i, gi in enumerate(g.vector))
        and (cg := vec_dot(c, g.vector)) < 0
    )
    if best is None:
        raise AlreadyOptimal("no augmenting circuit improves the objective")
    return best[1], best[0]


def steepest_direction(W: Subspace, c, x, u=None):
    """The augmenting circuit of most negative <c,g>/||g||_1, and eps(x),
    minus that slope.

    Computed by exhaustive scan and, independently, by the steepness LP
    `epsilon_of`; the two values must agree.
    """
    cv = vec(c)
    xv = vec(x)
    g, score = _best_direction(W, cv, xv, u, lambda gv, cg: cg / norm1(gv))
    steep = -score
    eps = epsilon_of(W.kernel_rep, cv, xv, u)
    if eps != steep:
        raise AuditFailure("steepest-direction", 0, f"scan value {steep} vs LP value {eps}")
    return g, steep


def dantzig_direction(W: Subspace, c, x, u=None) -> ElementaryVector:
    """Most negative <c,g> over gcd-normalized augmenting circuits."""
    return _best_direction(W, vec(c), vec(x), u, lambda gv, cg: cg)[0]


def maximal_step(x, g, u=None) -> Fraction:
    """Largest alpha keeping x + alpha*g within the bounds; g is taken as
    given, int or Fraction entries."""
    xv = vec(x)
    alphas = []
    for i, gi in enumerate(g):
        if gi < 0:
            alphas.append(xv[i] / -gi)
        elif gi > 0 and u is not None and u[i] is not None:
            alphas.append((u[i] - xv[i]) / gi)
    if not alphas:
        raise UnboundedDirection("no constraint limits the step", ray=tuple(g))
    return min(alphas)


def deepest_direction(W: Subspace, c, x, u=None):
    """Maximize -alpha*<c,g> over augmenting circuits, alpha the maximal step."""
    xv = vec(x)
    # maximal_step raises UnboundedDirection, which flags LP unboundedness
    g, _ = _best_direction(W, vec(c), xv, u, lambda gv, cg: maximal_step(xv, gv, u) * cg)
    return g, maximal_step(xv, g.vector, u)


def _cost_per_weight(cv, gv, wz):
    """<c,g> over the weight <w, g^-> of g's decreases, with wz = w and 0 for
    each infinite weight; None unless <c,g> < 0."""
    cg = vec_dot(cv, gv)
    if cg >= 0:
        return None
    wneg = vec_dot(wz, neg_part(gv))
    if wneg == 0:
        raise UnboundedDirection("circuit decreases cost with no weight to pay", ray=gv)
    return cg / wneg


def ratio_circuit(W: Subspace, c, w) -> ElementaryVector:
    """Minimum cost-to-weight circuit: basic optimum of the weighted system.

    The system is min <c,z> over Az = 0 with <w, z^-> <= 1, A the kernel
    representation of W; w_i may be None (infinite weight), which forbids
    decreasing coordinate i.  The optimal basic solution is reduced to a
    single circuit by conformal decomposition (choosing the term with the
    smallest cost/weight ratio) and cross-checked against an exhaustive scan
    over circuits.  A float weight raises TypeError, as in `vec`; a
    nonnegative optimum raises AlreadyOptimal.
    """
    cv = vec(c)
    A = W.kernel_rep
    n = A.cols
    finite = [i for i in range(n) if w[i] is not None]
    wz = vec(0 if wi is None else wi for wi in w)
    # variables: p (n increases), q (len(finite) decreases), slack r
    width = n + len(finite) + 1
    rows = [list(r) + [-r[i] for i in finite] + [Fraction(0)] for r in A.data]
    rows.append([Fraction(0)] * n + [wz[i] for i in finite] + [Fraction(1)])
    b = [Fraction(0)] * A.rows + [Fraction(1)]
    cost = list(cv) + [-cv[i] for i in finite] + [Fraction(0)]
    lp = LPInstance.standard(RatMatrix.from_rows(rows, cols=width), b, cost)

    def net(v):
        """p - q: the increases of v less its decreases."""
        g = list(v[:n])
        for pos, i in enumerate(finite):
            g[i] -= v[n + pos]
        return tuple(g)

    res = solve(lp)
    if res.status == UNBOUNDED:
        raise UnboundedDirection("weighted system is unbounded", ray=net(res.certificate))
    if res.status != OPTIMAL:
        raise InternalError("weighted circuit LP is infeasible")
    if res.objective >= 0:
        raise AlreadyOptimal("the weighted system has no negative circuit")
    best = _least(
        (ratio, _circuit(gint))
        for _, gint in conformal_decompose(W, net(res.x)).terms
        if (ratio := _cost_per_weight(cv, gint, wz)) is not None
    )
    if best is None:
        raise InternalError("negative optimum without negative term")
    # cross-oracle: exhaustive scan over oriented circuits
    scan = _least(
        (ratio, g)
        for g in oriented_circuits(W)
        if not any(g.vector[i] < 0 and w[i] is None for i in range(n))
        and (ratio := _cost_per_weight(cv, g.vector, wz)) is not None
    )
    scan = None if scan is None else scan[0]
    if scan != res.objective or best[0] != scan:
        raise AuditFailure(
            "ratio-circuit",
            0,
            f"scan ratio {scan}, LP optimum {res.objective}, chosen term {best[0]}",
        )
    return best[1]


def support_circuit(W: Subspace, c, x) -> ElementaryVector:
    """A circuit inside supp(x) with <c,g> <= 0, oriented to zero a coordinate."""
    cv = vec(c)
    xv = vec(x)
    supp = frozenset(i for i, v in enumerate(xv) if v != 0)
    inside = [
        (vec_dot(cv, g.vector), g) for g in oriented_circuits(W) if supp.issuperset(g.support)
    ]
    for cg, g in inside:
        if cg < 0 and min(g.vector) >= 0:
            raise UnboundedDirection("nonnegative circuit decreases cost", ray=g.vector)
    # A nonnegative circuit with <c,g> = 0 has nothing to zero; its flip covers it.
    best = _least((cg, g) for cg, g in inside if cg <= 0 and min(g.vector) < 0)
    if best is None:
        raise AlreadyBasic("supp(x) holds no circuit; x is a basic solution")
    return best[1]


def epsilon_of(A: RatMatrix, c, x, u=None) -> Fraction:
    """eps(x): minus the optimum of the steepness LP

        min <c, z>  over z >= 0 on the split columns of (A | -A) in N(x),
        with A z = 0 and 1^T z = 1,

    or 0 when N(x) is empty or the LP is infeasible.  Its basic optima are
    the circuits feasible at x scaled to 1-norm 1, so eps(x) is the largest
    slope -<c,g>/||g||_1 of such a circuit, and x is optimal exactly when
    eps(x) <= 0.  By LP duality eps(x) is also the least eps with
    <a_i, y> <= c_i + eps for some y over the split columns i in N(x); that
    dual is unbounded exactly when this LP is infeasible.
    """
    cv = vec(c)
    n = A.cols
    N = _residual_set(vec(x), u, n)
    if not N:
        return Fraction(0)
    rows = [[r[i] if i < n else -r[i - n] for i in N] for r in A.data]
    rows.append([Fraction(1)] * len(N))
    cost = [cv[i] if i < n else -cv[i - n] for i in N]
    res = solve(
        LPInstance.standard(RatMatrix.from_rows(rows, cols=len(N)), [0] * A.rows + [1], cost)
    )
    if res.status == INFEASIBLE:
        return Fraction(0)
    if res.status != OPTIMAL:
        raise InternalError("the steepness LP is unbounded")
    return -res.objective


def _default_cap(lp: LPInstance, W: Subspace) -> int:
    # 10 n^2 m kappa (log2(kappa + n) + 1), rounded up in exact integers
    kappa = math.ceil(W.measures.kappa)
    n = lp.n
    m = lp.A.rows
    return 1 + 10 * n * n * max(m, 1) * kappa * ((kappa + n).bit_length() + 1)


def run(lp: LPInstance, rule: str, cap: int | None = None, x0=None) -> AugmentationTrace:
    """Instrumented circuit walk under the given rule, from x0 or a phase-1 point.

    The walk's circuits are those of the live `Subspace` of ker(lp.A), so
    they are enumerated once for every walk while a caller holds it.
    """
    if rule not in (STEEPEST, DANTZIG, DEEPEST, RATIO, SUPPORT):
        raise BadParameters(f"run does not drive rule {rule!r}")
    if rule == RATIO and lp.u is not None and any(ui is not None for ui in lp.u):
        # The weighted system only prices decreases, so a coordinate parked
        # at its cap can stall the walk; the rule is for uncapped instances.
        raise BadParameters("the weighted rule needs an instance without upper bounds")
    if cap is not None and cap < 0:
        raise BadParameters(f"the iteration cap must be at least 0, got {cap}")
    W = Subspace.from_kernel_matrix(lp.A)
    u = lp.u
    if x0 is None:
        feas = solve(LPInstance(A=lp.A, b=lp.b, c=tuple(Fraction(0) for _ in range(lp.n)), u=u))
        if feas.status == INFEASIBLE:
            raise InfeasibleSystem(
                "no feasible starting point", certificate=feas.certificate
            )
        x = feas.x
    else:
        x = vec(x0)
        broken = lp.violation(x)
        if broken == "equations":
            raise BadParameters("starting point is not feasible")
        if broken == "upper":
            raise BadParameters("starting point violates an upper bound")
    x_start = x
    if cap is None:
        cap = _default_cap(lp, W)
    cv = vec(lp.c)
    obj = vec_dot(cv, x)
    steps = []
    epsilons = [] if rule == STEEPEST else None
    # The ratio rule's decay audit needs the optimum; the final check reuses it.
    ref = solve(lp) if rule == RATIO else None
    if ref is not None and ref.status == UNBOUNDED:
        raise UnboundedDirection("objective unbounded below", ray=ref.certificate)
    terminated = None
    while len(steps) < cap:
        try:
            if rule == STEEPEST:
                g, steep = steepest_direction(W, cv, x, u)
                epsilons.append(steep)
            elif rule == DANTZIG:
                g = dantzig_direction(W, cv, x, u)
            elif rule == DEEPEST:
                g, _alpha = deepest_direction(W, cv, x, u)
            elif rule == RATIO:
                wvec = tuple(None if xi == 0 else 1 / xi for xi in x)
                g = ratio_circuit(W, cv, wvec)
            else:
                g = support_circuit(W, cv, x)
        except AlreadyOptimal:
            terminated = "optimal"
            break
        except AlreadyBasic:
            terminated = "basic"
            break
        gv = g.vector
        alpha = maximal_step(x, gv, u)
        x_prev = x
        x = tuple(xi + alpha * gi for xi, gi in zip(x, gv))
        new_obj = vec_dot(cv, x)
        if rule == SUPPORT:
            if new_obj > obj:
                raise AuditFailure(SUPPORT, len(steps), "objective increased")
            before = sum(1 for v in x_prev if v != 0)
            after = sum(1 for v in x if v != 0)
            if after >= before:
                raise AuditFailure(SUPPORT, len(steps), "support did not shrink")
        elif new_obj >= obj:
            raise AuditFailure(rule, len(steps), "objective did not strictly decrease")
        if rule == RATIO and ref.objective is not None:
            gap_before = obj - ref.objective
            gap_after = new_obj - ref.objective
            if gap_after > (1 - Fraction(1, lp.n)) * gap_before:
                raise AuditFailure(
                    "ratio-decay", len(steps), f"{gap_after} > (1-1/n)*{gap_before}"
                )
        obj = new_obj
        steps.append(AugmentStep(direction=g, alpha=alpha, x_after=x, objective_after=obj))
    if terminated is None:
        terminated = "iteration-cap"
    if rule == STEEPEST:
        epsilons.append(epsilon_of(lp.A, cv, x, u))
    if terminated == "optimal":
        if ref is None:
            ref = solve(lp)
        if ref.status != OPTIMAL or ref.objective != obj:
            raise AuditFailure(
                "optimal-crosscheck",
                len(steps),
                f"walk stopped at {obj}, solver reports "
                f"{ref.objective if ref.status == OPTIMAL else ref.status}",
            )
    return AugmentationTrace(
        rule=rule,
        start=x_start,
        objective_start=vec_dot(cv, x_start),
        steps=tuple(steps),
        terminated=terminated,
        epsilons=tuple(epsilons) if epsilons is not None else None,
    )


def audit_trace(trace: AugmentationTrace, A: RatMatrix, *, u=None) -> AuditReport:
    """Check the steepest-descent decay statements exactly on a finished trace.

    The epsilons checked are those `run` recorded, one per iterate.  `u` is
    keyword-only, so a stray positional cost vector cannot be read as bounds."""
    if trace.rule != STEEPEST:
        raise BadParameters("audit_trace expects a steepest-descent trace")
    if trace.epsilons is None or len(trace.epsilons) != len(trace.steps) + 1:
        raise BadParameters("audit_trace expects one recorded epsilon per iterate")
    eps = trace.epsilons
    n = A.cols
    m = A.rows
    kappa = Subspace.from_kernel_matrix(A).measures.kappa
    factor = 1 - 1 / (1 + (m - 1) * Fraction(kappa))
    for t in range(len(eps) - 1):
        if eps[t + 1] > eps[t]:
            raise AuditFailure("epsilon-monotone", t, f"{eps[t + 1]} > {eps[t]}")
    windows = 0
    for t in range(len(eps) - n):
        if eps[t + n] > factor * eps[t]:
            raise AuditFailure(
                "epsilon-window-decay", t, f"{eps[t + n]} > {factor} * {eps[t]}"
            )
        windows += 1
    # feasibility and maximality of every recorded step
    prev = trace.start
    for t, step in enumerate(trace.steps):
        gv = step.direction.vector
        expect = tuple(xi + step.alpha * gi for xi, gi in zip(prev, gv))
        if expect != step.x_after:
            raise AuditFailure("step-consistency", t, "iterate does not match step data")
        if any(v < 0 for v in step.x_after):
            raise AuditFailure("feasibility", t, "negative coordinate")
        if u is not None and any(
            ui is not None and v > ui for v, ui in zip(step.x_after, u)
        ):
            raise AuditFailure("feasibility", t, "upper bound violated")
        if not any(_blocked(step.x_after, u, i, gi) for i, gi in enumerate(gv)):
            raise AuditFailure("maximal-step", t, "no new tight constraint")
        prev = step.x_after
    freezing = []
    iterates = trace.iterates()
    for i in range(n):
        for kind, level in (("zero", Fraction(0)), ("upper", None)):
            if kind == "upper":
                if u is None or u[i] is None:
                    continue
                level = u[i]
            at = [it[i] == level for it in iterates]
            if at[-1]:
                first = len(at) - 1
                while first > 0 and at[first - 1]:
                    first -= 1
                if first < len(at) - 1:
                    freezing.append((i, first, kind))
    return AuditReport(
        steps=len(trace.steps),
        epsilon_monotone_checks=len(eps) - 1,
        window_decay_checks=windows,
        decay_factor=factor,
        freezing=tuple(freezing),
    )


def guided_walk(lp: LPInstance, x_start, x_target) -> AugmentationTrace:
    """Walk to a basic solution along conformal pieces of the remaining gap.

    Each step decomposes x_target - x conformally, picks the term with the
    largest mass on the non-basic coordinates, and steps maximally.  The
    step length in units of the chosen term must land in [1, n].  The
    circuits are those of the live `Subspace` of ker(lp.A), as in `run`.
    """
    A = lp.A
    u = lp.u
    n = A.cols
    x = vec(x_start)
    xt = vec(x_target)
    if lp.violation(x):
        raise BadParameters("x_start is not feasible")
    if lp.violation(xt):
        raise TargetNotBasic("x_target is not feasible")
    supp = tuple(i for i, v in enumerate(xt) if v != 0)
    B = greedy_basis(A, supp + tuple(i for i, v in enumerate(xt) if v == 0))
    if B[: len(supp)] != supp:
        raise TargetNotBasic("support columns of x_target are dependent")
    Bset = set(B)
    W = Subspace.from_kernel_matrix(A)
    cost = tuple(Fraction(0) if i in Bset else Fraction(1) for i in range(n))
    off_basis = [i for i in range(n) if i not in Bset]
    obj = vec_dot(cost, x)
    steps = []
    while x != xt:
        diff = tuple(ti - xi for ti, xi in zip(xt, x))
        # Conformal terms are distinct circuits, so each has one coefficient.
        coeffs = {gint: coeff for coeff, gint in conformal_decompose(W, diff).terms}
        score, g = _least(
            (-coeff * sum(abs(gint[i]) for i in off_basis), _circuit(gint))
            for gint, coeff in coeffs.items()
        )
        coeff, mass = coeffs[g.vector], -score
        h = tuple(coeff * v for v in g.vector)
        alpha = maximal_step(x, h, u)
        if not (1 <= alpha <= n):
            raise AuditFailure("guided-step-range", len(steps), f"alpha = {alpha}")
        x = tuple(xi + alpha * hi for xi, hi in zip(x, h))
        new_obj = vec_dot(cost, x)
        if mass > 0 and new_obj >= obj:
            raise AuditFailure("guided-decrease", len(steps), "||x_N||_1 did not drop")
        obj = new_obj
        steps.append(
            AugmentStep(
                direction=g,
                alpha=alpha * coeff,
                x_after=x,
                objective_after=obj,
            )
        )
        if len(steps) > 4 * n * n * (n + 2):
            raise InternalError("guided walk failed to converge")
    return AugmentationTrace(
        rule=GUIDED,
        start=vec(x_start),
        objective_start=vec_dot(cost, vec(x_start)),
        steps=tuple(steps),
        terminated="target-reached",
    )
