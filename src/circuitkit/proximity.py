"""Hoffman-type proximity bounds with exact verification.

Every bound computed here is also checked, and a conclusion that fails its
check raises AuditFailure instead of returning quietly.  Each check proves
only what is claimed, from the witness already held where that suffices.
`_certified_optimum` solves LP(W, d, c) and certifies its optimum: the
point is in the region (`LPInstance.violation`), and its dual's reduced
costs are >= 0, complementary to it, with equal objectives, checked in
one integer pass over common-denominator vectors.  The Hoffman
witnesses report the distance to the nearest optimum (`_nearest_on_face`),
an LP over the columns of zero reduced cost with no face row, started from
the certified vertex with no phase 1; a face whose kept columns are
independent (an exact rank of the LP's rows, never a reading of a simplex
basis) is that one vertex, and an anchor in the region of cost 0 is its
own nearest optimum, with no solve.  The transfer bound claims only that
some optimum lies within it.  When the zero-cost face of LP(W, d, s) is
one point (`_zero_cost_face`: one integer elimination), that point is
the optimum, certified by the dual y = 0, with no solve; otherwise it
solves and certifies LP(W, d, s), and runs the nearest-point LP only when
the certified optimum is farther.  The fixing sets optimize each claimed coordinate by
the tie-break stage of `lp.solve` on the second cost's LP, started from
its optimum, which is solved from x1 when x1 is a vertex, and a face solve
that is not optimal is an InternalError; with no claim and every bound
finite they solve nothing.  The black-box feasibility solver at the bottom
composes the same pieces with a simulated approximate oracle whose error
budget is rational and seed-deterministic.

LP(W, d, c) throughout means: minimize <c, x> over x in W + d, x >= 0,
built in one place, `LPInstance.from_subspace`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt, lcm
from operator import mul, sub
from typing import NamedTuple

from .errors import (
    AuditFailure,
    BadParameters,
    DimensionMismatch,
    InfeasibleSystem,
    InternalError,
    NegativeCost,
    NotOptimalPair,
    OracleInfeasible,
    UnboundedDirection,
)
from .lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPInstance, solve
from .ratmat import (
    RatMatrix,
    Vec,
    _gauss_jordan,
    _int_rows,
    as_fraction,
    neg_part,
    norm1,
    norm2_sq,
    over_common_den,
    rank,
    vec,
    vec_add,
    vec_dot,
    vec_sub,
    vec_zero,
)
from .subspace import Subspace, lift_min_norm, minor


class ProximityWitness(NamedTuple):
    """A feasible (or optimal) point together with its distance guarantee.

    `slack` is bound minus the attained sup-norm distance, so nonnegative
    slack is the bound holding exactly.
    """

    point: Vec
    bound: Fraction
    slack: Fraction

    @property
    def distance(self) -> Fraction:
        return self.bound - self.slack


class ApxSolution(NamedTuple):
    """Output of the simulated approximate solver.

    x_tilde lies in W + d exactly; the two approximation constraints
    (cost within epsilon*|c|*|d| of optimal, negative part at most
    epsilon*|d| in Euclidean norm) are certified by squared-norm
    comparisons before this object is built.
    """

    x_tilde: Vec
    epsilon: Fraction
    seed: int


def lambda_set(d, c) -> tuple[int, ...]:
    """supp(d^-) union supp(c^+)."""
    d = vec(d)
    c = vec(c)
    if len(d) != len(c):
        raise DimensionMismatch("d and c length mismatch")
    out = {i for i, x in enumerate(d) if x < 0}
    out |= {i for i, x in enumerate(c) if x > 0}
    return tuple(sorted(out))


def _nearest_point(rows, b, anchor, vertex, K):
    """Exact minimization of ||x - anchor|| over Ax = b, x >= 0 and x_j = 0
    off the ascending columns K: the sup-norm distance tau, then the 1-norm
    among points attaining it.  Returns (x, tau).

    The LP is written over the kept columns K alone.  A deleted coordinate
    is 0, so it adds the constant |anchor_j| to the 1-norm and puts the
    floor F = max |anchor_j| over the deleted j under tau.  One
    lexicographic solve over (x_K, r, s, w, tau), and z when a column is
    deleted: the rows on K, then x_i - r_i + s_i = anchor_i and
    r_i + s_i + w_i - tau = 0 for i in K, then tau - z = F; objective tau,
    tie-break sum(r + s).  `vertex` is a vertex of the region, 0 off K,
    that the caller has just solved for.  The solve starts from the crash
    point (vertex_K, dev^+, dev^-, tau - |dev|, tau, tau - F) with
    dev = vertex_K - anchor_K and tau = max(max |dev|, F), whose support
    is independent: the vertex fixes its own coordinates, each deviation
    row then fixes r_i or s_i, the cap row of largest deviation (or the
    floor row) fixes tau and the other cap rows fix w_i (and z).  The
    region is therefore nonempty, so a result that is not optimal is an
    InternalError, as is a point failing its re-verification against the
    full rows.  `rows`, each n wide, `b` and `anchor` hold Fractions, as
    the callers' vectors do.
    """
    zero, one = Fraction(0), Fraction(1)
    n = len(anchor)
    k = len(K)
    kept = set(K)
    off = [abs(anchor[j]) for j in range(n) if j not in kept]
    floor = max(off, default=zero)
    cut = 1 if off else 0  # the z column and the floor row
    width = 4 * k + 1 + cut
    # Every row below is `width` wide by construction, so the matrix is
    # built without the per-entry pass of RatMatrix.from_rows; the
    # structural entries are the ints 0 and +-1, which the simplex reads
    # as they are, and the padding is one shared zero.
    pad = (0,) * (width - k)
    ext_rows = [(*(row[j] for j in K), *pad) for row in rows]
    ext_b = list(b)
    for i, j in enumerate(K):
        dev, cap = [0] * width, [0] * width
        dev[i], dev[k + i], dev[2 * k + i] = 1, -1, 1
        cap[k + i] = cap[2 * k + i] = cap[3 * k + i] = 1
        cap[4 * k] = -1
        ext_rows += [tuple(dev), tuple(cap)]
        ext_b += [anchor[j], 0]
    if cut:
        ext_rows.append((*(0,) * (4 * k), 1, -1))
        ext_b.append(floor)
    tau_cost = (0,) * (4 * k) + (1,) + (0,) * cut
    l1_cost = (zero,) * k + (one,) * (2 * k) + (zero,) * (k + 1 + cut)
    dev = [vertex[j] - anchor[j] for j in K]
    top = max((floor, *map(abs, dev)))
    start = [
        *(vertex[j] for j in K),
        *(max(v, zero) for v in dev),
        *(max(-v, zero) for v in dev),
        *(top - abs(v) for v in dev),
        top,
        *[top - floor] * cut,
    ]
    lp = LPInstance(RatMatrix(data=tuple(ext_rows), cols=width), tuple(ext_b), tau_cost)
    res = solve(lp, tiebreak=l1_cost, start=start)
    if res.status != OPTIMAL:
        raise InternalError(f"nearest-point LP of a nonempty region is {res.status}")
    # The re-verification in integers: the solution is X / q, the anchor
    # P / qa, and gap = L (x_K - anchor_K) with L = lcm(q, qa).  Off K, x is
    # 0, so those coordinates put the floor under tau and add norm1(off) to
    # both sides of the 1-norm equation, which leaves sum |gap| = L sum(r + s).
    tau = res.objective
    X, q = over_common_den(res.x)
    P, qa = over_common_den(anchor)
    L = lcm(q, qa)
    gap = [X[i] * (L // q) - P[j] * (L // qa) for i, j in enumerate(K)]  # L (x_K - anchor_K)
    far = max((floor.numerator * (L // floor.denominator), *map(abs, gap)))  # L tau
    if (
        min(X[:k], default=0) < 0
        or any(vec_dot([row[j] for j in K], X[:k]) != bi * q for row, bi in zip(rows, b))
        or far * tau.denominator != tau.numerator * L
        or sum(map(abs, gap)) * q != sum(X[k : 3 * k]) * L
    ):
        raise InternalError("nearest point fails its re-verification")
    x = [zero] * n
    for j, v in zip(K, res.x):
        x[j] = v
    return tuple(x), tau


def _independent(A: RatMatrix, cols) -> bool:
    """Whether the columns `cols` of A are linearly independent: an exact
    rank of A's own rows, not a reading of any simplex basis."""
    return len(cols) <= A.rows and rank(A.take_cols(cols)) == len(cols)


def _sup_dist(x: Vec, anchor: Vec) -> Fraction:
    """max |x_i - anchor_i|, from one integer pass over a common denominator."""
    V, q = over_common_den((*x, *anchor))
    n = len(x)
    return Fraction(max(map(abs, map(sub, V[:n], V[n:])), default=0), q)


def _scaled_reduced_costs(A: RatMatrix, c: Vec, y: Vec) -> tuple[list, int]:
    """(R, M) with R = M (c - A^T y) integers and M > 0, so that R carries
    the signs and zeros of the reduced costs: one integer pass over A's
    rows P_i / a_i (`ratmat._int_rows`), y = Y / q_y and c = C / q_c, with
    M = q_c q_y lcm(a_i).  A y of the wrong length is a DimensionMismatch."""
    if len(y) != A.rows:
        raise DimensionMismatch("vecmat height mismatch")
    P, scales = _int_rows(A.data)
    a = lcm(*scales)
    Y, qy = over_common_den(y)
    Ya = [v * (a // s) for v, s in zip(Y, scales)]  # A^T y = P^T Ya / (q_y a)
    C, qc = over_common_den(c)
    cols = zip(*P) if P else ((),) * A.cols
    return [cj * qy * a - qc * sum(map(mul, col, Ya)) for cj, col in zip(C, cols)], qc * qy * a


def _certified_optimum(lp: LPInstance):
    """Solve LP(W, d, c) and certify its optimum x: x is in the region
    (`LPInstance.violation`), and rc = c - A^T y has rc >= 0, rc x = 0 and
    c x = b y, else InternalError.  Returns (x, K), K the ascending columns
    of zero reduced cost: by complementary slackness the optimal face is
    {x >= 0 : A x = b, x_j = 0 off K}.  An infeasible LP raises
    InfeasibleSystem with its certificate; every caller has c >= 0, which is
    dual feasible, so an unbounded LP is an InternalError.  The reduced
    costs are the integers M rc of `_scaled_reduced_costs`, so rc >= 0 and
    rc x = 0 are read off one integer pass, and each dot product is one
    `ratmat.vec_dot`.
    """
    res = solve(lp)
    if res.status == INFEASIBLE:
        raise InfeasibleSystem("no nonnegative point in W + d", certificate=res.certificate)
    if res.status != OPTIMAL:
        raise InternalError("LP(W, d, c) with c >= 0 is unbounded")
    R, _ = _scaled_reduced_costs(lp.A, lp.c, res.y)
    if min(R, default=0) < 0 or vec_dot(R, res.x) or vec_dot(lp.c, res.x) != vec_dot(lp.b, res.y):
        raise InternalError("the dual of LP(W, d, c) fails its optimality certificate")
    if lp.violation(res.x) is not None:
        raise InternalError("the optimum of LP(W, d, c) is not in its region")
    return res.x, [j for j, v in enumerate(R) if v == 0]


def _zero_cost_face(W: Subspace, d: Vec, s: Vec, lp: LPInstance):
    """The optimum of LP(W, d, s), s >= 0, when the zero-cost face
    {x >= 0 in W + d : x_j = 0 where s_j > 0} is one point: (x, K) as
    `_certified_optimum` returns it, with K = Z = {j : s_j = 0}, else None.

    x is in W + d exactly when G x = G d for the integer rows G of W-perp
    (`Subspace.int_kernel_rows`).  With d = D / q for an integer vector D,
    one fraction-free `ratmat._gauss_jordan` pass over the integer rows
    [G_Z | G D] decides the face: columns Z that are dependent leave it a
    segment or more, a nonzero right-hand side on a row with no pivot
    leaves it empty, and otherwise its one candidate is x_Z = q^-1 times the
    solution of G_Z u = G D.  A negative entry leaves the face empty.  Each
    of these returns None, and the caller solves the LP.  The point is
    optimal with the dual y = 0: its reduced costs are s >= 0, and s x = 0
    since x is 0 off Z.  It must pass the region test
    (`LPInstance.violation`), else InternalError.
    """
    G = W.int_kernel_rows
    Z = [j for j, v in enumerate(s) if v == 0]
    k = len(Z)
    if k > len(G):
        return None
    D, q = over_common_den(d)
    rows = [[*(g[j] for j in Z), sum(map(mul, g, D))] for g in G]
    T, det, pivots, _ = _gauss_jordan(rows, range(k))
    if len(pivots) < k or any(row[k] for row in T[k:]) or any(row[k] < 0 for row in T[:k]):
        return None
    x = [Fraction(0)] * len(d)
    for j, row in zip(Z, T):
        x[j] = Fraction(row[k], det * q)
    x = tuple(x)
    if lp.violation(x) is not None:
        raise InternalError("the zero-cost face point of LP(W, d, s) is not in its region")
    return x, Z


def _nearest_on_face(lp: LPInstance, x: Vec, K, anchor: Vec):
    """The point of the optimal face of `lp` nearest to `anchor`, (x, tau)
    as `_nearest_point` returns it, from `_certified_optimum`'s (x, K).  If
    the columns K are independent, A_K x_K = b has one solution, so the face
    is the point x, with no LP.  Otherwise the nearest-point LP runs over K
    from x, and its point is checked to cost c x.
    """
    if _independent(lp.A, K):
        return x, _sup_dist(x, anchor)
    near, tau = _nearest_point(lp.A.data, lp.b, anchor, x, K)
    if vec_dot(lp.c, near) != vec_dot(lp.c, x):
        raise InternalError("nearest optimum fails its re-verification: its cost is not optimal")
    return near, tau


def _nearest_optimum(W: Subspace, d: Vec, c: Vec, anchor: Vec):
    """The optimum of LP(W, d, c) nearest to `anchor`: (x, tau), the
    certified optimum of `_certified_optimum`, then `_nearest_on_face`.
    An anchor in the region (`LPInstance.violation`) of cost 0 under c >= 0
    is optimal and is its own nearest point: (anchor, 0), with no solve.
    """
    lp = LPInstance.from_subspace(W, d, c)
    if all(v >= 0 for v in c) and vec_dot(c, anchor) == 0 and lp.violation(anchor) is None:
        return anchor, Fraction(0)
    return _nearest_on_face(lp, *_certified_optimum(lp), anchor)


def hoffman_feasibility_witness(W: Subspace, d) -> ProximityWitness:
    """A feasible x in W + d, x >= 0 with ||x - d||_inf <= kappa * ||d^-||_1.

    The point minimizes the sup-norm distance to d (1-norm tie-break), so
    the returned slack is the sharpest possible for this subspace and shift.
    """
    d = vec(d)
    if len(d) != W.ambient_dim:
        raise DimensionMismatch("shift vector length mismatch")
    x, tau = _nearest_optimum(W, d, vec_zero(len(d)), d)
    bound = W.measures.kappa * norm1(neg_part(d))
    if tau > bound:
        raise AuditFailure("hoffman-feasibility", detail=f"distance {tau} exceeds bound {bound}")
    return ProximityWitness(point=x, bound=bound, slack=bound - tau)


def hoffman_opt_witness(W: Subspace, d, c) -> ProximityWitness:
    """An optimal x for LP(W, d, c) with ||x - d||_inf <= kappa * ||d_L||_1,
    L the index set from lambda_set.  Requires c >= 0."""
    d = vec(d)
    c = vec(c)
    if len(d) != W.ambient_dim or len(c) != W.ambient_dim:
        raise DimensionMismatch("vector length mismatch")
    if any(ci < 0 for ci in c):
        raise NegativeCost("the optimality bound needs a nonnegative cost")
    x, tau = _nearest_optimum(W, d, c, d)
    bound = W.measures.kappa * norm1([d[i] for i in lambda_set(d, c)])
    if tau > bound:
        raise AuditFailure("hoffman-optimality", detail=f"distance {tau} exceeds bound {bound}")
    return ProximityWitness(point=x, bound=bound, slack=bound - tau)


def transfer_bound(W: Subspace, x_tilde, s, d) -> tuple[Fraction, tuple[int, ...]]:
    """Carry optimality from anchor x_tilde to shift d.

    Given (x_tilde, s) forming an optimal pair for LP(W, x_tilde, s) --
    which is exactly x_tilde >= 0, s >= 0, <x_tilde, s> = 0 -- returns

        bound = (kappa + 1) * ||proj_{W-perp}(d - x_tilde)||_1
        R     = {i : x_tilde_i > bound}

    and verifies both conclusions against LP(W, d, s) with one optimum x*
    within `bound` of x_tilde in sup-norm: x_tilde itself when it is in the
    region (it costs 0).  Else the optimum is the one point of the zero-cost
    face {x >= 0 in W + d : x_j = 0 where s_j > 0} when that face is one
    point (`_zero_cost_face`), certified by the dual y = 0, whose reduced
    costs are s >= 0 with s x* = 0; else it is LP(W, d, s)'s certified
    optimum (`_certified_optimum`).  That optimum is x* when near enough,
    else the nearest optimum (`_nearest_on_face`), an AuditFailure when
    farther than `bound`.  Then x*_i >= x_tilde_i - bound > 0 on R, checked
    (else InternalError), and complementary slackness, x*_i s*_i = 0 for
    every dual optimum s*, shows that each s* vanishes on R.
    """
    xt = vec(x_tilde)
    sv = vec(s)
    dv = vec(d)
    n = W.ambient_dim
    if len(xt) != n or len(sv) != n or len(dv) != n:
        raise DimensionMismatch("vector length mismatch")
    if any(v < 0 for v in xt) or any(v < 0 for v in sv) or vec_dot(xt, sv) != 0:
        raise NotOptimalPair("need x >= 0, s >= 0 and <x, s> = 0")
    kappa = W.measures.kappa
    bound = (kappa + 1) * norm1(W.project_onto_perp(vec_sub(dv, xt)))
    R = tuple(i for i in range(n) if xt[i] > bound)

    lp = LPInstance.from_subspace(W, dv, sv)
    x_star = xt
    if lp.violation(xt) is not None:
        x_star, keep = _zero_cost_face(W, dv, sv, lp) or _certified_optimum(lp)
        if _sup_dist(x_star, xt) > bound:
            x_star, tau = _nearest_on_face(lp, x_star, keep, xt)
            if tau > bound:
                detail = f"nearest optimal at {tau}, bound {bound}"
                raise AuditFailure("transfer-primal", detail=detail)
    if any(x_star[i] <= 0 for i in R):
        raise InternalError("an optimum within the transfer bound is not positive on R")
    return bound, R


def fixing_sets_bounds(A, b, u, c1, c2, x1, y1) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Variables forced to their bounds after a cost change.

    (x1, y1) must be an optimal primal-dual pair for min <c1, x>, Ax = b,
    0 <= x <= u.  With kappa of ker(A), t = (kappa + 1) * ||c1 - c2||_1 and
    the reduced costs rc = c1 - A^T y1,

        R0 = {i : rc_i > t}      (x_i = 0 in every c2-optimum)
        Ru = {i : rc_i < -t}     (x_i = u_i in every c2-optimum)

    The pair test and both sets read the integers M rc of
    `_scaled_reduced_costs` against M t.  When both sets are empty and
    every u_i is finite, nothing is left to verify and no LP is solved: x1
    has passed the region test, so the region is a nonempty polytope and
    c2 has an optimum.  Otherwise both
    conclusions are verified by optimizing each coordinate over the exact
    c2-optimal face: the tie-break stage of `lp.solve` on the c2 LP,
    started from its optimum.  That optimum is solved from x1, with no
    phase 1, when x1 is a vertex: the columns of its free set
    {i : 0 < x1_i < u_i} are independent, by an exact rank of A.  Otherwise,
    and again when c2 is unbounded, so that the ray is the one phase 1
    reaches, it is solved cold.  R0 and Ru come from (x1, y1) and each
    face value is unique, so the start moves no output.
    """
    A = A if isinstance(A, RatMatrix) else RatMatrix.from_rows(A)
    lp1 = LPInstance.bounded(A, b, c1, u)
    c2 = vec(c2)
    if len(c2) != lp1.n:
        raise DimensionMismatch("LP data shapes disagree")
    x1 = vec(x1)
    broken = lp1.violation(x1)
    if broken == "equations":
        raise NotOptimalPair("x1 is not feasible")
    if broken == "upper":
        raise NotOptimalPair("x1 violates an upper bound")
    u = lp1.u
    rc, M = _scaled_reduced_costs(A, lp1.c, vec(y1))  # M (c1 - A^T y1)
    for i, r in enumerate(rc):
        if r < 0 and (u[i] is None or x1[i] < u[i]):
            raise NotOptimalPair(f"dual slack negative at {i} with x below its bound")
        if r > 0 and x1[i] > 0:
            raise NotOptimalPair(f"dual surplus at {i} with x positive")

    kappa = Subspace.from_kernel_matrix(A).measures.kappa
    t = M * (kappa + 1) * norm1(vec_sub(lp1.c, c2))
    R0 = tuple(i for i, r in enumerate(rc) if r > t)
    Ru = tuple(i for i, r in enumerate(rc) if r < -t)
    if not R0 and not Ru and None not in u:
        return R0, Ru

    lp2 = LPInstance(A, lp1.b, c2, u)
    free = [i for i, v in enumerate(x1) if v > 0 and (u[i] is None or v < u[i])]
    warm = _independent(A, free)
    res2 = solve(lp2, start=x1 if warm else None)
    if warm and res2.status == UNBOUNDED:
        res2 = solve(lp2)
    if res2.status == INFEASIBLE:
        raise InfeasibleSystem("region became empty", certificate=res2.certificate)
    if res2.status == UNBOUNDED:
        raise UnboundedDirection("second cost is unbounded below", ray=res2.certificate)
    # max x_i (tie-break -x_i) must be 0 on R0, min x_i (tie-break x_i) u_i on Ru
    checks = [(i, -1, 0, "max", "fixing-zero") for i in R0]
    checks += [(i, 1, u[i], "min", "fixing-upper") for i in Ru]
    for i, sense, want, word, prop in checks:
        e = [Fraction(0)] * lp2.n
        e[i] = Fraction(sense)
        res = solve(lp2, tiebreak=e, start=res2.x)
        if res.status != OPTIMAL:
            raise InternalError(f"{word} x_{i} over the optimal face is not optimal")
        if res.x[i] != want:
            raise AuditFailure(prop, detail=f"{word} x_{i} over the face is {res.x[i]}")
    return R0, Ru


def apx_oracle(W: Subspace, d, c, epsilon, seed: int) -> ApxSolution:
    """Solve LP(W, d, c) exactly, then perturb inside W + d within budget.

    The perturbation direction is a seeded integer combination of the span
    rows; its scale lambda is the rational floor of the square root of half
    the norm budget, so both approximation constraints hold exactly and the
    output is identical for identical seeds.
    """
    d = vec(d)
    c = vec(c)
    n = W.ambient_dim
    if len(d) != n or len(c) != n:
        raise DimensionMismatch("vector length mismatch")
    epsilon = as_fraction(epsilon)
    if epsilon < 0:
        raise BadParameters("epsilon must be nonnegative")
    res = solve(LPInstance.from_subspace(W, d, c))
    if res.status == INFEASIBLE:
        raise InfeasibleSystem("no nonnegative point in W + d", certificate=res.certificate)
    if res.status == UNBOUNDED:
        raise UnboundedDirection("objective unbounded below", ray=res.certificate)
    opt = res.objective
    x_star = res.x
    d_sq = norm2_sq(d)
    if epsilon == 0 or d_sq == 0 or W.span_rep.rows == 0:
        return ApxSolution(x_tilde=x_star, epsilon=epsilon, seed=seed)

    rng = random.Random(seed)
    coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(W.span_rep.rows)]
    w = W.span_rep.vecmat(coeffs)
    w_sq = norm2_sq(w)
    if w_sq == 0:
        return ApxSolution(x_tilde=x_star, epsilon=epsilon, seed=seed)
    rho = (epsilon / 2) ** 2 * d_sq / w_sq
    lam = Fraction(isqrt(rho.numerator * rho.denominator), rho.denominator)
    x_tilde = vec_add(x_star, tuple(lam * wi for wi in w))

    c_sq = norm2_sq(c)
    excess = vec_dot(c, x_tilde) - opt
    if excess > 0 and excess * excess > epsilon * epsilon * c_sq * d_sq:
        raise AuditFailure("apx-cost", detail=f"cost excess {excess} beyond budget")
    if norm2_sq(neg_part(x_tilde)) > epsilon * epsilon * d_sq:
        raise AuditFailure("apx-negative", detail="negative part beyond budget")
    return ApxSolution(x_tilde=x_tilde, epsilon=epsilon, seed=seed)


def _feasibility_rec(W: Subspace, d: Vec, eps: Fraction, seed: int, depth: int, budget: int) -> Vec:
    n = W.ambient_dim
    d = W.project_onto_perp(d)
    if all(v == 0 for v in d):
        return vec_zero(n)
    try:
        apx = apx_oracle(W, d, vec_zero(n), eps, seed + depth)
    except InfeasibleSystem as exc:
        raise OracleInfeasible("the oracle reports W + d misses the nonnegative orthant") from exc
    xt = apx.x_tilde
    if all(v >= 0 for v in xt):
        return xt
    kappa = W.measures.kappa
    neg_sq = norm2_sq(neg_part(xt))
    I = [i for i in range(n) if xt[i] >= 0 and xt[i] * xt[i] >= kappa * kappa * neg_sq]
    if I and budget > 0:
        J = [i for i in range(n) if i not in I]
        WJ = minor(W, J, "project")
        z = _feasibility_rec(WJ, vec(d[j] for j in J), eps, seed, depth + 1, budget - 1)
        p = vec_sub(z, vec(xt[j] for j in J))
        x = vec_add(xt, lift_min_norm(W, J, p))
        if all(v >= 0 for v in x):
            if W.kernel_rep.matvec(x) != W.kernel_rep.matvec(d):
                raise InternalError("lifted point left W + d")
            return x
    # No coordinate is confidently large, the recursion allowance is spent,
    # or the lift overshot a coordinate in I (the simplified recursion does
    # not enforce the proximity condition that rules this out): fall back to
    # the exact solve the oracle already proved feasible.
    res = solve(LPInstance.from_subspace(W, d, vec_zero(n)))
    if res.status != OPTIMAL:
        raise InternalError("exact fallback LP is infeasible though the oracle found a point")
    return res.x


def feasibility_simplified(W: Subspace, d, epsilon=None, seed: int = 0) -> Vec:
    """Find x in W + d with x >= 0 through recursive projection.

    Each level asks the approximate oracle for a near-feasible point, keeps
    the coordinates that are provably positive in some exact solution,
    projects them out, recurses, and lifts the recursive answer back.  The
    output is exactly feasible; recursion depth never exceeds the
    codimension of W.  epsilon defaults to 1/(kappa_bar + n)^3 and may not
    exceed that ceiling.
    """
    d = vec(d)
    n = W.ambient_dim
    if len(d) != n:
        raise DimensionMismatch("shift vector length mismatch")
    kappa_bar = W.measures.kappa_bar
    ceiling = Fraction(1, (kappa_bar + n) ** 3)
    eps = ceiling if epsilon is None else as_fraction(epsilon)
    if eps < 0 or eps > ceiling:
        raise BadParameters(f"epsilon must lie in [0, {ceiling}]")
    return _feasibility_rec(W, d, eps, seed, 0, max(W.codim, 0))
