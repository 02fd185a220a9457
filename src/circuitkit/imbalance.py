"""Circuit imbalance measures of a rational subspace.

Three exact measures are computed from the enumerated circuits:

* kappa      -- largest |g_j / g_i| over circuits g and i, j in the support
* kappa_dot  -- lcm of the entries of the gcd-normalized circuit vectors
* kappa_bar  -- largest absolute entry of a normalized circuit vector

plus the optimal-rescaling value kappa_star (the largest geometric mean of a
cycle of the circuit ratio digraph, found by Karp's maximum-mean-cycle
algorithm on the integer pair maxima, per component of the subspace), a
rescaled-total-unimodularity decision procedure, and two floating-point
estimators (spectral norm analogue, minimum principal angle) that are this
package's only inexact paths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    BadParameters,
    CircuitKitError,
    InternalError,
    RankDeficient,
    SeparableInput,
)
from .ratmat import (
    RatMatrix,
    Vec,
    bareiss_det,
    basis_form,
    check_desk_scale,
    fraction_nth_root,
    integer_normalize,
    rank,
    rref,
    rref_nonzero,
    solve_linear,
    vec,
)
from .subspace import Subspace, components, is_separable


@dataclass(frozen=True)
class MeasureWitnesses:
    """Certificates for each measure.

    kappa: (circuit, (i, j)) attaining the ratio; kappa_bar: (circuit, j)
    attaining the max entry; kappa_dot: per prime power p^a || kappa_dot,
    a (p, a, circuit, j) with p^a dividing entry j of that circuit.
    """

    kappa: tuple | None
    kappa_bar: tuple | None
    kappa_dot: tuple = ()


@dataclass(frozen=True)
class ImbalanceReport:
    kappa: Fraction
    kappa_dot: int
    kappa_bar: int
    witnesses: MeasureWitnesses


def _prime_factors(x: int) -> dict:
    out = {}
    d = 2
    while d * d <= x:
        while x % d == 0:
            out[d] = out.get(d, 0) + 1
            x //= d
        d += 1
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def imbalances(W: Subspace) -> ImbalanceReport:
    """All three measures with verifiable witnesses.

    Trivial subspaces ({0} and R^n) have no ratio structure: all measures 1.
    """
    circuits = W.circuit_list
    if not circuits:
        return ImbalanceReport(Fraction(1), 1, 1, MeasureWitnesses(None, None))
    best_ratio = Fraction(0)
    ratio_wit = None
    best_entry = 0
    entry_wit = None
    acc = 1
    for ev in circuits:
        # The first smallest |entry| over the first largest one is the first
        # pair (i, j), i outer, to reach this circuit's largest ratio.
        mags = [abs(ev.vector[j]) for j in ev.support]
        i = ev.support[mags.index(min(mags))]
        j = ev.support[mags.index(max(mags))]
        r = ev.ratio(i, j)
        if r > best_ratio:
            best_ratio, ratio_wit = r, (ev, (i, j))
        for j in ev.support:
            if abs(ev.vector[j]) > best_entry:
                best_entry, entry_wit = abs(ev.vector[j]), (ev, j)
        acc = math.lcm(acc, ev.entries_lcm())
    dot_wits = []
    for p, a in sorted(_prime_factors(acc).items()):
        pa = p**a
        found = next(
            (ev, j)
            for ev in circuits
            for j in ev.support
            if ev.vector[j] % pa == 0
        )
        dot_wits.append((p, a, found[0], found[1]))
    return ImbalanceReport(
        kappa=best_ratio,
        kappa_dot=acc,
        kappa_bar=best_entry,
        witnesses=MeasureWitnesses(ratio_wit, entry_wit, tuple(dot_wits)),
    )


def _basis_forms(A: RatMatrix):
    """A_B^{-1} A for every nonsingular basis B, in lexicographic order of B.

    The desk-scale check runs on the call, before the first form is asked for.
    """
    m, n = A.shape
    check_desk_scale(n, "basis enumeration")
    return (
        basis_form(A, B)
        for B in itertools.combinations(range(n), m)
        if bareiss_det(A.take_cols(B)) != 0
    )


def kappa_via_basis_forms(A: RatMatrix) -> Fraction:
    """max over nonsingular bases B of the largest |entry| of A_B^{-1} A.

    Independent route to kappa(ker A); must agree with the circuit route.
    """
    if rank(A) != A.rows:
        raise RankDeficient("basis-form scan needs a full row rank matrix")
    best = Fraction(0)
    for M in _basis_forms(A):
        best = max(best, max(abs(x) for r in M.data for x in r))
    if best == 0:
        raise RankDeficient("no nonsingular basis found")
    return best


@dataclass
class CircuitRatioDigraph:
    """Complete digraph on the ground set with K_ij ratio sets as arc data."""

    n: int
    kappa: dict  # (i, j) -> Fraction, max of K_ij
    sets: dict  # (i, j) -> frozenset of Fraction

    def cycle_product(self, cycle: Sequence[int]) -> Fraction:
        return _cycle_product(self.kappa, cycle)


def _cycle_product(kappa: dict, cycle: Sequence[int]) -> Fraction:
    prod = Fraction(1)
    for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]]):
        prod *= kappa[(a, b)]
    return prod


def pairwise(W: Subspace) -> CircuitRatioDigraph:
    """K_ij = { |g_j/g_i| : g a circuit with i, j in its support } for i != j.

    Requires a non-separable ground set so every pair is covered.
    """
    if W.ambient_dim >= 2 and is_separable(W):
        raise SeparableInput("pairwise ratios need a non-separable subspace")
    return CircuitRatioDigraph(
        n=W.ambient_dim,
        kappa={k: Fraction(p, q) for k, (p, q) in W.pair_maxima.items()},
        sets={k: p.ratios for k, p in W.pair_ratios.items()},
    )


@dataclass(frozen=True)
class GeoMeanValue:
    """product^(1/length), compared exactly by cross-powering."""

    product: Fraction
    length: int

    def __post_init__(self):
        if self.length < 1 or self.product <= 0:
            raise BadParameters("geometric mean needs positive product, length >= 1")

    def _cmp(self, other: "GeoMeanValue") -> int:
        lhs = self.product**other.length
        rhs = other.product**self.length
        return (lhs > rhs) - (lhs < rhs)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def normalized(self) -> "GeoMeanValue":
        """Reduce to length 1 when the root is rational."""
        root = fraction_nth_root(self.product, self.length)
        if root is not None:
            return GeoMeanValue(root, 1)
        return self

    def shortest(self) -> "GeoMeanValue":
        """The same value at the shortest length with a rational product."""
        for g in range(self.length, 1, -1):
            root = fraction_nth_root(self.product, g) if self.length % g == 0 else None
            if root is not None:
                return GeoMeanValue(root, self.length // g)
        return self


@dataclass(frozen=True)
class KappaStarResult:
    value: GeoMeanValue
    witness_cycle: tuple
    rescaling: tuple | None  # rational d attaining the optimum, when it exists
    rescaling_pow: tuple  # exact vector of d_i^length, always rational
    power: int


def kappa_star(W: Subspace) -> KappaStarResult:
    """Best achievable kappa over positive diagonal rescalings.

    Equal to the maximum over simple cycles H of the circuit ratio digraph
    of (prod of kappa along H)^(1/|H|).  A rescaling acts on each component
    of W separately and every circuit lies in one, so this is the maximum
    over the components; a W with no two elements in a common circuit
    (trivial, or all loops and coloops) has value 1 and an empty cycle.
    The maximum comes from Karp's maximum-mean-cycle algorithm on the
    integer pair maxima (`_max_mean`), the witness from the tight arcs of
    the rescaling at that maximum (`_tight_witness`); both are audited, and
    the value and the rescaling are returned as Fractions.

    The rescaling d satisfies kappa_ij * d_j / d_i <= value for every pair,
    with equality along the witness cycle.  When value is rational, d is the
    returned rational vector; otherwise `rescaling` is None and
    `rescaling_pow` carries the exact vector of d_i^length.
    """
    n = W.ambient_dim
    maxima = W.pair_maxima
    kappa = {arc: Fraction(p, q) for arc, (p, q) in maxima.items()}
    nodes = sorted({i for i, _ in maxima})
    best = _max_mean(maxima, nodes)
    if best is None:
        return _kappa_star_result(kappa, nodes, n, None, ())
    d = _mult_bellman_ford(kappa, nodes, n, best.product, best.length)
    cycle = _tight_witness(kappa, d, best.product, best.length, nodes)
    prod = _cycle_product(kappa, cycle)
    if GeoMeanValue(prod, len(cycle))._cmp(best) != 0:
        raise InternalError("witness cycle misses the maximum mean")
    return _kappa_star_result(kappa, nodes, n, prod, cycle, (best, d))


def _max_mean(maxima: dict, nodes: list):
    """The largest geometric mean of a cycle of the pair-maxima digraph, at
    its shortest length (`GeoMeanValue.shortest`), or None without arcs.

    Karp's algorithm (1978) in product form on each strongly connected
    component, which here is a component of W.  With L the lcm of the
    denominators in the component, arc ij weighs the integer a_ij = L *
    kappa_ij.  From a source s, D_k(v) is the largest product of a k-arc
    walk from s to v, and with N nodes the best mean is
    max_v min_k (D_N(v) / D_k(v))^(1 / (N - k)), each root compared by
    cross-powering, the common factor L cancelling.  O(N^3) products per
    component.
    """
    succ: dict = {v: [] for v in nodes}
    for i, j in maxima:
        succ[i].append(j)
    best = None
    seen: set = set()
    for root in nodes:
        if root in seen:
            continue
        comp = [root]
        seen.add(root)
        for u in comp:
            for v in succ[u]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
        L = math.lcm(*(maxima[(u, v)][1] for u in comp for v in succ[u]))
        weight = {
            (u, v): maxima[(u, v)][0] * (L // maxima[(u, v)][1]) for u in comp for v in succ[u]
        }
        N = len(comp)
        D = [{root: 1}]
        for _ in range(N):
            nxt: dict = {}
            for u, du in D[-1].items():
                for v in succ[u]:
                    x = du * weight[(u, v)]
                    if x > nxt.get(v, 0):
                        nxt[v] = x
            D.append(nxt)
        top = max(
            min(GeoMeanValue(Fraction(dn, D[k][v]), N - k) for k in range(N) if v in D[k])
            for v, dn in D[N].items()
        )
        value = GeoMeanValue(top.product / L**top.length, top.length)
        if best is None or value > best:
            best = value
    return None if best is None else best.shortest()


def _tight_witness(kappa: dict, d: tuple, rho: Fraction, power: int, nodes: list) -> tuple:
    """The witness cycle among the cycles of largest geometric mean.

    Under the rescaling d at the optimum, kappa_ij^power * d_j <= rho * d_i
    holds on every arc, and the optimal cycles are exactly the cycles of the
    arcs where it is tight.  The witness is the least minimum node s first,
    then the shortest cycle through s inside the nodes >= s, then the least
    sorted tuple of its nodes before the last one, then the least last node
    (for at most three nodes, the lexicographically least cycle).  That is
    the order in which a DP over (visited set, end node) states meets the
    optimal cycles, so the witness is the one that search returns (kept as
    a test oracle).  A shortest
    cycle through s meets each node x at position dist(s, x), so the cycles
    of length L are the paths through layers 1..L-1 of the nodes with
    dist(s, x) + dist(x, s) = L, and the tie-breaks are fixed one node at a
    time, each by a reachability pass over the layers.
    """
    tight = {
        (i, j) for (i, j), k in kappa.items() if k**power * d[j] == rho * d[i]
    }
    succ: dict = {v: [] for v in nodes}
    pred: dict = {v: [] for v in nodes}
    for i, j in tight:
        succ[i].append(j)
        pred[j].append(i)

    def dist(s, adj):
        out = {s: 0}
        queue = [s]
        for u in queue:
            for v in adj[u]:
                if v > s and v not in out:
                    out[v] = out[u] + 1
                    queue.append(v)
        return out

    for s in nodes:
        fwd = dist(s, succ)
        ends = [x for x in pred[s] if x in fwd and x != s]
        if not ends:
            continue
        back = dist(s, pred)
        L = 1 + min(fwd[x] for x in ends)
        layer = {
            x: fwd[x] for x in sorted(fwd) if x != s and x in back and fwd[x] + back[x] == L
        }

        def feasible(fixed):
            reach = [s]
            for pos in range(1, L):
                allowed = [fixed[pos]] if pos in fixed else [x for x in layer if layer[x] == pos]
                reach = [y for y in allowed if any((x, y) in tight for x in reach)]
                if not reach:
                    return False
            return True  # layer L-1 is at distance 1 from s

        # One ascending pass fixes the least feasible node of each layer
        # before the last, then the last: a node passed over stays
        # infeasible once more layers are fixed.
        fixed: dict = {}
        for x in [x for x in layer if layer[x] < L - 1] + [x for x in layer if layer[x] == L - 1]:
            if layer[x] not in fixed and feasible({**fixed, layer[x]: x}):
                fixed[layer[x]] = x
        if len(fixed) != L - 1:
            raise InternalError("tight layers lost their shortest cycle")
        return (s,) + tuple(fixed[pos] for pos in range(1, L))
    raise InternalError("no tight cycle at the maximum mean")


def _kappa_star_result(kappa: dict, nodes, n, best_prod, best_cycle, known=None) -> KappaStarResult:
    """The `kappa_star` value of a best cycle, with its audited rescalings.

    `known` is an optional (GeoMeanValue, rescaling) pair already computed
    by `_mult_bellman_ford`, reused when it is the value's own system.
    """
    if best_prod is None:
        one = GeoMeanValue(Fraction(1), 1)
        return KappaStarResult(one, (), (Fraction(1),) * n, (Fraction(1),) * n, 1)
    if _cycle_product(kappa, best_cycle) != best_prod:
        raise InternalError("witness cycle product mismatch")
    value = GeoMeanValue(best_prod, len(best_cycle)).normalized()
    ell = value.length
    if known is not None and known[0] == value:
        d_pow = known[1]
    else:
        d_pow = _mult_bellman_ford(kappa, nodes, n, value.product, ell)
    _check_feasible(kappa, d_pow, value.product, ell)
    return KappaStarResult(
        value=value,
        witness_cycle=best_cycle,
        rescaling=d_pow if ell == 1 else None,
        rescaling_pow=d_pow,
        power=ell,
    )


def _mult_bellman_ford(kappa: dict, nodes, n, rho: Fraction, power: int):
    """Feasible point of kappa_ij^power * e_j <= rho * e_i via min path products.

    All cycles of the powered system have product >= 1 by optimality of rho,
    so the Bellman-Ford fixpoint exists and is reached within n rounds.
    """
    steps = [(i, j, rho / k**power) for (i, j), k in kappa.items()]
    d = {v: Fraction(1) for v in nodes}
    for _ in range(len(nodes)):
        changed = False
        for i, j, f in steps:
            cand = d[i] * f
            if cand < d[j]:
                d[j] = cand
                changed = True
        if not changed:
            break
    else:  # guarded by the max-cycle optimality of rho
        raise InternalError("rescaling system failed to converge")
    return tuple(d.get(i, Fraction(1)) for i in range(n))


def _check_feasible(kappa: dict, d, rho: Fraction, power: int):
    tight = False
    for (i, j), k in kappa.items():
        lhs = (k**power) * d[j]
        rhs = rho * d[i]
        if lhs > rhs:
            raise InternalError("rescaling infeasible")
        if lhs == rhs:
            tight = True
    if not tight:
        raise InternalError("rescaling does not attain the optimum")


def rescale(W: Subspace, d: Sequence) -> Subspace:
    """Multiply coordinate i of every vector of W by d_i."""
    dv = vec(d)
    if any(x <= 0 for x in dv):
        raise BadParameters("rescaling needs positive entries")
    S = W.span_rep
    rows = [tuple(x * dv[j] for j, x in enumerate(r)) for r in S.data]
    if not rows:
        return W
    return Subspace.from_span_matrix(RatMatrix.from_rows(rows, cols=W.ambient_dim))


def estimate_kappa(W: Subspace):
    """One-circuit-per-pair lower estimate.

    For each ordered pair, the circuit with lexicographically smallest
    support containing both indices supplies |g_j/g_i|.  Returns the max
    over pairs and the per-pair table {(i, j): (ratio, circuit)}.
    """
    if W.ambient_dim >= 2 and is_separable(W):
        raise SeparableInput("pair estimates need a non-separable subspace")
    table = {k: (p.first_ratio, p.first_circuit) for k, p in W.pair_ratios.items()}
    xi = max((r for r, _ in table.values()), default=Fraction(1))
    return xi, table


@dataclass(frozen=True)
class RescaleCheckResult:
    """Outcome of the rescaled-TU decision.

    Either `rescaled_tu` with an integer diagonal `scaling` (kappa of the
    column-scaled matrix is 1), or a cycle witness with product > 1.
    """

    rescaled_tu: bool
    scaling: tuple | None
    witness_cycle: tuple | None
    witness_product: Fraction | None


def check_kappa_star_one(A: RatMatrix) -> RescaleCheckResult:
    """Decide kappa_star(ker A) = 1 without computing kappa_star.

    Estimates a single ratio per pair, propagates a candidate rescaling
    along the estimates, and confirms with a total-unimodularity test of a
    basis form of the rescaled matrix.  On failure a 2-cycle of exact
    pairwise ratios with product > 1 is returned (such a 2-cycle always
    exists when kappa_star > 1).
    """
    W = Subspace.from_kernel_matrix(A)
    n = W.ambient_dim
    table = W.pair_ratios
    d = [Fraction(1)] * n
    blocks = components(W)
    if all(_propagate_block(block, table, d) for block in blocks):
        # d solves hat_kappa_ij d_j = d_i; undoing it means scaling column i
        # of A by something proportional to 1/d_i.  Each component fixes d
        # up to its own factor, so each is scaled to coprime integers alone.
        scaling = [1] * n
        for block in blocks:
            den = math.lcm(*(d[i].denominator for i in block))
            ints = [int(d[i] * den) for i in block]
            g = math.gcd(*ints)
            L = math.lcm(*(x // g for x in ints))
            for i, x in zip(block, ints):
                scaling[i] = L // (x // g)
        scaling = tuple(scaling)
        scaled = RatMatrix.from_rows(
            [tuple(x * scaling[j] for j, x in enumerate(r)) for r in A.data],
            cols=n,
        )
        M = rref_nonzero(scaled)
        tu, _ = is_TU(M) if _entries_tu_candidate(M) else (False, None)
        if tu:
            kd = W.measures.kappa_dot
            if any(kd % s != 0 for s in scaling):
                raise InternalError("scaling entries must divide kappa_dot")
            return RescaleCheckResult(True, scaling, None, None)
    # Witness branch: some 2-cycle has product > 1 whenever kappa_star > 1.
    maxima = W.pair_maxima
    best = None
    for (i, j), (p, q) in maxima.items():
        if i < j:
            r, s = maxima[(j, i)]
            prod = Fraction(p * r, q * s)
            if prod > 1 and (best is None or prod > best[1]):
                best = ((i, j), prod)
    if best is None:
        raise InternalError("no witness cycle despite TU failure")
    return RescaleCheckResult(False, None, best[0], best[1])


def _propagate_block(block, table, d) -> bool:
    """BFS-propagate hat_kappa_ij d_j = d_i within one component.

    hat_kappa_ij is the smallest-support estimate of the pair-ratio table.
    The estimates of a component connect it, so a consistent system has one
    solution with d_root = 1 whatever the visiting order.  Returns False when
    the estimate system is inconsistent.
    """
    est = {k: p.first_ratio for k, p in table.items() if k[0] in block}
    if not est:
        return True
    root = block[0]
    val = {root: Fraction(1)}
    queue = [root]
    while queue:
        i = queue.pop()
        for (a, b), r in est.items():
            if a == i and b not in val:
                # hat_kappa_ab * d_b = d_a
                val[b] = val[a] / r
                queue.append(b)
            elif b == i and a not in val:
                val[a] = val[b] * r
                queue.append(a)
    for (a, b), r in est.items():
        if val[a] != r * val[b]:
            return False
    for i in block:
        d[i] = val.get(i, Fraction(1))
    return True


def _entries_tu_candidate(M: RatMatrix) -> bool:
    return all(x in (0, 1, -1) for r in M.data for x in r)


def is_TU(A: RatMatrix):
    """Brute-force total unimodularity test.

    Returns (True, None) or (False, (rows, cols, det)) with the smallest
    offending submatrix.  Entries outside {0, +1, -1} fail immediately with
    a 1x1 witness.
    """
    check_desk_scale(A.cols, "unimodularity enumeration")
    for i, r in enumerate(A.data):
        for j, x in enumerate(r):
            if x not in (0, 1, -1):
                return False, ((i,), (j,), x)
    for k in range(2, min(A.rows, A.cols) + 1):
        for ri in itertools.combinations(range(A.rows), k):
            for ci in itertools.combinations(range(A.cols), k):
                det = bareiss_det(A.submatrix(ri, ci))
                if det not in (0, 1, -1):
                    return False, (ri, ci, det)
    return True, None


def int_representation(W: Subspace) -> RatMatrix:
    """An integer kernel matrix for W whose nonzero entries divide kappa_dot.

    Prefers an integral basis form (exists whenever the dual is anchored);
    otherwise scales each basis form row by its denominator.  Either way the
    rows are elementary vectors of the dual, so divisibility holds.
    """
    if W.is_trivial():
        raise BadParameters("integer representation needs a proper subspace")
    A = W.kernel_rep
    n = A.cols
    forms = _basis_forms(A)  # checks the basis scan's scale before circuits are enumerated
    kd = W.measures.kappa_dot
    fallback = None
    for M in forms:
        if M.is_integral():
            _assert_divides(M, kd)
            return M
        if fallback is None:
            fallback = M
    if fallback is None:
        raise RankDeficient("kernel representation lost rank")
    rows = []
    for r in fallback.data:
        ints, scale = integer_normalize(r)
        if scale < 0:
            ints = tuple(-x for x in ints)
        rows.append(ints)
    M = RatMatrix.from_rows(rows, cols=n)
    _assert_divides(M, kd)
    if Subspace.from_kernel_matrix(M) != W:
        raise InternalError("representation changed the kernel")
    return M


def _assert_divides(M: RatMatrix, kd: int):
    for r in M.data:
        for x in r:
            if x != 0 and kd % int(x) != 0 and kd % -int(x) != 0:
                raise InternalError(f"entry {x} does not divide kappa_dot {kd}")


# ---------------------------------------------------------------------------
# Floating-point estimators.  These two functions and diameter_bound's log
# factor are the only places the package leaves exact arithmetic.
# ---------------------------------------------------------------------------


def _power_iteration_sq(M: list[list[float]], tol: float = 1e-9) -> float:
    """Largest eigenvalue of M^T M by power iteration; returns sigma_max^2."""
    m = len(M)
    n = len(M[0]) if m else 0
    if m == 0 or n == 0:
        return 0.0
    v = [1.0 + 1e-3 * i for i in range(n)]
    lam_prev = 0.0
    for _ in range(200000):
        w = [sum(M[i][j] * v[j] for j in range(n)) for i in range(m)]
        z = [sum(M[i][j] * w[i] for i in range(m)) for j in range(n)]
        norm = math.sqrt(sum(x * x for x in z))
        if norm == 0.0:
            return 0.0
        v = [x / norm for x in z]
        lam = sum(
            v[j] * sum(M[i][j] * sum(M[i][k] * v[k] for k in range(n)) for i in range(m))
            for j in range(n)
        )
        if abs(lam - lam_prev) <= tol * max(1.0, abs(lam)):
            return lam
        lam_prev = lam
    return lam_prev


def chibar(A: RatMatrix) -> float:
    """max over bases of the spectral norm of A_B^{-1} A (power iteration)."""
    if rank(A) != A.rows:
        raise RankDeficient("spectral scan needs a full row rank matrix")
    best = 0.0
    for M in _basis_forms(A):
        flo = [[float(x) for x in r] for r in M.data]
        best = max(best, math.sqrt(_power_iteration_sq(flo)))
    return best


def delta_min_angle(vectors: Sequence[Vec]) -> float:
    """min over independent subsets I and v not in span(I) of sin(angle).

    Residuals are computed exactly (rational normal equations); only the
    final square root is floating point.
    """
    vs = [vec(v) for v in vectors]
    if not vs:
        raise BadParameters("need at least one vector")
    nonzero = [v for v in vs if any(x != 0 for x in v)]
    if len(nonzero) != len(vs):
        raise BadParameters("zero vectors have no direction")
    best = None
    idx = range(len(vs))
    for size in range(1, len(vs)):
        for I in itertools.combinations(idx, size):
            B = RatMatrix.from_rows([vs[i] for i in I])
            if rank(B) != size:
                continue
            gram = B.mul(B.transpose())
            for j in idx:
                if j in I:
                    continue
                target = vs[j]
                mu = solve_linear(gram, B.matvec(target))
                resid = tuple(a - b for a, b in zip(target, B.vecmat(mu)))
                r2 = sum((x * x for x in resid), Fraction(0))
                if r2 == 0:
                    continue  # v_j in span(I)
                sin2 = r2 / sum((x * x for x in target), Fraction(0))
                s = math.sqrt(float(sin2))
                if best is None or s < best:
                    best = s
    return 1.0 if best is None else best


def knuth_basis(A: RatMatrix, mu) -> tuple:
    """Local determinant maximization: swap while some |entry| > mu.

    Every swap multiplies |det A_B| by more than mu, so the loop terminates.
    Returns (basis, basis_form, swap_count).
    """
    mu = Fraction(mu)
    if mu < 1:
        raise BadParameters("mu must be at least 1")
    m, n = A.shape
    if rank(A) != m:
        raise RankDeficient("basis search needs a full row rank matrix")
    _, pivots, _ = rref(A)
    B = list(pivots)
    swaps = 0
    limit = 10000
    while True:
        M = basis_form(A, B)
        swap = None
        for i in range(m):
            for j in range(n):
                if abs(M.entry(i, j)) > mu:
                    swap = (i, j)
                    break
            if swap:
                break
        if swap is None:
            return tuple(B), M, swaps
        B[swap[0]] = swap[1]
        swaps += 1
        if swaps > limit:  # pragma: no cover
            raise CircuitKitError("swap budget exhausted; mu too close to 1?")


def diameter_bound(n: int, m: int, kappa) -> Fraction:
    """(n - m)^3 * m * kappa * log2(kappa + n).

    The log factor is evaluated in floating point and embedded exactly, so
    repeated calls are deterministic and comparisons downstream stay exact.
    """
    kappa = Fraction(kappa)
    if n < m or m < 1 or kappa < 1:
        raise BadParameters("need n >= m >= 1 and kappa >= 1")
    log_term = Fraction(math.log2(float(kappa) + n))
    return Fraction((n - m) ** 3 * m) * kappa * log_term
