"""Circuit imbalance measures of a rational subspace.

Three exact measures are computed from the enumerated circuits:

* kappa      -- largest |g_j / g_i| over circuits g and i, j in the support
* kappa_dot  -- lcm of the entries of the gcd-normalized circuit vectors
* kappa_bar  -- largest absolute entry of a normalized circuit vector

in one integer pass over the circuits (the report); the pair maxima (the
largest |g_j / g_i| per ordered pair) in a second integer pass, made only
when `kappa_star` or `pairwise` reads them; the optimal-rescaling value
kappa_star (the largest geometric mean of a cycle of the circuit ratio
digraph, by Karp's maximum-mean-cycle algorithm per component, with one
rescaling and the least tight cycle as witness, all of it in integers); a
total-unimodularity test; the diameter bound with its logarithm enclosed
in exact rationals; and one floating-point estimator (`chibar`, the
spectral norm analogue), this package's only inexact path.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import (
    BadParameters,
    InternalError,
    RankDeficient,
    SeparableInput,
)
from .ratmat import (
    RatMatrix,
    as_fraction,
    bareiss_det,
    bases,
    check_desk_scale,
    fraction_nth_root,
    rank,
    vec,
)
from .subspace import Subspace, is_separable


class MeasureWitnesses(NamedTuple):
    """Certificates for the two maxima.

    kappa: (circuit, (i, j)) attaining the ratio; kappa_bar: (circuit, j)
    attaining the max entry.  kappa_dot, the lcm of the circuit entries,
    needs none: one `math.lcm` pass over the circuits recomputes it.
    """

    kappa: tuple | None
    kappa_bar: tuple | None


class ImbalanceReport(NamedTuple):
    kappa: Fraction
    kappa_dot: int
    kappa_bar: int
    witnesses: MeasureWitnesses


def imbalances(W: Subspace) -> ImbalanceReport:
    """All three measures, with witnesses for kappa and kappa_bar, from the
    one report pass over the circuits that W keeps (`_measure_circuits`);
    the pair maxima are left to their own pass.  `Subspace.measures`
    keeps the report, so read that to compute it once per subspace.

    Trivial subspaces ({0} and R^n) have no ratio structure: all measures 1.
    """
    return _measure_circuits(W.circuit_list)


def _measure_circuits(circuits: tuple) -> ImbalanceReport:
    """The report in one integer pass over the circuits.

    Per circuit: the first smallest |entry| i and the first largest j give
    its largest ratio |g_j / g_i|, kept when it beats the best so far by
    cross-multiplying; its first largest entry is kept when it beats the
    best entry; and kappa_dot takes the lcm of its entries.  So each
    witness is the first to attain its maximum in `circuit_list` order.
    """
    if not circuits:
        return ImbalanceReport(Fraction(1), 1, 1, MeasureWitnesses(None, None))
    hi, lo = 0, 1
    ratio_wit = entry_wit = None
    best_entry = 0
    acc = 1
    for ev in circuits:
        mags = [abs(ev.vector[j]) for j in ev.support]
        small, large = min(mags), max(mags)
        if large * lo > hi * small:
            hi, lo = large, small
            ratio_wit = (ev, (ev.support[mags.index(small)], ev.support[mags.index(large)]))
        if large > best_entry:
            best_entry, entry_wit = large, (ev, ev.support[mags.index(large)])
        acc = math.lcm(acc, *mags)
    return ImbalanceReport(
        kappa=Fraction(hi, lo),
        kappa_dot=acc,
        kappa_bar=best_entry,
        witnesses=MeasureWitnesses(ratio_wit, entry_wit),
    )


def _pair_maxima(circuits: tuple) -> dict:
    """The pair maxima in one integer pass over the circuits: each ordered
    pair (i, j), i != j, of a circuit's support keeps the largest
    |g_j| / |g_i|, as (num, den), compared by cross-multiplying and reduced
    once at the end, keyed in order of first appearance."""
    if not circuits:
        return {}
    n = len(circuits[0].vector)
    # the best |g_j| / |g_i| of pair (i, j) is num[k] / den[k], k = i * n + j;
    # num[k] = 0 until the pair is first seen
    num, den, order = [0] * (n * n), [1] * (n * n), []
    for ev in circuits:
        pairs = [(j, abs(ev.vector[j])) for j in ev.support]
        for i, a in pairs:
            base = i * n
            for j, b in pairs:
                k = base + j
                if b * den[k] > num[k] * a and j != i:
                    if not num[k]:
                        order.append(k)
                    num[k], den[k] = b, a
    maxima = {}
    for k in order:
        g = math.gcd(num[k], den[k])
        maxima[divmod(k, n)] = (num[k] // g, den[k] // g)
    return maxima


class CircuitRatioDigraph(NamedTuple):
    """Complete digraph on the ground set with K_ij ratio sets as arc data."""

    n: int
    kappa: dict  # (i, j) -> Fraction, max of K_ij
    sets: dict  # (i, j) -> frozenset of Fraction


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
    sets: dict = {}
    for ev in W.circuit_list:
        for i in ev.support:
            for j in ev.support:
                if i != j:
                    sets.setdefault((i, j), set()).add(ev.ratio(i, j))
    return CircuitRatioDigraph(
        n=W.ambient_dim,
        kappa={k: Fraction(p, q) for k, (p, q) in W.pair_maxima.items()},
        sets={k: frozenset(v) for k, v in sets.items()},
    )


class GeoMeanValue(namedtuple("GeoMeanValue", "product length")):
    """product^(1/length), compared exactly by cross-powering (`_beats` on
    the (numerator, denominator, length) triples).

    product: a positive Fraction; length: an int >= 1, checked on every
    construction (`_replace` and `_make` would skip the check, so this
    package never calls them on a value).
    """

    __slots__ = ()

    def __new__(cls, product: Fraction, length: int):
        if length < 1 or product <= 0:
            raise BadParameters("geometric mean needs positive product, length >= 1")
        return super().__new__(cls, product, length)

    def _cmp(self, other: "GeoMeanValue") -> int:
        a = (self.product.numerator, self.product.denominator, self.length)
        b = (other.product.numerator, other.product.denominator, other.length)
        return _beats(a, b) - _beats(b, a)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def shortest(self) -> "GeoMeanValue":
        """The same value at the shortest length with a rational product."""
        for g in range(self.length, 1, -1):
            root = fraction_nth_root(self.product, g) if self.length % g == 0 else None
            if root is not None:
                return GeoMeanValue(root, self.length // g)
        return self


class KappaStarResult(NamedTuple):
    value: GeoMeanValue
    witness_cycle: tuple
    rescaling: tuple | None  # rational d attaining the optimum, when it exists
    rescaling_pow: tuple  # exact vector of d_i^length, always rational


def kappa_star(W: Subspace) -> KappaStarResult:
    """Best achievable kappa over positive diagonal rescalings.

    Equal to the maximum over simple cycles H of the circuit ratio digraph
    of (prod of kappa along H)^(1/|H|).  A rescaling acts on each component
    of W separately and every circuit lies in one, so this is the maximum
    over the components; a W with no two elements in a common circuit
    (trivial, or all loops and coloops) has value 1 and an empty cycle.
    The value comes from Karp's maximum-mean-cycle algorithm on the integer
    pair maxima (`_max_mean`), at the shortest length with a rational
    product; one Bellman-Ford solve at that value gives the rescaling, and
    its tight arcs the witness (`_tight_witness`).  The rescaling is
    audited as feasible and tight (`_tight_arcs`), and the witness as
    attaining the value.  Every stage works in integers: each arc's
    kappa_ij = p / q is raised to the value's length once, as the pair
    (p^length, q^length), and ratios are compared by cross-multiplying or
    cross-powering.

    The rescaling d satisfies kappa_ij * d_j / d_i <= value for every pair,
    with equality along the witness cycle.  When value has length 1, d is
    the returned rational vector; otherwise `rescaling` is None and
    `rescaling_pow` carries the exact vector of d_i^length.
    """
    n = W.ambient_dim
    maxima = W.pair_maxima
    nodes = sorted({i for i, _ in maxima})
    value = _max_mean(maxima, nodes)
    if value is None:
        one = (Fraction(1),) * n
        return KappaStarResult(GeoMeanValue(Fraction(1), 1), (), one, one)
    rho, power = value.product, value.length
    powered = {arc: (p**power, q**power) for arc, (p, q) in maxima.items()}
    d = _mult_bellman_ford(powered, nodes, n, rho)
    cycle = _tight_witness(_tight_arcs(powered, d, rho), nodes)
    arcs = [maxima[arc] for arc in zip(cycle, cycle[1:] + cycle[:1])]
    P, Q, L = math.prod(p for p, _ in arcs), math.prod(q for _, q in arcs), len(cycle)
    if P**power * rho.denominator**L != rho.numerator**L * Q**power:
        raise InternalError("witness cycle misses the maximum mean")
    return KappaStarResult(value, cycle, d if power == 1 else None, d)


def _beats(a: tuple, b: tuple) -> bool:
    """(num_a / den_a)^(1 / len_a) > (num_b / den_b)^(1 / len_b), for
    positive integer (num, den, len) triples, by cross-powering."""
    return a[0] ** b[2] * b[1] ** a[2] > b[0] ** a[2] * a[1] ** b[2]


def _max_mean(maxima: dict, nodes: list):
    """The largest geometric mean of a cycle of the pair-maxima digraph, at
    its shortest length (`GeoMeanValue.shortest`), or None without arcs.

    Karp's algorithm (1978) in product form on each strongly connected
    component, which here is a component of W.  With L the lcm of the
    denominators in the component, arc ij weighs the integer a_ij = L *
    kappa_ij.  From a source s, D_k(v) is the largest product of a k-arc
    walk from s to v, and with N nodes the best mean is
    max_v min_k (D_N(v) / D_k(v))^(1 / (N - k)), each root compared in
    integers by cross-powering (`_beats`), the common factor L cancelling.
    O(N^3) products per component.
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
        top = None
        for v, dn in D[N].items():
            low = None
            for k in range(N):
                if v in D[k]:
                    mean = (dn, D[k][v], N - k)
                    if low is None or _beats(low, mean):
                        low = mean
            if top is None or _beats(low, top):
                top = low
        value = (top[0], top[1] * L ** top[2], top[2])
        if best is None or _beats(value, best):
            best = value
    if best is None:
        return None
    return GeoMeanValue(Fraction(best[0], best[1]), best[2]).shortest()


def _tight_witness(tight: set, nodes: list) -> tuple:
    """The witness cycle among the cycles of largest geometric mean.

    Under the rescaling d at the optimum, the optimal cycles are exactly
    the cycles of the `tight` arcs (`_tight_arcs`).  The witness is the
    lexicographically least of the shortest optimal cycles through the
    least node s that lies on one; those cycles use only nodes >= s.  With
    fwd and back the tight-arc distances from and to s inside those nodes
    and L the shortest length, a node x can stand at position pos of such a
    cycle exactly when fwd(x) = pos and back(x) = L - pos, and each such
    successor of the node before it extends to a whole cycle.  So one pass
    takes the least such successor at each position.
    """
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
        cycle = [s]
        for pos in range(1, L):
            steps = [x for x in succ[cycle[-1]] if fwd.get(x) == pos and back.get(x) == L - pos]
            if not steps:
                raise InternalError("tight layers lost their shortest cycle")
            cycle.append(min(steps))
        return tuple(cycle)
    raise InternalError("no tight cycle at the maximum mean")


def _mult_bellman_ford(powered: dict, nodes, n, rho: Fraction) -> tuple:
    """Feasible point of kappa_ij^power * e_j <= rho * e_i via min path
    products, with `powered` the arcs' (p^power, q^power) pairs.

    All cycles of the powered system have product >= 1 by optimality of rho,
    so the Bellman-Ford fixpoint exists, is unique, and is reached within n
    rounds.  Each e_i is held as an unreduced integer pair, compared by
    cross-multiplying; every value is a simple-path product (a path through
    a node again would close a cycle of product >= 1), so the pairs stay
    within n arcs' worth of digits, and they are reduced once at the end.
    """
    rn, rd = rho.numerator, rho.denominator
    steps = [(i, j, rn * q, rd * p) for (i, j), (p, q) in powered.items()]
    num = {v: 1 for v in nodes}
    den = dict(num)
    for _ in range(len(nodes)):
        changed = False
        for i, j, fn, fd in steps:
            cn, cd = num[i] * fn, den[i] * fd
            if cn * den[j] < num[j] * cd:
                num[j], den[j] = cn, cd
                changed = True
        if not changed:
            break
    else:  # guarded by the max-cycle optimality of rho
        raise InternalError("rescaling system failed to converge")
    return tuple(Fraction(num[i], den[i]) if i in num else Fraction(1) for i in range(n))


def _tight_arcs(powered: dict, d: tuple, rho: Fraction) -> set:
    """The arcs where kappa_ij^power * d_j = rho * d_i, after checking that
    no arc exceeds it and that some arc attains it (else InternalError)."""
    rn, rd = rho.numerator, rho.denominator
    tight = set()
    for (i, j), (p, q) in powered.items():
        lhs = p * d[j].numerator * rd * d[i].denominator
        rhs = rn * d[i].numerator * q * d[j].denominator
        if lhs > rhs:
            raise InternalError("rescaling infeasible")
        if lhs == rhs:
            tight.add((i, j))
    if not tight:
        raise InternalError("rescaling does not attain the optimum")
    return tight


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


def _network_lines(lines) -> bool:
    """Every line holds at most one +1 and at most one -1."""
    return all(line.count(1) <= 1 and line.count(-1) <= 1 for line in lines)


def is_TU(A: RatMatrix):
    """Total unimodularity test.

    Returns (True, None) or (False, (rows, cols, det)) with the smallest
    offending submatrix.  Entries outside {0, +1, -1} fail immediately with
    a 1x1 witness.  A {0, +1, -1} matrix with at most one +1 and one -1 in
    every column, or in every row, is a network matrix or its transpose and
    TU (Poincare); any other matrix gets the brute-force scan of its square
    submatrices, within the desk-scale cap.
    """
    for i, r in enumerate(A.data):
        for j, x in enumerate(r):
            if x not in (0, 1, -1):
                return False, ((i,), (j,), x)
    if _network_lines(A.data) or _network_lines(zip(*A.data)):
        return True, None
    check_desk_scale(A.cols, "unimodularity enumeration")
    for k in range(2, min(A.rows, A.cols) + 1):
        for ri in itertools.combinations(range(A.rows), k):
            for ci in itertools.combinations(range(A.cols), k):
                det = bareiss_det(A.submatrix(ri, ci))
                if det not in (0, 1, -1):
                    return False, (ri, ci, det)
    return True, None


# ---------------------------------------------------------------------------
# The floating-point estimator.  `chibar` and its power iteration are the
# only place the package leaves exact arithmetic.
# ---------------------------------------------------------------------------


def _power_iteration_sq(M: list[list[float]]) -> float:
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
        if abs(lam - lam_prev) <= 1e-9 * max(1.0, abs(lam)):
            return lam
        lam_prev = lam
    return lam_prev


def chibar(A: RatMatrix) -> float:
    """max over bases of the spectral norm of A_B^{-1} A (power iteration)."""
    if rank(A) != A.rows:
        raise RankDeficient("spectral scan needs a full row rank matrix")
    check_desk_scale(A.cols, "basis enumeration")
    best = 0.0
    for _, M in bases(A):
        flo = [[float(x) for x in r] for r in M.data]
        best = max(best, math.sqrt(_power_iteration_sq(flo)))
    return best


# ---------------------------------------------------------------------------
# The diameter bound, with its logarithm enclosed in exact rationals.
# ---------------------------------------------------------------------------


def _log2_enclosure(x: Fraction, bits: int) -> tuple:
    """(lo, hi) with lo <= log2(x) <= hi and hi - lo <= 2^-bits, for a
    rational x >= 1; lo == hi when x is a power of two.

    With x = 2^e * y and 1 <= y < 2, each further bit of log2(y) says
    whether y^2 >= 2, and then y^2 / 2 carries on.  y is held as an integer
    interval [a, b] / 2^P, squared with floor and ceiling so that it always
    contains y; a bit is read only when the whole interval lies on one side
    of 2.  Otherwise P doubles and the bits start over.  That ends, since a
    square landing on 2 exactly would make log2(x) rational, and x a power
    of two.
    """
    p, q = x.numerator, x.denominator
    e = p.bit_length() - q.bit_length()
    if p < q << e:
        e -= 1
    if q == 1 and p == 1 << e:
        return Fraction(e), Fraction(e)
    P = 2 * bits + 16
    while True:
        a, r = divmod(p << P, q << e)
        b = a + (r != 0)
        two = 1 << (P + 1)
        digits = 0
        for _ in range(bits):
            a, b = (a * a) >> P, -(-(b * b) >> P)
            digits <<= 1
            if a >= two:
                digits |= 1
                a, b = a >> 1, -(-b >> 1)
            elif b >= two:
                break
        else:
            lo = e + Fraction(digits, 1 << bits)
            return lo, lo + Fraction(1, 1 << bits)
        P *= 2


def _diameter_enclosure(n: int, m: int, kappa, bits: int) -> tuple:
    kappa = as_fraction(kappa)
    if n < m or m < 1 or kappa < 1:
        raise BadParameters("need n >= m >= 1 and kappa >= 1")
    coeff = (n - m) ** 3 * m * kappa
    lo, hi = _log2_enclosure(kappa + n, bits)
    return coeff * lo, coeff * hi


def diameter_bound(n: int, m: int, kappa) -> Fraction:
    """(n - m)^3 * m * kappa * log2(kappa + n), from below.

    The log factor is the lower end of an exact enclosure of width 2^-64
    (`_log2_enclosure`), so the bound is exact when kappa + n is a power of
    two and otherwise at most (n - m)^3 * m * kappa * 2^-64 below it.
    """
    return _diameter_enclosure(n, m, kappa, 64)[0]


def diameter_within(diameter: int, n: int, m: int, kappa) -> tuple:
    """Decide diameter <= (n - m)^3 * m * kappa * log2(kappa + n) exactly.

    The enclosure of the log factor is refined (64, 128, ... bits) until the
    diameter lies on one side of it.  Returns the decision and the lower end
    of the deciding enclosure, so the diameter is within exactly when it is
    at most the returned bound.
    """
    bits = 64
    while True:
        lo, hi = _diameter_enclosure(n, m, kappa, bits)
        if diameter <= lo or diameter > hi:
            return diameter <= lo, lo
        bits *= 2
