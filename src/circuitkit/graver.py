"""Graver bases, integer proximity, and the decomposition conjecture.

Everything here is exhaustive enumeration at desk scale.  The Graver basis
comes from a coefficient box over an integer kernel lattice basis, integer
programs are solved by scanning the proximity ball around the LP optimum
(with a full-box rescan as an independent oracle), and the conjecture
checker searches decompositions fewest-terms-first so a Holds verdict is a
minimal certificate and a Violated verdict is a real finding.

The box scan, its minimality filter, the conjecture search and the
appendix search run on Python ints: lattice combinations are carried down
the scan, the filter tests candidates in 1-norm order against the minimal
elements kept so far, the search holds kappa_dot times the remainder, and
the appendix solves for v2 from the divisors of kappa_dot and forms v^T A
from int rows.  Fractions are built only for the results.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import NamedTuple

from .errors import (
    AuditFailure,
    BoxTooLarge,
    DimensionMismatch,
    InfeasibleSystem,
    InternalError,
    NonIntegerMatrix,
    NotIntegerKernelVector,
    UnboundedDirection,
)
from .lp import INFEASIBLE, UNBOUNDED, LPInstance, fractionality, solve
from .ratmat import (
    RatMatrix,
    bareiss_det,
    greedy_basis,
    invert,
    is_conformal,
    norm1,
    vec,
    vec_dot,
    vec_sub,
    vec_zero,
)
from .subspace import Subspace, oriented_circuits

_BOX_LIMIT = 10**6


class GraverBasis(NamedTuple):
    """The sign-symmetric set of conformal-minimal integer kernel vectors."""

    elements: tuple
    g1: int
    ginf: int


class ConjectureReport(NamedTuple):
    """Outcome of the 1/kappa_dot-integral decomposition search.

    status is "holds" with a decomposition of (coefficient, circuit vector)
    pairs, or "violated" with decomposition None.  searched counts the
    (circuit, coefficient) pairs tried.
    """

    target: tuple
    status: str
    decomposition: tuple | None
    searched: int


class HKReport(NamedTuple):
    """Fractionality evidence for the vertex denominators of W + d shifts."""

    kappa_dot: int
    trials: int
    feasible_trials: int
    random_lcm: int
    witness_lcm: int


class AppendixReport(NamedTuple):
    kappa_dot: int
    vectors: tuple
    products: tuple
    witnesses: tuple


def _integer_kernel_basis(A: RatMatrix) -> list[list[int]]:
    """Z-basis of {x integer : Ax = 0} by unimodular column reduction.

    Column operations on A are mirrored on an identity; once a row keeps a
    single nonzero among the live columns that column is frozen as a pivot,
    and the still-live identity columns at the end span the kernel lattice.
    Each Euclidean round on a row that is not its last leaves a nonzero
    remainder below the round's smallest |M[r][j]|, so a row takes at most
    as many rounds as its smallest nonzero live entry at the start.
    """
    m, n = A.shape
    M = [[int(A.entry(r, j)) for j in range(n)] for r in range(m)]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def colsub(dst, src, q):
        for r in range(m):
            M[r][dst] -= q * M[r][src]
        for r in range(n):
            U[r][dst] -= q * U[r][src]

    def colneg(j):
        for r in range(m):
            M[r][j] = -M[r][j]
        for r in range(n):
            U[r][j] = -U[r][j]

    live = list(range(n))
    for r in range(m):
        nz = [j for j in live if M[r][j] != 0]
        rounds = min((abs(M[r][j]) for j in nz), default=0)
        while len(nz) > 1:
            if rounds == 0:
                raise InternalError("kernel lattice reduction exceeded its round bound")
            rounds -= 1
            j0 = min(nz, key=lambda j: abs(M[r][j]))
            if M[r][j0] < 0:
                colneg(j0)
            for j in nz:
                if j != j0:
                    colsub(j, j0, M[r][j] // M[r][j0])
            nz = [j for j in live if M[r][j] != 0]
        if nz:
            live.remove(nz[0])
    return [[U[i][j] for i in range(n)] for j in live]


def graver_basis(A: RatMatrix) -> GraverBasis:
    """Complete Graver basis of an integer matrix by box enumeration.

    Coefficient ranges over the kernel-lattice basis are derived from the
    entry bound ginf <= n * kappa_bar (every element's coefficient vector is
    the Gram pseudo-inverse applied to the element, so its size is capped by
    the pseudo-inverse row norms times that entry bound).  The raw point
    budget is 10^6; beyond it the Eisenbrand-Weismantel 1-norm bound is
    reported in the error.
    """
    if not A.is_integral():
        raise NonIntegerMatrix("the Graver basis is defined for integer matrices")
    m, n = A.shape
    W = Subspace.from_kernel_matrix(A)
    kappa_bar = W.measures.kappa_bar
    entry_cap = n * kappa_bar
    basis = _integer_kernel_basis(A)
    if not basis:
        return GraverBasis(elements=(), g1=0, ginf=0)
    k = len(basis)
    a_max = max((abs(int(A.entry(r, j))) for r in range(m) for j in range(n)), default=0)
    ew_bound = (2 * m * a_max + 1) ** m if m else 1

    B = RatMatrix.from_rows(basis, cols=n)
    gram_inv = invert(B.mul(B.transpose()))
    P = gram_inv.mul(B)
    caps = []
    total = 1
    for i in range(k):
        cap = floor(norm1(P.row(i)) * entry_cap)
        caps.append(cap)
        total *= 2 * cap + 1
    if total > _BOX_LIMIT:
        raise BoxTooLarge(f"coefficient box has {total} points; 1-norm bound {ew_bound}")

    candidates = set()

    def scan(i, partial):
        # partial is sum_{t < i} lam[t] * basis[t]; step lam[i] up its range
        row, cap = basis[i], caps[i]
        x = [p - cap * b for p, b in zip(partial, row)]
        for _ in range(2 * cap + 1):
            if i + 1 < k:
                scan(i + 1, x)
            elif any(x) and max(map(abs, x)) <= entry_cap:
                candidates.add(tuple(x))
            x = [p + b for p, b in zip(x, row)]

    scan(0, [0] * n)

    # A conformal h under g with h != g has a strictly smaller 1-norm, and
    # conformal domination is transitive, so in 1-norm order a candidate is
    # dominated iff some minimal element kept before it dominates it.
    minimal = []
    for g in sorted(candidates, key=lambda g: sum(map(abs, g))):
        if not any(
            all(hi * gi >= 0 and abs(hi) <= abs(gi) for hi, gi in zip(h, g)) for h in minimal
        ):
            minimal.append(g)
    elements = tuple(sorted(minimal))
    g1 = max(sum(abs(v) for v in g) for g in elements)
    ginf = max(max(abs(v) for v in g) for g in elements)

    for ev in W.circuit_list:
        if ev.vector not in elements or tuple(-v for v in ev.vector) not in elements:
            raise AuditFailure("graver-circuits", detail="a normalized circuit is missing")
    if not kappa_bar <= ginf <= n * kappa_bar:
        raise AuditFailure(
            "graver-sandwich", detail=f"{kappa_bar} <= {ginf} <= {n * kappa_bar} fails"
        )
    return GraverBasis(elements=elements, g1=g1, ginf=ginf)


def _scan_integer_points(A: RatMatrix, b, lo, hi):
    """Integer points of Ax = b inside the coordinate box [lo, hi], in
    lexicographic order.  One depth-first pass over the box, pruned on the
    per-row reachable ranges of the remaining columns.
    """
    m, n = A.shape
    suffix_lo = [[Fraction(0)] * m for _ in range(n + 1)]
    suffix_hi = [[Fraction(0)] * m for _ in range(n + 1)]
    for j in range(n - 1, -1, -1):
        for r in range(m):
            a = A.entry(r, j)
            candidates = (a * lo[j], a * hi[j])
            suffix_lo[j][r] = suffix_lo[j + 1][r] + min(candidates)
            suffix_hi[j][r] = suffix_hi[j + 1][r] + max(candidates)
    out = []
    x = [0] * n

    def rec(j, partial):
        if j == n:
            if all(partial[r] == b[r] for r in range(m)):
                out.append(tuple(x))
            return
        for v in range(lo[j], hi[j] + 1):
            nxt = [partial[r] + A.entry(r, j) * v for r in range(m)]
            if any(
                b[r] - nxt[r] < suffix_lo[j + 1][r] or b[r] - nxt[r] > suffix_hi[j + 1][r]
                for r in range(m)
            ):
                continue
            x[j] = v
            rec(j + 1, nxt)
        x[j] = 0

    rec(0, [Fraction(0)] * m)
    return out


def ip_proximity_check(A: RatMatrix, b, c):
    """Solve the LP and the IP, and bound their distance by n * kappa_bar.

    Returns (x_lp, x_ip, distance, bound) where x_ip is the least
    (1-norm distance to the basic LP optimum, x) among the optimal integer
    points of the proximity ball, the points within `bound` of x_lp.  One
    scan of the coordinate box [x_lp - bound, x_lp + bound] finds the
    ball's points and cross-checks its optimum against the whole box's; an
    empty ball proves the IP infeasible.
    """
    b = vec(b)
    c = vec(c)
    n = A.cols
    res = solve(LPInstance.standard(A, b, c))
    if res.status == INFEASIBLE:
        raise InfeasibleSystem("LP relaxation is infeasible", certificate=res.certificate)
    if res.status == UNBOUNDED:
        raise UnboundedDirection("LP relaxation is unbounded", ray=res.certificate)
    x_lp = res.x
    kappa_bar = Subspace.from_kernel_matrix(A).measures.kappa_bar
    bound = Fraction(n * kappa_bar)
    lo = [max(0, ceil(x_lp[i] - bound)) for i in range(n)]
    hi = [floor(x_lp[i] + bound) for i in range(n)]
    total = 1
    for i in range(n):
        total *= max(hi[i] - lo[i] + 1, 0)
    if total > _BOX_LIMIT:
        raise BoxTooLarge(f"proximity box has {total} points")
    if any(hi[i] < lo[i] for i in range(n)):
        raise InfeasibleSystem("no integer point within the proximity ball")
    box = _scan_integer_points(A, b, lo, hi)
    dist = {x: sum(abs(v - w) for v, w in zip(x, x_lp)) for x in box}
    ball = [x for x in box if dist[x] <= bound]
    if not ball:
        raise InfeasibleSystem("no integer point within the proximity ball")
    best_obj = min(vec_dot(c, x) for x in ball)
    if min(vec_dot(c, x) for x in box) != best_obj:
        raise AuditFailure("ip-ball-optimum", detail="full box scan found a better point")
    x_ip = min((x for x in ball if vec_dot(c, x) == best_obj), key=lambda x: (dist[x], x))
    # re-measured apart from the ball's own distances
    distance = norm1(vec_sub(x_ip, x_lp))
    if distance > bound:
        raise AuditFailure("ip-proximity", detail=f"distance {distance} exceeds {bound}")
    return x_lp, x_ip, distance, bound


def conjecture_decompose(W: Subspace, z) -> ConjectureReport:
    """Search for a conformal circuit decomposition with 1/kappa_dot steps.

    Coefficients range over positive multiples of 1/kappa_dot (complete for
    the conjecture: gcd-one circuits force any 1/kappa_dot-integral term to
    such a coefficient), at most n terms, fewest terms first and circuits in
    listing order for ties.  A "violated" verdict means the exhaustive
    search found nothing and is a reportable finding.

    `searched` counts the (circuit, coefficient) pairs tried: from the
    largest coefficient down at each level but the last, whose term is
    solved, one test per circuit.  With C the conformal circuits and M =
    kappa_dot * max |z_i|, l terms take at most l * |C|^l * M^(l-1) tries.
    """
    zv = vec(z)
    if len(zv) != W.ambient_dim:
        raise DimensionMismatch("target has the wrong ambient dimension")
    if any(v.denominator != 1 for v in zv):
        raise NotIntegerKernelVector("target must be an integer vector")
    if not W.contains(zv):
        raise NotIntegerKernelVector("target must lie in the subspace")
    n = W.ambient_dim
    kd = W.measures.kappa_dot
    zi = tuple(int(v) for v in zv)
    if not any(zi):
        return ConjectureReport(target=zi, status="holds", decomposition=(), searched=0)

    oriented = sorted(g.vector for g in oriented_circuits(W) if is_conformal(g.vector, zv))
    searched = 0

    def attempt(start, R, depth, limit, acc):
        # R is kd times the remainder, so coefficient a/kd is the integer a
        nonlocal searched
        if not any(R):
            return list(acc)
        if depth == limit:
            return None
        for idx in range(start, len(oriented)):
            g = oriented[idx]
            if any(gi != 0 and ri == 0 for gi, ri in zip(g, R)):
                continue
            # largest multiple of 1/kd keeping the remainder in the orthant
            amax = min(ri // gi for gi, ri in zip(g, R) if gi != 0)
            if depth == limit - 1:
                # only R = a * g empties the remainder, and then a = amax
                if amax > 0:
                    searched += 1
                    if all(ri == amax * gi for gi, ri in zip(g, R)):
                        return acc + [(amax, g)]
                continue
            for a in range(amax, 0, -1):
                searched += 1
                rest = tuple(ri - a * gi for gi, ri in zip(g, R))
                if any(rest_i * z < 0 for rest_i, z in zip(rest, zi)):
                    continue
                found = attempt(idx + 1, rest, depth + 1, limit, acc + [(a, g)])
                if found is not None:
                    return found
        return None

    for limit in range(1, n + 1):
        found = attempt(0, tuple(kd * z for z in zi), 0, limit, [])
        if found is not None:
            found = [(Fraction(a, kd), g) for a, g in found]
            total = vec_zero(n)
            for lamk, g in found:
                if any((lamk * gi * kd).denominator != 1 for gi in g):
                    raise AuditFailure("conjecture-term", detail="term is not 1/kd-integral")
                total = tuple(t + lamk * gi for t, gi in zip(total, g))
            if total != zv:
                raise AuditFailure("conjecture-sum", detail="decomposition does not sum back")
            return ConjectureReport(
                target=zi, status="holds", decomposition=tuple(found), searched=searched
            )
    return ConjectureReport(target=zi, status="violated", decomposition=None, searched=searched)


def hk_check(W: Subspace, trials: int, seed: int) -> HKReport:
    """Vertex denominators of {x in W + d, x >= 0} for integer shifts d.

    Random shifts must give fractionality dividing kappa_dot; the circuit
    witness family (shift t on a basis through the circuit, -1 on the
    normalized coordinate) must realize kappa_dot exactly as the lcm of its
    vertex denominators.
    """
    kd = W.measures.kappa_dot
    n = W.ambient_dim
    rng = random.Random(seed)
    A = W.kernel_rep
    feasible = 0
    acc = 1
    for _ in range(trials):
        d = vec(rng.randint(-9, 9) for _ in range(n))
        try:
            frac = fractionality(LPInstance.from_subspace(W, d, vec_zero(n)))
        except InfeasibleSystem:
            continue
        feasible += 1
        if kd % frac != 0:
            raise AuditFailure("hk-random", detail=f"denominator {frac} outside 1/{kd} grid")
        acc = lcm(acc, frac)

    witness_lcm = 1
    for ev in W.circuit_list:
        for ell in ev.support:
            g = tuple(Fraction(v, ev.vector[ell]) for v in ev.vector)
            others = tuple(i for i in ev.support if i != ell)
            basis_cols = greedy_basis(A, others + tuple(j for j in range(n) if j not in others))
            if basis_cols[: len(others)] != others:
                raise InternalError("seed columns of a basis are dependent")
            t = ceil(max(abs(v) for v in g))
            d = [Fraction(0)] * n
            for j in basis_cols:
                d[j] = Fraction(t)
            d[ell] = Fraction(-1)
            x = [Fraction(0)] * n
            for j in basis_cols:
                x[j] = t + g[j]
            if A.matvec(vec(x)) != A.matvec(vec(d)) or any(v < 0 for v in x):
                raise InternalError("kappa_dot witness point is not in W + d and >= 0")
            for v in x:
                witness_lcm = lcm(witness_lcm, v.denominator)
    if witness_lcm != kd:
        raise AuditFailure("hk-witness", detail=f"family lcm {witness_lcm}, expected {kd}")
    return HKReport(
        kappa_dot=kd, trials=trials, feasible_trials=feasible,
        random_lcm=acc, witness_lcm=witness_lcm,
    )


COUNTEREXAMPLE_MATRIX = RatMatrix.from_rows([[1, 3, 4, 3], [0, 13, 9, 10]], cols=4)

_COUNTEREXAMPLE_KD = 5850
_COUNTEREXAMPLE_VECTORS = ((0, 1), (9, -4), (10, -3), (13, -3))
_COUNTEREXAMPLE_PAIRS = (
    ((9, -4), (10, -3)),
    ((13, -3), (10, -3)),
    ((9, -4), (13, -3)),
    ((0, 1), (9, -4)),
    ((0, 1), (10, -3)),
    ((0, 1), (13, -3)),
)


def _appendix_qualifiers(cols, kd: int) -> set:
    """Every integer v = (v1, v2) != 0 with each nonzero entry of v^T A
    dividing kd, for the 2-row matrix A with columns `cols`.

    Column 1 of A is (1, 0), so that entry is v1 itself: 0 or a signed
    divisor of kd.  Column 2 is (a, c) = (3, 13), and its entry
    e = a v1 + c v2 must be 0 or a signed divisor of kd too, so
    v2 = (e - a v1) / c for one such e, when that is an integer: 73 x 73
    candidate pairs, where a scan of every v2 with |e| <= kd visits about
    98,000 for the same qualifiers.
    """
    a, c = cols[1]
    divisors = [d for d in range(1, kd + 1) if kd % d == 0]
    entries = [0] + [s * d for d in divisors for s in (1, -1)]
    found = set()
    for v1 in entries:
        for e2 in entries:
            v2, rem = divmod(e2 - a * v1, c)
            if rem or (v1 == 0 and v2 == 0):
                continue
            # kd % e == 0 iff the nonzero integer e divides kd, of either sign
            if all(e == 0 or kd % e == 0 for e in (v1 * a0 + v2 * a1 for a0, a1 in cols)):
                found.add((v1, v2))
    return found


def appendix_counterexample() -> AppendixReport:
    """Reproduce the three computational legs of the 5850 counterexample.

    (1) kappa_dot of the kernel is 5850; (2) the integer row combinations v
    with every nonzero entry of v^T A dividing 5850 are exactly the four
    sign classes; (3) each of the six pairings of those classes yields a
    2x2-row representation containing a nonsingular 2x2 submatrix whose
    inverse is not 1/5850-integral.
    """
    A = COUNTEREXAMPLE_MATRIX
    kd = Subspace.from_kernel_matrix(A).measures.kappa_dot
    if kd != _COUNTEREXAMPLE_KD:
        raise AuditFailure("appendix-kappa-dot", detail=f"enumerated {kd}")

    # Only primitive v matter: scaling a row of the combination matrix up by
    # an integer scales the corresponding inverse column down, which keeps a
    # non-1/5850-integral inverse non-integral.  Non-primitive qualifiers do
    # occur and must all be multiples of the primitive ones.
    cols = [(int(A.entry(0, j)), int(A.entry(1, j))) for j in range(4)]
    found = _appendix_qualifiers(cols, kd)
    primitive = {v for v in found if gcd(abs(v[0]), abs(v[1])) == 1}
    canonical = set()
    for v in primitive:
        first = v[0] if v[0] != 0 else v[1]
        canonical.add(v if first > 0 else (-v[0], -v[1]))
    if sorted(canonical) != sorted(_COUNTEREXAMPLE_VECTORS):
        raise AuditFailure("appendix-vectors", detail=f"search found {sorted(canonical)}")
    if len(primitive) != 8:
        raise AuditFailure("appendix-vectors", detail=f"{len(primitive)} vectors, expected 8")
    for v in found - primitive:
        g = gcd(abs(v[0]), abs(v[1]))
        if (v[0] // g, v[1] // g) not in primitive:
            raise AuditFailure(
                "appendix-vectors", detail=f"{v} is not a multiple of a primitive qualifier"
            )

    products = []
    witnesses = []
    for v, w in _COUNTEREXAMPLE_PAIRS:
        rows = [[u[0] * a0 + u[1] * a1 for a0, a1 in cols] for u in (v, w)]
        M = RatMatrix.from_rows(rows, cols=4)
        witness = None
        for i in range(4):
            for j in range(i + 1, 4):
                S = M.submatrix([0, 1], [i, j])
                if bareiss_det(S) == 0:
                    continue
                inv = invert(S)
                if any(
                    (kd * inv.entry(r, s)).denominator != 1
                    for r in range(2)
                    for s in range(2)
                ):
                    witness = (i, j)
                    break
            if witness:
                break
        if witness is None:
            raise AuditFailure("appendix-inverse", detail=f"pair {v}, {w} has no witness")
        products.append((v, w, tuple(tuple(row) for row in rows)))
        witnesses.append(witness)
    return AppendixReport(
        kappa_dot=kd,
        vectors=_COUNTEREXAMPLE_VECTORS,
        products=tuple(products),
        witnesses=tuple(witnesses),
    )


def ej_check(A: RatMatrix) -> bool:
    """Column-sum test: absolute column sums <= 2 force kappa_dot in {1, 2}.

    Returns False without checking anything when some column sum exceeds 2;
    the guarantee simply does not apply there.
    """
    if not A.is_integral():
        raise NonIntegerMatrix("the column-sum test needs an integer matrix")
    m, n = A.shape
    for j in range(n):
        if sum(abs(int(A.entry(r, j))) for r in range(m)) > 2:
            return False
    kd = Subspace.from_kernel_matrix(A).measures.kappa_dot
    if kd not in (1, 2):
        raise AuditFailure("edmonds-johnson", detail=f"kappa_dot {kd} outside {{1, 2}}")
    return True
