"""Independent oracles used to cross-check the package's exact routines.

Everything here is deliberately naive: cofactor determinants, support-set
circuit search, augmenting-path max flow, a Fraction simplex tableau that
recomputes every reduced cost on every iteration, and the slower forms of
what the package runs faster: the dot products, matrix-vector products
and norms as per-term Fraction sums, the sign parts, Lambda sets and the
region test by Fraction comparisons, the projection onto W-perp through
a Fraction Gram matrix, the standardized system as Fraction lists and
the LPResult read off the Fraction simplex, the simplex tableau built and
its duals read with per-entry Fraction arithmetic, the RREF over Fractions,
the circuit enumeration support by support (over Fractions, and over
ints with `int_kernel_line`) and as the independent-set growth without its coloop
cut, the imbalance scan and the pair maxima with one Fraction per pair,
the kappa_star stages over Fractions (Bellman-Ford, its audit and the
tight-arc witness), the kappa_star bitmask DP over simple paths (over
Fractions and over ints) that Karp's algorithm replaced, the least optimal
cycle over all simple cycles in place of the tight-arc witness, the Graver box
scan and its minimality filter, the IP proximity ball as a plain
product over its box, the decomposition search, the appendix
window scan, the nearest point as two separate simplex solves, the
optimal face as a face row stacked under A, the certified optimum with
its dual certificate over Fractions (the always-LP path the transfer
bound's zero-cost face skips), the fixing sets and the
transfer bound with every LP solved whatever is claimed or held (the
transfer bound's dual face as its own LP), the steepness eps(x) as its
dual LP, the recession test as a box LP, the greedy basis by one rank
per column, the basis forms by determinant, inverse and product, and the
components of the circuit hypergraph.  Slow
is fine, different is the point.  The routines at the end are ones no verb
runs, kept here as oracles: the brute-force unimodularity scan, the
basis-form route to kappa, the pair estimates and rescaled-TU decision
built on them, and the CSV readers that check what the CSV writers emit.
"""

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import ceil, floor, gcd, lcm, sqrt
import random

from hypothesis import strategies as st

from circuitkit import graver as gmod
from circuitkit import imbalance as imbmod
from circuitkit import lp as lpmod
from circuitkit.errors import (
    AuditFailure,
    BadParameters,
    BoxTooLarge,
    DimensionMismatch,
    InfeasibleSystem,
    InternalError,
    NonIntegerMatrix,
    NotOptimalPair,
    RankDeficient,
    SeparableInput,
    UnboundedDirection,
    ZeroVector,
)
from circuitkit.ratmat import (
    RatMatrix,
    bareiss_det,
    bareiss_step,
    bases,
    basis_form,
    check_desk_scale,
    invert,
    is_conformal,
    norm1,
    over_common_den,
    rank,
    rref,
    rref_kernel,
    rref_nonzero,
    solve_linear,
    vec,
    vec_dot,
)
from circuitkit.serialize import matrix_from_obj, parse_frac, vec_from_obj
from circuitkit.subspace import (
    ElementaryVector,
    Subspace,
    components,
    is_separable,
    oriented_circuits,
)


def fraction_vec_dot(a, b) -> Fraction:
    """`ratmat.vec_dot` as the per-term Fraction sum it replaced: every
    product and every partial sum a normalised Fraction."""
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def fraction_matvec(M: RatMatrix, v) -> tuple:
    return tuple(fraction_vec_dot(row, v) for row in M.data)


def fraction_vecmat(M: RatMatrix, v) -> tuple:
    return tuple(
        sum((v[i] * M.data[i][j] for i in range(M.rows)), Fraction(0)) for j in range(M.cols)
    )


def fraction_project_onto_perp(W: Subspace, v) -> tuple:
    """`Subspace.project_onto_perp` over Fractions: the Gram matrix B B^T
    of B = kernel_rep, one `solve_linear` for mu and B^T mu as a product
    with the transpose."""
    B = W.kernel_rep
    if B.rows == 0:
        return (Fraction(0),) * W.ambient_dim
    mu = solve_linear(B.mul(B.transpose()), B.matvec(vec(v)))
    return B.transpose().matvec(mu)


def fraction_lift_min_norm(W: Subspace, I, p) -> tuple:
    """`subspace.lift_min_norm` with its own Fraction Gram solve, the form
    it replaced: a lift z0 of p, less V0^T mu with (V0 V0^T) mu = V0 z0,
    where the rows of V0 span W ∩ {x_I = 0}.  p must be in the projection."""
    I = sorted(set(I))
    n = W.ambient_dim
    S = W.span_rep
    if S.rows == 0:
        return (Fraction(0),) * n
    z0 = S.vecmat(solve_linear(S.take_cols(I).transpose(), vec(p)))
    units = [[Fraction(int(j == i)) for j in range(n)] for i in I]
    _, _, V0 = rref_kernel(RatMatrix.from_rows([*W.kernel_rep.data, *units], cols=n))
    if V0.rows == 0:
        return z0
    mu = solve_linear(V0.mul(V0.transpose()), V0.matvec(z0))
    return tuple(a - b for a, b in zip(z0, V0.vecmat(mu)))


def fraction_norm1(a) -> Fraction:
    return sum((abs(x) for x in a), Fraction(0))


def fraction_norm2_sq(a) -> Fraction:
    return sum((x * x for x in a), Fraction(0))


def integer_normalize(v):
    """(g, scale) with v = scale * g, g coprime integers with the first
    nonzero entry positive: the gcd normalization of each row that
    `Subspace.int_kernel_rows` replaced with the integer rows its RREF
    kernel_rep keeps."""
    ints, den = over_common_den(vec(v))
    if not any(ints):
        raise ZeroVector("cannot normalize the zero vector")
    g = gcd(*ints)
    ints = [x // g for x in ints]
    flip = -1 if next(x for x in ints if x) < 0 else 1
    return tuple(flip * x for x in ints), Fraction(flip * g, den)


def fraction_neg_part(a) -> tuple:
    return tuple(-x if x < 0 else Fraction(0) for x in a)


def fraction_pos_part(a) -> tuple:
    return tuple(x if x > 0 else Fraction(0) for x in a)


def fraction_lambda_set(d, c) -> tuple:
    """`proximity.lambda_set` by Fraction comparisons: supp(d^-) union
    supp(c^+)."""
    return tuple(sorted({i for i, x in enumerate(d) if x < 0} | {i for i, x in enumerate(c) if x > 0}))


def fraction_violation(lp, x):
    """`LPInstance.violation` as the Fraction region test it replaced: a
    Fraction matvec compared with b, then x >= 0 and x <= u entry by entry."""
    if fraction_matvec(lp.A, x) != tuple(lp.b) or any(v < 0 for v in x):
        return "equations"
    if lp.u is not None and any(ui is not None and xi > ui for xi, ui in zip(x, lp.u)):
        return "upper"
    return None


def fraction_rref(rows: list, ncols: int):
    """In-place reduced row echelon form over Fractions, dividing each pivot
    row by its pivot: the loop that `ratmat._gauss_jordan` replaced.
    Returns (rank, pivot column list)."""
    pivots = []
    r = 0
    for j in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][j] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][j]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][j] != 0:
                f = rows[i][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(j)
        r += 1
        if r == len(rows):
            break
    return r, pivots


def naive_det(M: RatMatrix) -> Fraction:
    n = M.rows
    if n != M.cols:
        raise ValueError("square only")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return M.entry(0, 0)
    total = Fraction(0)
    for j in range(n):
        a = M.entry(0, j)
        if a == 0:
            continue
        minor_rows = [
            [M.entry(i, k) for k in range(n) if k != j] for i in range(1, n)
        ]
        sub = RatMatrix.from_rows(minor_rows, cols=n - 1)
        total += (-1) ** j * a * naive_det(sub)
    return total


def _nullvector_on(A: RatMatrix, cols):
    """A kernel vector supported inside `cols`, or None; Gaussian, dense."""
    m, k = A.rows, len(cols)
    rows = [[A.entry(i, c) for c in cols] for i in range(m)]
    # Row reduce [rows | 0]; find a free column, back-substitute.
    pivots = {}
    r = 0
    for c in range(k):
        pr = None
        for i in range(r, m):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
    free = [c for c in range(k) if c not in pivots]
    if not free:
        return None
    f = free[0]
    x = [Fraction(0)] * k
    x[f] = Fraction(1)
    for c, pr in pivots.items():
        x[c] = -rows[pr][f]
    return x


def brute_circuits(A: RatMatrix):
    """All circuits of ker(A) as sign-canonical integer tuples.

    A support is a circuit support iff the restricted kernel is 1-dim and
    no proper subset supports a kernel vector; minimal supports are found
    by increasing size.
    """
    n = A.cols
    found = []
    supports = []
    for size in range(1, n + 1):
        for cols in combinations(range(n), size):
            if any(set(s) <= set(cols) for s in supports):
                continue
            x = _nullvector_on(A, cols)
            if x is None:
                continue
            if any(v == 0 for v in x):
                continue
            full = [Fraction(0)] * n
            for c, v in zip(cols, x):
                full[c] = v
            mult = lcm(*[v.denominator for v in full if v != 0])
            ints = [int(v * mult) for v in full]
            g = gcd(*[abs(v) for v in ints if v])
            ints = [v // g for v in ints]
            lead = next(v for v in ints if v)
            if lead < 0:
                ints = [-v for v in ints]
            supports.append(cols)
            found.append(tuple(ints))
    return sorted(found)


def brute_kappa(A: RatMatrix) -> Fraction:
    best = Fraction(1)
    for g in brute_circuits(A):
        nz = [abs(v) for v in g if v]
        best = max(best, Fraction(max(nz), min(nz)))
    return best


def brute_kappa_dot(A: RatMatrix) -> int:
    out = 1
    for g in brute_circuits(A):
        out = lcm(out, *[abs(v) for v in g if v])
    return out


def brute_kappa_bar(A: RatMatrix) -> int:
    out = 1
    for g in brute_circuits(A):
        out = max(out, max(abs(v) for v in g))
    return out


def ford_fulkerson(n_nodes, arcs, capacities, s, t) -> Fraction:
    """Max s-t flow, BFS augmenting paths on an explicit residual graph."""
    cap = {}
    adj = {v: set() for v in range(n_nodes)}
    for (u, v), c in zip(arcs, capacities):
        cap[(u, v)] = cap.get((u, v), Fraction(0)) + Fraction(c)
        cap.setdefault((v, u), Fraction(0))
        adj[u].add(v)
        adj[v].add(u)
    total = Fraction(0)
    while True:
        prev = {s: None}
        queue = [s]
        while queue and t not in prev:
            x = queue.pop(0)
            for y in adj[x]:
                if y not in prev and cap.get((x, y), 0) > 0:
                    prev[y] = x
                    queue.append(y)
        if t not in prev:
            return total
        path = []
        y = t
        while prev[y] is not None:
            path.append((prev[y], y))
            y = prev[y]
        push = min(cap[e] for e in path)
        for u, v in path:
            cap[(u, v)] -= push
            cap[(v, u)] += push
        total += push


def random_int_matrix(rng: random.Random, m: int, n: int, lo=-4, hi=4) -> RatMatrix:
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
        if any(any(v for v in row) for row in rows):
            return RatMatrix.from_rows(rows, cols=n)


@st.composite
def rational_matrices(draw, rows, cols):
    """Matrices with entries p/q, |p/q| <= 4 and q <= 3, shape in the given
    ranges; some have a row that is a combination of two others (rank
    deficient), some a column that is a multiple of another (parallel) and
    some have zero columns."""
    m = draw(st.integers(*rows))
    n = draw(st.integers(*cols))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    data = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if m >= 3 and draw(st.booleans()):
        a, b = draw(entry), draw(entry)
        data[-1] = [a * x + b * y for x, y in zip(data[0], data[1])]
    if n >= 2 and draw(st.booleans()):
        j, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        f = draw(entry)
        for row in data:
            row[j] = f * row[k]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in data:
            row[j] = Fraction(0)
    return RatMatrix.from_rows(data, cols=n)


@st.composite
def small_int_matrices(draw):
    """2-3 x 4-6 matrices with integer entries in [-3, 3]."""
    m = draw(st.integers(2, 3))
    n = draw(st.integers(4, 6))
    rows = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(m)]
    return RatMatrix.from_rows(rows, cols=n)


def per_entry_tableau(rows, b):
    """`lp._Tableau`'s starting state (T, den, scale, flip) built as it
    first was: the row sign, the scale and each integer entry from three
    Fraction property reads per entry, and a dense artificial block."""
    m = len(rows)
    T, scale, flip = [], [], []
    for i in range(m):
        row = list(rows[i]) + [b[i]]
        sign = -1 if b[i] < 0 else 1
        s = lcm(*(x.denominator for x in row))
        ints = [sign * x.numerator * (s // x.denominator) for x in row]
        art = [0] * m
        art[i] = 1
        T.append(ints[:-1] + art + ints[-1:])
        flip.append(sign)
        scale.append(s)
    return T, [1] * m, scale, flip


def three_op_duals(tab):
    """`lp._Tableau.duals` as f * s * (c - rc / LD) per row: a Fraction
    division, subtraction and two products for each dual."""
    LD = tab.cost_scale * tab.red_den
    return [
        f * s * (c - Fraction(rc, LD))
        for f, s, c, rc in zip(tab.flip, tab.scale, tab.costs[tab.n:], tab.reduced[tab.n:])
    ]


class _FractionTableau:
    """Dense Fraction simplex tableau with artificial columns kept for duals."""

    def __init__(self, rows, b):
        self.m = len(rows)
        self.n = len(rows[0])
        self.flip = [Fraction(1)] * self.m
        self.T = []
        for i in range(self.m):
            r = list(rows[i])
            rhs = b[i]
            if rhs < 0:
                r = [-x for x in r]
                rhs = -rhs
                self.flip[i] = Fraction(-1)
            art = [Fraction(0)] * self.m
            art[i] = Fraction(1)
            self.T.append(r + art + [rhs])
        self.basis = [self.n + i for i in range(self.m)]
        self.pivots = 0

    @property
    def width(self):
        return self.n + self.m

    def pivot(self, r, j):
        piv = self.T[r][j]
        self.T[r] = [x / piv for x in self.T[r]]
        for i in range(len(self.T)):
            if i != r and self.T[i][j] != 0:
                f = self.T[i][j]
                self.T[i] = [a - f * b for a, b in zip(self.T[i], self.T[r])]
        self.basis[r] = j
        self.pivots += 1

    def _cb_dot(self, costs, k):
        """Sum over the rows of c_B[r] * T[r][k]."""
        return sum((costs[self.basis[r]] * row[k] for r, row in enumerate(self.T)), Fraction(0))

    def reduced_costs(self, costs):
        return [costs[j] - self._cb_dot(costs, j) for j in range(self.width)]

    def objective(self, costs):
        return self._cb_dot(costs, -1)

    def duals(self, costs):
        return [self.flip[i] * self._cb_dot(costs, self.n + i) for i in range(self.m)]

    def run(self, costs, cols):
        while True:
            red = self.reduced_costs(costs)
            enter = next((j for j in cols if red[j] < 0), None)
            if enter is None:
                return lpmod.OPTIMAL, None
            cands = [
                (row[-1] / row[enter], self.basis[r], r)
                for r, row in enumerate(self.T)
                if row[enter] > 0
            ]
            if not cands:
                return lpmod.UNBOUNDED, enter
            self.pivot(min(cands)[2], enter)

    def install(self, x):
        """Pivot each support column of the vertex x, in ascending order, into
        the first row whose basic is still artificial and nonzero there."""
        for j, v in enumerate(x):
            if v:
                r = next(
                    r for r, row in enumerate(self.T) if self.basis[r] >= self.n and row[j] != 0
                )
                self.pivot(r, j)

    def drive_out_artificials(self, order):
        r = 0
        while r < len(self.T):
            if self.basis[r] >= self.n:
                col = next((j for j in order if self.T[r][j] != 0), None)
                if col is None:
                    del self.T[r]
                    del self.basis[r]
                    continue
                self.pivot(r, col)
            r += 1


def fraction_simplex(rows, b, c, c2=None, start=None):
    """Two-phase Bland simplex over Fractions, same contract as lp._solve_standard.

    With a vertex `start`, its support is installed in place of phase 1 and
    the rows still on an artificial take their highest nonzero column.

    With no rows, x = 0 is the only basic point: the first column of
    negative cost, or else the first of cost 0 with negative c2, is a ray."""
    if not rows:
        n = len(c)
        neg = next((j for j in range(n) if c[j] < 0), None)
        if neg is None and c2 is not None:
            neg = next((j for j in range(n) if c[j] == 0 and c2[j] < 0), None)
        if neg is not None:
            ray = [Fraction(0)] * n
            ray[neg] = Fraction(1)
            return {"status": lpmod.UNBOUNDED, "certificate": ray, "pivots": 0}
        return {
            "status": lpmod.OPTIMAL,
            "x": [Fraction(0)] * n,
            "objective": Fraction(0),
            "basis": [],
            "y": [],
            "pivots": 0,
        }
    tab = _FractionTableau(rows, b)
    if start is None:
        phase1 = [Fraction(0)] * tab.n + [Fraction(1)] * tab.m
        status, _ = tab.run(phase1, range(tab.width))
        if status != lpmod.OPTIMAL:
            raise AssertionError("phase 1 cannot be unbounded")
        if tab.objective(phase1) > 0:
            certificate = tab.duals(phase1)
            return {"status": lpmod.INFEASIBLE, "certificate": certificate, "pivots": tab.pivots}
        tab.drive_out_artificials(range(tab.n))
    else:
        tab.install(start)
        tab.drive_out_artificials(range(tab.n - 1, -1, -1))
    costs = list(c) + [Fraction(0)] * tab.m
    status, enter = tab.run(costs, range(tab.n))
    objective, y = tab.objective(costs), tab.duals(costs)
    if status == lpmod.OPTIMAL and c2 is not None:
        red = tab.reduced_costs(costs)
        face = [j for j in range(tab.n) if red[j] == 0]
        status, enter = tab.run(list(c2) + [Fraction(0)] * tab.m, face)
    if status == lpmod.UNBOUNDED:
        ray = [Fraction(0)] * tab.width
        ray[enter] = Fraction(1)
        for r, row in enumerate(tab.T):
            ray[tab.basis[r]] = -row[enter]
        return {"status": lpmod.UNBOUNDED, "certificate": ray[: tab.n], "pivots": tab.pivots}
    x = [Fraction(0)] * tab.width
    for r, row in enumerate(tab.T):
        x[tab.basis[r]] = row[-1]
    return {
        "status": lpmod.OPTIMAL,
        "x": x[: tab.n],
        "objective": objective,
        "basis": sorted(tab.basis),
        "y": y,
        "pivots": tab.pivots,
    }


def fraction_standardized(lp):
    """(rows, b, c, n, bounded_idx): the standardized system of `lp` as
    Fraction lists, a slack column and a row x_i + slack = u_i per finite
    upper bound, the oracle's own input path beside `lp._Tableau`."""
    rows = [list(r) for r in lp.A.data]
    b = list(lp.b)
    c = list(lp.c)
    n = lp.A.cols
    bounded_idx = [i for i, x in enumerate(lp.u or ()) if x is not None]
    f = len(bounded_idx)
    for r in rows:
        r.extend([Fraction(0)] * f)
    for k, i in enumerate(bounded_idx):
        row = [Fraction(0)] * (n + f)
        row[i] = Fraction(1)
        row[n + k] = Fraction(1)
        rows.append(row)
        b.append(lp.u[i])
    c.extend([Fraction(0)] * f)
    return rows, b, c, n, bounded_idx


def oracle_solve(lp, tiebreak=None, start=None):
    """lp.solve with the Fraction simplex above in place of the integer
    tableau, over `fraction_standardized`, its LPResult read off here: x,
    basis and ray cut to the LP's n columns, y the duals of A's rows and
    dual_upper the negated duals of the bound rows."""
    rows, b, c, n, bounded_idx = fraction_standardized(lp)
    c2 = None if tiebreak is None else list(vec(tiebreak)) + [Fraction(0)] * (len(c) - n)
    x0 = None if start is None else list(start) + [lp.u[i] - start[i] for i in bounded_idx]
    out = fraction_simplex(rows, b, c, c2, x0)
    if out["status"] != lpmod.OPTIMAL:
        cert = out["certificate"]
        if out["status"] == lpmod.UNBOUNDED:
            cert = cert[:n]
        return lpmod.LPResult(out["status"], certificate=tuple(cert), pivots=out["pivots"])
    m = lp.A.rows
    dual_upper = None
    if lp.u is not None:
        t = [Fraction(0)] * n
        for k, i in enumerate(bounded_idx):
            t[i] = -out["y"][m + k]
        dual_upper = tuple(t)
    return lpmod.LPResult(
        lpmod.OPTIMAL,
        x=tuple(out["x"][:n]),
        objective=out["objective"],
        basis=tuple(j for j in out["basis"] if j < n),
        y=tuple(out["y"][:m]),
        dual_upper=dual_upper,
        pivots=out["pivots"],
    )


def box_region_is_unbounded(lp):
    """`lp._region_is_unbounded` as a box LP: max 1^T d over A_std d = 0,
    0 <= d <= 1, whose optimum is positive exactly when the standardized
    region (`fraction_standardized`) has a nonzero recession direction."""
    rows, _, c, _, _ = fraction_standardized(lp)
    width = len(c)
    if width == 0:
        return False
    A = RatMatrix.from_rows(rows, cols=width) if rows else RatMatrix.zeros(0, width)
    box = lpmod.LPInstance.bounded(
        A,
        [Fraction(0)] * len(rows),
        [Fraction(-1)] * width,
        [Fraction(1)] * width,
    )
    res = lpmod.solve(box)
    if res.status != lpmod.OPTIMAL:
        raise AssertionError("recession-cone box LP is not optimal")
    return res.objective < 0


def dual_epsilon(A, c, x, u=None):
    """`augment.epsilon_of` as the dual LP: min eps with <a_i, y> <= c_i + eps
    over the split columns i in N(x), 0 when that LP is unbounded or N(x)
    is empty."""
    cv = vec(c)
    xv = vec(x)
    n = A.cols
    m = A.rows
    N = [i for i in range(n) if u is None or u[i] is None or xv[i] < u[i]]
    N += [n + j for j in range(n) if xv[j] > 0]
    if not N:
        return Fraction(0)
    # variables: y+ (m), y- (m), e+ , e-, slack per constraint
    k = len(N)
    width = 2 * m + 2 + k
    rows = []
    b = []
    for pos, i in enumerate(N):
        col = [r[i] if i < n else -r[i - n] for r in A.data]
        ci = cv[i] if i < n else -cv[i - n]
        row = col + [-v for v in col] + [Fraction(-1), Fraction(1)]
        row += [Fraction(1) if j == pos else Fraction(0) for j in range(k)]
        rows.append(row)
        b.append(ci)
    cost = [Fraction(0)] * (2 * m) + [Fraction(1), Fraction(-1)] + [Fraction(0)] * k
    res = lpmod.solve(lpmod.LPInstance.standard(RatMatrix.from_rows(rows, cols=width), b, cost))
    if res.status == lpmod.UNBOUNDED:
        return Fraction(0)
    if res.status != lpmod.OPTIMAL:
        raise AssertionError("dual epsilon LP is infeasible")
    return res.objective


def _stage(rows, b, width, coord_rows, cost_cols):
    """Solve min of the sum of the cost_cols variables over x >= 0 subject to
    the given rows, padded with zero columns to `width`, and then coord_rows,
    each a ({column: coefficient}, right-hand side) pair."""
    ext_rows = [[Fraction(v) for v in row] + [Fraction(0)] * (width - len(row)) for row in rows]
    ext_b = list(b)
    for entries, rhs in coord_rows:
        row = [Fraction(0)] * width
        for col, coeff in entries.items():
            row[col] = Fraction(coeff)
        ext_rows.append(row)
        ext_b.append(rhs)
    cost = [Fraction(1) if j in cost_cols else Fraction(0) for j in range(width)]
    return lpmod.solve(
        lpmod.LPInstance.standard(RatMatrix.from_rows(ext_rows, cols=width), ext_b, cost)
    )


def face_row_solve(lp, opt, cost):
    """min `cost` over the optimal face of `lp`, whose optimum is `opt`,
    written as its region with the face row c x = opt stacked under A and
    solved by the Fraction simplex: the oracle of the tie-break stage that
    `proximity.fixing_sets_bounds` reads its faces from."""
    face_A = RatMatrix.from_rows([*lp.A.data, lp.c], cols=lp.n)
    face = lpmod.LPInstance(face_A, (*lp.b, opt), vec(cost), lp.u)
    return oracle_solve(face)


def two_stage_nearest_point(rows, b, anchor):
    """`proximity._nearest_point` as two separate solves, each with its own
    phase 1: the sup-norm distance tau first, then the least 1-norm among
    points within tau.  Returns (x, tau, one_norm), or None when the region
    is empty."""
    n = len(anchor)
    # Stage 1: variables x (n), tau (1), p (n), q (n); minimize tau with
    # x_i - tau + p_i = anchor_i and x_i + tau - q_i = anchor_i.
    res = _stage(rows, b, 3 * n + 1, [
        row
        for i in range(n)
        for row in (
            ({i: 1, n: -1, n + 1 + i: 1}, anchor[i]),
            ({i: 1, n: 1, 2 * n + 1 + i: -1}, anchor[i]),
        )
    ], {n})
    if res.status != lpmod.OPTIMAL:
        return None
    tau = res.objective
    # Stage 2: variables x (n), r (n), s (n), w (n); minimize sum(r + s)
    # with x_i - r_i + s_i = anchor_i and r_i + s_i + w_i = tau.
    res2 = _stage(rows, b, 4 * n, [
        row
        for i in range(n)
        for row in (
            ({i: 1, n + i: -1, 2 * n + i: 1}, anchor[i]),
            ({n + i: 1, 2 * n + i: 1, 3 * n + i: 1}, tau),
        )
    ], range(n, 3 * n))
    if res2.status != lpmod.OPTIMAL:
        raise AssertionError("stage 2 of the nearest point is not optimal")
    return vec(res2.x[:n]), tau, res2.objective


def fraction_certified_optimum(lp, solve=lpmod.solve):
    """`proximity._certified_optimum` with its certificate over Fractions,
    as the package ran it before the integer pass: rc = c - A^T y entry by
    entry, then rc >= 0, rc x = 0 and c x = b y as Fraction sums, then the
    region test.  Returns (x, K) or raises the same errors; `solve` may be
    a tampered simplex.  The always-LP path that the zero-cost face of
    `proximity.transfer_bound` skips."""
    res = solve(lp)
    if res.status == lpmod.INFEASIBLE:
        raise InfeasibleSystem("no nonnegative point in W + d", certificate=res.certificate)
    if res.status != lpmod.OPTIMAL:
        raise InternalError("LP(W, d, c) with c >= 0 is unbounded")
    rc = [c - a for c, a in zip(lp.c, fraction_vecmat(lp.A, res.y))]
    if (
        min(rc, default=0) < 0
        or fraction_vec_dot(rc, res.x) != 0
        or fraction_vec_dot(lp.b, res.y) != fraction_vec_dot(lp.c, res.x)
    ):
        raise InternalError("the dual of LP(W, d, c) fails its optimality certificate")
    if lp.violation(res.x) is not None:
        raise InternalError("the optimum of LP(W, d, c) is not in its region")
    return res.x, [j for j, v in enumerate(rc) if v == 0]


def always_solve_transfer_bound(W: Subspace, x_tilde, s, d):
    """`proximity.transfer_bound` with every LP solved, whatever is already
    known: LP(W, d, s) by the simplex, the distance to its nearest optimum
    by the two-stage oracle on its rows plus the face row <s, x> = opt, and
    for each i in R the largest s*_i over the dual optimal face {s* >= 0 :
    s* - s in W-perp, <d, s*> = <d, s> - opt}, written with that face row
    and solved by the Fraction simplex, which must be 0.  The oracle of the
    transfer bound's answers from the optimum it holds."""
    xt, sv, dv = vec(x_tilde), vec(s), vec(d)
    n = W.ambient_dim
    if len(xt) != n or len(sv) != n or len(dv) != n:
        raise DimensionMismatch("vector length mismatch")
    if min((*xt, *sv), default=0) < 0 or fraction_vec_dot(xt, sv) != 0:
        raise NotOptimalPair("need x >= 0, s >= 0 and <x, s> = 0")
    gap = [a - b for a, b in zip(dv, xt)]
    bound = (brute_kappa(W.kernel_rep) + 1) * fraction_norm1(fraction_project_onto_perp(W, gap))
    R = tuple(i for i in range(n) if xt[i] > bound)
    lp = lpmod.LPInstance.from_subspace(W, dv, sv)
    res = lpmod.solve(lp)
    if res.status == lpmod.INFEASIBLE:
        raise InfeasibleSystem("no nonnegative point in W + d", certificate=res.certificate)
    if res.status != lpmod.OPTIMAL:
        raise AssertionError("LP(W, d, s) with s >= 0 is unbounded")
    _, tau, _ = two_stage_nearest_point([*lp.A.data, sv], [*lp.b, res.objective], xt)
    if tau > bound:
        raise AuditFailure("transfer-primal", detail=f"nearest optimal at {tau}, bound {bound}")
    M = W.span_rep
    face_A = RatMatrix.from_rows([*M.data, dv], cols=n)
    face_b = (*fraction_matvec(M, sv), fraction_vec_dot(dv, sv) - res.objective)
    for i in R:
        e = [Fraction(0)] * n
        e[i] = Fraction(-1)
        top = oracle_solve(lpmod.LPInstance(face_A, face_b, tuple(e)))
        if top.status == lpmod.UNBOUNDED:
            raise AuditFailure("transfer-dual", detail=f"s_{i} unbounded over the dual face")
        if top.status != lpmod.OPTIMAL:
            raise AssertionError(f"the dual face LP for s_{i} is {top.status}")
        if top.objective != 0:
            raise AuditFailure("transfer-dual", detail=f"max s_{i} over the dual face is {-top.objective}")
    return bound, R


def always_solve_fixing_sets(A, b, u, c1, c2, x1, y1):
    """`proximity.fixing_sets_bounds` with every LP solved, whatever is
    claimed: the same test of (x1, y1), then the c2 LP solved from phase 1,
    and each claimed coordinate optimized over the c2-optimal face written
    with its face row (`face_row_solve`).  The oracle of the fixing sets'
    answers with no solve."""
    A = A if isinstance(A, RatMatrix) else RatMatrix.from_rows(A)
    lp1 = lpmod.LPInstance.bounded(A, b, c1, u)
    lp2 = lpmod.LPInstance.bounded(A, b, c2, u)
    x1, u = vec(x1), lp1.u
    broken = lp1.violation(x1)
    if broken == "equations":
        raise NotOptimalPair("x1 is not feasible")
    if broken == "upper":
        raise NotOptimalPair("x1 violates an upper bound")
    rc = [c - a for c, a in zip(lp1.c, fraction_vecmat(A, vec(y1)))]
    for i, r in enumerate(rc):
        if r < 0 and (u[i] is None or x1[i] < u[i]):
            raise NotOptimalPair(f"dual slack negative at {i} with x below its bound")
        if r > 0 and x1[i] > 0:
            raise NotOptimalPair(f"dual surplus at {i} with x positive")
    t = (brute_kappa(A) + 1) * fraction_norm1([p - q for p, q in zip(lp1.c, lp2.c)])
    R0 = tuple(i for i, r in enumerate(rc) if r > t)
    Ru = tuple(i for i, r in enumerate(rc) if r < -t)
    res2 = lpmod.solve(lp2)
    if res2.status == lpmod.INFEASIBLE:
        raise InfeasibleSystem("region became empty", certificate=res2.certificate)
    if res2.status == lpmod.UNBOUNDED:
        raise UnboundedDirection("second cost is unbounded below", ray=res2.certificate)
    checks = [(i, -1, 0, "max", "fixing-zero") for i in R0]
    checks += [(i, 1, u[i], "min", "fixing-upper") for i in Ru]
    for i, sense, want, word, prop in checks:
        e = [0] * lp2.n
        e[i] = sense
        res = face_row_solve(lp2, res2.objective, e)
        if res.status != lpmod.OPTIMAL:
            raise AssertionError(f"{word} x_{i} over the optimal face is not optimal")
        if sense * res.objective != want:
            raise AuditFailure(prop, detail=f"{word} x_{i} over the face is {sense * res.objective}")
    return R0, Ru


def fraction_enumerate_circuits(W):
    """`subspace._enumerate_circuits` with one Fraction RREF kernel per
    candidate support and frozenset superset tests."""
    n = W.ambient_dim
    check_desk_scale(n, "circuit enumeration")
    A = W.kernel_rep
    r = A.rows
    found = []
    found_supports = []
    for size in range(1, min(n, r + 1) + 1):
        for S in combinations(range(n), size):
            sset = frozenset(S)
            if any(fs <= sset for fs in found_supports):
                continue
            _, _, kb = rref_kernel(A.take_cols(S))
            if kb.rows != 1:
                continue
            v = kb.row(0)
            if any(x == 0 for x in v):
                continue
            full = [Fraction(0)] * n
            for idx, j in enumerate(S):
                full[j] = v[idx]
            ints, _ = integer_normalize(full)
            found.append(ElementaryVector(support=tuple(S), vector=ints))
            found_supports.append(sset)
    return tuple(found)


def unpruned_enumerate_circuits(W):
    """`subspace._enumerate_circuits` without its coloop cut (and without
    its kernel-line audit): the depth-first growth visits every independent
    set, including those whose subtree holds no circuit."""
    n = W.ambient_dim
    check_desk_scale(n, "circuit enumeration")
    int_rows = [integer_normalize(row)[0] for row in W.kernel_rep.data]
    found = []

    def grow(I, pivoted, rest, D, start):
        for k in range(n - start):
            e = start + k
            row = next((row for row in rest if row[k]), None)
            if row is None:
                v = [-prow[k] for prow in pivoted]
                if 0 in v:
                    continue
                v.append(D)
                S = I + (e,)
                g = gcd(*v)
                if v[0] < 0:
                    g = -g
                full = [0] * n
                for j, x in zip(S, v):
                    full[j] = x // g
                found.append(ElementaryVector(support=S, vector=tuple(full)))
                continue
            prow = row if row[k] > 0 else [-a for a in row]
            p = prow[k]
            tail = prow[k + 1 :]
            tsum = sum(tail)

            def eliminate(old):
                return bareiss_step(old[k + 1 :], tail, old[k], p, D, tsum)

            grow(
                I + (e,),
                [eliminate(old) for old in pivoted] + [tail],
                [eliminate(old) for old in rest if old is not row],
                p,
                e + 1,
            )

    grow((), [], int_rows, 1, 0)
    found.sort(key=lambda ev: (len(ev.support), ev.support))
    return tuple(found)


def int_kernel_line(rows, ncols):
    """The kernel of an integer matrix when it is a line, else None.

    Fraction-free Gauss-Jordan elimination in place (Edmonds' form of
    Bareiss): every row is held over one common denominator D > 0, so the
    rows are D times the RREF and each pivot entry equals D.  Pivoting on
    p = T[r][j] replaces every other row by (p * row - row[j] * T[r]) // D,
    which is exact; a pivot row with p < 0 is negated first, which keeps
    the kernel and makes the next D = p positive.  The kernel line of the
    one free column f is then D at f and -T[i][f] at the pivot of row i, an
    integer multiple of the rational RREF kernel vector.
    """
    pivots = []
    free = []
    D = 1
    r = 0
    for j in range(ncols):
        if r == len(rows):
            free.extend(range(j, ncols))
            break
        k = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if k is None:
            free.append(j)
            if len(free) > 1:
                return None
            continue
        rows[r], rows[k] = rows[k], rows[r]
        if rows[r][j] < 0:
            rows[r] = [-a for a in rows[r]]
        prow = rows[r]
        p = prow[j]
        for i, row in enumerate(rows):
            if i != r:
                f = row[j]
                out = [(p * a - f * b) // D for a, b in zip(row, prow)]
                if any((p * a - f * b) % D for a, b in zip(row, prow)):
                    raise ValueError(f"inexact Bareiss step pivoting on ({r}, {j})")
                rows[i] = out
        D = p
        pivots.append(j)
        r += 1
    if len(free) != 1:
        return None
    f = free[0]
    v = [0] * ncols
    v[f] = D
    for i, pc in enumerate(pivots):
        v[pc] = -rows[i][f]
    return v


def int_enumerate_circuits(W):
    """`subspace._enumerate_circuits` support by support: one integer
    kernel line per candidate support, by size and then lexicographically,
    skipping supersets of the circuits found."""
    n = W.ambient_dim
    check_desk_scale(n, "circuit enumeration")
    int_rows = [integer_normalize(row)[0] for row in W.kernel_rep.data]
    found = []
    found_masks = []
    for size in range(1, min(n, W.kernel_rep.rows + 1) + 1):
        for S in combinations(range(n), size):
            mask = sum(1 << j for j in S)
            if any(fm & mask == fm for fm in found_masks):
                continue
            v = int_kernel_line([[row[j] for j in S] for row in int_rows], size)
            if v is None or 0 in v:
                continue
            g = gcd(*v)
            if v[0] < 0:
                g = -g
            full = [0] * n
            for j, x in zip(S, v):
                full[j] = x // g
            found.append(ElementaryVector(support=S, vector=tuple(full)))
            found_masks.append(mask)
    return tuple(found)


def oracle_imbalances(W):
    """`imbalance.imbalances` with one Fraction ratio per ordered pair of
    each circuit, i = j included."""
    circuits = W.circuit_list
    if not circuits:
        return imbmod.ImbalanceReport(Fraction(1), 1, 1, imbmod.MeasureWitnesses(None, None))
    best_ratio = Fraction(0)
    ratio_wit = None
    best_entry = 0
    entry_wit = None
    acc = 1
    for ev in circuits:
        for i in ev.support:
            for j in ev.support:
                r = ev.ratio(i, j)
                if r > best_ratio:
                    best_ratio, ratio_wit = r, (ev, (i, j))
        for j in ev.support:
            if abs(ev.vector[j]) > best_entry:
                best_entry, entry_wit = abs(ev.vector[j]), (ev, j)
        acc = lcm(acc, *(abs(ev.vector[j]) for j in ev.support))
    return imbmod.ImbalanceReport(
        kappa=best_ratio,
        kappa_dot=acc,
        kappa_bar=best_entry,
        witnesses=imbmod.MeasureWitnesses(ratio_wit, entry_wit),
    )


def prime_powers(x, up_to):
    """({p: a} over the primes p <= up_to with p^a exactly dividing x, and
    what is left of x), by trial division: for small bounds only."""
    out = {}
    for d in range(2, up_to + 1):
        while x % d == 0:
            out[d] = out.get(d, 0) + 1
            x //= d
    return out, x


def fraction_max_mean_cycle(kappa, nodes):
    """The bitmask DP over simple paths over Fractions: for each start s,
    through later nodes only, keep the path of largest product per (visited
    mask, end node); the first cycle to beat the best so far, compared by
    cross-powering through GeoMeanValue, wins."""
    GeoMeanValue = imbmod.GeoMeanValue
    best_prod = None
    best_cycle = ()
    for s_pos, s in enumerate(nodes):
        later = nodes[s_pos + 1 :]
        dp = {}
        for idx, v in enumerate(later):
            if (s, v) in kappa:
                dp[(1 << idx, v)] = (kappa[(s, v)], (s, v))
        frontier = dict(dp)
        while frontier:
            upd = {}
            for (mask, v), (prod, path) in frontier.items():
                if (v, s) in kappa:
                    cyc_prod = prod * kappa[(v, s)]
                    length = len(path)
                    if best_prod is None or GeoMeanValue(cyc_prod, length) > GeoMeanValue(
                        best_prod, len(best_cycle)
                    ):
                        best_prod, best_cycle = cyc_prod, path
                for idx, u in enumerate(later):
                    if mask & (1 << idx):
                        continue
                    if (v, u) not in kappa:
                        continue
                    cand = prod * kappa[(v, u)]
                    state = (mask | (1 << idx), u)
                    cur = dp.get(state)
                    if cur is None or cand > cur[0]:
                        dp[state] = (cand, path + (u,))
                        upd[state] = dp[state]
            frontier = upd
    return best_prod, best_cycle


def int_max_mean_cycle(kappa, nodes):
    """The same DP over ints: with L the lcm of the denominators, arc ij
    weighs L * kappa_ij, and cycles of lengths l1, l2 compare as
    P1^l2 > P2^l1, the common factor L^(l1 * l2) cancelling."""
    L = lcm(*(k.denominator for k in kappa.values()))
    weight = {arc: k.numerator * (L // k.denominator) for arc, k in kappa.items()}
    best_prod = None
    best_cycle = ()
    for s_pos, s in enumerate(nodes):
        later = nodes[s_pos + 1 :]
        dp = {}
        for idx, v in enumerate(later):
            if (s, v) in weight:
                dp[(1 << idx, v)] = (weight[(s, v)], (s, v))
        frontier = dict(dp)
        while frontier:
            upd = {}
            for (mask, v), (prod, path) in frontier.items():
                back = weight.get((v, s))
                if back is not None:
                    cyc_prod = prod * back
                    if best_prod is None or cyc_prod ** len(best_cycle) > best_prod ** len(path):
                        best_prod, best_cycle = cyc_prod, path
                for idx, u in enumerate(later):
                    bit = 1 << idx
                    if mask & bit or (v, u) not in weight:
                        continue
                    cand = prod * weight[(v, u)]
                    state = (mask | bit, u)
                    cur = dp.get(state)
                    if cur is None or cand > cur[0]:
                        dp[state] = (cand, path + (u,))
                        upd[state] = dp[state]
            frontier = upd
    if best_prod is None:
        return None, ()
    return Fraction(best_prod, L ** len(best_cycle)), best_cycle


def oracle_pair_maxima(W):
    """`Subspace.pair_maxima` with one Fraction ratio per ordered pair of
    each circuit, keys in order of first appearance."""
    best = {}
    for ev in W.circuit_list:
        for i in ev.support:
            for j in ev.support:
                if i != j and ((i, j) not in best or ev.ratio(i, j) > best[(i, j)]):
                    best[(i, j)] = ev.ratio(i, j)
    return {k: (r.numerator, r.denominator) for k, r in best.items()}


def fraction_bellman_ford(kappa, nodes, n, rho, power):
    """`imbalance._mult_bellman_ford` over Fractions: a feasible point of
    kappa_ij^power * e_j <= rho * e_i by min path products, with
    kappa_ij^power recomputed on every arc."""
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
    else:
        raise InternalError("rescaling system failed to converge")
    return tuple(d.get(i, Fraction(1)) for i in range(n))


def fraction_check_feasible(kappa, d, rho, power):
    """`imbalance._tight_arcs`'s audit over Fractions: raise unless
    kappa_ij^power * d_j <= rho * d_i on every arc, with equality on one."""
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


def fraction_tight_witness(kappa, d, rho, power, nodes):
    """`imbalance._tight_witness` with its tight arcs found over Fractions:
    the lexicographically least of the shortest cycles of tight arcs
    through the least node on one, one position at a time."""
    tight = {(i, j) for (i, j), k in kappa.items() if k**power * d[j] == rho * d[i]}
    succ = {v: [] for v in nodes}
    pred = {v: [] for v in nodes}
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


def fraction_kappa_star(W):
    """`imbalance.kappa_star` with Karp's value and every later stage over
    Fractions: the Bellman-Ford rescaling, its feasibility audit, the
    tight-arc witness and the witness's mean, as GeoMeanValue compares."""
    kappa = {k: Fraction(p, q) for k, (p, q) in W.pair_maxima.items()}
    nodes = sorted({i for (i, _) in kappa})
    n = W.ambient_dim
    value = imbmod._max_mean(W.pair_maxima, nodes)
    if value is None:
        one = (Fraction(1),) * n
        return imbmod.KappaStarResult(imbmod.GeoMeanValue(Fraction(1), 1), (), one, one)
    d = fraction_bellman_ford(kappa, nodes, n, value.product, value.length)
    fraction_check_feasible(kappa, d, value.product, value.length)
    cycle = fraction_tight_witness(kappa, d, value.product, value.length, nodes)
    if imbmod.GeoMeanValue(imbmod._cycle_product(kappa, cycle), len(cycle))._cmp(value) != 0:
        raise InternalError("witness cycle misses the maximum mean")
    return imbmod.KappaStarResult(value, cycle, d if value.length == 1 else None, d)


def oracle_kappa_star(W, dp=fraction_max_mean_cycle):
    """`imbalance.kappa_star` from a path DP above in place of Karp's
    algorithm, the Fraction Bellman-Ford solve at that value, and the
    witness of `brute_witness_cycle` in place of the tight-arc pass."""
    kappa = {k: Fraction(p, q) for k, (p, q) in W.pair_maxima.items()}
    nodes = sorted({i for (i, _) in kappa})
    n = W.ambient_dim
    prod, cycle = dp(kappa, nodes)
    if prod is None:
        one = (Fraction(1),) * n
        return imbmod.KappaStarResult(imbmod.GeoMeanValue(Fraction(1), 1), (), one, one)
    value = imbmod.GeoMeanValue(prod, len(cycle)).shortest()
    d = fraction_bellman_ford(kappa, nodes, n, value.product, value.length)
    witness = brute_witness_cycle(kappa)[1]
    return imbmod.KappaStarResult(value, witness, d if value.length == 1 else None, d)


def brute_witness_cycle(kappa):
    """(GeoMeanValue, cycle) for the least simple cycle of largest geometric
    mean of the arc weights kappa, least by (least node, length, sequence),
    or (None, ()) without a cycle.  Every simple cycle is walked once, from
    its least node, over the integer weights of `int_max_mean_cycle`."""
    L = lcm(*(k.denominator for k in kappa.values()))
    weight = {arc: k.numerator * (L // k.denominator) for arc, k in kappa.items()}
    succ = {}
    for a, b in sorted(weight):
        succ.setdefault(a, []).append((b, weight[(a, b)]))
    best, best_cycle = None, ()

    def walk(path, prod):
        nonlocal best, best_cycle
        s = path[0]
        for b, w in succ.get(path[-1], ()):
            if b == s:
                P = prod * w
                gain = 1 if best is None else P ** len(best_cycle) - best ** len(path)
                key = (s, len(path), path)
                if gain > 0 or gain == 0 and key < (best_cycle[0], len(best_cycle), best_cycle):
                    best, best_cycle = P, path
            elif b > s and b not in path:
                walk(path + (b,), prod * w)

    for s in sorted(succ):
        walk((s,), 1)
    if best is None:
        return None, ()
    return imbmod.GeoMeanValue(Fraction(best, L ** len(best_cycle)), len(best_cycle)), best_cycle


def brute_kappa_star(A):
    """The largest geometric mean of a simple cycle of the circuit ratio
    digraph built from `brute_circuits`, as a GeoMeanValue, or None when no
    two columns share a circuit."""
    kappa = {}
    for g in brute_circuits(A):
        supp = [i for i, v in enumerate(g) if v]
        for i, j in permutations(supp, 2):
            kappa[(i, j)] = max(kappa.get((i, j), 0), Fraction(abs(g[j]), abs(g[i])))
    return brute_witness_cycle(kappa)[0]


def graver_box(A):
    """The coefficient box `graver.graver_basis` scans: (kernel lattice
    basis, coefficient caps, entry cap n * kappa_bar, number of points)."""
    n = A.cols
    entry_cap = n * Subspace.from_kernel_matrix(A).measures.kappa_bar
    basis = gmod._integer_kernel_basis(A)
    if not basis:
        return basis, [], entry_cap, 1
    B = RatMatrix.from_rows(basis, cols=n)
    P = invert(B.mul(B.transpose())).mul(B)
    caps = [floor(norm1(P.row(i)) * entry_cap) for i in range(len(basis))]
    points = 1
    for cap in caps:
        points *= 2 * cap + 1
    return basis, caps, entry_cap, points


def oracle_graver_basis(A):
    """`graver.graver_basis` with the coefficient combination summed afresh
    at every leaf of the box scan and the all-pairs minimality filter."""
    m, n = A.shape
    basis, caps, entry_cap, points = graver_box(A)
    if not basis:
        return gmod.GraverBasis(elements=(), g1=0, ginf=0)
    k = len(basis)
    if points > gmod._BOX_LIMIT:
        a_max = max((abs(int(A.entry(r, j))) for r in range(m) for j in range(n)), default=0)
        ew_bound = (2 * m * a_max + 1) ** m if m else 1
        raise BoxTooLarge(f"coefficient box has {points} points; 1-norm bound {ew_bound}")
    candidates = set()
    lam = [0] * k

    def scan(i):
        if i == k:
            x = tuple(sum(lam[t] * basis[t][j] for t in range(k)) for j in range(n))
            if any(x) and max(abs(v) for v in x) <= entry_cap:
                candidates.add(x)
            return
        for v in range(-caps[i], caps[i] + 1):
            lam[i] = v
            scan(i + 1)
        lam[i] = 0

    scan(0)

    def dominates(h, g):
        return h != g and all(hi * gi >= 0 and abs(hi) <= abs(gi) for hi, gi in zip(h, g))

    elements = tuple(
        sorted(g for g in candidates if not any(dominates(h, g) for h in candidates))
    )
    return gmod.GraverBasis(
        elements=elements,
        g1=max(sum(abs(v) for v in g) for g in elements),
        ginf=max(max(abs(v) for v in g) for g in elements),
    )


def brute_ip_proximity(A, b, c):
    """`graver.ip_proximity_check` by brute force: every point of the box
    [x_lp - bound, x_lp + bound] from `itertools.product`, kept when it
    solves Ax = b and lies within 1-norm `bound` of x_lp, and the least
    (distance, x) among the optima kept.  x_lp is the basic optimum of the
    package's simplex, bound is n * kappa_bar from the brute circuits.
    Raises the refusal the package raises."""
    n = A.cols
    res = lpmod.solve(lpmod.LPInstance.standard(A, b, c))
    if res.status == lpmod.INFEASIBLE:
        raise InfeasibleSystem("LP relaxation is infeasible")
    if res.status == lpmod.UNBOUNDED:
        raise UnboundedDirection("LP relaxation is unbounded")
    x_lp = res.x
    bound = Fraction(n * brute_kappa_bar(A))
    axes = [range(max(0, ceil(v - bound)), floor(v + bound) + 1) for v in x_lp]
    points = 1
    for axis in axes:
        points *= len(axis)
    if points > gmod._BOX_LIMIT:
        raise BoxTooLarge(f"proximity box has {points} points")
    rows = [[int(A.entry(r, j)) for j in range(n)] for r in range(A.rows)]
    target = [Fraction(v) for v in b]

    def dist(x):
        return sum((abs(v - w) for v, w in zip(x, x_lp)), Fraction(0))

    ball = [
        x
        for x in product(*axes)
        if [sum(a * v for a, v in zip(row, x)) for row in rows] == target and dist(x) <= bound
    ]
    if not ball:
        raise InfeasibleSystem("no integer point within the proximity ball")
    best = min(sum(ci * v for ci, v in zip(c, x)) for x in ball)
    x_ip = min(
        (x for x in ball if sum(ci * v for ci, v in zip(c, x)) == best),
        key=lambda x: (dist(x), x),
    )
    return x_lp, x_ip, dist(x_ip), bound


def fraction_conjecture_decompose(W, z):
    """`graver.conjecture_decompose` searching over the Fraction remainder,
    with one Fraction coefficient a/kd per candidate term."""
    zv = vec(z)
    n = W.ambient_dim
    kd = W.measures.kappa_dot
    target = tuple(int(v) for v in zv)
    if all(v == 0 for v in zv):
        return gmod.ConjectureReport(target=target, status="holds", decomposition=(), searched=0)
    oriented = sorted(g.vector for g in oriented_circuits(W) if is_conformal(g.vector, zv))
    searched = 0

    def attempt(start, remaining, depth, limit, acc):
        nonlocal searched
        if all(v == 0 for v in remaining):
            return list(acc)
        if depth == limit:
            return None
        for idx in range(start, len(oriented)):
            g = oriented[idx]
            if any(gi != 0 and ri == 0 for gi, ri in zip(g, remaining)):
                continue
            top = min(Fraction(ri, gi) for gi, ri in zip(g, remaining) if gi != 0)
            for a in range(floor(top * kd), 0, -1):
                lamk = Fraction(a, kd)
                searched += 1
                rest = tuple(ri - lamk * gi for gi, ri in zip(g, remaining))
                if any(rest_i * zi < 0 for rest_i, zi in zip(rest, zv)):
                    continue
                found = attempt(idx + 1, rest, depth + 1, limit, acc + [(lamk, g)])
                if found is not None:
                    return found
        return None

    for limit in range(1, n + 1):
        found = attempt(0, zv, 0, limit, [])
        if found is not None:
            return gmod.ConjectureReport(target=target, status="holds",
                                    decomposition=tuple(found), searched=searched)
    return gmod.ConjectureReport(target=target, status="violated", decomposition=None,
                            searched=searched)


def window_appendix_qualifiers(A, kd):
    """`graver._appendix_qualifiers` by scanning, for each v1 that is 0 or a
    signed divisor of kd, every v2 whose column-2 entry 3 v1 + 13 v2 lies in
    [-kd, kd], with every entry of v^T A formed from the Fraction entries."""
    divisors = [d for d in range(1, kd + 1) if kd % d == 0]
    found = set()
    for v1 in [0] + [s * d for d in divisors for s in (1, -1)]:
        lo = ceil(Fraction(-kd - 3 * v1, 13))
        hi = floor(Fraction(kd - 3 * v1, 13))
        for v2 in range(lo, hi + 1):
            if v1 == 0 and v2 == 0:
                continue
            entries = [v1 * A.entry(0, j) + v2 * A.entry(1, j) for j in range(4)]
            if all(e == 0 or kd % abs(int(e)) == 0 for e in entries):
                found.add((v1, v2))
    return found


def fraction_appendix_counterexample():
    """`graver.appendix_counterexample` with every entry of v^T A formed from
    the Fraction entries of the matrix, over the window scan."""
    A = gmod.COUNTEREXAMPLE_MATRIX
    kd = Subspace.from_kernel_matrix(A).measures.kappa_dot
    found = window_appendix_qualifiers(A, kd)
    primitive = {v for v in found if gcd(abs(v[0]), abs(v[1])) == 1}
    canonical = {v if (v[0] if v[0] != 0 else v[1]) > 0 else (-v[0], -v[1]) for v in primitive}
    if sorted(canonical) != sorted(gmod._COUNTEREXAMPLE_VECTORS) or len(primitive) != 8:
        raise AssertionError(f"search found {sorted(canonical)}")
    products = []
    witnesses = []
    for v, w in gmod._COUNTEREXAMPLE_PAIRS:
        rows = [[u[0] * A.entry(0, j) + u[1] * A.entry(1, j) for j in range(4)] for u in (v, w)]
        M = RatMatrix.from_rows(rows, cols=4)
        witness = None
        for i, j in combinations(range(4), 2):
            S = M.submatrix([0, 1], [i, j])
            if bareiss_det(S) == 0:
                continue
            inv = invert(S)
            if any((kd * inv.entry(r, s)).denominator != 1 for r in range(2) for s in range(2)):
                witness = (i, j)
                break
        products.append((v, w, tuple(tuple(int(e) for e in row) for row in rows)))
        witnesses.append(witness)
    return gmod.AppendixReport(
        kappa_dot=kd, vectors=gmod._COUNTEREXAMPLE_VECTORS,
        products=tuple(products), witnesses=tuple(witnesses),
    )


def greedy_basis_by_rank(A: RatMatrix, order) -> tuple:
    """Each column of `order` that raises the rank of those kept before it:
    the one-rank-per-column scan that `ratmat.greedy_basis` replaced."""
    keep = []
    for j in order:
        if rank(A.take_cols(keep + [j])) > len(keep):
            keep.append(j)
    return tuple(keep)


def bases_by_det(A: RatMatrix, over=None):
    """(B, A_B^{-1} A) for each B with det A_B != 0, in lexicographic order:
    the determinant, inverse and product loop that `ratmat.bases` replaced."""
    over = range(A.cols) if over is None else over
    for B in combinations(over, A.rows):
        sub = A.take_cols(B)
        if bareiss_det(sub) != 0:
            yield B, invert(sub).mul(A)


def hypergraph_components(W: Subspace) -> tuple:
    """Connected components of the circuit hypergraph, read off the circuit
    list; elements in no circuit are singletons."""
    block = list(range(W.ambient_dim))
    for ev in W.circuit_list:
        merged = {block[i] for i in ev.support}
        block = [min(merged) if b in merged else b for b in block]
    groups: dict = {}
    for i, b in enumerate(block):
        groups.setdefault(b, []).append(i)
    return tuple(sorted(tuple(g) for g in groups.values()))


# ---------------------------------------------------------------------------
# Routines no verb runs, kept as test oracles: the basis-form route to kappa,
# the one-circuit-per-pair estimate and the rescaled-TU decision built on it,
# an integer kernel representation, subdeterminant statistics, a local basis
# search, the angle minimum, the steepness spectrum and the CSV readers.
# ---------------------------------------------------------------------------


def brute_is_TU(A: RatMatrix) -> bool:
    """Every square submatrix has determinant 0, +1 or -1."""
    return all(
        bareiss_det(A.submatrix(ri, ci)) in (0, 1, -1)
        for k in range(1, min(A.rows, A.cols) + 1)
        for ri in combinations(range(A.rows), k)
        for ci in combinations(range(A.cols), k)
    )


def kappa_via_basis_forms(A: RatMatrix) -> Fraction:
    """max over nonsingular bases B of the largest |entry| of A_B^{-1} A.

    Independent route to kappa(ker A); must agree with the circuit route.
    """
    if rank(A) != A.rows:
        raise RankDeficient("basis-form scan needs a full row rank matrix")
    best = Fraction(0)
    for _, M in bases(A):
        best = max(best, max(abs(x) for r in M.data for x in r))
    if best == 0:
        raise RankDeficient("no nonsingular basis found")
    return best


def _first_pair_ratios(W: Subspace) -> dict:
    """(i, j) -> (|g_j / g_i|, g) for g the circuit with the lexicographically
    smallest support holding i and j; keys in first-appearance order."""
    first: dict = {}
    for ev in W.circuit_list:
        for i in ev.support:
            for j in ev.support:
                if i != j and ((i, j) not in first or ev.support < first[(i, j)][1].support):
                    first[(i, j)] = (ev.ratio(i, j), ev)
    return first


def estimate_kappa(W: Subspace):
    """One-circuit-per-pair lower estimate.

    For each ordered pair, the circuit with lexicographically smallest
    support containing both indices supplies |g_j/g_i|.  Returns the max
    over pairs and the per-pair table {(i, j): (ratio, circuit)}.
    """
    if W.ambient_dim >= 2 and is_separable(W):
        raise SeparableInput("pair estimates need a non-separable subspace")
    table = _first_pair_ratios(W)
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
    est = {k: r for k, (r, _) in _first_pair_ratios(W).items()}
    d = [Fraction(1)] * n
    blocks = components(W)
    if all(_propagate_block(block, est, d) for block in blocks):
        # d solves hat_kappa_ij d_j = d_i; undoing it means scaling column i
        # of A by something proportional to 1/d_i.  Each component fixes d
        # up to its own factor, so each is scaled to coprime integers alone.
        scaling = [1] * n
        for block in blocks:
            den = lcm(*(d[i].denominator for i in block))
            ints = [int(d[i] * den) for i in block]
            g = gcd(*ints)
            L = lcm(*(x // g for x in ints))
            for i, x in zip(block, ints):
                scaling[i] = L // (x // g)
        scaling = tuple(scaling)
        scaled = RatMatrix.from_rows(
            [tuple(x * scaling[j] for j, x in enumerate(r)) for r in A.data],
            cols=n,
        )
        M = rref_nonzero(scaled)
        if all(x in (0, 1, -1) for r in M.data for x in r) and imbmod.is_TU(M)[0]:
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


def _propagate_block(block, est, d) -> bool:
    """BFS-propagate hat_kappa_ij d_j = d_i within one component.

    hat_kappa_ij is the smallest-support estimate of the pair.  The
    estimates of a component connect it, so a consistent system has one
    solution with d_root = 1 whatever the visiting order.  Returns False when
    the estimate system is inconsistent.
    """
    est = {k: r for k, r in est.items() if k[0] in block}
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


def int_representation(W: Subspace) -> RatMatrix:
    """An integer kernel matrix for W whose nonzero entries divide kappa_dot.

    Prefers an integral basis form (exists whenever the dual is anchored);
    otherwise scales each basis form row by its denominator.  Either way the
    rows are elementary vectors of the dual, so divisibility holds.
    """
    if W.is_trivial():
        raise BadParameters("integer representation needs a proper subspace")
    A = W.kernel_rep
    kd = W.measures.kappa_dot
    fallback = None
    for _, M in bases(A):
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
        rows.append(tuple(-x for x in ints) if scale < 0 else ints)
    M = RatMatrix.from_rows(rows, cols=A.cols)
    _assert_divides(M, kd)
    if Subspace.from_kernel_matrix(M) != W:
        raise InternalError("representation changed the kernel")
    return M


def _assert_divides(M: RatMatrix, kd: int):
    for r in M.data:
        for x in r:
            if x != 0 and kd % int(x) != 0 and kd % -int(x) != 0:
                raise InternalError(f"entry {x} does not divide kappa_dot {kd}")


@dataclass(frozen=True)
class SubdetStats:
    """Largest absolute subdeterminant and the lcm of all nonzero ones."""

    delta_max: Fraction
    delta_lcm: int
    witness_max: tuple  # (row index tuple, col index tuple)


def subdet_stats(A: RatMatrix) -> SubdetStats:
    """Exhaustive statistics over every square submatrix (desk scale only)."""
    check_desk_scale(A.cols, "subdeterminant enumeration")
    if not A.is_integral():
        # The lcm statistic is only meaningful for integer matrices.
        raise NonIntegerMatrix("subdeterminant statistics need an integer matrix")
    best = Fraction(0)
    witness = ((), ())
    acc_lcm = 1
    for k in range(1, min(A.rows, A.cols) + 1):
        for ri in combinations(range(A.rows), k):
            for ci in combinations(range(A.cols), k):
                d = bareiss_det(A.submatrix(ri, ci))
                if d == 0:
                    continue
                ad = abs(d)
                acc_lcm = lcm(acc_lcm, int(ad))
                if ad > best:
                    best = ad
                    witness = (ri, ci)
    return SubdetStats(delta_max=best, delta_lcm=acc_lcm, witness_max=witness)


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
    while True:
        M = basis_form(A, B)
        swap = next(
            ((i, j) for i in range(m) for j in range(n) if abs(M.entry(i, j)) > mu), None
        )
        if swap is None:
            return tuple(B), M, swaps
        B[swap[0]] = swap[1]
        swaps += 1


def delta_min_angle(vectors) -> float:
    """min over independent subsets I and v not in span(I) of sin(angle).

    Residuals are computed exactly (rational normal equations); only the
    final square root is floating point.
    """
    vs = [vec(v) for v in vectors]
    if not vs:
        raise BadParameters("need at least one vector")
    if any(all(x == 0 for x in v) for v in vs):
        raise BadParameters("zero vectors have no direction")
    best = None
    idx = range(len(vs))
    for size in range(1, len(vs)):
        for I in combinations(idx, size):
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
                s = sqrt(r2 / sum((x * x for x in target), Fraction(0)))
                if best is None or s < best:
                    best = s
    return 1.0 if best is None else best


def steepness_spectrum(W: Subspace, c) -> frozenset:
    """All values of <c,g>/||g||_1 over oriented elementary vectors."""
    cv = vec(c)
    values = {vec_dot(cv, g.vector) / norm1(g.vector) for g in oriented_circuits(W)}
    n = W.ambient_dim
    m = W.codim
    if values and all(x.denominator == 1 for x in cv):
        ninf = max(abs(x) for x in cv) if any(cv) else Fraction(0)
        if ninf > 0 and norm1(cv) <= (n - m + 1) * ninf:
            kbar = W.measures.kappa_bar
            bound = Fraction(1, 2) * ninf * (n - m + 1) * kbar * ((n - m + 1) * kbar + 1)
            if len(values) > bound:
                raise AuditFailure(
                    "spectrum-bound", 0, f"{len(values)} distinct values exceed {bound}"
                )
    return frozenset(values)


def matrix_from_csv(text: str) -> RatMatrix:
    """Read `serialize.matrix_to_csv` output back: one matrix row per line."""
    return matrix_from_obj([row for row in csv.reader(io.StringIO(text)) if row])


def lp_from_csv(text: str) -> lpmod.LPInstance:
    """Read `serialize.lp_to_csv` output back: a one-cell header row names
    each block (A, b, c, then u when there are caps)."""
    sections: dict = {}
    for row in csv.reader(io.StringIO(text)):
        if len(row) == 1 and row[0] in ("A", "b", "c", "u"):
            current = sections.setdefault(row[0], [])
        elif row:
            current.append(row)
    A = matrix_from_obj(sections["A"])
    b = vec_from_obj(sections["b"][0], length=A.rows)
    c = vec_from_obj(sections["c"][0], length=A.cols)
    if "u" not in sections:
        return lpmod.LPInstance.standard(A, b, c)
    u = tuple(None if x == "" else parse_frac(x) for x in sections["u"][0])
    return lpmod.LPInstance.bounded(A, b, c, u)
