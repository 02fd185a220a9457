"""Exact rational linear programming.

Two-phase primal simplex with Bland's rule on a fraction-free integer
tableau: rows are scaled to integers once, by `ratmat.over_common_den`,
each row is kept over its own positive denominator, and the reduced
costs are carried as one more row.  A pivot is an Edmonds-Bareiss step on
the rows that are nonzero in the pivot column only; every other row keeps
its integers and its denominator.  The pivots are exactly those of Bland's
rule on the rational tableau, so x, y, bases and certificates are the same;
they become Fractions only when the result is read off, each built once
from integers.  A tie-break cost adds a third, lexicographic stage on the
optimal face; it is the package's one optimization over an optimal face,
so no consumer stacks a face row c x = opt.  A caller that already holds
a vertex of the region passes it as `start`: its support is pivoted into
the basis, the tableau must read back exactly that vertex, and phase 2
begins there with no phase 1.
Instances come in three flavors: standard form (min cx, Ax = b, x >= 0),
upper-bounded standard form (0 <= x <= u, with None entries meaning
unbounded), and the affine-subspace form (x in W + d, x >= 0) which
standardizes immediately.  `LPInstance.violation` is the one test of a
point against the region.

Vertex enumeration, the vertex-edge graph, and fractionality (the lcm of
vertex denominators) run over the standardized system and are exact.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    BadParameters,
    DimensionMismatch,
    InfeasibleSystem,
    InternalError,
    UnboundedRegion,
)
from .ratmat import (
    RatMatrix,
    _int_rows,
    as_fraction,
    bareiss_step,
    bases,
    greedy_basis,
    over_common_den,
    rank,
    vec,
    vec_zero,
)
from .subspace import Subspace

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPInstance(namedtuple("LPInstance", "A b c u", defaults=(None,))):
    """min <c, x> subject to Ax = b, 0 <= x (<= u when bounds are present).

    A: RatMatrix; b, c: tuples; u: entries Fraction or None (no upper
    bound), or None for no bounds at all.  Every construction checks the
    shapes; `_replace` and `_make` would skip the check, so this package
    never calls them on an instance.
    """

    __slots__ = ()

    def __new__(cls, A: RatMatrix, b: tuple, c: tuple, u: tuple | None = None):
        if len(b) != A.rows or len(c) != A.cols:
            raise DimensionMismatch("LP data shapes disagree")
        if u is not None and len(u) != A.cols:
            raise DimensionMismatch("bound vector has the wrong length")
        return super().__new__(cls, A, b, c, u)

    @classmethod
    def standard(cls, A: RatMatrix, b, c) -> "LPInstance":
        return cls(A=A, b=vec(b), c=vec(c))

    @classmethod
    def bounded(cls, A: RatMatrix, b, c, u) -> "LPInstance":
        uu = tuple(None if x is None else as_fraction(x) for x in u)
        if any(x is not None and x < 0 for x in uu):
            raise BadParameters("upper bounds must be nonnegative")
        return cls(A=A, b=vec(b), c=vec(c), u=uu)

    @classmethod
    def from_subspace(cls, W: Subspace, d, c) -> "LPInstance":
        """Feasible set {x : x in W + d, x >= 0} as a standard form LP."""
        dv = vec(d)
        A = W.kernel_rep
        return cls(A=A, b=A.matvec(dv), c=vec(c))

    @property
    def n(self) -> int:
        return self.A.cols

    def violation(self, x) -> str | None:
        """What the point x breaks of the region: "equations" when A x = b
        or x >= 0 fails, else "upper" when x <= u fails, else None."""
        if self.A.matvec(x) != self.b or any(v < 0 for v in x):
            return "equations"
        if self.u is not None and any(ui is not None and xi > ui for xi, ui in zip(x, self.u)):
            return "upper"
        return None

    def standardized(self):
        """(rows, b, c, n_orig, bounded_idx) with slack rows for finite bounds."""
        rows = [list(r) for r in self.A.data]
        b = list(self.b)
        c = list(self.c)
        n = self.A.cols
        bounded_idx = []
        if self.u is not None:
            bounded_idx = [i for i, x in enumerate(self.u) if x is not None]
            f = len(bounded_idx)
            for r in rows:
                r.extend([Fraction(0)] * f)
            for k, i in enumerate(bounded_idx):
                row = [Fraction(0)] * (n + f)
                row[i] = Fraction(1)
                row[n + k] = Fraction(1)
                rows.append(row)
                b.append(self.u[i])
            c.extend([Fraction(0)] * f)
        return rows, b, c, n, bounded_idx


class LPResult(NamedTuple):
    status: str
    x: tuple | None = None
    objective: Fraction | None = None
    basis: tuple | None = None
    y: tuple | None = None  # one dual per row of the instance's A
    dual_upper: tuple | None = None  # t >= 0 per coordinate, bounded form only
    certificate: tuple | None = None  # Farkas vector or improving ray
    pivots: int = 0


class _Tableau:
    """Fraction-free simplex tableau over the integers, one denominator per row.

    Row i of the input, sign-flipped so that its right-hand side is >= 0, is
    scaled by the least positive integer s_i that clears its denominators,
    and gets the artificial column n + i.  Each row is read once, with its
    right-hand side, through `ratmat._int_rows`, and then negated when that
    right-hand side is negative.  Row r is stored as integers T[r] over its own
    denominator den[r] > 0, and its tableau entries are T[r][k] / den[r].
    D > 0 is the absolute value of the current basis determinant, and
    T[r] * D / den[r] is the integer Bareiss row at D.

    A pivot on (r, j) with p = T[r][j] takes D to |p * D / den[r]|.  Each
    other row that is nonzero in column j takes one `ratmat.bareiss_step`,
    which gives its Bareiss row at the new D, and the new D becomes its
    denominator; so every entry stays an integer minor and an inexact
    division raises InternalError.  The pivot row keeps its integers over
    |p|.  A row that is 0 in column j keeps its list and its denominator.
    The reduced costs of the current phase are one more such row, `reduced`
    over `red_den`, holding L times the reduced cost, where L clears the
    denominators of the cost vector; its integers are read from the costs
    by `ratmat.over_common_den`, the reader behind `_int_rows`.

    The scaling substitutes s_i * a_i for artificial a_i, so artificial i
    costs 1/s_i in phase 1.  Every reduced cost keeps its sign and every
    ratio-test quotient keeps its order, since a row's denominator cancels
    from T[r][-1] / T[r][j], so Bland's rule takes the same pivots as it
    would over the unscaled rational tableau.  The column count n is given,
    so an LP with no rows is a tableau with no rows: phase 1 ends at once
    and phase 2 prices every column.
    """

    def __init__(self, rows: list[list[Fraction]], b: list[Fraction], n: int):
        self.m = m = len(rows)
        self.n = n
        self.flip: list[int] = []
        self.T: list[list[int]] = []
        ints, self.scale = _int_rows([(*row, bi) for row, bi in zip(rows, b)])
        for i, row in enumerate(ints):
            sign = -1 if row[-1] < 0 else 1
            if sign < 0:
                row = [-a for a in row]
            rhs = row.pop()
            row += [0] * m
            row[n + i] = 1
            row.append(rhs)
            self.T.append(row)
            self.flip.append(sign)
        self.den = [1] * self.m
        self.D = 1
        self.costs: list[Fraction] = []
        self.reduced: list[int] | None = None
        self.red_den = 1
        self.cost_scale = 1
        self.basis = [self.n + i for i in range(self.m)]
        self.pivots = 0

    @property
    def width(self) -> int:
        return self.n + self.m

    def set_costs(self, costs: list[Fraction]):
        """Install the reduced-cost row of `costs` for the current basis,
        over the denominator D."""
        C, L = over_common_den(costs)
        D = self.D
        red = [D * v for v in C] + [0]
        for r, row in enumerate(self.T):
            cb = C[self.basis[r]]
            if cb:
                # row * D / den[r], the Bareiss row: the f = 0 form of the step
                row = bareiss_step(row, row, 0, D, self.den[r], 0)
                red = [a - cb * x for a, x in zip(red, row)]
        self.costs, self.reduced, self.red_den, self.cost_scale = list(costs), red, D, L

    def pivot(self, r: int, j: int):
        T, den, D = self.T, self.den, self.D
        prow, dr = T[r], den[r]
        p = prow[j]
        ap, sign = abs(p), -1 if p < 0 else 1
        new_D, rem = divmod(ap * D, dr)
        if rem:
            raise InternalError(f"inexact Bareiss pivot: {p} * {D} over {dr}")
        psum = sum(prow)

        def step(row, di):
            # (p * row * D / di - f * prow * D / dr) / D, negated when p < 0
            f = sign * row[j]
            if dr == D:
                return bareiss_step(row, prow, f, ap, di, psum)
            if di == D:
                return bareiss_step(row, prow, f, ap, dr, psum)
            return bareiss_step(row, prow, f * D, ap * D, dr * di, psum)

        for i, row in enumerate(T):
            if row[j] and i != r:
                T[i] = step(row, den[i])
                den[i] = new_D
        if self.reduced is not None and self.reduced[j]:
            self.reduced = step(self.reduced, self.red_den)
            self.red_den = new_D
        if p < 0:
            T[r] = [-a for a in prow]
        den[r] = ap
        self.D = new_D
        self.basis[r] = j
        self.pivots += 1

    def objective(self) -> Fraction:
        return Fraction(-self.reduced[-1], self.cost_scale * self.red_den)

    def duals(self) -> list[Fraction]:
        """y with y_i = (c_B B^{-1})_i per original row, read off the cost row.

        With w = c_B B^{-1} over the sign-flipped, unscaled rows, the reduced
        cost of scaled artificial i is costs[n + i] - w_i / s_i, and
        y_i = flip_i * w_i.  The cost row holds rc = LD times that reduced
        cost, LD = L * red_den, so with costs[n + i] = c_num / c_den each
        y_i is the one Fraction flip_i * s_i * (c_num * LD - rc * c_den)
        over c_den * LD.
        """
        LD = self.cost_scale * self.red_den
        n = self.n
        y = []
        for f, s, c, rc in zip(self.flip, self.scale, self.costs[n:], self.reduced[n:]):
            q = c.denominator
            y.append(Fraction(f * s * (c.numerator * LD - rc * q), q * LD))
        return y

    def run(self, cols):
        """Bland iterations over the ascending columns `cols` to optimality
        or unboundedness."""
        while True:
            reduced = self.reduced
            enter = next((j for j in cols if reduced[j] < 0), None)
            if enter is None:
                return OPTIMAL, None
            # Least rhs_r / a_r over a_r > 0, ties to the lower basic index;
            # quotients are compared by cross-multiplying.
            leave = None
            for r, row in enumerate(self.T):
                a = row[enter]
                if a <= 0:
                    continue
                if leave is not None:
                    here, there = row[-1] * best_a, best_rhs * a
                    if here > there or (here == there and self.basis[r] > self.basis[leave]):
                        continue
                leave, best_rhs, best_a = r, row[-1], a
            if leave is None:
                return UNBOUNDED, enter
            self.pivot(leave, enter)

    def install(self, x: list[Fraction]):
        """Make the support of the standardized point x >= 0 basic: each
        support column, in ascending order, is pivoted into the first row
        whose basic is still artificial and that is nonzero there.  The
        tableau must then read back x, with every artificial at 0: each
        basic value T[r][-1] / den[r] is compared with its x_j = p / q as
        the integers T[r][-1] q and p den[r], so no Fraction is built.  A
        negative x, a dependent support or a misread raises InternalError."""
        if any(v < 0 for v in x):
            raise InternalError("start is not feasible: a coordinate is negative or over its bound")
        support = [j for j, v in enumerate(x) if v]
        for j in support:
            r = next(
                (r for r, row in enumerate(self.T) if self.basis[r] >= self.n and row[j]),
                None,
            )
            if r is None:
                raise InternalError("start is not a vertex: its support is dependent")
            self.pivot(r, j)
        want = list(x) + [0] * self.m
        if not set(support) <= set(self.basis) or any(
            row[-1] * want[j].denominator != want[j].numerator * d
            for row, d, j in zip(self.T, self.den, self.basis)
        ):
            raise InternalError("start is not feasible: A x != b")

    def drive_out_artificials(self, order):
        """Pivot each artificial basic into the first column of `order` that
        is nonzero in its row; drop the rows that are zero on every original
        column.  Every artificial basic must be at 0."""
        r = 0
        while r < len(self.T):
            if self.basis[r] >= self.n:
                col = next((j for j in order if self.T[r][j] != 0), None)
                if col is None:
                    del self.T[r]
                    del self.den[r]
                    del self.basis[r]
                    continue
                self.pivot(r, col)
            r += 1

    def solution(self) -> list[Fraction]:
        x = [Fraction(0)] * self.width
        for r, row in enumerate(self.T):
            x[self.basis[r]] = Fraction(row[-1], self.den[r])
        return x


def _solve_standard(rows, b, c, c2=None, start=None):
    """Two-phase simplex on min c x, rows x = b, x >= 0 (lists of Fractions).

    A third stage minimizes c2 from the optimal basis, pricing only the
    columns of reduced cost 0 under c: their pivots leave c's reduced-cost
    row, so its face, objective and duals, unchanged.

    With `start`, a vertex of the region, phase 1 is replaced by installing
    its support (`_Tableau.install`).  The rows whose basic is still an
    artificial, all at 0, then take their highest nonzero column, not the
    lowest: on the nearest-point LPs of `proximity` those are deviation and
    cap columns, and phase 2 took fewer pivots and less time from there."""
    tab = _Tableau(rows, b, len(c))
    if start is None:
        tab.set_costs([Fraction(0)] * tab.n + [Fraction(1, s) for s in tab.scale])
        status, _ = tab.run(range(tab.width))
        if status != OPTIMAL:
            raise InternalError("phase 1 of the simplex reported an unbounded objective")
        if tab.objective() > 0:
            return {"status": INFEASIBLE, "certificate": tab.duals(), "pivots": tab.pivots}
        tab.reduced = None  # phase 2 installs its own cost row after drive-out
        tab.drive_out_artificials(range(tab.n))
    else:
        tab.install(start)
        tab.drive_out_artificials(range(tab.n - 1, -1, -1))
    tab.set_costs(list(c) + [Fraction(0)] * tab.m)
    status, enter = tab.run(range(tab.n))
    if status == OPTIMAL:
        objective, y = tab.objective(), tab.duals()
        if c2 is not None:
            face = [j for j in range(tab.n) if tab.reduced[j] == 0]
            tab.set_costs(list(c2) + [Fraction(0)] * tab.m)
            status, enter = tab.run(face)
    if status == UNBOUNDED:
        ray = [Fraction(0)] * tab.width
        ray[enter] = Fraction(1)
        for r, row in enumerate(tab.T):
            ray[tab.basis[r]] = Fraction(-row[enter], tab.den[r])
        return {"status": UNBOUNDED, "certificate": ray[: tab.n], "pivots": tab.pivots}
    x = tab.solution()
    return {
        "status": OPTIMAL,
        "x": x[: tab.n],
        "objective": objective,
        "basis": sorted(tab.basis),
        "y": y,
        "pivots": tab.pivots,
    }


def solve(lp: LPInstance, tiebreak=None, start=None) -> LPResult:
    """Exact optimum with duals and certificates.

    infeasible -> certificate y with y^T A_std <= 0 and y^T b_std > 0;
    unbounded  -> certificate d >= 0 with A d = 0, c d < 0 (original coords).

    With a cost `tiebreak`, x minimizes it over the optimal face of c, while
    `objective` and `y` stay those of c; unbounded there, the certificate is
    a ray d >= 0 with A d = 0, c d = 0 and tiebreak d < 0.

    `start`, in the instance's n coordinates, is a vertex of the region
    (the support of x and of the slacks u - x independent) known to the
    caller.  The simplex then starts from a basis of it instead of running
    phase 1; the pivots that install it count in `pivots`.  A start that is
    not a vertex, or that breaks A x = b, x >= 0 or x <= u, raises
    InternalError: the caller's invariant is broken, and the solve does not
    fall back to phase 1.
    """
    rows, b, c, _, bounded_idx = lp.standardized()
    c2 = None if tiebreak is None else list(vec(tiebreak)) + [Fraction(0)] * (len(c) - lp.n)
    if c2 is not None and len(c2) != len(c):
        raise DimensionMismatch("tie-break cost has the wrong length")
    x0 = None
    if start is not None:
        x0 = list(vec(start))
        if len(x0) != lp.n:
            raise DimensionMismatch("start has the wrong length")
        x0 += [lp.u[i] - x0[i] for i in bounded_idx]
    return _result(lp, bounded_idx, _solve_standard(rows, b, c, c2, x0))


def _result(lp: LPInstance, bounded_idx, out: dict) -> LPResult:
    """The LPResult of `lp` from a solve of its standardized system."""
    n = lp.n
    if out["status"] == INFEASIBLE:
        return LPResult(
            status=INFEASIBLE, certificate=tuple(out["certificate"]), pivots=out["pivots"]
        )
    if out["status"] == UNBOUNDED:
        ray = tuple(out["certificate"][:n])
        return LPResult(status=UNBOUNDED, certificate=ray, pivots=out["pivots"])
    x = tuple(out["x"][:n])
    y_std = out["y"]
    y = tuple(y_std[: lp.A.rows])
    dual_upper = None
    if lp.u is not None:
        t = [Fraction(0)] * n
        for k, i in enumerate(bounded_idx):
            t[i] = -y_std[lp.A.rows + k]
        dual_upper = tuple(t)
    return LPResult(
        status=OPTIMAL,
        x=x,
        objective=out["objective"],
        basis=tuple(j for j in out["basis"] if j < n),
        y=y,
        dual_upper=dual_upper,
        pivots=out["pivots"],
    )


def _std_system(lp: LPInstance):
    """(A_std, b_std, n): the standardized constraint matrix, with a slack
    column per finite upper bound, its right-hand side and the LP's own
    column count n."""
    rows, b, _, n, _ = lp.standardized()
    width = len(rows[0]) if rows else n
    return RatMatrix.from_rows(rows, cols=width), vec(b), n


def _std_vertices(A: RatMatrix, b):
    """Vertices of the standardized region {x >= 0 : A x = b}, as full
    standardized vectors: x_B is the last column of the form of [A_red | b]
    for each basis B."""
    width = A.cols
    # Consistency of dropped rows is checked per candidate solution below via
    # the full system, so redundant-but-inconsistent data cannot slip through.
    keep = greedy_basis(A.transpose(), range(A.rows))
    Ab_red = RatMatrix.from_rows([A.data[i] + (b[i],) for i in keep], cols=width + 1)
    seen = {}
    # No desk-scale cap: the slack columns of upper bounds make a
    # standardized system up to twice as wide as the LP's own matrix.
    for B, form in bases(Ab_red, range(width)):
        x = [Fraction(0)] * width
        for j, r in zip(B, form.data):
            x[j] = r[-1]
        xt = tuple(x)
        if all(v >= 0 for v in xt) and A.matvec(xt) == b:
            seen.setdefault(xt, B)
    return seen


def vertices(lp: LPInstance) -> list[tuple]:
    """All (vertex, basis) pairs, exactly, one per vertex.

    Vertices come back in the instance's original coordinates; the basis is
    a representative column set of the standardized system (slack columns
    for finite upper bounds sit at indices >= n).  Degenerate bases of the
    same vertex are deduplicated.
    """
    A, b, n = _std_system(lp)
    out = {}
    for v, B in _std_vertices(A, b).items():
        out.setdefault(v[:n], B)
    return sorted(out.items())


def _region_is_unbounded(A: RatMatrix) -> bool:
    """True when the region {x >= 0 : A x = b}, if not empty, has a nonzero
    recession direction: when min -1^T d over the cone {d >= 0 : A d = 0}
    is unbounded.  Otherwise d = 0 is optimal."""
    res = solve(LPInstance.standard(A, vec_zero(A.rows), (Fraction(-1),) * A.cols))
    if res.status == INFEASIBLE:
        raise InternalError("the recession cone LP is infeasible")
    return res.status == UNBOUNDED


def edge_graph(lp: LPInstance):
    """Vertex list plus adjacency via the union-of-supports rank test.

    Two vertices are adjacent iff the minimal face containing both is a
    segment: |S| - rank(A_S) = 1 for S the union of their supports.  The
    test is basis-free, so degeneracy cannot split or merge vertices.
    """
    return _edge_graph(*_std_system(lp))


def _edge_graph(A: RatMatrix, b, n: int):
    """`edge_graph` of the standardized system A x = b of an LP with n columns."""
    verts = sorted(_std_vertices(A, b))
    if not verts:
        raise InfeasibleSystem("empty region has no vertex-edge graph")
    adj = {i: set() for i in range(len(verts))}
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            S = sorted(
                set(k for k, v in enumerate(verts[i]) if v != 0)
                | set(k for k, v in enumerate(verts[j]) if v != 0)
            )
            if not S:
                continue
            if len(S) - rank(A.take_cols(S)) == 1:
                adj[i].add(j)
                adj[j].add(i)
    return [v[:n] for v in verts], adj


def edge_graph_diameter(lp: LPInstance) -> int:
    """Exact graph diameter of the polytope's vertex-edge graph."""
    A, b, n = _std_system(lp)
    verts, adj = _edge_graph(A, b, n)
    if _region_is_unbounded(A):
        raise UnboundedRegion("vertex-edge diameter needs a bounded region")
    k = len(verts)
    if k <= 1:
        return 0
    diam = 0
    for s in range(k):
        dist = {s: 0}
        queue = [s]
        for v in queue:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        if len(dist) < k:
            raise InternalError("polytope graph disconnected")
        diam = max(diam, max(dist.values()))
    return diam


def fractionality(lp: LPInstance) -> int:
    """Least k such that every vertex of the region is 1/k-integral."""
    verts = vertices(lp)
    if not verts:
        raise InfeasibleSystem("empty region has no vertices")
    dens = [x.denominator for v, _ in verts for x in v]
    return math.lcm(*dens) if dens else 1
