"""Rational subspaces of R^n and their support-minimal kernel vectors.

A subspace W is stored through a canonical kernel representation: a full
row rank RREF matrix A with W = ker(A).  The row space of A is W-perp, so
duality is a representation swap.  Circuits (supports of support-minimal
nonzero vectors of W) drive everything in `imbalance` and `augment`.
"""

from __future__ import annotations

import math
import operator
import weakref
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .errors import (
    CircuitKitError,
    DimensionMismatch,
    EmptyIndexSet,
    InternalError,
    NotInProjection,
    NotInSubspace,
)
from .ratmat import (
    RatMatrix,
    Vec,
    _gauss_jordan,
    bareiss_step,
    check_desk_scale,
    is_conformal,
    over_common_den,
    rref_kernel,
    rref_nonzero,
    solve_linear,
    vec,
    vec_sub,
    vec_zero,
)


class ElementaryVector(NamedTuple):
    """A gcd-normalized integer support-minimal vector of a subspace.

    `vector` has full ambient length and coprime integer entries; `support`
    is the sorted tuple of nonzero indices.  Circuits stored on a Subspace
    carry the canonical sign (first nonzero entry positive); augmentation
    directions reuse the type with whichever orientation decreases cost.
    """

    support: tuple
    vector: tuple

    def ratio(self, i: int, j: int) -> Fraction:
        """|v_j / v_i| for i, j in the support."""
        return Fraction(abs(self.vector[j]), abs(self.vector[i]))


class ConformalDecomposition(NamedTuple):
    """target = sum of coeff * circuit_vector with sign agreement per term."""

    target: tuple
    terms: tuple  # tuple of (Fraction coeff > 0, oriented integer circuit tuple)

    def verify(self) -> bool:
        n = len(self.target)
        acc = vec_zero(n)
        target = vec(self.target)
        for coeff, g in self.terms:
            if coeff <= 0 or not is_conformal(g, target):
                return False
            acc = tuple(a + coeff * x for a, x in zip(acc, g))
        return acc == target and len(self.terms) <= n


# Canonical kernel_rep -> the live Subspace; an entry goes when its object does.
_LIVE = weakref.WeakValueDictionary()


class Subspace:
    """A rational subspace, canonically ker(kernel_rep) with kernel_rep in RREF.

    The circuits and everything computed from them alone (the imbalance
    report and the pair maxima) are computed once per object, on first use.
    The constructors below and `dual` return the live object with the same
    kernel_rep when there is one, so every holder of a subspace shares them.

    Immutable, and equal and hashed by (ambient_dim, kernel_rep).  A plain
    class rather than a tuple, because the cached properties need a
    `__dict__` and the live table a weak reference.
    """

    def __init__(self, ambient_dim: int, kernel_rep: RatMatrix):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "kernel_rep", kernel_rep)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ambient_dim, self.kernel_rep) == (other.ambient_dim, other.kernel_rep)

    def __hash__(self):
        return hash((self.ambient_dim, self.kernel_rep))

    def __repr__(self):
        return (
            f"{self.__class__.__qualname__}(ambient_dim={self.ambient_dim!r}, "
            f"kernel_rep={self.kernel_rep!r})"
        )

    @classmethod
    def _live(cls, kernel_rep: RatMatrix) -> "Subspace":
        """The live Subspace with this canonical kernel_rep, made if none is."""
        return _LIVE.setdefault(kernel_rep, cls(ambient_dim=kernel_rep.cols, kernel_rep=kernel_rep))

    @classmethod
    def from_kernel_matrix(cls, A: RatMatrix) -> "Subspace":
        """ker(A), with no elimination when A is a live kernel_rep."""
        return _LIVE.get(A) or cls._live(rref_nonzero(A))

    @classmethod
    def from_span_matrix(cls, S: RatMatrix) -> "Subspace":
        _, _, kb = rref_kernel(S)
        return cls._live(rref_nonzero(kb))

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.kernel_rep.rows

    @property
    def codim(self) -> int:
        return self.kernel_rep.rows

    @cached_property
    def span_rep(self) -> RatMatrix:
        """Canonical (RREF) basis of W as rows; shape dim x n."""
        _, _, kb = rref_kernel(self.kernel_rep)
        return rref_nonzero(kb) if kb.rows else RatMatrix.zeros(0, self.ambient_dim)

    def contains(self, v: Vec) -> bool:
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector has the wrong ambient dimension")
        return all(x == 0 for x in self.kernel_rep.matvec(v))

    def is_trivial(self) -> bool:
        return self.dim == 0 or self.dim == self.ambient_dim

    @property
    def int_kernel_rows(self) -> tuple:
        """The rows of kernel_rep as coprime integer tuples, first nonzero
        entry positive: they span W-perp, and the circuit enumeration and
        `project_onto_perp` work on them.  These are the integer rows that
        kernel_rep keeps (`RatMatrix.int_rows`): a row over its least common
        denominator is coprime, and an RREF row starts with its pivot 1."""
        return self.kernel_rep.int_rows[0]

    @cached_property
    def circuit_list(self) -> tuple:
        return _enumerate_circuits(self)

    @cached_property
    def measures(self):
        """The `imbalance.imbalances` report of this subspace, made once."""
        from .imbalance import imbalances  # imbalance builds on this module

        return imbalances(self)

    @cached_property
    def pair_maxima(self) -> dict:
        """(i, j) -> (num, den), the largest |g_j / g_i| over the circuits g
        with i, j in the support, for every ordered pair i != j sharing a
        circuit, reduced; keys in order of first appearance in
        `circuit_list`.  Its own integer pass (`imbalance._pair_maxima`),
        made when `kappa_star` or `pairwise` first reads it."""
        from .imbalance import _pair_maxima

        return _pair_maxima(self.circuit_list)

    def project_onto_perp(self, v: Vec) -> Vec:
        """Orthogonal projection of v onto W-perp, computed exactly.

        With R = `int_kernel_rows`, which span W-perp, and v = w / s for an
        integer vector w and integer s > 0, the projection is R^T nu where
        G nu = R v and G = R R^T.  One fraction-free `ratmat._gauss_jordan`
        pass reduces the integer rows [G | R w] to D [I | s nu], and each
        entry of R^T nu is then one integer sum over D s.
        """
        R = self.int_kernel_rows
        if not R:
            return vec_zero(self.ambient_dim)
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector has the wrong ambient dimension")
        w, s = over_common_den(v)
        k = len(R)
        rows = [[sum(map(operator.mul, a, b)) for b in (*R, w)] for a in R]
        T, D, pivots, _ = _gauss_jordan(rows, range(k))
        if len(pivots) < k:
            raise InternalError("the rows of kernel_rep are dependent")
        nu = [row[k] for row in T]
        den = D * s
        return tuple(Fraction(sum(map(operator.mul, col, nu)), den) for col in zip(*R))


def dual(W: Subspace) -> Subspace:
    """The orthogonal complement; kernel and span representations swap."""
    return Subspace._live(W.span_rep)


def _enumerate_circuits(W: Subspace) -> tuple:
    """All circuits of W, ordered by size, then lexicographically by support.

    The circuits of W = ker A are the circuits of the column matroid of A,
    and the complements of the hyperplanes of the column matroid of any
    basis matrix of W (its dual; Oxley, Matroid Theory, ch. 2).  Either
    side grows independent column sets I depth-first in lexicographic
    order, each by one Edmonds-Bareiss pivot (`ratmat.bareiss_step` on each
    row) of a fraction-free tableau over one common denominator D > 0, and
    builds each circuit found with one leaf builder (gcd-normalized, first
    nonzero entry positive, audited as a kernel vector of A's integer rows
    with entries within Hadamard's bound; an inexact division or a failed
    audit raises InternalError).  The rows
    that hold no pivot show the columns dependent on I: those that are 0 in
    all of them.  Each node is one independent set I, n is within the
    desk-scale cap, and the depth of the recursion is |I|.  The primal side
    builds nodes with |I| < rank A, and at those with |I| = rank A - 1 it
    reads at most C(n, 2) column pairs; the dual side builds nodes with
    |I| < dim W, those with |I| = dim W - 1 being its leaves.  The dual side
    is taken when dim W <= rank A, so besides the root at most the sum over
    0 < k < min(rank A, dim W) of C(n, k) nodes are built.

    Primal side (`_primal_circuits`): `Subspace.int_kernel_rows`, the rows
    of A as coprime integers.  A column e dependent on I closes exactly one
    circuit inside I + e, whose kernel line is D at e and -T[p][e] at the
    pivot column of each pivoted row p; it is I + e itself exactly when no
    entry on I is zero, and C is found only from I = C minus its largest
    element.  The tableau under I keeps only the columns after max(I), and
    a subtree is cut when some pivoted row is 0 on all of them: that
    element of I is then a coloop of I plus the tail, and every kernel line
    below reads 0 there.  The last level is closed from 2 x 2 minors: at a
    node with one unpivoted row R left, pivoting on R at e leaves none, so
    each later column e2 closes I + e + e2, and its kernel line is read off
    the pivoted rows P at e and e2 with no child node built (`close`).

    Dual side (`_dual_circuits`): an integer basis of W, one row per free
    column of the RREF kernel_rep, with full-width rows.  Pivoted rows are
    never read, so only the others are eliminated.  At depth dim W - 1 the
    one row left vanishes exactly on the hyperplane spanned by I, and is
    the circuit vector on its complement.  It is kept only when I is the
    greedy basis of that hyperplane, i.e. when no column passed over as
    independent of an earlier prefix of I lies in it; a subtree is cut as
    soon as such a column becomes dependent on I, since the hyperplanes
    below all hold it.  So each circuit is found once.  Both cuts skip only
    subtrees that find nothing.
    """
    n = W.ambient_dim
    check_desk_scale(n, "circuit enumeration")
    int_rows = W.int_kernel_rows
    # The audit packs the rows into one integer per column, K bits a row, so
    # that the K-bit digits of sum_j v_j * packed[j] are the entries of A v.
    # A circuit's coprime vector divides a vector of minors of the rows
    # (Cramer), so its entries are at most H, the product of the rows'
    # 1-norms (Hadamard); then each
    # |(A v)_i| < 2^(K - 1), and the sum is 0 exactly when A v = 0.
    norms = [sum(map(abs, r)) for r in int_rows]
    H = math.prod(norms)
    K = (max(norms, default=0) * H).bit_length() + 2
    packed = [sum(r[j] << (K * i) for i, r in enumerate(int_rows)) for j in range(n)]
    found: list[ElementaryVector] = []

    def leaf(S: tuple, v: list):
        # S: the support; v: the nonzero entries on it, in order.
        g = math.gcd(*v)
        if v[0] < 0:
            g = -g
        v = [x // g for x in v]
        if max(map(abs, v)) > H or sum(map(operator.mul, map(packed.__getitem__, S), v)):
            raise InternalError(f"kernel line of support {S} is not in the kernel")
        full = [0] * n
        for j, x in zip(S, v):
            full[j] = x
        found.append(ElementaryVector(support=S, vector=tuple(full)))

    if W.dim <= W.codim:
        _dual_circuits(W, leaf)
    else:
        _primal_circuits(n, int_rows, leaf)
    found.sort(key=lambda ev: (len(ev.support), ev.support))
    return tuple(found)


def _primal_circuits(n: int, int_rows: list, leaf):
    """The primal side of `_enumerate_circuits`: independent sets of A."""

    def dependent(I: tuple, pivoted: list, D: int, k: int, e: int):
        # Column e (tail slot k) depends on I: its kernel line closes I + e
        # when no entry on I is zero.
        v = [-prow[k] for prow in pivoted]
        if 0 not in v:
            v.append(D)
            leaf(I + (e,), v)

    def grow(I: tuple, pivoted: list, rest: list, D: int, start: int):
        # pivoted: the rows holding a pivot, in the order of I; rest: the
        # others.  Both hold the columns start..n-1 only.
        if len(rest) == 1:
            return close(I, pivoted, rest[0], D, start)
        for k in range(n - start):
            e = start + k
            row = next((row for row in rest if row[k]), None)
            if row is None:
                dependent(I, pivoted, D, k, e)
                continue
            prow = row if row[k] > 0 else [-a for a in row]
            p = prow[k]
            tail = prow[k + 1 :]
            tsum = sum(tail)

            def eliminate(old):
                return bareiss_step(old[k + 1 :], tail, old[k], p, D, tsum)

            child = [eliminate(old) for old in pivoted] + [tail]
            if all(map(any, child)):  # else an element of I + e is a coloop: cut
                grow(I + (e,), child, [eliminate(old) for old in rest if old is not row], p, e + 1)

    def close(I: tuple, pivoted: list, R: list, D: int, start: int):
        # The last level: pivoting on R at column e leaves no unpivoted row,
        # so every column e2 after e closes I + e + e2 with the kernel line
        # the child node would read, -(p P[e2] - P[e] R[e2]) / D on each
        # pivoted row P, -R[e2] at e and p at e2, and no child is built.
        for k in range(n - start):
            e = start + k
            a = R[k]
            if not a:
                dependent(I, pivoted, D, k, e)
                continue
            prow, p = (R, a) if a > 0 else ([-x for x in R], -a)
            for k2 in range(k + 1, n - start):
                b = prow[k2]
                if not b:
                    continue
                num = [P[k] * b - p * P[k2] for P in pivoted]
                if 0 in num:
                    continue
                v = [x // D for x in num]
                if D * sum(v) != sum(num):  # floor remainders share D's sign
                    raise InternalError(f"inexact Bareiss step: pivot {p} over {D}")
                v += (-b, p)
                leaf(I + (e, start + k2), v)

    grow((), [], int_rows, 1, 0)


def _dual_circuits(W: Subspace, leaf):
    """The dual side of `_enumerate_circuits`: independent sets of a basis
    of W, whose rows come from the free columns of the RREF kernel_rep:
    L at the free column f and -L * a_if at the pivot column of row i, with
    L the lcm of the denominators of column f (so the row is coprime)."""
    n = W.ambient_dim
    A = W.kernel_rep.data
    pivots = [next(j for j, x in enumerate(row) if x) for row in A]
    basis = []
    for f in sorted(set(range(n)).difference(pivots)):
        col, L = over_common_den([row[f] for row in A])
        out = [0] * n
        out[f] = L
        for x, p in zip(col, pivots):
            out[p] = -x
        basis.append(out)

    def grow(rest: list, D: int, start: int, skipped: list):
        # rest: the unpivoted rows, full width; skipped: the columns before
        # start, not in I, that were independent of the prefix of I before
        # them.
        if len(rest) == 1:
            S = tuple(j for j, x in enumerate(rest[0]) if x)
            leaf(S, [rest[0][j] for j in S])
            return
        skipped = list(skipped)
        for e in range(start, n - len(rest) + 2):  # len(rest) - 2 pivots follow e
            row = next((row for row in rest if row[e]), None)
            if row is None:
                continue
            prow = row if row[e] > 0 else [-a for a in row]
            p = prow[e]
            others = [old for old in rest if old is not row]
            # A skipped column that depends on I + e lies in every
            # hyperplane below, so no leaf below is a greedy basis: cut.
            if all(any(p * old[j] != old[e] * prow[j] for old in others) for j in skipped):
                psum = sum(prow)
                grow([bareiss_step(old, prow, old[e], p, D, psum) for old in others], p, e + 1, skipped)
            skipped.append(e)

    if basis:
        grow(basis, 1, 0, [])


def circuits(W: Subspace) -> tuple:
    return W.circuit_list


def oriented_circuits(W: Subspace):
    """Every circuit of W in both orientations, as an `ElementaryVector`
    whose `vector` is a tuple of ints.

    Circuits come in `circuit_list` order, each with its canonical sign
    first and then its negation, so a scan that keeps its first match is
    deterministic.  Consumers compute on the int entries directly: the
    `ratmat` kernels, `/` and `<` take ints and Fractions alike.
    """
    for ev in W.circuit_list:
        yield ev
        yield ElementaryVector(ev.support, tuple(-x for x in ev.vector))


def conformal_circuit(W: Subspace, z: Vec):
    """The oriented circuit conformal to z with the smallest support, or None
    when z = 0."""
    zv = vec(z)
    best = None
    for g in oriented_circuits(W):
        if is_conformal(g.vector, zv) and (best is None or g.support < best.support):
            best = g
    return best


def conformal_decompose(W: Subspace, z: Vec) -> ConformalDecomposition:
    """Write z in W as a positive combination of sign-agreeing circuits.

    At each step take the conformal circuit with the lexicographically
    smallest support and the largest coefficient that keeps the remainder in
    the same orthant.  The remainder loses at least one support element per
    step, so there are at most n terms.
    """
    zv = vec(z)
    if len(zv) != W.ambient_dim:
        raise DimensionMismatch("vector has the wrong ambient dimension")
    if not W.contains(zv):
        raise NotInSubspace("conformal decomposition needs z in W")
    terms = []
    r = zv
    while any(x != 0 for x in r):
        g = conformal_circuit(W, r)
        if g is None:
            raise InternalError("no conformal circuit found for a nonzero remainder")
        gv = g.vector
        alpha = min(r[i] / gv[i] for i in g.support)
        terms.append((alpha, gv))
        r = tuple(a - alpha * b for a, b in zip(r, gv))
    dec = ConformalDecomposition(target=zv, terms=tuple(terms))
    if not dec.verify():
        raise InternalError("decomposition failed verification")
    return dec


def minor(W: Subspace, J: Sequence[int], mode: str) -> Subspace:
    """Projection pi_J(W) or restriction W_J = {w_J : w in W, supp(w) in J}.

    Coordinates of the minor follow the sorted order of J.
    """
    J = sorted(set(J))
    if not J:
        raise EmptyIndexSet("minor needs a nonempty coordinate set")
    if J[0] < 0 or J[-1] >= W.ambient_dim:
        raise DimensionMismatch("minor indices out of range")
    if mode == "project":
        S = W.span_rep.take_cols(J)
        if S.rows == 0:
            S = RatMatrix.zeros(1, len(J))
        return Subspace.from_span_matrix(S)
    if mode == "restrict":
        return Subspace.from_kernel_matrix(W.kernel_rep.take_cols(J))
    raise CircuitKitError(f"unknown minor mode {mode!r}")


def lift_min_norm(W: Subspace, I: Sequence[int], p: Vec) -> Vec:
    """The minimum Euclidean norm z in W with z_I = p.

    Exact construction: any lift z0, minus the projection of z0 onto the
    vectors of W vanishing on I.  The result is orthogonal to that space,
    which characterizes the least-norm lift.
    """
    I = sorted(set(I))
    if not I:
        raise EmptyIndexSet("lift needs a nonempty coordinate set")
    p = vec(p)
    if len(p) != len(I):
        raise DimensionMismatch("lift data length mismatch")
    S = W.span_rep
    if S.rows == 0:
        if any(x != 0 for x in p):
            raise NotInProjection("p is not in the projection of W")
        return vec_zero(W.ambient_dim)
    StI = S.take_cols(I).transpose()  # |I| x dim
    lam = solve_linear(StI, p)
    if lam is None:
        raise NotInProjection("p is not in the projection of W")
    z0 = S.vecmat(lam)
    # Basis of W ∩ {x_I = 0}
    stack_rows = list(W.kernel_rep.data)
    for i in I:
        e = [Fraction(0)] * W.ambient_dim
        e[i] = Fraction(1)
        stack_rows.append(e)
    _, _, V0 = rref_kernel(RatMatrix.from_rows(stack_rows, cols=W.ambient_dim))
    if V0.rows:
        # the rows of V0 span ker(V0)-perp: this is z0's projection onto them
        z0 = vec_sub(z0, Subspace.from_kernel_matrix(V0).project_onto_perp(z0))
    if any(z0[i] != p[pos] for pos, i in enumerate(I)) or not W.contains(z0):
        raise InternalError("minimum-norm lift misses p or leaves W")
    return z0


def components(W: Subspace) -> tuple:
    """Partition of the ground set into the connected components of W's
    matroid (the circuit hypergraph); elements in no circuit are singletons.

    The matroid of W is the column matroid of kernel_rep, which is in RREF,
    so it is A_B^{-1} A for the basis B of its pivot columns.  Row i is the
    fundamental cocircuit of the i-th pivot, and the rows' supports read the
    fundamental graph of B: an edge (pivot i, j) for each nonzero entry.
    Its components are the matroid's (Krogdahl 1977; Cunningham 1973), so
    no circuit is enumerated.
    """
    n = W.ambient_dim
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in W.kernel_rep.data:
        supp = [j for j, x in enumerate(row) if x != 0]
        for j in supp[1:]:
            parent[find(j)] = find(supp[0])
    blocks: dict[int, list[int]] = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    return tuple(sorted(tuple(sorted(b)) for b in blocks.values()))


def is_separable(W: Subspace) -> bool:
    return len(components(W)) > 1
