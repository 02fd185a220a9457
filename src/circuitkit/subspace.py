"""Rational subspaces of R^n and their support-minimal kernel vectors.

A subspace W is stored through a canonical kernel representation: a full
row rank RREF matrix A with W = ker(A).  The row space of A is W-perp, so
duality is a representation swap.  Circuits (supports of support-minimal
nonzero vectors of W) drive everything in `imbalance` and `augment`.
"""

from __future__ import annotations

import math
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
    bareiss_step,
    check_desk_scale,
    integer_normalize,
    is_conformal,
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

    def as_fractions(self) -> Vec:
        return tuple(Fraction(x) for x in self.vector)

    def ratio(self, i: int, j: int) -> Fraction:
        """|v_j / v_i| for i, j in the support."""
        return Fraction(abs(self.vector[j]), abs(self.vector[i]))

    def entries_lcm(self) -> int:
        return math.lcm(*(abs(self.vector[i]) for i in self.support))


class ConformalDecomposition(NamedTuple):
    """target = sum of coeff * circuit_vector with sign agreement per term."""

    target: tuple
    terms: tuple  # tuple of (Fraction coeff > 0, oriented integer circuit tuple)

    def verify(self) -> bool:
        n = len(self.target)
        acc = vec_zero(n)
        for coeff, g in self.terms:
            if coeff <= 0:
                return False
            gv = vec(g)
            if not is_conformal(gv, vec(self.target)):
                return False
            acc = tuple(a + coeff * x for a, x in zip(acc, gv))
        return acc == vec(self.target) and len(self.terms) <= n


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

    @cached_property
    def circuit_list(self) -> tuple:
        return _enumerate_circuits(self)

    @cached_property
    def measures(self):
        """The `imbalance.imbalances` report of this subspace."""
        from .imbalance import imbalances  # imbalance builds on this module

        return imbalances(self)

    @cached_property
    def pair_maxima(self) -> dict:
        """(i, j) -> (num, den), the largest |g_j / g_i| over the circuits g
        with i, j in the support, for every ordered pair i != j sharing a
        circuit.

        One integer pass over `circuit_list`: ratios are compared by
        cross-multiplying and each maximum is reduced once at the end.  Keys
        are in order of first appearance in `circuit_list`.
        """
        best: dict = {}
        for ev in self.circuit_list:
            mags = [(i, abs(ev.vector[i])) for i in ev.support]
            for i, a in mags:
                for j, b in mags:
                    if i == j:
                        continue
                    cur = best.get((i, j))
                    if cur is None or b * cur[1] > cur[0] * a:
                        best[(i, j)] = (b, a)
        out = {}
        for k, (b, a) in best.items():
            g = math.gcd(b, a)
            out[k] = (b // g, a // g)
        return out

    def project_onto_perp(self, v: Vec) -> Vec:
        """Orthogonal projection of v onto W-perp, computed exactly."""
        B = self.kernel_rep  # rows span W-perp
        if B.rows == 0:
            return vec_zero(self.ambient_dim)
        gram = B.mul(B.transpose())
        rhs = B.matvec(vec(v))
        mu = solve_linear(gram, rhs)
        return B.vecmat(mu)


def dual(W: Subspace) -> Subspace:
    """The orthogonal complement; kernel and span representations swap."""
    return Subspace._live(W.span_rep)


def _enumerate_circuits(W: Subspace) -> tuple:
    """All circuits of W, ordered by size, then lexicographically by support.

    Independent column sets I of A are grown depth-first in lexicographic
    order, each by one Edmonds-Bareiss pivot (`ratmat.bareiss_step` on each
    row) of a fraction-free Gauss-Jordan tableau of the integer rows (each
    row of A scaled to integers once, which keeps its kernel).  Every row
    is held over one common denominator D > 0: pivot rows read D at their
    pivot column, and a column e with no nonzero entry in the rows without
    a pivot is dependent on I.  Then I + e holds exactly one circuit, whose
    kernel line is D at e and -T[p][e] at the pivot column of each row p;
    it is I + e itself exactly when no entry on I is zero.  A circuit C is
    found only from I = C minus its largest element, so each is found
    once.  The subtree under I only reads columns after max(I), so each
    tableau keeps those alone.

    A subtree is cut when some pivoted row is 0 on every tail column.  Its
    element of I is then a coloop of I plus the tail: a step keeps that row
    0 there (its entry in each later pivot column is 0), so every kernel
    line below reads 0 at that element and no circuit holding all of I is
    found.  The cut is tested on a child's pivoted rows before its other
    rows are eliminated, so a cut subtree costs no step on those.  The cut
    skips only subtrees that find nothing, so the circuits are exactly
    those of the uncut growth.  There are at most 2^n sets, n within the
    desk-scale cap, and the recursion is at most rank A deep.  An inexact
    division raises InternalError.
    """
    n = W.ambient_dim
    check_desk_scale(n, "circuit enumeration")
    int_rows = [integer_normalize(row)[0] for row in W.kernel_rep.data]
    found: list[ElementaryVector] = []

    def grow(I: tuple, pivoted: list, rest: list, D: int, start: int):
        # pivoted: the rows holding a pivot, in the order of I; rest: the
        # others.  Both hold the columns start..n-1 only.
        for k in range(n - start):
            e = start + k
            row = next((row for row in rest if row[k]), None)
            if row is None:
                v = [-prow[k] for prow in pivoted]
                if 0 in v:
                    continue
                v.append(D)
                S = I + (e,)
                if any(sum(r[j] * x for j, x in zip(S, v)) for r in int_rows):
                    raise InternalError(f"kernel line of support {S} is not in the kernel")
                g = math.gcd(*v)
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

            child = [eliminate(old) for old in pivoted] + [tail]
            if all(map(any, child)):  # else an element of I + e is a coloop: cut
                grow(I + (e,), child, [eliminate(old) for old in rest if old is not row], p, e + 1)

    grow((), [], int_rows, 1, 0)
    found.sort(key=lambda ev: (len(ev.support), ev.support))
    return tuple(found)


def circuits(W: Subspace) -> tuple:
    return W.circuit_list


def oriented_circuits(W: Subspace):
    """Every circuit of W in both orientations, as (circuit, Fraction vector).

    Circuits come in `circuit_list` order, each with its canonical sign
    first, so a scan that keeps its first match is deterministic.
    """
    for ev in W.circuit_list:
        for sign in (1, -1):
            g = ev if sign == 1 else ElementaryVector(ev.support, tuple(-x for x in ev.vector))
            yield g, g.as_fractions()


def conformal_circuit(W: Subspace, z: Vec):
    """The oriented circuit conformal to z with the smallest support, or None
    when z = 0."""
    zv = vec(z)
    best = None
    for g, gv in oriented_circuits(W):
        if is_conformal(gv, zv) and (best is None or g.support < best.support):
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
        gv = g.as_fractions()
        alpha = min(r[i] / gv[i] for i in g.support)
        terms.append((alpha, g.vector))
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
        gram = V0.mul(V0.transpose())
        mu = solve_linear(gram, V0.matvec(z0))
        z0 = vec_sub(z0, V0.vecmat(mu))
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
