"""Rational subspaces of R^n and their support-minimal kernel vectors.

A subspace W is stored through a canonical kernel representation: a full
row rank RREF matrix A with W = ker(A).  The row space of A is W-perp, so
duality is a representation swap.  Circuits (supports of support-minimal
nonzero vectors of W) drive everything in `imbalance` and `augment`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    CircuitKitError,
    DimensionMismatch,
    EmptyIndexSet,
    InternalError,
    NotInProjection,
    NotInSubspace,
    ZeroVector,
)
from .ratmat import (
    RatMatrix,
    Vec,
    check_desk_scale,
    integer_normalize,
    is_conformal,
    rank,
    rref_kernel,
    rref_nonzero,
    solve_linear,
    vec,
    vec_dot,
    vec_scale,
    vec_sub,
    vec_zero,
)


@dataclass(frozen=True)
class ElementaryVector:
    """A gcd-normalized integer support-minimal vector of a subspace.

    `vector` has full ambient length and coprime integer entries; `support`
    is the sorted tuple of nonzero indices.  Circuits stored on a Subspace
    carry the canonical sign (first nonzero entry positive); augmentation
    directions reuse the type with whichever orientation decreases cost.
    """

    support: tuple
    vector: tuple

    def as_fractions(self, sign: int = 1) -> Vec:
        return tuple(Fraction(sign * x) for x in self.vector)

    def ratio(self, i: int, j: int) -> Fraction:
        """|v_j / v_i| for i, j in the support."""
        return Fraction(abs(self.vector[j]), abs(self.vector[i]))

    def max_abs(self) -> int:
        return max(abs(x) for x in self.vector)

    def min_abs_nonzero(self) -> int:
        return min(abs(self.vector[i]) for i in self.support)

    def entries_lcm(self) -> int:
        import math

        return math.lcm(*(abs(self.vector[i]) for i in self.support))

    def has_unit_entry(self) -> bool:
        return any(abs(self.vector[i]) == 1 for i in self.support)


@dataclass(frozen=True)
class ConformalDecomposition:
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


@dataclass(frozen=True)
class Subspace:
    """A rational subspace, canonically ker(kernel_rep) with kernel_rep in RREF."""

    ambient_dim: int
    kernel_rep: RatMatrix

    @classmethod
    def from_kernel_matrix(cls, A: RatMatrix) -> "Subspace":
        return cls(ambient_dim=A.cols, kernel_rep=rref_nonzero(A))

    @classmethod
    def from_span_matrix(cls, S: RatMatrix) -> "Subspace":
        _, _, kb = rref_kernel(S)
        return cls(ambient_dim=S.cols, kernel_rep=rref_nonzero(kb))

    @classmethod
    def from_span_rows(cls, rows: Sequence[Sequence], ambient: int | None = None) -> "Subspace":
        if rows:
            return cls.from_span_matrix(RatMatrix.from_rows(rows))
        if ambient is None:
            raise DimensionMismatch("empty span needs an ambient dimension")
        return cls.from_span_matrix(RatMatrix.zeros(1, ambient))

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

    def project_onto_perp(self, v: Vec) -> Vec:
        """Orthogonal projection of v onto W-perp, computed exactly."""
        B = self.kernel_rep  # rows span W-perp
        if B.rows == 0:
            return vec_zero(self.ambient_dim)
        gram = B.mul(B.transpose())
        rhs = B.matvec(vec(v))
        mu = solve_linear(gram, rhs)
        return B.vecmat(mu)

    def project_onto(self, v: Vec) -> Vec:
        return vec_sub(vec(v), self.project_onto_perp(v))


def dual(W: Subspace) -> Subspace:
    """The orthogonal complement; kernel and span representations swap."""
    return Subspace(ambient_dim=W.ambient_dim, kernel_rep=W.span_rep)


def _enumerate_circuits(W: Subspace) -> tuple:
    """All circuits of W by candidate-support enumeration.

    A support S is a circuit support exactly when ker(A_S) is a line whose
    vector has no zero inside S.  Supersets of found circuits are skipped.
    """
    n = W.ambient_dim
    check_desk_scale(n, "circuit enumeration")
    A = W.kernel_rep
    r = A.rows  # matroid rank of the column matroid of A
    found: list[ElementaryVector] = []
    found_supports: list[frozenset] = []
    for size in range(1, min(n, r + 1) + 1):
        for S in itertools.combinations(range(n), size):
            sset = frozenset(S)
            if any(fs <= sset for fs in found_supports):
                continue
            sub = A.take_cols(S)
            _, _, kb = rref_kernel(sub)
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


def circuits(W: Subspace) -> tuple:
    return W.circuit_list


def conformal_circuit(W: Subspace, z: Vec):
    """Smallest-support circuit conformal to z, as an oriented fraction vector.

    Returns (ElementaryVector, sign) or None when z = 0.
    """
    zv = vec(z)
    best = None
    for ev in W.circuit_list:
        for sign in (1, -1):
            g = ev.as_fractions(sign)
            if is_conformal(g, zv):
                key = ev.support
                if best is None or key < best[0].support:
                    best = (ev, sign)
                break
    return best


def conformal_decompose(W: Subspace, z: Vec, rule: str = "greedy-maximal") -> ConformalDecomposition:
    """Write z in W as a positive combination of sign-agreeing circuits.

    greedy-maximal: at each step take the conformal circuit with the
    lexicographically smallest support and the largest coefficient that keeps
    the remainder in the same orthant.  The remainder loses at least one
    support element per step, so there are at most n terms.
    """
    zv = vec(z)
    if len(zv) != W.ambient_dim:
        raise DimensionMismatch("vector has the wrong ambient dimension")
    if not W.contains(zv):
        raise NotInSubspace("conformal decomposition needs z in W")
    if rule not in ("greedy-maximal", "any"):
        raise CircuitKitError(f"unknown decomposition rule {rule!r}")
    terms = []
    r = zv
    while any(x != 0 for x in r):
        pick = _pick_conformal(W, r, rule)
        if pick is None:
            raise CircuitKitError("no conformal circuit found for a nonzero remainder")
        ev, sign = pick
        g = ev.as_fractions(sign)
        alpha = min(r[i] / g[i] for i in ev.support)
        terms.append((alpha, tuple(sign * x for x in ev.vector)))
        r = tuple(a - alpha * b for a, b in zip(r, g))
    dec = ConformalDecomposition(target=zv, terms=tuple(terms))
    if not dec.verify():
        raise InternalError("decomposition failed verification")
    return dec


def _pick_conformal(W: Subspace, r: Vec, rule: str):
    if rule == "any":
        for ev in W.circuit_list:
            for sign in (1, -1):
                if is_conformal(ev.as_fractions(sign), r):
                    return (ev, sign)
        return None
    return conformal_circuit(W, r)


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
    """Partition of the ground set into connected components of the circuit
    hypergraph; elements in no circuit are singletons."""
    n = W.ambient_dim
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for ev in W.circuit_list:
        first = ev.support[0]
        for j in ev.support[1:]:
            union(first, j)
    blocks: dict[int, list[int]] = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    return tuple(sorted(tuple(sorted(b)) for b in blocks.values()))


def is_separable(W: Subspace) -> bool:
    return len(components(W)) > 1


def is_anchored(W: Subspace):
    """True when every circuit vector carries an entry of absolute value 1."""
    for ev in W.circuit_list:
        if not ev.has_unit_entry():
            return False, ev
    return True, None
