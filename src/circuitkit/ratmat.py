"""Exact rational vectors, matrices, and the elimination kernels.

Everything here and downstream is exact.  Vectors and matrices at the API
are `fractions.Fraction`; the hot loops run fraction-free over Python ints
with the same results: the simplex tableau in `lp`; the Gauss-Jordan
tableau of the circuit enumeration, its last level closed from 2 x 2
minors, and the Gram solve of the projection onto W-perp, both on the
coprime integer rows of the kernel representation, in `subspace`; and the
report pass, the pair maxima and Karp's maximum-mean-cycle search behind
kappa_star in `imbalance`.  Rationals become ints in one reader,
`over_common_den`: a vector as integers over its least common
denominator, each a numerator times the quotient of that denominator by
its own, with no Fraction product.  Each matrix is read once: a
`RatMatrix` keeps its integer rows (`int_rows`, each row through that
reader by `_int_rows`) and hashes and compares by them, and elimination,
the simplex tableau and the region test in `lp`, the kernel rows of
`subspace` and the certificates of `proximity` all take those integers.
Vectors go through the reader themselves: the cost row of the tableau,
the dual side of the circuit enumeration, `norm1` and the points
`proximity` checks.  An
integer string becomes an int through `int()` (`as_fraction`).  Integer
data stays integer: the circuits reach every consumer as int vectors.
Floating point appears only in the explicitly inexact spectral estimator
`imbalance.chibar`.

Each elimination job is done here once.  `bareiss_step` is the one
fraction-free Edmonds-Bareiss row step, taken by the simplex, the circuit
enumeration and `_gauss_jordan`.  `_gauss_jordan` is the one elimination
loop: fraction-free Gauss-Jordan over integer rows, behind `rank` and
`greedy_basis`, the one greedy column basis (their pivots), `rref` (and
so `rref_nonzero` and `rref_kernel`), `solve_linear`, `invert`, `bareiss_det`,
`basis_form` and `bases`, the one loop over bases with their forms
A_B^{-1} A.  The simplex and the circuit enumeration keep their own pivot
rules (Bland's rule, a depth-first tree on tail slices) around the same step.

The scans exponential in the number of columns (the circuits, the square
submatrices of `imbalance.is_TU`, the bases of `imbalance.chibar`) accept at
most `MAX_ENUM_COLS` = 12 columns, with no override: each first calls
`check_desk_scale`, which raises DeskScaleExceeded past it.

Vectors are plain tuples of Fractions; a matrix is an immutable
`RatMatrix` over a tuple of row tuples.  `vec_dot` is the one exact dot
product: integer numerators added over a running common denominator and
reduced once.  `matvec`, `vecmat`, `mul` and `norm2_sq` go through it;
`norm1` is one integer sum over the common denominator.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DeskScaleExceeded,
    DimensionMismatch,
    InternalError,
    NotSquare,
    SingularBasis,
)

Vec = tuple  # tuple[Fraction, ...]

MAX_ENUM_COLS = 12

# A string holding one of these is no decimal integer literal.
_NOT_INT = frozenset("/.eE")

_ZERO = Fraction(0)


def check_desk_scale(width: int, what: str):
    if width > MAX_ENUM_COLS:
        raise DeskScaleExceeded(f"{what} over {width} columns exceeds the cap of {MAX_ENUM_COLS}")


def as_fraction(x) -> Fraction:
    """x as a Fraction: a Fraction as is, an int or a string exactly.

    A string with none of `/ . e E` is read by `int()`, which skips the
    Fraction string parser; anything `int()` rejects goes to
    `Fraction(str)`, so the value or the exception class is Fraction's."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if _NOT_INT.isdisjoint(x):
            try:
                return Fraction(int(x))
            except ValueError:
                pass
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


def vec(entries: Iterable) -> Vec:
    """The entries as a tuple of Fractions; such a tuple is returned as is."""
    if type(entries) is tuple and set(map(type, entries)) <= {Fraction}:
        return entries
    return tuple(as_fraction(e) for e in entries)


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_dot(a: Vec, b: Vec) -> Fraction:
    """sum a_i b_i, exact, reduced once: the one dot-product kernel.

    Each nonzero term's integer numerator is added over a running common
    denominator, the lcm of the terms' denominators so far, and one
    Fraction is built at the end, so no Fraction is normalised per term.
    Entries are ints or Fractions; a length mismatch raises ValueError.
    """
    num, den = 0, 1
    for x, y in zip(a, b, strict=True):
        p = x.numerator * y.numerator
        if p:
            q = x.denominator * y.denominator
            if q != den:
                m = math.lcm(den, q)
                num *= m // den
                p *= m // q
                den = m
            num += p
    return Fraction(num, den)


def vec_zero(n: int) -> Vec:
    return (_ZERO,) * n


def norm1(a: Vec) -> Fraction:
    """sum |a_i|: one integer sum over the common denominator of a."""
    ints, den = over_common_den(a)
    return Fraction(sum(map(abs, ints)), den)


def norm2_sq(a: Vec) -> Fraction:
    return vec_dot(a, a)


def pos_part(a: Vec) -> Vec:
    return tuple(x if x.numerator > 0 else _ZERO for x in a)


def neg_part(a: Vec) -> Vec:
    """Componentwise max(-a, 0); a = pos_part(a) - neg_part(a).  Each sign
    is read off a numerator."""
    return tuple(-x if x.numerator < 0 else _ZERO for x in a)


def is_conformal(g: Vec, z: Vec) -> bool:
    """True when g lies in the same orthant as z with supp(g) inside supp(z)."""
    return all(gi == 0 or gi * zi > 0 for gi, zi in zip(g, z, strict=True))


class RatMatrix:
    """Immutable dense matrix over Fraction.  Zero-row matrices keep `cols`.

    `data` is a tuple of row tuples, of Fractions (or ints), `cols` the
    width.  On first use the matrix keeps its integer rows, `int_rows`,
    and their hash, so it is read into integers once, and every reader
    takes those integers.  A row over its least common denominator is
    canonical, so equality and hash go by (cols, integer rows), and no
    Fraction is hashed or compared.  No field can be assigned.
    """

    __slots__ = ("data", "cols", "_ints", "_hash")

    def __init__(self, data: tuple, cols: int):
        set_field = object.__setattr__
        set_field(self, "data", data)
        set_field(self, "cols", cols)
        set_field(self, "_ints", None)
        set_field(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def int_rows(self) -> tuple:
        """(rows, scales) = `_int_rows(data)`, read on first use and kept:
        row i is the integer tuple rows[i] over its least common
        denominator scales[i]."""
        ints = self._ints
        if ints is None:
            ints = _int_rows(self.data)
            object.__setattr__(self, "_ints", ints)
            object.__setattr__(self, "_hash", hash((self.cols, ints)))
        return ints

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.cols == other.cols and self.int_rows == other.int_rows)

    def __hash__(self):
        if self._hash is None:
            self.int_rows  # the first read of the integer rows sets the hash
        return self._hash

    def __repr__(self):
        return f"RatMatrix(data={self.data!r}, cols={self.cols!r})"

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, as no field can be set
        return (RatMatrix, (self.data, self.cols))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "RatMatrix":
        data = tuple(vec(r) for r in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise DimensionMismatch("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatch("cols does not match row width")
            cols = width
        elif cols is None:
            raise DimensionMismatch("zero-row matrix needs an explicit column count")
        return cls(data=data, cols=cols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(
            data=tuple(
                tuple(one if i == j else zero for j in range(n)) for i in range(n)
            ),
            cols=n,
        )

    @classmethod
    def zeros(cls, m: int, n: int) -> "RatMatrix":
        return cls(data=tuple(vec_zero(n) for _ in range(m)), cols=n)

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def row(self, i: int) -> Vec:
        return self.data[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.data)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            data=tuple(self.col(j) for j in range(self.cols)), cols=self.rows
        )

    def matvec(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise DimensionMismatch("matvec width mismatch")
        return tuple(vec_dot(r, v) for r in self.data)

    def vecmat(self, v: Vec) -> Vec:
        if len(v) != self.rows:
            raise DimensionMismatch("vecmat height mismatch")
        if not self.data:
            return vec_zero(self.cols)
        return tuple(vec_dot(c, v) for c in zip(*self.data))

    def mul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        ot = other.transpose()
        return RatMatrix(
            data=tuple(tuple(vec_dot(r, c) for c in ot.data) for r in self.data),
            cols=other.cols,
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMatrix":
        return RatMatrix(
            data=tuple(tuple(self.data[i][j] for j in col_idx) for i in row_idx),
            cols=len(col_idx),
        )

    def take_cols(self, col_idx: Sequence[int]) -> "RatMatrix":
        return self.submatrix(range(self.rows), col_idx)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for r in self.data for x in r)


def _gauss_jordan(rows: list, cols: Iterable[int]):
    """Fraction-free Gauss-Jordan elimination (Edmonds 1967; Bareiss 1968)
    of the integer `rows` on the columns `cols` in turn.

    Each column's pivot row is the first row without a pivot that is
    nonzero there, negated when its pivot is negative and moved up to
    follow the earlier pivot rows; every other row takes one
    `bareiss_step`.  The loop stops once every row holds a pivot.  Returns
    (T, D, pivots, sign): the rows T over the last pivot D > 0 are the
    reduced rows, row t with its pivot in column pivots[t]; sign = +-1 is
    the parity of the row swaps and negations, so the rows' determinant on
    a square block of pivot columns is sign * D.
    """
    T = list(rows)
    D, sign, pivots = 1, 1, []
    for j in cols:
        t = len(pivots)
        if t == len(T):
            break
        for r in range(t, len(T)):
            if T[r][j]:
                break
        else:
            continue
        prow = T[r]
        if prow[j] < 0:
            prow, sign = [-a for a in prow], -sign
        if r != t:
            T[r], sign = T[t], -sign
        p, psum = prow[j], sum(prow)
        T = [
            prow if i == t else bareiss_step(row, prow, row[j], p, D, psum)
            for i, row in enumerate(T)
        ]
        D = p
        pivots.append(j)
    return T, D, tuple(pivots), sign


def _over(T: list, D: int, cols: int) -> RatMatrix:
    """The integer rows T over the common denominator D, as a RatMatrix."""
    zero = Fraction(0)
    return RatMatrix(
        data=tuple(tuple(Fraction(a, D) if a else zero for a in row) for row in T), cols=cols
    )


def over_common_den(v) -> tuple[list, int]:
    """(ints, den) with v = ints / den entry by entry: den > 0 is the least
    common denominator of the entries of v, ints or Fractions, each read
    once as its integer ratio; a zero entry stays the int 0."""
    pairs = [x.as_integer_ratio() for x in v]
    den = math.lcm(*[d for _, d in pairs])
    return [p * (den // d) if p else 0 for p, d in pairs], den


def _int_rows(rows: Sequence):
    """(ints, scales): each row, of ints or Fractions, as the tuple of its
    integers over its least common denominator (`over_common_den`), and the
    tuple of those denominators.  Scaling a row keeps the row space, so
    every RREF and every basis form A_B^{-1} A.  `RatMatrix.int_rows` reads
    a matrix through it once and keeps the result."""
    read = [over_common_den(r) for r in rows]
    return tuple(tuple(ints) for ints, _ in read), tuple(s for _, s in read)


def rref(M: RatMatrix):
    """Reduced row echelon form.  Returns (rank, pivot_cols, R)."""
    T, D, pivots, _ = _gauss_jordan(M.int_rows[0], range(M.cols))
    return len(pivots), pivots, _over(T, D, M.cols)


def rref_nonzero(M: RatMatrix) -> RatMatrix:
    """RREF with zero rows dropped: a canonical basis of the row space."""
    rank_, _, R = rref(M)
    return RatMatrix(data=R.data[:rank_], cols=M.cols)


def rank(M: RatMatrix) -> int:
    """The pivot count of `_gauss_jordan`, with no Fraction RREF built."""
    return len(_gauss_jordan(M.int_rows[0], range(M.cols))[2])


def rref_kernel(M: RatMatrix):
    """RREF plus a kernel basis.

    Returns (rank, pivot_cols, kernel_basis) where the rows of kernel_basis
    span {x : Mx = 0}.  The basis is the standard one: for each free column
    f the vector with 1 at f and minus the reduced column on the pivots.
    """
    rank_, pivots, R = rref(M)
    pivot_set = set(pivots)
    free = [j for j in range(M.cols) if j not in pivot_set]
    basis_rows = []
    for f in free:
        v = [Fraction(0)] * M.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -R.entry(i, f)
        basis_rows.append(v)
    return rank_, tuple(pivots), RatMatrix.from_rows(basis_rows, cols=M.cols)


def solve_linear(A: RatMatrix, b: Vec):
    """One exact solution of Ax = b, or None when inconsistent."""
    if len(b) != A.rows:
        raise DimensionMismatch("rhs height mismatch")
    # Row i of [A | b] times s_i q, from A's integer rows P_i / s_i and
    # b = B / q: the same row space, so the same reduced rows.
    rows, scales = A.int_rows
    B, q = over_common_den(vec(b))
    aug = [[*(a * q for a in r), bi * s] for r, s, bi in zip(rows, scales, B)]
    T, D, pivots, _ = _gauss_jordan(aug, range(A.cols + 1))
    if A.cols in pivots:
        return None
    x = [Fraction(0)] * A.cols
    for row, p in zip(T, pivots):
        x[p] = Fraction(row[A.cols], D)
    return tuple(x)


def invert(M: RatMatrix) -> RatMatrix:
    if M.rows != M.cols:
        raise NotSquare("inverse needs a square matrix")
    n = M.rows
    rows, scales = M.int_rows
    # Row i carries its scale s_i as its identity entry: [S M | S] reduces
    # to [I | M^{-1}].
    aug = [[*r, *[0] * i, s, *[0] * (n - 1 - i)] for i, (r, s) in enumerate(zip(rows, scales))]
    T, D, pivots, _ = _gauss_jordan(aug, range(n))
    if len(pivots) < n:
        raise SingularBasis("matrix is singular")
    return _over([row[n:] for row in T], D, n)


def greedy_basis(A: RatMatrix, order: Sequence[int]) -> tuple:
    """Each column of `order` independent of those kept before it, in scan
    order: the pivots of `_gauss_jordan` taking A's columns in `order`."""
    return _gauss_jordan(A.int_rows[0], order)[2]


def basis_form(A: RatMatrix, basis: Sequence[int]) -> RatMatrix:
    """A_B^{-1} A for the column subset `basis` (must be a nonsingular m x m block)."""
    basis = list(basis)
    if len(basis) != A.rows:
        raise SingularBasis(f"basis needs exactly {A.rows} columns, got {len(basis)}")
    T, D, pivots, _ = _gauss_jordan(A.int_rows[0], basis)
    if len(pivots) < A.rows:
        raise SingularBasis("matrix is singular")
    return _over(T, D, A.cols)


def bases(A: RatMatrix, over: Sequence[int] | None = None):
    """(B, A_B^{-1} A) for every nonsingular basis B of A drawn from the
    columns `over` (default all), in lexicographic order of B, uncapped.
    B is a basis exactly when each of its columns finds a pivot, and its
    rows over D are then A_B^{-1} A."""
    over = range(A.cols) if over is None else over
    rows = A.int_rows[0]
    for B in itertools.combinations(over, A.rows):
        T, D, pivots, _ = _gauss_jordan(rows, B)
        if len(pivots) == A.rows:
            yield B, _over(T, D, A.cols)


def bareiss_step(row: list, prow: list, f: int, p: int, D: int, psum: int) -> list:
    """(p * row - f * prow) / D, one fraction-free Edmonds-Bareiss row step.

    `prow` is the pivot row, p its pivot, f the entry of `row` in the pivot
    column and psum = sum(prow).  D is a divisor that must divide every
    entry exactly: the previous pivot in plain Bareiss elimination, or the
    row denominators of the simplex tableau (see `lp._Tableau`).  Most
    entries are zero in both rows and most rows have f = 0, so those skip
    the products.  Floor remainders all have the sign of D, so they vanish
    iff their sum does: one comparison of row sums checks that every
    division is exact, and an inexact step raises InternalError.
    """
    if f:
        out = [(p * a - f * b) // D if a or b else 0 for a, b in zip(row, prow)]
    elif p != D:
        out = [p * a // D if a else 0 for a in row]
    else:
        return row
    if D * sum(out) != p * sum(row) - f * psum:
        raise InternalError(f"inexact Bareiss step: pivot {p} over {D}")
    return out


def bareiss_det(M: RatMatrix) -> Fraction:
    """Exact determinant via Bareiss after clearing row denominators."""
    if M.rows != M.cols:
        raise NotSquare("determinant needs a square matrix")
    if M.rows == 0:
        return Fraction(1)
    rows, scales = M.int_rows
    _, D, pivots, sign = _gauss_jordan(rows, range(M.cols))
    return Fraction(sign * D, math.prod(scales)) if len(pivots) == M.rows else Fraction(0)


def int_nth_root(x: int, n: int):
    """Floor of the n-th root of a nonnegative integer, plus exactness flag.

    Integer Newton iteration from r = 2^ceil(bits(x)/n), which lies in
    (x^(1/n), 2 x^(1/n)].  Each step keeps r >= floor(x^(1/n)) and, while r
    is above the root, cuts the excess r - x^(1/n) by at least the factor
    (n-1)/n.  So the excess is below 1 within n * ln(2^ceil(bits/n)) <
    bits + n steps, one more step lands on the floor and one more sees no
    decrease: the loop allows bits + n + 2.
    """
    if x < 0 or n < 1:
        raise ValueError("int_nth_root needs x >= 0, n >= 1")
    if x in (0, 1) or n == 1:
        return x, True
    if n == 2:
        r = math.isqrt(x)
        return r, r * r == x
    r = 1 << -(-x.bit_length() // n)
    for _ in range(x.bit_length() + n + 2):
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r, r**n == x
        r = s
    raise InternalError(f"integer {n}-th root did not converge")


def fraction_nth_root(q: Fraction, n: int):
    """Exact n-th root of a positive rational when it exists, else None."""
    if q <= 0:
        raise ValueError("fraction_nth_root needs a positive rational")
    rn, okn = int_nth_root(q.numerator, n)
    rd, okd = int_nth_root(q.denominator, n)
    if okn and okd:
        return Fraction(rn, rd)
    return None
