"""Dense exact linear algebra over Q and F_p.

Plain Gauss-Jordan elimination on Python lists of exact scalars.  Over Q,
rows are renormalized to primitive integer content after every update to
keep numerators and denominators small.  This is the reference kernel used
by the small- and medium-sized solves and by the test oracles; the heavy
degreewise solves go through the modular accelerator in `modular`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .fields import QQ, FieldMismatch, check_same_field


class Matrix:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows):
        self.field = field
        rows = [list(r) for r in rows]
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")
        self.rows = [[field.of(x) for x in r] for r in rows]

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[field.one if i == j else field.zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, m, n):
        return cls(field, [[field.zero] * n for _ in range(m)])

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def mul_vec(self, v):
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        f = self.field
        out = []
        for row in self.rows:
            s = f.zero
            for a, b in zip(row, v):
                if a and b:
                    s = f.add(s, f.mul(a, b))
            out.append(s)
        return out

    def matmul(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        f = self.field
        ot = other.transpose()
        return Matrix(f, [[_dot(f, r, c) for c in ot.rows] for r in self.rows])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __repr__(self):
        body = "\n".join(" ".join(self.field.format(x) for x in r) for r in self.rows)
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})\n{body}"


def _dot(f, u, v):
    s = f.zero
    for a, b in zip(u, v):
        if a and b:
            s = f.add(s, f.mul(a, b))
    return s


def _normalize_row_q(row):
    """Scale a rational row to primitive integer form, leading entry > 0."""
    num_gcd = 0
    den_lcm = 1
    for x in row:
        if x:
            num_gcd = gcd(num_gcd, x.numerator)
            den_lcm = den_lcm // gcd(den_lcm, x.denominator) * x.denominator
    if num_gcd == 0:
        return row
    scale = Fraction(den_lcm, num_gcd)
    row = [x * scale for x in row]
    for x in row:
        if x:
            if x < 0:
                row = [-y for y in row]
            break
    return row


def rref(M: Matrix):
    """Reduced row echelon form.

    Returns (R, pivots, rank) where R has leading ones in the pivot
    columns and zeros elsewhere in those columns.
    """
    f = M.field
    rows = [list(r) for r in M.rows]
    m, n = M.nrows, M.ncols
    rational = f == QQ
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [f.sub(a, f.mul(factor, b)) for a, b in zip(rows[i], rows[r])]
                if rational:
                    rows[i] = _normalize_row_q(rows[i])
        pivots.append(c)
        r += 1
        if r == m:
            break
    if rational:
        # final pass back to leading ones
        for i, c in enumerate(pivots):
            lead = rows[i][c]
            if lead != 1:
                rows[i] = [x / lead for x in rows[i]]
    return Matrix(f, rows), pivots, len(pivots)


def rank(M: Matrix) -> int:
    return rref(M)[2]


def det(field, entries):
    """Cofactor determinant of a small square list-of-rows matrix; 1 when empty."""
    k = len(entries)
    if k == 0:
        return field.one
    if k == 1:
        return entries[0][0]
    acc = field.zero
    for j in range(k):
        if not entries[0][j]:
            continue
        minor = [[entries[i][c] for c in range(k) if c != j] for i in range(1, k)]
        term = field.mul(entries[0][j], det(field, minor))
        acc = field.add(acc, term) if j % 2 == 0 else field.sub(acc, term)
    return acc


def kernel_basis(M: Matrix):
    """Basis of the right kernel {v : M v = 0}, one vector per free column.

    Vectors come out in free-column order; vector for free column j has a
    one in position j, so they are visibly independent.
    """
    f = M.field
    R, pivots, _ = rref(M)
    n = M.ncols
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    basis = []
    for j in free:
        v = [f.zero] * n
        v[j] = f.one
        for i, c in enumerate(pivots):
            v[c] = f.neg(R.rows[i][j])
        basis.append(v)
    return basis


def in_span(v, basis, field=None) -> bool:
    """True iff v is a linear combination of the given vectors."""
    if not basis:
        return all(not x for x in v)
    if field is None:
        field = QQ
    n = len(v)
    for b in basis:
        if len(b) != n:
            raise ValueError("length mismatch")
    M = Matrix(field, list(basis))
    R, pivots, rk = rref(M)
    w = [field.of(x) for x in v]
    for i, c in enumerate(pivots):
        if w[c]:
            factor = w[c]
            w = [field.sub(a, field.mul(factor, b)) for a, b in zip(w, R.rows[i])]
    return all(not x for x in w)


def solve(M: Matrix, b):
    """One solution of M x = b, or None if inconsistent."""
    f = M.field
    aug = Matrix(f, [row + [f.of(bb)] for row, bb in zip(M.rows, b)])
    R, pivots, rk = rref(aug)
    n = M.ncols
    if n in pivots:
        return None
    x = [f.zero] * n
    for i, c in enumerate(pivots):
        x[c] = R.rows[i][n]
    return x
