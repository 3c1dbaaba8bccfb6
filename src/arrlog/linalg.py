"""Dense exact linear algebra over Q and F_p.

One incremental echelon form, `Echelon`, is the only row reduction over
a field: it keeps its rows reduced (a leading one at each pivot, zeros
above and below it) as rows are added one at a time, so over Q its
entries are the reduced echelon form's own and need no renormalization.
`rref`, `rank`, `kernel_basis` and `inverse` are built on it, and so are
the lattice's flat keys, `essentialize` and the free bases of `solver`.
This is the reference kernel for small exact solves and for the test
oracles; the heavy degreewise solves go through the modular accelerator
in `modular`.
"""

from __future__ import annotations

from bisect import bisect_left


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

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __repr__(self):
        body = "\n".join(" ".join(self.field.format(x) for x in r) for r in self.rows)
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})\n{body}"


def _sub_multiple(f, v, c, row):
    """v - c * row, skipping the zero entries of row."""
    return [f.sub(a, f.mul(c, b)) if b else a for a, b in zip(v, row)]


class Echelon:
    """Reduced row echelon form of the span of the rows added so far.

    `rows` have distinct pivots, sorted; each row has a one at its pivot,
    and every other row is zero in that column.  The reduced form of a
    row space is unique, so `key()` identifies the span.
    """

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        """vec minus its combination of the rows: zero iff vec is in the span."""
        f = self.field
        v = list(vec)
        for p, row in zip(self.pivots, self.rows):
            if v[p]:
                v = _sub_multiple(f, v, v[p], row)
        return v

    def add(self, vec) -> bool:
        """Add vec to the span; False when it was already in it."""
        f = self.field
        v = self.reduce(vec)
        p = next((j for j, x in enumerate(v) if x), None)
        if p is None:
            return False
        inv = f.inv(v[p])
        v = [f.mul(inv, x) for x in v]
        for i, row in enumerate(self.rows):
            if row[p]:
                self.rows[i] = _sub_multiple(f, row, row[p], v)
        idx = bisect_left(self.pivots, p)
        self.pivots.insert(idx, p)
        self.rows.insert(idx, v)
        return True

    def key(self):
        return tuple(tuple(r) for r in self.rows)

    @classmethod
    def from_key(cls, field, ncols, key):
        """The echelon whose `key()` is `key`: its rows are already reduced."""
        e = cls(field, ncols)
        e.rows = [list(r) for r in key]
        e.pivots = [next(j for j, x in enumerate(r) if x) for r in key]
        return e

    def kernel(self):
        """Basis of {v : row . v = 0 for every row}, one vector per free column.

        Vectors come out in free-column order; the vector of free column j
        has a one in position j and zeros in the other free columns.
        """
        f = self.field
        pivots = set(self.pivots)
        out = []
        for j in range(self.ncols):
            if j in pivots:
                continue
            v = [f.zero] * self.ncols
            v[j] = f.one
            for p, row in zip(self.pivots, self.rows):
                v[p] = f.neg(row[j])
            out.append(v)
        return out


def _row_echelon(M: Matrix) -> Echelon:
    e = Echelon(M.field, M.ncols)
    for row in M.rows:
        if len(e.rows) == M.ncols:
            break
        e.add(row)
    return e


def rref(M: Matrix):
    """Reduced row echelon form.

    Returns (R, pivots, rank) where R has leading ones in the pivot
    columns, zeros elsewhere in those columns, and its zero rows last.
    """
    e = _row_echelon(M)
    r = len(e.rows)
    zero = [M.field.zero] * M.ncols
    return Matrix(M.field, e.rows + [zero] * (M.nrows - r)), e.pivots, r


def rank(M: Matrix) -> int:
    return rref(M)[2]


def kernel_basis(M: Matrix):
    """Basis of the right kernel {v : M v = 0}, as `Echelon.kernel` orders it."""
    return _row_echelon(M).kernel()


def inverse(M: Matrix) -> Matrix:
    """The inverse of a square matrix; ValueError when M is singular."""
    f = M.field
    n = M.nrows
    if M.ncols != n:
        raise ValueError("inverse needs a square matrix")
    e = Echelon(f, 2 * n)
    for i, row in enumerate(M.rows):
        e.add(row + [f.one if j == i else f.zero for j in range(n)])
    if e.pivots != list(range(n)):
        raise ValueError("singular matrix")
    return Matrix(f, [r[n:] for r in e.rows])


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
