"""Modular fast path for exact rational linear algebra.

Heavy kernels over Q are computed by reducing an integer matrix modulo a
deterministic ladder of primes below 2**28, combining the reduced rows by
CRT and lifting entries with rational reconstruction.  The lift is a
*candidate*: `kernel_qq_candidates` hands it to the caller's exact
certificate (membership checks plus the mod-p rank lower bound) and, when
that rejects it, goes on with more primes in the same search, so every
published result remains exact.  It is the one certified kernel search
over Q.  It lifts the free columns of the reduced form, the whole kernel
of the matrix it is given: a caller that needs part of a kernel builds
the matrix on the columns that part lives on, so the number of primes a
lift takes is set by the height of what it needs.  A ladder prime that
does not reduce the inputs is passed over.

Elimination (`rref_mod`) is a column-recursive Gauss-Jordan.  The pivots
found in a column range act on every later column as one transform
y -> y + X y[S] (mod p), X an m x k matrix and S the k pivot rows, so
solving the left half of the columns and applying its X to the right half
is one matrix product; two transforms compose as
[X_L + X_R X_L[S_R], X_R].  Ranges of at most `_BASE_COLS` columns are
eliminated pivot by pivot, updating only the rows that are nonzero in
the pivot column.  Products run in float64 BLAS and are exact: the right
operand is split into 14-bit halves and the inner dimension is cut into
chunks of `_INNER_CHUNK` = 1024, so a product entry sums at most 2048
terms below 2**28 * 2**14 and, with the entry it updates, stays below
2**53.  Pivot rows are chosen by index, never swapped; the reduced row
echelon form is unique, so R and the pivots are those of plain
elimination, whatever the order of the work.

Callers that read only the pivots (pivot profiles of augmented
matrices) ask for `rref_mod(A, p, reduced=False)`.  The same
recursion then updates only the rows that are still free: pivot rows are
neither back-substituted in the base case nor touched by a transform, and
their rows of X are never read.  A free row after a set of pivots is the
unique vector of its coset that vanishes on the pivot columns, with or
without back-substitution, so every free row, and with it every pivot
choice, is bit-identical to the reduced path.

The pivots of a sparse matrix given by its entries (`sparse_pivots_mod`,
the row pivots of an eval matrix) are the leading columns of its row
space, read as in the symbolic preprocessing of Faugère's F4 (J. Pure
Appl. Algebra 1999).  Of the rows with one leading column the first
is a pivot row as it stands.  The others are reduced against the pivot
rows, sparse row by dense block in increasing column order, until they
vanish on every leading column; what is left spans a space that meets
the pivot rows' span only in 0, and its pivots, found by the pivots-only
elimination, are the remaining ones.  The column rank profile is
canonical, so these are the pivots of `rref_mod(A, p, reduced=False)`,
and the only dense array has one row per row not taken as it stands.

A rank does not change under a permutation of the rows or columns, nor
under transposition, so `rank_mod` works on the short side: it
transposes a matrix with more rows than columns and orders rows and
columns by their nonzero count, sparsest first, in the one copy it
reduces in place.  The pivots-only elimination then ends once every row
is a pivot row, after at most min(m, n) pivots, and the sparse lines it
starts from cause little fill.
A matrix whose short side is at most `_BASE_COLS` is ranked as given:
it is eliminated pivot by pivot in few steps whatever the order, and
reordering it costs more than it saves.

Every modulus must be below 2**28 (`ModulusTooLarge` otherwise): that
keeps the split products exact, and the int64 products of the base case
and of constraint assembly below 2**56.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .arrangement import ArrangementError
from .fields import _is_prime

#: every modulus of the modular layer is below this
MODULUS_LIMIT = 1 << 28


def _prime_ladder(start: int, count: int):
    out = []
    n = start
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n -= 2
    return out


#: deterministic primes used for reduction/reconstruction, largest first
PRIMES = tuple(_prime_ladder(MODULUS_LIMIT - 1, 64))

#: column ranges this narrow are eliminated pivot by pivot
_BASE_COLS = 64
#: inner-dimension chunk of the exact float64 products
_INNER_CHUNK = 1024
#: rows and columns of one block of a rank-k update; they bound the
#: temporaries and the BLAS packing workspace (256 rows instead of 128 raised
#: the peak RSS of perfbench's qq-paper workload by 3.6 MB)
_UPDATE_ROWS = 128
_UPDATE_COLS = 256


class ReconstructionFailed(ArrangementError):
    """No kernel candidate was certified within the prime ladder."""


class ModulusTooLarge(ArrangementError):
    """A prime too large for the word-sized modular kernels."""


def rref_mod(A: np.ndarray, p: int, reduced: bool = True):
    """Reduced row echelon form of an integer matrix mod p.

    Returns (R, pivots) with R containing only the nonzero rows.  With
    `reduced=False` only the pivots are computed and (None, pivots) is
    returned; they equal the pivots of the reduced path.
    """
    _check_modulus(p)
    W = np.asarray(A, dtype=np.int64) % p
    rows, pivots = _eliminate(W, p, reduced)
    return (W[rows] if reduced else None), pivots


def _check_modulus(p: int):
    if p >= MODULUS_LIMIT:
        raise ModulusTooLarge(f"modulus {p} too large: modular elimination needs p < 2**28")


def _eliminate(W, p, reduced):
    """Eliminate W, int64 entries in [0, p), in place; return (pivot rows, pivots)."""
    free = np.ones(W.shape[0], dtype=bool)
    n = W.shape[1]
    # up to two base widths one split saves less than its products cost,
    # and small matrices then never touch the BLAS workspace
    solve = _solve_base if n <= 2 * _BASE_COLS else _solve
    rows, pivots, _ = solve(W, 0, n, p, free, False, reduced)
    return rows, pivots


def _solve(W, c0, c1, p, free, need_x, reduced):
    """Eliminate columns c0:c1 of W in place; return (rows, pivots, X).

    Columns c1: are left alone: the caller applies the returned transform
    X (only computed when `need_x`) to them.  `free` marks the rows that
    are not yet pivot rows and is updated.  Unless `reduced`, only the
    free rows of W and X are kept up to date.
    """
    if c1 - c0 <= _BASE_COLS:
        return _solve_base(W, c0, c1, p, free, need_x, reduced)
    mid = (c0 + c1) // 2
    rows_l, piv_l, X_l = _solve(W, c0, mid, p, free, True, reduced)
    if rows_l:
        _apply(W[:, mid:c1], X_l, rows_l, p, None if reduced else free)
    if not need_x:
        X_l = None  # free it before the right half is solved
    if not free.any():
        return rows_l, piv_l, X_l
    rows_r, piv_r, X_r = _solve(W, mid, c1, p, free, need_x, reduced)
    X = None
    if need_x:
        if rows_r and rows_l:
            _apply(X_l, X_r, rows_r, p, None if reduced else free)
        X = np.hstack([X_l, X_r])
    return rows_l + rows_r, piv_l + piv_r, X


def _solve_base(W, c0, c1, p, free, need_x, reduced):
    """Unblocked Gauss-Jordan on columns c0:c1, touching only nonzero rows.

    With `need_x` the row operations also act on the unit vectors of the
    pivot rows, kept in the columns after the block: they end as
    X + I[:, rows].  Unless `reduced`, rows that are already pivot rows
    are left alone.
    """
    m = W.shape[0]
    nb = c1 - c0
    Z = np.hstack([W[:, c0:c1], np.zeros((m, nb), dtype=np.int64)]) if need_x else W[:, c0:c1]
    nfree = int(np.count_nonzero(free))
    rows, pivots = [], []
    for j in range(nb):
        if nfree == 0:
            break
        nz = Z[:, j].nonzero()[0]
        live = nz[free[nz]]
        if not live.size:
            continue
        s = int(live[0])
        if not reduced:
            nz = live  # pivot rows keep their entries
        end = nb + len(rows) + 1 if need_x else nb
        if need_x:
            Z[s, end - 1] = 1
        # row s becomes the pivot row (1 at column j); subtracting its
        # multiples clears column j in every other nonzero row and in row s
        # itself, which is then overwritten
        pivot_row = Z[s, j:end] * pow(int(Z[s, j]), -1, p) % p
        sub = Z[nz, j:end]
        sub -= sub[:, :1] * pivot_row
        sub %= p
        Z[nz, j:end] = sub
        Z[s, j:end] = pivot_row
        free[s] = False
        nfree -= 1
        rows.append(s)
        pivots.append(c0 + j)
    if not need_x:
        return rows, pivots, None
    W[:, c0:c1] = Z[:, :nb]
    k = len(rows)
    X = Z[:, nb : nb + k]
    diag = (rows, np.arange(k))
    X[diag] = (X[diag] - 1) % p
    return rows, pivots, X


def _apply(C, X, S, p, free=None):
    """C <- (C + X @ C[S]) mod p in place: the transform (X, S) on C's columns.

    Only the rows where X is nonzero (and, given `free`, that are free)
    and the columns where C[S] is nonzero change.
    """
    live = X.any(axis=1)
    if free is not None:
        live &= free
    rows = np.flatnonzero(live)
    if not rows.size:
        return
    Y = C[S]
    cols = np.flatnonzero(Y.any(axis=0))
    if not cols.size:
        return
    Y = Y[:, cols]
    for i in range(0, rows.size, _UPDATE_ROWS):
        block = np.ix_(rows[i : i + _UPDATE_ROWS], cols)
        B = C[block]
        _addmul(B, X[rows[i : i + _UPDATE_ROWS]], Y, p)
        C[block] = B


def _addmul(C, X, Y, p):
    """C <- (C + X @ Y) mod p in place, exactly; int64 entries in [0, p).

    Runs as float64 products.  With Y = 2**14 Y_hi + Y_lo, each inner chunk
    of at most `_INNER_CHUNK` columns of X multiplies [2**14 X mod p | X]
    by [Y_hi; Y_lo]: at most 2048 terms below 2**28 * 2**14, so the sum
    plus C stays below 2**53 and every partial sum is an exact integer.
    Empty operands leave C as it is.
    """
    m, k = X.shape
    if not (C.size and k):
        return
    w = min(C.shape[1], _UPDATE_COLS)
    t = np.empty((m, w))
    r = np.empty((m, w), dtype=np.int64)
    XX = np.empty((m, 2 * min(k, _INNER_CHUNK)))
    Ys = np.empty((2 * min(k, _INNER_CHUNK), w))
    for i in range(0, k, _INNER_CHUNK):
        Xi = X[:, i : i + _INNER_CHUNK]
        kk = Xi.shape[1]
        XX[:, :kk] = (Xi << 14) % p
        XX[:, kk : 2 * kk] = Xi
        for j in range(0, C.shape[1], w):
            Cj = C[:, j : j + w]
            Yj = Y[i : i + kk, j : j + w]
            wj = Cj.shape[1]
            np.right_shift(Yj, 14, out=Ys[:kk, :wj])
            np.bitwise_and(Yj, 16383, out=Ys[kk : 2 * kk, :wj])
            tj, rj = t[:, :wj], r[:, :wj]
            np.matmul(XX[:, : 2 * kk], Ys[: 2 * kk, :wj], out=tj)
            tj += Cj
            rj[...] = tj
            np.remainder(rj, p, out=Cj)


def rank_mod(A: np.ndarray, p: int) -> int:
    """Rank of an integer matrix mod p; a large one is eliminated on its short side."""
    A = np.asarray(A)
    if min(A.shape) <= _BASE_COLS:
        return len(rref_mod(A, p, reduced=False)[1])
    _check_modulus(p)
    if A.shape[0] > A.shape[1]:
        A = A.T
    rows = np.argsort(np.count_nonzero(A, axis=1), kind="stable")
    cols = np.argsort(np.count_nonzero(A, axis=0), kind="stable")
    # the reordered copy is the working array: rebinding A frees an
    # argument that only this call holds before the elimination
    A = A[np.ix_(rows, cols)].astype(np.int64, copy=False)
    np.remainder(A, p, out=A)
    return len(_eliminate(A, p, False)[1])


def sparse_pivots_mod(rows, cols, vals, ncols: int, p: int) -> list:
    """The pivots of `rref_mod(A, p, reduced=False)` for A given by its entries.

    A has `ncols` columns and A[rows[i], cols[i]] = vals[i] at distinct
    positions (any integers), zero elsewhere.  The pivots are the leading
    (first nonzero) columns of the vectors of A's row space.  Of the rows
    with one leading column the first is a pivot row as it stands; the
    others are reduced against the pivot rows in a dense block, and the
    pivots-only elimination of what is left gives the remaining pivots.
    Only that block is dense.
    """
    _check_modulus(p)
    rows, cols = np.asarray(rows), np.asarray(cols)
    vals = np.asarray(vals, dtype=np.int64) % p
    live = vals.nonzero()[0]
    live = live[np.lexsort((cols[live], rows[live]))]  # by row, then by column
    rows, cols, vals = rows[live], cols[live], vals[live]
    bounds = np.append(np.flatnonzero(np.diff(rows, prepend=-1)), rows.size)
    starts, ends = bounds[:-1], bounds[1:]  # the entries of each nonzero row
    lead = cols[starts]
    leads, first = np.unique(lead, return_index=True)
    rest = np.ones(starts.size, dtype=bool)
    rest[first] = False
    if not rest.any():
        return leads.tolist()
    # the rows that share a leading column, dense, cleared on every
    # leading column in increasing order; a pivot row starts at its
    # leading column, so it adds entries only to the right of it
    piv = np.full(ncols, -1)
    piv[leads] = first
    rest = np.flatnonzero(rest)
    X = np.zeros((rest.size, ncols), dtype=np.int64)
    nnz = ends[rest] - starts[rest]
    at = np.repeat(starts[rest] - np.cumsum(nnz) + nnz, nnz) + np.arange(nnz.sum())  # their entries
    X[np.repeat(np.arange(rest.size), nnz), cols[at]] = vals[at]
    queued = (piv >= 0) & X.any(axis=0)
    heap = np.flatnonzero(queued).tolist()
    while heap:
        c = heapq.heappop(heap)
        r = X[:, c].nonzero()[0]
        if not r.size:
            continue
        k = piv[c]
        pc, pv = cols[starts[k] : ends[k]], vals[starts[k] : ends[k]]
        f = X[r, c] * pow(int(pv[0]), -1, p) % p
        block = np.ix_(r, pc)
        X[block] = (X[block] - f[:, None] * pv) % p
        new = pc[(piv[pc] >= 0) & ~queued[pc]]
        queued[new] = True
        for j in new.tolist():
            heapq.heappush(heap, j)
    off = np.ones(ncols, dtype=bool)
    off[leads] = False
    off = np.flatnonzero(off)
    X = X[:, off]  # what is left lives off the leading columns
    found = off[_eliminate(X, p, False)[1]]
    return sorted(leads.tolist() + found.tolist())


def kernel_mod(A: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel mod p, one row per free column."""
    R, pivots = rref_mod(A, p)
    return _kernel_rows(R, pivots, _free_columns(pivots, A.shape[1]), p)


def _free_columns(pivots, ncols: int) -> np.ndarray:
    is_free = np.ones(ncols, dtype=bool)
    is_free[list(pivots)] = False
    return np.flatnonzero(is_free)


def _kernel_rows(R, pivots, free, p: int) -> np.ndarray:
    """The kernel basis read off a reduced form R: row i is 1 at free[i] and -R[:, free[i]] on the pivots."""
    K = np.zeros((free.size, R.shape[1]), dtype=np.int64)
    K[np.arange(free.size), free] = 1
    K[:, pivots] = -R[:, free].T % p
    return K


def rational_reconstruct(r: int, m: int):
    """Lift r mod m to a fraction n/d with |n|, d <= sqrt(m/2), or None."""
    r %= m
    bound = isqrt(m // 2)
    s, t = m, r
    x0, x1 = 0, 1
    while t > bound:
        q = s // t
        s, t = t, s - q * t
        x0, x1 = x1, x0 - q * x1
    if x1 == 0:
        return None
    n, d = t, x1
    if d < 0:
        n, d = -n, -d
    if d > bound or gcd(abs(n), d) != 1 or gcd(d, m) != 1:
        return None
    return Fraction(n, d)


class _CRTLift:
    """Residue matrices of one shape under growing primes, lifted to Q on demand.

    Only the union of the nonzero positions seen so far is kept: a position
    that is zero mod every prime added has combined residue 0, and one that
    turns nonzero under a later prime joins with combined residue 0 for the
    earlier ones, which is what a full fold would hold there.  Each matrix
    is folded into the combined residues once, at the first `lift` after it
    was added.  A lift reconstructs each distinct residue once and stops at
    the first that does not reconstruct; the next lift tries that position
    first, so while primes are still missing a lift usually costs one
    reconstruction.
    """

    def __init__(self):
        self.primes = []
        self._shape = None
        self._pending = []  # (p, residue matrix) not yet folded in
        self._pos = np.zeros(0, dtype=np.int64)  # sorted union of the nonzero positions
        self._combined = np.zeros(0, dtype=object)  # residues at _pos mod self._modulus
        self._modulus = 1
        self._retry = None  # flat position whose residue failed last

    def add(self, p: int, R: np.ndarray):
        self.primes.append(p)
        self._pending.append((p, R))

    def _fold(self, p, R):
        self._shape = R.shape
        flat = R.ravel()
        nz = np.flatnonzero(flat)
        pos = np.union1d(self._pos, nz)
        combined = np.zeros(pos.size, dtype=object)
        combined[np.searchsorted(pos, self._pos)] = self._combined
        r = np.zeros(pos.size, dtype=object)
        r[np.searchsorted(pos, nz)] = flat[nz].astype(object)
        m = self._modulus
        x = pow(m, -1, p)
        self._combined = (combined + (r - combined) * x % p * m) % (m * p)
        self._pos = pos
        self._modulus = m * p

    def lift(self):
        """Fraction rows reconstructed from all primes added, or None."""
        for p, R in self._pending:
            self._fold(p, R)
        self._pending = []
        m = self._modulus
        residues = self._combined.tolist()
        if self._retry is not None:
            i = int(np.searchsorted(self._pos, self._retry))
            if rational_reconstruct(residues[i], m) is None:
                return None
        lifted = {}
        for i, a in enumerate(residues):
            if a not in lifted:
                f = rational_reconstruct(a, m)
                if f is None:
                    self._retry = int(self._pos[i])
                    return None
                lifted[a] = f
        rows, cols = self._shape
        zero = Fraction(0)
        flat = [zero] * (rows * cols)
        for i, a in zip(self._pos.tolist(), residues):
            flat[i] = lifted[a]
        return [flat[i * cols : (i + 1) * cols] for i in range(rows)]


def reconstruct_matrix(rows_mod: list[np.ndarray], primes: list[int]):
    """CRT-combine per-prime integer matrices and lift entrywise to Q.

    All matrices must have the same shape.  Returns a list of Fraction
    rows, or None if any entry fails to reconstruct.
    """
    acc = _CRTLift()
    for R, p in zip(rows_mod, primes):
        acc.add(p, R)
    return acc.lift()


def kernel_qq_candidates(build, ncols: int, accept):
    """Certified kernel of an integer matrix given mod p.

    `build(p)` must return the constraint matrix reduced mod p (int64
    2-D array with `ncols` columns; it may differ per prime only by the
    reduction), and raises ZeroDivisionError at a prime that does not
    reduce the inputs: that prime joins no group.  Computes rrefs over the
    ladder primes in order and keeps the group agreeing on the (max-rank,
    lex-min) pivot profile.  The free columns of the best group's reduced
    matrices are reconstructed entrywise, from the group's first prime on.
    Each candidate, the kernel basis as a list of Fraction lists in
    unit-free-column form, goes to `accept(vectors)`, which returns its
    result, or None to reject it.  After a failed or rejected lift the
    search goes on with the next prime, keeping every group, and lifts
    again only once the best group holds one more prime.

    Returns (accept's result, rank, pivots, primes_used), or raises
    `ReconstructionFailed` when the ladder is used up.  The candidate is
    the whole kernel as soon as `accept` verifies membership of each
    vector: the mod-p rank is a lower bound for the rank over Q, so
    `ncols - rank` independent verified kernel vectors span it.  A caller
    that needs only part of a kernel builds the matrix on the columns
    that part lives on.
    """
    groups = {}  # pivots tuple -> _CRTLift of the free-column blocks
    need = 1  # primes the best group must hold before its next lift
    for p in PRIMES:
        try:
            A = build(p)
        except ZeroDivisionError:
            continue
        if A.any():
            R, pivots = rref_mod(A, p)
        else:
            R, pivots = A[:0], []  # zero mod p: no pivots, nothing to eliminate
        groups.setdefault(tuple(pivots), _CRTLift()).add(p, R[:, _free_columns(pivots, ncols)])
        best = max(groups, key=lambda k: (len(k), [-c for c in k]))
        group = groups[best]
        n = len(group.primes)
        if n < need:
            continue
        lifted = group.lift()
        if lifted is not None:
            result = accept(_kernel_from_lifted(lifted, best, ncols))
            if result is not None:
                return result, len(best), best, tuple(group.primes)
        need = n + 1
    raise ReconstructionFailed(
        f"no certified kernel after {len(PRIMES)} primes (pivot groups: {sorted(len(g.primes) for g in groups.values())})"
    )


def _kernel_from_lifted(block, pivots, ncols):
    """The kernel basis, one vector per free column, from the lifted free-column block of the reduced form."""
    basis = []
    for fj, j in enumerate(_free_columns(pivots, ncols).tolist()):
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -block[i][fj]
        basis.append(v)
    return basis
