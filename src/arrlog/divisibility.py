"""Dense divisibility tables mod p, filled from a layout cached per shape.

Let k be the pivot of alpha (its first nonzero coefficient) and
L = alpha - a_k x_k.  In the coordinates y = alpha and x_i (i != k) the
pivot variable is x_k = (y - L)/a_k, so a monomial x_k^e * r, r free of
x_k, expands as

    sum_t C(e, t) y^t (-L)^(e - t) r / a_k^e.

alpha^m divides f iff the coefficients of y^0, ..., y^(m-1) vanish; the
coefficient of y^t is a form of degree N - t free of x_k, so there is one
row per pair (t, monomial of degree N - t free of x_k), t major, the
monomials in descending lex order.  The entry of column x_k^e * r at row
(t, r * x^beta), |beta| = e - t and beta_k = 0, is

    C(e, t) * multinomial(beta) * a_k^(-e) * prod_{i != k} (-a_i)^beta_i.

Where the entries sit, and their integer factors, depend only on
(ell, k, m, N): `divisibility_pattern` computes that once per process
with monomial-rank arithmetic, and a table for one form is a few gathers
over the powers of its coefficients.

The table is the quotient map S -> S/(alpha^m) in the basis y^t * r of
its rows, and that map is a ring map.  So the table of c * g is the
image of c (the table of c at its own degree) times the table of g, and
multiplying by the image of c is a map between two degrees of the
quotient that depends on the image's entries alone: at row
(u + s, q * x^mu) and column (u, q) it holds the coefficient of
y^s x^mu in the image.  `product_pattern` places those entries once per
(ell, m, degree, degree of c), so a constraint block c * g is a small
table at the degree of g and one matrix product.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .poly import LinearForm, monomial_basis


@lru_cache(maxsize=None)
def monomial_exponents(ell: int, d: int) -> np.ndarray:
    """monomial_basis(ell, d) as a read-only int64 array of shape (dim, ell).

    ell = 0 is allowed: one empty monomial in degree 0, none otherwise.
    """
    if ell == 0:
        out = np.zeros((1 if d == 0 else 0, 0), dtype=np.int64)
    else:
        out = np.array(monomial_basis(ell, d), dtype=np.int64).reshape(-1, ell)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _binomials(top: int, n: int) -> np.ndarray:
    """C(i, j) for 0 <= i <= top, 0 <= j < n (zero where j > i)."""
    return np.array([[comb(i, j) for j in range(n)] for i in range(top + 1)], dtype=np.int64)


def monomial_rank(exps: np.ndarray) -> np.ndarray:
    """Positions of exponent vectors (last axis) in monomial_basis of their degree.

    In descending lex order the monomials placed before a is, summed over
    the positions i < ell - 1, the count of those that agree with a before
    i and are larger at i: C(s_i + ell - i - 2, ell - i - 1) with
    s_i = sum_{j > i} a_j (the monomials of degree < s_i in the ell - i - 1
    later variables).
    """
    exps = np.asarray(exps, dtype=np.int64)
    n = exps.shape[-1]
    if n <= 1:
        return np.zeros(exps.shape[:-1], dtype=np.int64)
    suffix = np.cumsum(exps[..., :0:-1], axis=-1)[..., ::-1]  # s_0, ..., s_{n-2}
    later = np.arange(n - 1, 0, -1)  # ell - i - 1
    table = _binomials(int(suffix.max(initial=0)) + n, n)
    return table[suffix + later - 1, later].sum(axis=-1)


def _multinomial(beta) -> int:
    out = 1
    total = 0
    for b in beta:
        total += b
        out *= comb(total, b)
    return out


class _DivisibilityPattern:
    """Positions and integer factors of the divisibility table at (ell, k, m, N).

    Entry `i` sits at the flat position `cells[i]` of the nrows x ncols
    table and holds value number `value_of[i]`; value v is
    coeff[v] * a_k^(-pivot_exp[v]) * prod_j (-a_{i_j})^beta[v, j], the i_j
    running over the non-pivot variables in order.
    """

    __slots__ = ("nrows", "ncols", "cells", "value_of", "pivot_exp", "beta", "coeff")

    def __init__(self, ell: int, k: int, m: int, N: int):
        columns = monomial_exponents(ell, N)
        self.ncols = len(columns)
        e_col = columns[:, k]
        rest = np.delete(columns, k, axis=1)
        offsets = [0]
        for t in range(m):
            offsets.append(offsets[-1] + len(monomial_exponents(ell - 1, N - t)))
        self.nrows = offsets[m]
        cells, value_of, pivot_exp, betas, coeff = [], [], [], [], []
        nvals = 0
        for e in range(N + 1):
            js = np.flatnonzero(e_col == e)
            for t in range(min(m, e + 1)):
                B = monomial_exponents(ell - 1, e - t)
                rows = offsets[t] + monomial_rank(rest[js][:, None, :] + B[None, :, :])
                cells.append((rows * self.ncols + js[:, None]).ravel())
                value_of.append(np.tile(np.arange(nvals, nvals + len(B)), len(js)))
                pivot_exp.append(np.full(len(B), e))
                betas.append(B)
                ct = comb(e, t)
                coeff.extend(ct * _multinomial(beta) for beta in B.tolist())
                nvals += len(B)
        exp_dtype = np.min_scalar_type(N)
        self.cells = np.concatenate(cells).astype(np.min_scalar_type(max(self.nrows * self.ncols - 1, 0)))
        self.value_of = np.concatenate(value_of).astype(np.min_scalar_type(max(nvals - 1, 0)))
        self.pivot_exp = np.concatenate(pivot_exp).astype(exp_dtype)
        self.beta = np.concatenate(betas).astype(exp_dtype)
        self.coeff = np.array(coeff, dtype=np.int64 if max(coeff) < 2**63 else object)


@lru_cache(maxsize=None)
def divisibility_pattern(ell: int, k: int, m: int, N: int) -> _DivisibilityPattern:
    return _DivisibilityPattern(ell, k, m, N)


def quotient_dim(ell: int, m: int, N: int) -> int:
    """Rows of the degree-N table: the dimension of S/(alpha^m) in degree N."""
    return _quotient_offsets(ell, m, N)[m]


def _quotient_offsets(ell: int, m: int, N: int) -> list:
    """Where block t of the rows of the degree-N table starts, for t = 0..m."""
    offsets = [0]
    for t in range(m):
        offsets.append(offsets[-1] + len(monomial_exponents(ell - 1, N - t)))
    return offsets


@lru_cache(maxsize=None)
def product_pattern(ell: int, m: int, a: int, D: int):
    """Layout of multiplication by a degree-D image from degree a to a + D of S/(alpha^m).

    Returns (nrows, ncols, cells, value_of): for an image c (a vector in
    the row basis of the degree-D table), the nrows x ncols matrix of
    multiplication by c holds c[value_of[i]] at the flat position
    cells[i], and zeros elsewhere.  Rows and columns are those of the
    tables at degrees a + D and a.
    """
    rows = _quotient_offsets(ell, m, a + D)
    cols = _quotient_offsets(ell, m, a)
    vals = _quotient_offsets(ell, m, D)
    cells, value_of = [], []
    for u in range(m):
        Q = monomial_exponents(ell - 1, a - u)
        for s in range(m - u):
            mus = monomial_exponents(ell - 1, D - s)
            at = rows[u + s] + monomial_rank(Q[:, None, :] + mus[None, :, :])
            cells.append((at * cols[m] + cols[u] + np.arange(len(Q))[:, None]).ravel())
            value_of.append(np.broadcast_to(vals[s] + np.arange(len(mus)), at.shape).ravel())
    return rows[m], cols[m], np.concatenate(cells), np.concatenate(value_of)


def _powers_mod(x: int, top: int, p: int) -> np.ndarray:
    out = [1]
    for _ in range(top):
        out.append(out[-1] * x % p)
    return np.array(out, dtype=np.int64)


def divisibility_table_mod(alpha: LinearForm, m: int, degree: int) -> np.ndarray:
    """Dense int64 table of `poly.divisibility_row_data` for alpha over a prime field.

    Entries lie in [0, p); every product formed is below p**2, so within
    int64 for p < 2**31.
    """
    if m < 1:
        raise ValueError("multiplicity must be positive")
    if degree < 0:
        return np.zeros((0, 0), dtype=np.int64)
    p = alpha.field.p
    k = alpha.pivot()
    a = [int(c) for c in alpha.coeffs]
    pat = divisibility_pattern(alpha.ell, k, m, degree)
    vals = (pat.coeff % p).astype(np.int64)
    vals = vals * _powers_mod(pow(a[k], -1, p), degree, p)[pat.pivot_exp] % p
    others = [i for i in range(alpha.ell) if i != k]
    for j, i in enumerate(others):
        vals = vals * _powers_mod(-a[i] % p, degree, p)[pat.beta[:, j]] % p
    table = np.zeros(pat.nrows * pat.ncols, dtype=np.int64)
    table[pat.cells] = vals[pat.value_of]
    return table.reshape(pat.nrows, pat.ncols)
